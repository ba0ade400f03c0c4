"""Coverage of Algorithm 1's rewrite gate over many independent days.

The gate rewrites an aggregate with the specialized NN only when its
held-out error bound is within ``ERROR WITHIN eps AT CONFIDENCE c``.  A
rewrite *misses* when its answer on the test day is further than ``eps``
from the exact answer (the detector's count over every test frame).  An
honest gate misses in at most ``1 - c`` of the rewrites it takes.

One pair is one (day, engine) seed pair: ``rialto`` is generated with
``base_seed = 1000 + i`` (its train, held-out and test days all move) and
queried on an engine seeded ``i % 2``, through the session API with the
adaptive plan.  Every pair is an independent trial, so the number of misses
is binomial; the check fails when it is significantly above ``1 - c``
(one-sided, :data:`SIGNIFICANCE`).  A gate that refuses everything passes
that test, so :data:`REWRITE_FLOOR` also states how often the rewrite must
fire at the lengths where it should.

Each line also reports how often a rewrite's ``half_width`` (the bound it
passed) failed to cover its test-day error, with the same binomial test.
That one is reported, not checked: the bound is the gate's statistic, not
a calibrated interval (see ``batch_means_error_bound``).

Run the full sweep (:data:`PAIRS` pairs per length; about 30 minutes in one
process on a 2-core host, two thirds of it at 54,000 frames; exits 1 when a
check fails)::

    PYTHONPATH=src python benchmarks/gate_sweep.py --frames 3000 18000 54000

``tests/test_gate_sweep.py`` runs a 40-pair smoke size at 3,000 frames and
one 54,000-frame pair that must rewrite.  The gate's block length was chosen
looking at these days; the README also reports days it was not chosen on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from scipy import stats

from repro import BlazeIt, BlazeItConfig
from repro.core.recorded import RecordedDetections
from repro.video.scenarios import SCENARIOS
from repro.video.synthetic import SyntheticVideo

SCENARIO = "rialto"
OBJECT_CLASS = "boat"
TOLERANCE = 0.1
CONFIDENCE = 0.95
QUERY = (
    f"SELECT FCOUNT(*) FROM {SCENARIO} WHERE class = '{OBJECT_CLASS}' "
    f"ERROR WITHIN {TOLERANCE} AT CONFIDENCE {CONFIDENCE:.0%}"
)
FIRST_DAY = 1000
PAIRS = 200

#: One-sided level of the binomial test on the miss count.
SIGNIFICANCE = 0.05

#: Least rewrite rate per day length: above it the gate has not switched
#: Algorithm 1 off where the held-out day is long enough to bound the error.
#: A calibrated gate rewrites about three days in four at 54,000 frames.
REWRITE_FLOOR = {54_000: 0.7}


@dataclass(frozen=True)
class Trial:
    """One (day, engine) pair's adaptive answer against the exact one."""

    day_seed: int
    engine_seed: int
    method: str
    value: float
    half_width: float
    truth: float

    @property
    def rewrote(self) -> bool:
        return self.method == "specialized_rewrite"

    @property
    def missed(self) -> bool:
        return self.rewrote and abs(self.value - self.truth) > TOLERANCE

    @property
    def uncovered(self) -> bool:
        """A rewrite whose test-day error exceeds the bound it reported."""
        return self.rewrote and abs(self.value - self.truth) > self.half_width


def run_pair(index: int, frames: int) -> Trial:
    """Generate one pair's three days and answer the query adaptively."""
    day_seed, engine_seed = FIRST_DAY + index, index % 2
    scenario = dataclasses.replace(SCENARIOS[SCENARIO], base_seed=day_seed)
    train, heldout, test = (
        SyntheticVideo.generate(scenario.to_video_spec(split, frames))
        for split in ("train", "heldout", "test")
    )
    engine = BlazeIt(config=BlazeItConfig(seed=engine_seed))
    engine.register_video(SCENARIO, test, train_video=train, heldout_video=heldout)
    with engine.session() as session:
        result = session.execute(QUERY)
    recorded = RecordedDetections.build(test, engine.detector_for(SCENARIO))
    return Trial(
        day_seed=day_seed,
        engine_seed=engine_seed,
        method=result.method,
        value=float(result.value),
        half_width=float(result.half_width),
        truth=float(recorded.counts(OBJECT_CLASS).mean()),
    )


@dataclass(frozen=True)
class Coverage:
    """The gate's record over one day length."""

    frames: int
    pairs: int
    rewrites: int
    misses: int
    uncovered: int

    @property
    def rewrite_rate(self) -> float:
        return self.rewrites / self.pairs

    @property
    def miss_rate(self) -> float:
        return self.misses / self.rewrites if self.rewrites else 0.0

    @property
    def p_value(self) -> float:
        """P(at least this many misses) if the gate missed at ``1 - c``."""
        return _binomial_p(self.misses, self.rewrites)

    @property
    def coverage_p_value(self) -> float:
        """The same test for the rewrites' reported half-widths."""
        return _binomial_p(self.uncovered, self.rewrites)

    def failures(self) -> list[str]:
        """What this length's record violates (empty when it passes)."""
        found = []
        if self.p_value < SIGNIFICANCE:
            found.append(
                f"{self.frames} frames: {self.misses}/{self.rewrites} rewrites "
                f"missed the tolerance (p={self.p_value:.2g} against "
                f"{1.0 - CONFIDENCE:.2f})"
            )
        floor = REWRITE_FLOOR.get(self.frames)
        if floor is not None and self.rewrite_rate < floor:
            found.append(
                f"{self.frames} frames: rewrote {self.rewrite_rate:.2f} of "
                f"pairs, below {floor:.2f}"
            )
        return found


def sweep(frames: int, pairs: int) -> tuple[Coverage, list[Trial]]:
    """Run ``pairs`` independent pairs at one day length."""
    trials = [run_pair(index, frames) for index in range(pairs)]
    coverage = Coverage(
        frames=frames,
        pairs=pairs,
        rewrites=sum(trial.rewrote for trial in trials),
        misses=sum(trial.missed for trial in trials),
        uncovered=sum(trial.uncovered for trial in trials),
    )
    return coverage, trials


def _binomial_p(failed: int, tried: int) -> float:
    """P(at least ``failed`` of ``tried``) at a failure rate of ``1 - c``."""
    return float(stats.binom.sf(failed - 1, tried, 1.0 - CONFIDENCE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, nargs="+", default=[3000, 18000, 54000])
    args = parser.parse_args(argv)
    failures = []
    for frames in args.frames:
        coverage, trials = sweep(frames, PAIRS)
        failures += coverage.failures()
        print(
            json.dumps(
                {
                    "frames": frames,
                    "pairs": coverage.pairs,
                    "rewrites": coverage.rewrites,
                    "rewrite_rate": round(coverage.rewrite_rate, 3),
                    "misses": coverage.misses,
                    "miss_rate": round(coverage.miss_rate, 3),
                    "p_value": round(coverage.p_value, 4),
                    "uncovered": coverage.uncovered,
                    "coverage_p_value": round(coverage.coverage_p_value, 4),
                    "missed": [[t.day_seed, t.engine_seed] for t in trials if t.missed],
                }
            ),
            flush=True,
        )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
