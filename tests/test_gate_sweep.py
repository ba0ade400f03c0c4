"""The rewrite gate's coverage sweep, at its smoke size.

``benchmarks/gate_sweep.py`` runs 200 independent (day, engine) pairs at
3,000, 18,000 and 54,000 frames in its own CI job.  Here 40 pairs run at
3,000 frames, the length where the i.i.d. bootstrap gate missed most often
(about 10 s).  This size sees that gate: over these 40 pairs it rewrote 8
times and missed 3 (p = 0.006), where the first 20 pairs alone show 1 miss
in 3 rewrites (p = 0.14) and pass.  At that length the gate refuses every
pair, so one 54,000-frame pair (about 5 s) checks that it still rewrites
where the held-out day bounds the error well below the tolerance.  The
sweep's checks are also held to planted records.
"""

from __future__ import annotations

from benchmarks.gate_sweep import TOLERANCE, Coverage, run_pair, sweep


def test_smoke_sweep_passes_and_every_answer_carries_its_bound():
    coverage, trials = sweep(frames=3000, pairs=40)
    assert coverage.failures() == []
    for trial in trials:
        assert trial.method in ("specialized_rewrite", "control_variates")
        assert trial.half_width > 0.0
        if trial.rewrote:
            # The rewrite reports the bound it passed.
            assert trial.half_width < TOLERANCE


def test_a_long_day_with_a_tight_bound_is_rewritten():
    # Pair 0's held-out bound is about 0.06 at 54,000 frames, well under the
    # tolerance; a gate that switched Algorithm 1 off would refuse it.
    trial = run_pair(0, 54000)
    assert trial.rewrote
    assert 0.0 < trial.half_width < TOLERANCE
    assert not trial.missed


def test_too_many_misses_fail_the_binomial_check():
    # The i.i.d. bootstrap gate's record at 18,000 frames; its rewrites
    # reported a half-width of 0, so none was covered.
    bootstrap = Coverage(frames=18000, pairs=200, rewrites=160, misses=19, uncovered=160)
    failures = bootstrap.failures()
    # Coverage is reported with its own p-value but does not fail the sweep.
    assert len(failures) == 1 and "19/160" in failures[0]
    assert bootstrap.coverage_p_value < bootstrap.p_value < 0.05
    passing = Coverage(frames=18000, pairs=200, rewrites=160, misses=8, uncovered=8)
    assert passing.failures() == []


def test_a_gate_that_never_rewrites_fails_the_floor():
    assert Coverage(frames=3000, pairs=200, rewrites=0, misses=0, uncovered=0).failures() == []
    failures = Coverage(frames=54000, pairs=200, rewrites=130, misses=0, uncovered=0).failures()
    assert len(failures) == 1 and "below 0.70" in failures[0]
    assert Coverage(frames=54000, pairs=200, rewrites=150, misses=0, uncovered=0).failures() == []
