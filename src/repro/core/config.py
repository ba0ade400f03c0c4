"""Engine configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.specialization.trainer import TrainingConfig


class AggregateMethod(enum.Enum):
    """Execution strategy for aggregate queries.

    ``AUTO`` follows Algorithm 1 of the paper: rewrite with the specialized NN
    when its held-out error satisfies the user's bound, otherwise fall back to
    control variates; when there is not enough training data, use plain AQP.
    The explicit values force a particular strategy: they are the type of
    ``AggregateQueryPlan(spec, method=...)``, and their values name the
    candidates ``QueryHints(force_plan=...)`` selects per query or session.
    """

    AUTO = "auto"
    SPECIALIZED_REWRITE = "specialized_rewrite"
    CONTROL_VARIATES = "control_variates"
    NAIVE_AQP = "naive_aqp"
    EXACT = "exact"


@dataclass
class BlazeItConfig:
    """Configuration of a :class:`~repro.core.engine.BlazeIt` engine.

    Engine-wide settings only.  Per-query choices are hints, not
    configuration: an aggregate strategy is forced with
    ``QueryHints(force_plan=...)`` and tracing switched on with
    ``QueryHints(trace=True)`` or ``execute(trace=...)``.

    Parameters
    ----------
    training:
        Hyper-parameters for specialized-model training.
    min_training_positives:
        Minimum number of training-day frames containing the queried class
        before specialization is attempted; below this, aggregation falls back
        to plain AQP and scrubbing to an exhaustive scan.
    include_training_time:
        Whether specialized-NN training time is charged to the query ledger
        ("BlazeIt" vs "BlazeIt (no train)" in Figure 4).
    specialized_model_type:
        Architecture used for specialized models: ``"softmax"`` (a linear
        model; fast and stable even on very small labeled sets, the default)
        or ``"mlp"`` (a small non-linear network, the closest analogue of the
        paper's tiny ResNet; used by the benchmark harness, where the labeled
        sets are large enough to train it reliably).
    parallelism:
        Default worker count for the parallel sharded execution engine: every
        query streamed or executed through a session partitions its video
        into up to this many shards, each prefetched by its own worker
        thread (``QueryHints.parallelism`` overrides per query).  ``1`` — the
        default — runs the classic single-threaded path.  Results (ledger
        accounting included) are bit-for-bit identical at every setting
        under a fixed RNG stream.
    shared_cache_bytes:
        Byte budget of the process-wide shared detection cache consulted
        before the detector is called (and before the ledger is charged), so
        repeated queries over hot videos skip detector work entirely.  ``0``
        — the default — disables the cache, keeping every execution's
        accounting independent of history.
    seed:
        Seed for all randomised decisions made by the engine.
    """

    training: TrainingConfig = field(default_factory=TrainingConfig)
    min_training_positives: int = 100
    include_training_time: bool = True
    specialized_model_type: str = "softmax"
    parallelism: int = 1
    shared_cache_bytes: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.specialized_model_type not in ("softmax", "mlp"):
            raise ConfigurationError(
                "specialized_model_type must be 'softmax' or 'mlp', got "
                f"{self.specialized_model_type!r}"
            )
        if self.min_training_positives < 0:
            raise ConfigurationError(
                f"min_training_positives must be non-negative, got "
                f"{self.min_training_positives}"
            )
        if self.parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.shared_cache_bytes < 0:
            raise ConfigurationError(
                f"shared_cache_bytes must be non-negative, got "
                f"{self.shared_cache_bytes}"
            )
