"""Typed execution hints for FrameQL queries.

``QueryHints`` replaces the loose ``scrubbing_indexed`` /
``selection_filter_classes`` keyword arguments that used to leak through
``BlazeIt.query``: a single frozen dataclass travels from the public API
through the optimizer into the chosen physical plan, so every layer sees the
same, validated hint set and new hints need only be added in one place.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigurationError, require_positive_int
from repro.stopping import NO_STOP, StopConditions

__all__ = [
    "QueryHints",
    "NO_HINTS",
    "StopConditions",
    "NO_STOP",
    "VALID_BACKENDS",
    "VALID_FILTER_CLASSES",
    "require_hints",
]

#: Filter classes a selection plan knows how to infer (Section 8).
VALID_FILTER_CLASSES = frozenset({"spatial", "temporal", "content", "label"})

#: Worker substrates the parallel engine offers (see ``QueryHints.backend``).
VALID_BACKENDS = frozenset({"threads", "processes"})


@dataclass(frozen=True)
class QueryHints:
    """Optimizer hints attached to a prepared query.

    Parameters
    ----------
    scrubbing_indexed:
        Execute scrubbing queries in the pre-indexed mode: the specialized
        NN's training and inference are assumed already paid for (for example
        by a previous aggregate query over the same video), so neither is
        charged to this query.  Reproduces the "BlazeIt (indexed)" variant of
        Figure 6.
    selection_filter_classes:
        Restrict selection plans to a subset of filter classes (any of
        ``"spatial"``, ``"temporal"``, ``"content"``, ``"label"``).  ``None``
        (the default) lets the optimizer infer every applicable filter; an
        empty set disables filtering entirely.  Used by the factor-analysis
        and lesion-study benchmarks of Figure 11.
    stop_conditions:
        Default :class:`~repro.core.events.StopConditions` applied to every
        execution of queries prepared with these hints (``limit`` for
        scrubbing/selection, ``ci_width`` / ``max_detector_calls`` for
        aggregates and scans).  An explicit ``stop=`` argument to
        ``stream()``/``execute()`` overrides them per execution.
    batch_size:
        Chunk size of the vectorized execution pipeline: how many candidate
        frames a plan pulls (and scores / verifies with one batched call)
        between control checks and progress events.  ``None`` uses the
        engine default (:data:`~repro.core.events.DEFAULT_BATCH_SIZE`).
        Results are identical for every batch size; chunking only affects
        how eagerly early-stop conditions are honoured (see the README's
        "Performance" notes).  An explicit ``batch_size=`` argument to
        ``stream()`` overrides it per execution.
    parallelism:
        Worker count for the parallel sharded execution engine: the video is
        partitioned into up to this many contiguous shards, each prefetched
        by its own worker thread while the plan streams on the driver.
        ``None`` (the default) falls back to the engine configuration's
        ``parallelism``; ``1`` forces the classic single-threaded path.
        Results — ledger accounting included — are bit-for-bit identical at
        every setting under a fixed RNG stream; parallelism only changes
        wall-clock time.
    backend:
        Restrict the parallel engine to one worker substrate: ``"threads"``
        (shared-memory prefetch workers, right whenever the detector releases
        the GIL during its latency) or ``"processes"`` (spawned workers with
        shared-memory columnar transport, right for GIL-bound detectors).
        ``None`` (the default) lets the optimizer's parallelism model pick —
        or threads, wherever the model is not consulted.  The hint does not
        itself enable parallelism; it shapes what routed or explicit
        parallelism runs on.  Results are backend-independent, bit for bit.
    force_plan:
        Bypass cost-based selection and pick the named physical candidate
        outright (the escape hatch for benchmarks and expert users).
        Candidate names per query class: aggregates with an error tolerance
        offer ``"auto"``, ``"exact"``, ``"naive_aqp"`` and — given enough
        training data — ``"specialized_rewrite"`` / ``"control_variates"``;
        scrubbing offers ``"importance"`` / ``"exhaustive"``; selection
        offers ``"filtered"`` / ``"exhaustive"``; everything else only
        ``"exhaustive"``.  Naming an ineligible candidate raises
        :class:`~repro.errors.PlanningError` at plan time.
    use_index:
        Whether the persistent ingest-time index (see ``BlazeIt(index_dir=
        ...)``) may serve this query's detections.  ``None`` (the default)
        uses the index whenever the engine has one committed for the video;
        ``False`` detaches it for this query — detections are recomputed
        (or cache-served) and the optimizer prices candidates without the
        index — the A/B knob for benchmarks and debugging.  ``True`` states
        intent explicitly but adds nothing over the default: a missing index
        is never an error, the query just runs index-less.  Results are
        identical either way; the index only changes where detections come
        from.
    trace:
        Span tracing for executions of this prepared query.  ``True`` enables
        the tracer (spans for parse/optimize/execute/per-operator/per-shard
        workers; the terminal result carries an
        :class:`~repro.obs.profile.ExecutionProfile`); ``None`` (the default)
        and ``False`` leave it off.  A per-call ``execute(trace=...)``
        overrides the hint and ``execute(analyze=True)`` always traces.
        Tracing never changes results — spans record wall time for display
        only.
    """

    scrubbing_indexed: bool = False
    selection_filter_classes: frozenset[str] | None = None
    stop_conditions: StopConditions | None = None
    batch_size: int | None = None
    parallelism: int | None = None
    backend: str | None = None
    force_plan: str | None = None
    use_index: bool | None = None
    trace: bool | None = None

    def __post_init__(self) -> None:
        if self.stop_conditions is not None and not isinstance(
            self.stop_conditions, StopConditions
        ):
            raise ConfigurationError(
                "stop_conditions must be a StopConditions instance or None, "
                f"got {self.stop_conditions!r}"
            )
        if self.batch_size is not None:
            require_positive_int("batch_size", self.batch_size)
        if self.parallelism is not None:
            require_positive_int("parallelism", self.parallelism)
        if self.backend is not None and self.backend not in VALID_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {sorted(VALID_BACKENDS)} or None, got "
                f"{self.backend!r}"
            )
        if self.force_plan is not None and (
            not isinstance(self.force_plan, str) or not self.force_plan
        ):
            raise ConfigurationError(
                f"force_plan must be a non-empty candidate name or None, got "
                f"{self.force_plan!r}"
            )
        if self.use_index is not None and not isinstance(self.use_index, bool):
            raise ConfigurationError(
                f"use_index must be True, False or None, got {self.use_index!r}"
            )
        if self.trace is not None and not isinstance(self.trace, bool):
            raise ConfigurationError(
                f"trace must be True, False or None, got {self.trace!r}"
            )
        classes = self.selection_filter_classes
        if classes is not None:
            if isinstance(classes, str) or not isinstance(classes, Iterable):
                raise ConfigurationError(
                    "selection_filter_classes must be an iterable of filter-class "
                    f"names or None, got {classes!r}"
                )
            normalized = frozenset(classes)
            unknown = normalized - VALID_FILTER_CLASSES
            if unknown:
                raise ConfigurationError(
                    f"unknown selection filter classes {sorted(unknown)}; valid "
                    f"classes are {sorted(VALID_FILTER_CLASSES)}"
                )
            object.__setattr__(self, "selection_filter_classes", normalized)

    @property
    def enabled_filter_classes(self) -> set[str] | None:
        """The filter-class restriction in the form the selection plan expects."""
        if self.selection_filter_classes is None:
            return None
        return set(self.selection_filter_classes)

    def describe(self) -> str:
        """Compact human-readable form, used by plan explanations."""
        parts = []
        if self.scrubbing_indexed:
            parts.append("scrubbing_indexed")
        if self.selection_filter_classes is not None:
            parts.append(
                "selection_filter_classes="
                f"{{{', '.join(sorted(self.selection_filter_classes))}}}"
            )
        if self.stop_conditions is not None and not self.stop_conditions.is_noop:
            parts.append(f"stop({self.stop_conditions.describe()})")
        if self.batch_size is not None:
            parts.append(f"batch_size={self.batch_size}")
        if self.parallelism is not None:
            parts.append(f"parallelism={self.parallelism}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.force_plan is not None:
            parts.append(f"force_plan={self.force_plan}")
        if self.use_index is not None:
            parts.append(f"use_index={self.use_index}")
        if self.trace is not None:
            parts.append(f"trace={self.trace}")
        return ", ".join(parts) if parts else "none"


#: The hint set meaning "no hints": shared default for every layer.
NO_HINTS = QueryHints()


def require_hints(hints: object) -> QueryHints | None:
    """Check that ``hints`` is a :class:`QueryHints` (or ``None``).

    Catches legacy positional calls such as ``plan(spec, True)`` (whose
    second parameter used to be ``scrubbing_indexed``) with a pointed error
    instead of a confusing failure deep inside plan construction.
    """
    if hints is None or isinstance(hints, QueryHints):
        return hints
    raise TypeError(
        f"hints must be a QueryHints instance or None, got {hints!r}; the old "
        "positional scrubbing_indexed/selection_filter_classes arguments were "
        "removed — pass hints=QueryHints(...) instead"
    )
