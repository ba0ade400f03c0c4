"""Evaluation workloads: the queries of Section 10 as FrameQL strings."""

from repro.workloads.queries import (
    AGGREGATE_VIDEOS,
    SCRUBBING_QUERIES,
    ScrubbingWorkload,
    aggregate_query,
    multiclass_scrubbing_query,
    red_bus_selection_query,
    scrubbing_query,
)

__all__ = [
    "AGGREGATE_VIDEOS",
    "SCRUBBING_QUERIES",
    "ScrubbingWorkload",
    "aggregate_query",
    "scrubbing_query",
    "multiclass_scrubbing_query",
    "red_bus_selection_query",
]
