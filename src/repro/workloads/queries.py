"""The evaluation queries of Section 10, expressed as FrameQL strings.

The aggregate queries follow Figure 3a with the video and object class
changed; the scrubbing queries follow Figure 3b with the thresholds of
Table 6; the selection query is Figure 3c (red buses in ``taipei``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Video -> primary object class for the aggregate experiments (Figure 4 uses
#: the five videos for which query rewriting meets the accuracy target;
#: ``archie`` is included for the control-variates experiment of Figure 5).
AGGREGATE_VIDEOS: dict[str, str] = {
    "taipei": "car",
    "night-street": "car",
    "rialto": "boat",
    "grand-canal": "boat",
    "amsterdam": "car",
    "archie": "car",
}


@dataclass(frozen=True)
class ScrubbingWorkload:
    """One scrubbing query of Table 6: find frames with >= ``min_count`` objects."""

    video: str
    object_class: str
    min_count: int


#: The single-class scrubbing queries of Table 6.  The paper's thresholds are
#: chosen so each query has a few tens of instances in its (33-hour) test day;
#: the scaled-down synthetic days keep the events rare by using thresholds
#: near each scenario's maximum simultaneous count.
SCRUBBING_QUERIES: dict[str, ScrubbingWorkload] = {
    "taipei": ScrubbingWorkload("taipei", "car", 6),
    "night-street": ScrubbingWorkload("night-street", "car", 5),
    "rialto": ScrubbingWorkload("rialto", "boat", 7),
    "grand-canal": ScrubbingWorkload("grand-canal", "boat", 5),
    "amsterdam": ScrubbingWorkload("amsterdam", "car", 4),
    "archie": ScrubbingWorkload("archie", "car", 4),
}


def aggregate_query(
    video: str,
    object_class: str,
    error: float = 0.1,
    confidence: float = 0.95,
) -> str:
    """Figure 3a: frame-averaged count with an error bound."""
    return (
        f"SELECT FCOUNT(*) FROM {video} "
        f"WHERE class = '{object_class}' "
        f"ERROR WITHIN {error} "
        f"AT CONFIDENCE {confidence * 100:g}%"
    )


def scrubbing_query(
    video: str,
    object_class: str,
    min_count: int,
    limit: int = 10,
    gap: int = 300,
) -> str:
    """Figure 3b restricted to one class: frames with at least N objects."""
    return (
        f"SELECT timestamp FROM {video} "
        f"GROUP BY timestamp "
        f"HAVING SUM(class='{object_class}') >= {min_count} "
        f"LIMIT {limit} GAP {gap}"
    )


def multiclass_scrubbing_query(
    video: str,
    min_counts: dict[str, int],
    limit: int = 10,
    gap: int = 300,
) -> str:
    """Figure 3b: frames satisfying a conjunction of per-class count thresholds."""
    having = " AND ".join(
        f"SUM(class='{object_class}') >= {min_count}"
        for object_class, min_count in sorted(min_counts.items())
    )
    return (
        f"SELECT timestamp FROM {video} "
        f"GROUP BY timestamp "
        f"HAVING {having} "
        f"LIMIT {limit} GAP {gap}"
    )


def red_bus_selection_query(
    video: str = "taipei",
    redness_threshold: float = 17.5,
    min_area: float = 100000,
    min_frames: int = 15,
) -> str:
    """Figure 3c: red buses at least ``min_area`` pixels large, visible >= 0.5s."""
    return (
        f"SELECT * FROM {video} "
        f"WHERE class = 'bus' "
        f"AND redness(content) >= {redness_threshold} "
        f"AND area(mask) > {min_area} "
        f"GROUP BY trackid "
        f"HAVING COUNT(*) > {min_frames}"
    )


