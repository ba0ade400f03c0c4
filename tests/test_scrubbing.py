"""Tests for the scrubbing substrate (importance ranking and baselines)."""

import numpy as np
import pytest

from repro.scrubbing.baselines import (
    noscope_oracle_scrub,
    sequential_scrub,
)
from repro.scrubbing.importance import importance_scrub, scrub_ordered


class TestScrubOrdered:
    def test_returns_first_matching_frames(self):
        matches = {3, 7, 9}
        result = scrub_ordered(
            range(20), verify_fn=lambda f: f in matches, limit=2
        )
        assert result.frames == [3, 7]
        assert result.satisfied
        assert result.detection_calls == 8  # frames 0..7

    def test_limit_larger_than_matches(self):
        matches = {5}
        result = scrub_ordered(range(10), lambda f: f in matches, limit=3)
        assert result.frames == [5]
        assert not result.satisfied
        assert result.detection_calls == 10

    def test_gap_enforced(self):
        matches = set(range(100))
        result = scrub_ordered(range(100), lambda f: f in matches, limit=3, gap=10)
        assert result.frames == [0, 10, 20]

    def test_gap_skips_candidates_without_detection(self):
        matches = set(range(100))
        result = scrub_ordered(range(100), lambda f: f in matches, limit=2, gap=50)
        # Frames 1..49 are skipped by the gap check before any detector call.
        assert result.detection_calls == 2

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            scrub_ordered(range(5), lambda f: True, limit=0)


class TestImportanceScrub:
    def test_perfect_scores_need_minimal_detections(self):
        matches = {42, 77, 93}
        scores = np.zeros(100)
        for frame in matches:
            scores[frame] = 1.0
        result = importance_scrub(scores, lambda f: f in matches, limit=3)
        assert set(result.frames) == matches
        assert result.detection_calls == 3

    def test_imperfect_scores_still_find_events(self):
        rng = np.random.default_rng(0)
        matches = set(rng.choice(1000, size=5, replace=False).tolist())
        scores = rng.uniform(0.0, 0.4, size=1000)
        for frame in matches:
            scores[frame] = rng.uniform(0.5, 1.0)
        result = importance_scrub(scores, lambda f: f in matches, limit=5)
        assert set(result.frames) == matches
        assert result.detection_calls < 1000

    def test_useless_scores_degrade_to_full_scan(self):
        scores = np.zeros(50)
        matches = {49}
        result = importance_scrub(scores, lambda f: f in matches, limit=1)
        assert result.frames == [49]
        assert result.detection_calls == 50

    def test_returns_only_true_positives(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=200)
        matches = {10, 20}
        result = importance_scrub(scores, lambda f: f in matches, limit=2)
        assert set(result.frames) <= matches


class TestBaselines:
    def test_sequential_scans_in_order(self):
        matches = {100, 150}
        result = sequential_scrub(200, lambda f: f in matches, limit=1)
        assert result.frames == [100]
        assert result.detection_calls == 101

    def test_noscope_oracle_restricts_candidates(self):
        presence = np.zeros(100, dtype=bool)
        presence[40:60] = True
        matches = {45, 55}
        result = noscope_oracle_scrub(presence, lambda f: f in matches, limit=2)
        assert set(result.frames) == matches
        assert result.detection_calls <= 20

    def test_noscope_oracle_with_empty_presence(self):
        presence = np.zeros(50, dtype=bool)
        result = noscope_oracle_scrub(presence, lambda f: True, limit=1)
        assert result.frames == []
        assert not result.satisfied

    def test_importance_beats_sequential_on_rare_tail_events(self):
        """The core Figure 6 phenomenon: biased search finds rare events faster."""
        num_frames = 5000
        rng = np.random.default_rng(2)
        matches = set(range(num_frames - 20, num_frames))  # rare and late
        scores = rng.uniform(0.0, 0.5, size=num_frames)
        for frame in matches:
            scores[frame] = rng.uniform(0.8, 1.0)
        sequential = sequential_scrub(num_frames, lambda f: f in matches, limit=10)
        importance = importance_scrub(scores, lambda f: f in matches, limit=10)
        assert importance.detection_calls < sequential.detection_calls / 50
