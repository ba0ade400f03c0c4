"""Tests for the built-in evaluation scenarios (Table 3)."""

import pytest

from repro.video.scenarios import (
    SCENARIOS,
    generate_scenario,
    get_scenario,
    list_scenarios,
)


class TestScenarioRegistry:
    def test_all_six_scenarios_present(self):
        assert set(list_scenarios()) == {
            "taipei",
            "night-street",
            "rialto",
            "grand-canal",
            "amsterdam",
            "archie",
        }

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(KeyError):
            get_scenario("nonexistent")

    def test_primary_classes(self):
        assert get_scenario("taipei").primary_class == "car"
        assert get_scenario("rialto").primary_class == "boat"
        assert get_scenario("grand-canal").primary_class == "boat"

    def test_resolutions_match_table3(self):
        assert (SCENARIOS["taipei"].width, SCENARIOS["taipei"].height) == (1280, 720)
        assert (SCENARIOS["grand-canal"].width, SCENARIOS["grand-canal"].height) == (
            1920,
            1080,
        )
        assert (SCENARIOS["archie"].width, SCENARIOS["archie"].height) == (3840, 2160)

    def test_frame_rates_match_table3(self):
        assert SCENARIOS["grand-canal"].fps == 60.0
        assert SCENARIOS["taipei"].fps == 30.0

    def test_arrival_rate_is_positive(self):
        scenario = get_scenario("taipei")
        for class_spec in scenario.classes:
            assert scenario.arrival_rate(class_spec) > 0.0


class TestScenarioGeneration:
    def test_generate_scenario_length(self):
        video = generate_scenario("night-street", "test", num_frames=2000)
        assert video.num_frames == 2000

    def test_unknown_split_raises(self):
        with pytest.raises(ValueError):
            get_scenario("taipei").to_video_spec("validation", 100)

    def test_splits_differ(self):
        train = generate_scenario("amsterdam", "train", num_frames=2000)
        test = generate_scenario("amsterdam", "test", num_frames=2000)
        assert [t.start_frame for t in train.tracks] != [
            t.start_frame for t in test.tracks
        ]

    def test_generation_is_deterministic_per_split(self):
        a = generate_scenario("taipei", "test", num_frames=1500)
        b = generate_scenario("taipei", "test", num_frames=1500)
        assert len(a.tracks) == len(b.tracks)

    @pytest.mark.parametrize("name", ["taipei", "rialto", "amsterdam"])
    def test_occupancy_roughly_matches_target(self, name):
        scenario = get_scenario(name)
        video = generate_scenario(name, "test", num_frames=6000)
        for class_spec in scenario.classes:
            generated = video.occupancy(class_spec.name)
            # The burst modulation and finite length allow a generous band,
            # but the ordering of dense vs sparse scenes must be preserved.
            assert generated == pytest.approx(class_spec.occupancy, abs=0.25)

    def test_taipei_has_both_cars_and_buses(self):
        video = generate_scenario("taipei", "test", num_frames=4000)
        assert video.distinct_count("car") > 0
        assert video.distinct_count("bus") > 0

    def test_rialto_is_denser_than_night_street(self):
        rialto = generate_scenario("rialto", "test", num_frames=4000)
        night = generate_scenario("night-street", "test", num_frames=4000)
        assert rialto.occupancy("boat") > night.occupancy("car")
