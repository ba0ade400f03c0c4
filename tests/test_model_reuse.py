"""A labeled set fits each specialized model once (``LabeledSet.fitted``).

Every query that trains on a labeled set asks it for the fitted model: the
rewrite and control-variate count model, the scrubbing plan's per-class
heads and the selection plan's presence filter.  A later execution gets the
model the first one fitted, and its ledger is charged the fit's training
calls all the same, so its result, ledger and fingerprint are those of a
fresh engine.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.metrics.runtime import RuntimeLedger
from repro.service.protocol import result_fingerprint
from repro.specialization import binary_model, count_model
from repro.specialization.binary_model import BinaryPresenceModel
from repro.specialization.count_model import CountSpecializedModel
from repro.specialization.multiclass import MultiClassCountModel
from repro.specialization.trainer import TrainingConfig

AGGREGATE = (
    "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%"
)

#: One query per training site, forced onto the plan that trains there.
SITES = {
    "rewrite": (AGGREGATE, "specialized_rewrite"),
    "control_variates": (AGGREGATE, "control_variates"),
    "scrubbing": (
        "SELECT timestamp FROM tiny GROUP BY timestamp "
        "HAVING SUM(class='car') >= 1 AND SUM(class='bus') >= 1 LIMIT 5 GAP 10",
        "importance",
    ),
    "selection": ("SELECT * FROM tiny WHERE class = 'bus'", None),
}


@pytest.fixture()
def make_engine(tiny_video, tiny_train_video, tiny_heldout_video, detector, engine_config):
    """A fresh engine over the tiny video, with a labeled set of its own."""

    def build() -> BlazeIt:
        engine = BlazeIt(detector=detector, config=engine_config)
        engine.register_video(
            "tiny",
            test_video=tiny_video,
            train_video=tiny_train_video,
            heldout_video=tiny_heldout_video,
        )
        return engine

    return build


@pytest.fixture()
def train_calls(monkeypatch):
    """How many times ``train_classifier`` ran since the last reset."""
    calls = []
    for module in (count_model, binary_model):
        original = module.train_classifier

        def spy(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "train_classifier", spy)
    return calls


def execute(engine: BlazeIt, site: str, seed: int = 0):
    text, forced = SITES[site]
    with engine.session() as session:
        prepared = session.prepare(text, hints=QueryHints(force_plan=forced))
        return prepared.execute(rng=np.random.default_rng(seed))


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_second_execution_trains_nothing(site, make_engine, train_calls):
    engine = make_engine()
    first = execute(engine, site)
    assert len(train_calls) > 0
    assert first.execution_ledger.call_count("specialized_nn_train") > 0
    train_calls.clear()
    second = execute(engine, site)
    assert train_calls == []
    assert second.execution_ledger == first.execution_ledger


@pytest.mark.parametrize("site", sorted(SITES))
def test_miss_hit_and_fresh_engine_agree(site, make_engine):
    engine = make_engine()
    miss = execute(engine, site)
    hit = execute(engine, site)
    fresh = execute(make_engine(), site)
    assert miss.execution_ledger.call_count("specialized_nn_train") > 0
    for result in (hit, fresh):
        assert result.execution_ledger == miss.execution_ledger
        assert result_fingerprint(result) == result_fingerprint(miss)


@pytest.mark.parametrize("site", sorted(SITES))
def test_concurrent_executions_agree(site, make_engine):
    """More threads than cores race for one configuration's first fit: all
    may train, and every one gets a fresh engine's result."""
    expected = result_fingerprint(execute(make_engine(), site))
    engine = make_engine()
    workers = 4
    start = threading.Barrier(workers)
    fingerprints: list[str] = []
    errors: list[BaseException] = []

    def run() -> None:
        try:
            start.wait(10.0)
            fingerprints.append(result_fingerprint(execute(engine, site)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert fingerprints == [expected] * workers


class TestFittedModels:
    CONFIG = TrainingConfig(epochs=3, batch_size=32, min_examples=16)

    def count(self, object_class="car", **kwargs) -> CountSpecializedModel:
        kwargs.setdefault("training_config", self.CONFIG)
        return CountSpecializedModel(object_class, **kwargs)

    def test_a_fitted_model_is_the_model_a_fresh_fit_returns(self, tiny_labeled_set):
        reused = tiny_labeled_set.fitted(self.count(seed=11))
        assert tiny_labeled_set.fitted(self.count(seed=11)) is reused
        fresh = self.count(seed=11).fit(
            tiny_labeled_set.train_features, tiny_labeled_set.train_counts("car")
        )
        features = tiny_labeled_set.heldout_features
        assert np.array_equal(reused.predict_proba(features), fresh.predict_proba(features))
        assert reused.training_losses == fresh.training_losses

    def test_every_request_replays_the_fit_charges(self, tiny_labeled_set):
        direct = RuntimeLedger()
        self.count(seed=12).fit(
            tiny_labeled_set.train_features, tiny_labeled_set.train_counts("car"), direct
        )
        for _ in range(2):
            replayed = RuntimeLedger()
            tiny_labeled_set.fitted(self.count(seed=12), replayed)
            assert replayed == direct

    @pytest.mark.parametrize(
        "other",
        [
            {"seed": 14},
            {"training_config": TrainingConfig(epochs=2, batch_size=32, min_examples=16)},
            {"model_type": "softmax"},
            {"hidden_size": 8},
            {"object_class": "bus"},
        ],
        ids=["seed", "training_config", "model_type", "hidden_size", "class"],
    )
    def test_each_configuration_gets_its_own_entry(self, tiny_labeled_set, other):
        settings = {"seed": 13, "model_type": "mlp"}
        base = tiny_labeled_set.fitted(self.count(**settings))
        changed = tiny_labeled_set.fitted(self.count(**{**settings, **other}))
        assert changed is not base
        assert tiny_labeled_set.fitted(self.count(**{**settings, **other})) is changed
        assert tiny_labeled_set.fitted(self.count(**settings)) is base

    def test_a_presence_model_is_not_a_count_model(self, tiny_labeled_set):
        presence = tiny_labeled_set.fitted(
            BinaryPresenceModel("car", training_config=self.CONFIG, seed=15)
        )
        assert isinstance(presence, BinaryPresenceModel)
        assert isinstance(tiny_labeled_set.fitted(self.count(seed=15)), CountSpecializedModel)

    def test_the_first_scrubbing_head_is_the_aggregate_count_model(self, tiny_labeled_set):
        heads = MultiClassCountModel(
            ["bus", "car"], training_config=self.CONFIG, seed=16
        ).fit_heads(tiny_labeled_set.fitted)
        assert heads.head("bus") is tiny_labeled_set.fitted(self.count("bus", seed=16))
        assert heads.head("car") is tiny_labeled_set.fitted(self.count("car", seed=17))


def test_engines_sharing_a_labeled_set_share_matching_models(
    tiny_video, tiny_labeled_set, detector, engine_config, train_calls
):
    """Engines sharing one labeled set share its models only where the
    configurations match."""
    reseeded = BlazeItConfig(
        training=engine_config.training,
        min_training_positives=engine_config.min_training_positives,
        seed=engine_config.seed + 100,
    )
    engines = [
        BlazeIt(detector=detector, config=config)
        for config in (engine_config, engine_config, reseeded)
    ]
    for engine in engines:
        engine.register_video("tiny", test_video=tiny_video)
        engine.attach_labeled_set("tiny", tiny_labeled_set)
    execute(engines[0], "rewrite")
    train_calls.clear()
    execute(engines[1], "rewrite")
    assert train_calls == []
    execute(engines[2], "rewrite")
    assert len(train_calls) == 1
