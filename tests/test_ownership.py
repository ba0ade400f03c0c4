"""Ownership is a tree (invariant I9): nothing points back up at its owner.

An engine owns its store, catalog, optimizer and index views; a session
owns its contexts and what it planned; a prepared query, a plan and its
decision own values.  None of them holds a reference back to an owner, so
dropping any of them frees it by reference counting alone — with the cyclic
collector off, as a long-lived service may run for a long time between
collections.  Each case runs with ``gc`` disabled, requires every weak
reference it took to be dead once its block returns, and then requires
``gc.collect()`` to find no ``repro`` object among the cyclic garbage.
"""

from __future__ import annotations

import gc
import weakref
from collections.abc import Callable

import numpy as np
import pytest

from repro.api.hints import QueryHints
from repro.core.engine import BlazeIt
from repro.specialization.count_model import CountSpecializedModel

QUERIES = {
    "aggregate": (
        "SELECT FCOUNT(*) FROM tiny WHERE class = 'car' "
        "ERROR WITHIN 0.1 AT CONFIDENCE 95%"
    ),
    "scrubbing": (
        "SELECT timestamp FROM tiny GROUP BY timestamp "
        "HAVING SUM(class='car') >= 1 LIMIT 3"
    ),
    "selection": "SELECT * FROM tiny WHERE class = 'car'",
    "exact": "SELECT * FROM tiny",
    "count_distinct": "SELECT COUNT(DISTINCT trackid) FROM tiny WHERE class = 'car'",
}

#: How each query-class case executes: sequentially, on two thread workers,
#: and traced (EXPLAIN ANALYZE).
MODES = {
    "sequential": {},
    "threads": {"parallelism": 2, "backend": "threads"},
    "traced": {"analyze": True},
}


def cyclic_garbage(block: Callable[[], list[weakref.ref]]) -> tuple[list[str], list[str]]:
    """Run ``block`` with the cyclic collector off.

    Returns the types of what ``block`` handed back weak references to and
    is still alive after it returned, and the types defined in ``repro``
    that ``gc.collect()`` then finds only in reference cycles.  The
    collector's state is restored either way.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        refs = block()
        alive = [type(obj).__qualname__ for obj in (ref() for ref in refs) if obj is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = [
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.split(".")[0] == "repro"
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return alive, garbage


def assert_tree(block: Callable[[], list[weakref.ref]]) -> None:
    alive, garbage = cyclic_garbage(block)
    assert alive == [], f"still alive after del: {alive}"
    assert garbage == [], f"left in cyclic garbage: {sorted(set(garbage))}"


@pytest.fixture()
def make_engine(tiny_video, tiny_labeled_set, detector, engine_config):
    def build(**kwargs) -> BlazeIt:
        engine = BlazeIt(detector=detector, config=engine_config, **kwargs)
        engine.register_video("tiny", test_video=tiny_video)
        engine.attach_labeled_set("tiny", tiny_labeled_set)
        return engine

    return build


@pytest.fixture(scope="module")
def shared_engine(tiny_video, tiny_labeled_set, detector, engine_config) -> BlazeIt:
    """One engine the query-class cases keep alive: each drops only its
    session, prepared query, plan and result."""
    engine = BlazeIt(detector=detector, config=engine_config)
    engine.register_video("tiny", test_video=tiny_video)
    engine.attach_labeled_set("tiny", tiny_labeled_set)
    engine.record_test_day("tiny")
    return engine


class TestDroppedEngine:
    def test_after_a_query(self, make_engine):
        def block():
            engine = make_engine()
            result = engine.query(QUERIES["aggregate"], rng=np.random.default_rng(0))
            assert result.value > 0
            return [weakref.ref(engine), weakref.ref(engine.optimizer)]

        assert_tree(block)

    def test_with_the_models_its_labeled_set_fitted(
        self, tiny_video, tiny_train_video, tiny_heldout_video, detector, engine_config
    ):
        def block():
            engine = BlazeIt(detector=detector, config=engine_config)
            engine.register_video("tiny", tiny_video, tiny_train_video, tiny_heldout_video)
            for text in (QUERIES["aggregate"], QUERIES["scrubbing"], QUERIES["selection"]):
                engine.query(text, rng=np.random.default_rng(0))
            labeled = engine.labeled_set("tiny")
            model = labeled.fitted(
                CountSpecializedModel(
                    "car", training_config=engine_config.training, seed=engine_config.seed
                )
            )
            return [weakref.ref(engine), weakref.ref(labeled), weakref.ref(model)]

        assert_tree(block)

    def test_with_an_index_after_an_index_served_query(self, make_engine, tmp_path):
        def block():
            engine = make_engine(index_dir=tmp_path)
            engine.build_index("tiny")
            session = engine.session()
            result = session.execute(QUERIES["selection"], rng=np.random.default_rng(0))
            assert result.execution_ledger.index_hits > 0
            view = session._context_for("tiny").index_view
            assert view is not None
            return [weakref.ref(engine), weakref.ref(session), weakref.ref(view)]

        assert_tree(block)


class TestQueryClasses:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_prepared_explained_executed(self, shared_engine, kind, mode):
        def block():
            session = shared_engine.session()
            prepared = session.prepare(QUERIES[kind])
            explained = prepared.explain()
            assert explained.kind == prepared.spec.kind.value
            result = prepared.execute(rng=np.random.default_rng(1), **MODES[mode])
            assert result.kind == explained.kind
            cached = session.explain(QUERIES[kind], hints=QueryHints(trace=True))
            session.execute(QUERIES[kind], hints=QueryHints(trace=True))
            return [
                weakref.ref(obj)
                for obj in (
                    session,
                    prepared,
                    prepared.plan,
                    prepared.plan.decision,
                    explained,
                    cached,
                    result,
                )
            ]

        assert_tree(block)


class TestDroppedHandles:
    def test_a_stream_abandoned_after_its_first_event(self, shared_engine):
        def block():
            session = shared_engine.session()
            prepared = session.prepare(QUERIES["exact"])
            stream = prepared.stream(rng=np.random.default_rng(2), batch_size=16)
            first = next(iter(stream))
            assert first is not None
            return [weakref.ref(stream), weakref.ref(prepared), weakref.ref(session)]

        assert_tree(block)

    def test_a_session_dropped_without_close(self, shared_engine):
        def block():
            session = shared_engine.session()
            session.execute(QUERIES["aggregate"])
            session.execute(QUERIES["aggregate"])
            assert session.stats.prepared_cache_hits == 1
            return [weakref.ref(session)]

        assert_tree(block)
