"""Tests for the simulated runtime ledger and standard operator costs."""

import pytest

from repro.metrics.runtime import OperatorCost, RuntimeLedger, StandardCosts


class TestOperatorCost:
    def test_from_fps(self):
        cost = OperatorCost.from_fps("x", 10.0)
        assert cost.seconds_per_call == pytest.approx(0.1)

    def test_from_fps_rejects_non_positive(self):
        with pytest.raises(ValueError):
            OperatorCost.from_fps("x", 0.0)
        with pytest.raises(ValueError):
            OperatorCost.from_fps("x", -5.0)

    def test_standard_costs_match_paper_throughputs(self):
        assert StandardCosts.MASK_RCNN.seconds_per_call == pytest.approx(1 / 3)
        assert StandardCosts.YOLOV2.seconds_per_call == pytest.approx(1 / 80)
        assert StandardCosts.SPECIALIZED_NN.seconds_per_call == pytest.approx(1e-4)
        assert StandardCosts.SIMPLE_FILTER.seconds_per_call == pytest.approx(1e-5)

    def test_detection_is_much_slower_than_specialized_nn(self):
        ratio = (
            StandardCosts.MASK_RCNN.seconds_per_call
            / StandardCosts.SPECIALIZED_NN.seconds_per_call
        )
        assert ratio > 1000

    def test_all_costs_returns_every_operator(self):
        costs = StandardCosts.all_costs()
        assert "mask_rcnn" in costs
        assert "specialized_nn" in costs
        assert "simple_filter" in costs


class TestRuntimeLedger:
    def test_empty_ledger_has_zero_runtime(self):
        assert RuntimeLedger().total_seconds == 0.0

    def test_charge_accumulates(self):
        ledger = RuntimeLedger()
        ledger.charge(StandardCosts.MASK_RCNN, 3)
        ledger.charge(StandardCosts.MASK_RCNN, 2)
        assert ledger.call_count("mask_rcnn") == 5
        assert ledger.total_seconds == pytest.approx(5 / 3)

    def test_charge_returns_seconds_added(self):
        ledger = RuntimeLedger()
        added = ledger.charge(StandardCosts.SPECIALIZED_NN, 100)
        assert added == pytest.approx(0.01)

    def test_charge_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RuntimeLedger().charge(StandardCosts.MASK_RCNN, -1)

    def test_charge_seconds(self):
        ledger = RuntimeLedger()
        ledger.charge_seconds("custom", 2.5)
        assert ledger.seconds_for("custom") == pytest.approx(2.5)
        assert ledger.call_count("custom") == 1

    def test_charge_seconds_rejects_negative(self):
        with pytest.raises(ValueError):
            RuntimeLedger().charge_seconds("custom", -1.0)

    def test_breakdown_is_a_copy(self):
        ledger = RuntimeLedger()
        ledger.charge(StandardCosts.MASK_RCNN)
        breakdown = ledger.breakdown()
        breakdown["mask_rcnn"] = 0.0
        assert ledger.seconds_for("mask_rcnn") > 0.0

    def test_merge_combines_ledgers(self):
        a = RuntimeLedger()
        b = RuntimeLedger()
        a.charge(StandardCosts.MASK_RCNN, 3)
        b.charge(StandardCosts.MASK_RCNN, 2)
        b.charge(StandardCosts.SPECIALIZED_NN, 10)
        a.merge(b)
        assert a.call_count("mask_rcnn") == 5
        assert a.call_count("specialized_nn") == 10

    def test_reset_clears_everything(self):
        ledger = RuntimeLedger()
        ledger.charge(StandardCosts.MASK_RCNN, 10)
        ledger.reset()
        assert ledger.total_seconds == 0.0
        assert ledger.call_count("mask_rcnn") == 0

    def test_snapshot_is_independent(self):
        ledger = RuntimeLedger()
        ledger.charge(StandardCosts.MASK_RCNN, 1)
        snap = ledger.snapshot()
        ledger.charge(StandardCosts.MASK_RCNN, 1)
        assert snap.call_count("mask_rcnn") == 1
        assert ledger.call_count("mask_rcnn") == 2

    def test_unknown_operator_reads_as_zero(self):
        ledger = RuntimeLedger()
        assert ledger.call_count("nope") == 0
        assert ledger.seconds_for("nope") == 0.0


class TestLedgerThreadSafety:
    """Concurrency stress: no charge or cache mutation may ever be lost.

    Shard workers and the parallel driver can touch one ledger concurrently;
    ``charge``/``charge_seconds`` and the detection-cache mutators hold the
    per-ledger lock, so the totals below must be exact, not approximate.
    """

    THREADS = 8
    ITERATIONS = 2_000

    def test_concurrent_charges_lose_no_counts(self):
        import threading

        ledger = RuntimeLedger()

        def hammer():
            for _ in range(self.ITERATIONS):
                ledger.charge(StandardCosts.MASK_RCNN)
                ledger.charge_seconds("custom", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.ITERATIONS
        assert ledger.call_count("mask_rcnn") == expected
        assert ledger.call_count("custom") == expected
        assert ledger.seconds_for("mask_rcnn") == pytest.approx(
            expected * StandardCosts.MASK_RCNN.seconds_per_call
        )

    def test_concurrent_detection_cache_mutation_is_exact(self):
        import threading

        from repro.detection.base import DetectionResult
        from repro.detection.columnar import DetectionBatch
        from repro.metrics.runtime import ExecutionLedger

        ledger = ExecutionLedger()

        def hammer(worker_id: int):
            base = worker_id * self.ITERATIONS
            for i in range(self.ITERATIONS):
                frame = DetectionBatch.from_detections([DetectionResult(base + i, 0.0)])
                ledger.record_detections(frame)
                ledger.record_cache_hit()
                ledger.record_shared_hits(frame)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.ITERATIONS
        assert ledger.detector_calls == expected
        assert ledger.frames_decoded == expected
        assert ledger.detection_cache_hits == expected
        assert ledger.shared_cache_hits == expected
        assert len(ledger.seen_frames) == expected
