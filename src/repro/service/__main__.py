"""CLI entry point: boot a query service over a simulated-video engine.

::

    PYTHONPATH=src python -m repro.service --scenario rialto --frames 2000 \\
        --seed 7 --port 8765 --slots 4

Registers the scenario's three splits (train / held-out / test) under the
video name ``v`` — so importance-ranked scrubbing and specialized-NN plans
are fully available — and serves until interrupted.  ``--detector-latency``
adds a simulated per-frame inference latency (seconds) to the detector,
standing in for the accelerator time a real detector spends; it is what
makes concurrency visible in wall-clock terms (the pure-Python noise model
is GIL-bound).
"""

from __future__ import annotations

import argparse
import asyncio
import time
from collections.abc import Sequence

import numpy as np

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.detection.columnar import DetectionBatch
from repro.detection.simulated import SimulatedDetector
from repro.video.synthetic import SyntheticVideo
from repro.service.app import QueryServiceApp
from repro.service.manager import ServiceConfig, ServiceManager, TenantQuota


class PacedSimulatedDetector(SimulatedDetector):
    """Simulated detector with a per-frame inference latency (releases the GIL)."""

    def __init__(self, seconds_per_frame: float) -> None:
        base = SimulatedDetector.mask_rcnn()
        super().__init__(
            name=base.name,
            cost=base.cost,
            noise=base.noise,
            confidence_threshold=base.confidence_threshold,
            supported=base._supported,
            seed=base.seed,
        )
        self.seconds_per_frame = seconds_per_frame

    def detect_columns(
        self, video: SyntheticVideo, frame_indices: Sequence[int] | np.ndarray
    ) -> DetectionBatch:
        time.sleep(self.seconds_per_frame * len(frame_indices))
        return super().detect_columns(video, frame_indices)


def build_manager(args: argparse.Namespace) -> ServiceManager:
    detector = (
        PacedSimulatedDetector(args.detector_latency)
        if args.detector_latency > 0
        else SimulatedDetector.mask_rcnn()
    )
    engine = BlazeIt(detector=detector, config=BlazeItConfig(seed=args.seed))
    engine.register_scenario(args.scenario, name="v", num_frames=args.frames)
    config = ServiceConfig(
        slots=args.slots,
        max_queue_depth=args.queue_depth,
        default_quota=TenantQuota(max_detector_calls=args.default_budget),
        heartbeat_seconds=args.heartbeat,
    )
    return ServiceManager(engine, config)


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    parser.add_argument("--scenario", default="rialto", help="built-in scenario name")
    parser.add_argument("--frames", type=int, default=1000, help="frames per split")
    parser.add_argument("--seed", type=int, default=0, help="engine seed")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--slots", type=int, default=4, help="executor slots")
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument(
        "--default-budget",
        type=int,
        default=None,
        help="default tenant detector-call budget (unlimited if omitted)",
    )
    parser.add_argument(
        "--detector-latency",
        type=float,
        default=0.0,
        help="simulated per-frame detector latency in seconds",
    )
    parser.add_argument("--heartbeat", type=float, default=2.0)
    args = parser.parse_args()

    manager = build_manager(args)
    app = QueryServiceApp(manager)
    try:
        asyncio.run(app.serve(args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        manager.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
