"""Server side of the ``wire_served`` workload.

The stock ``python -m repro.service`` cannot attach an index directory, so
this boots the same ``QueryServiceApp`` over an index-served engine::

    python -m e2e.serve --index-dir DIR --seed S --slots 2 [--dump spans.json]

It prints the stock "listening on" banner, serves until SIGTERM/SIGINT, and —
when ``--dump`` is given — runs with the layer wrappers installed from boot and
writes the span dump on the way out (server spans carry the query id as op).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from pathlib import Path

from repro.core.config import BlazeItConfig
from repro.core.engine import BlazeIt
from repro.service.app import QueryServiceApp
from repro.service.manager import ServiceConfig, ServiceManager

from .layers import Recorder, install
from .ops import SCENARIO, SPARSE, generate_videos


def build_manager(index_dir: Path, seed: int, slots: int) -> ServiceManager:
    videos = generate_videos()
    engine = BlazeIt(config=BlazeItConfig(seed=seed), index_dir=index_dir)
    engine.register_video(SCENARIO, videos.test, videos.train, videos.heldout)
    engine.register_video(SPARSE, videos.sparse)
    return ServiceManager(
        engine, ServiceConfig(slots=slots, max_queue_depth=16, heartbeat_seconds=1.0)
    )


async def serve(app: QueryServiceApp) -> None:
    task = asyncio.ensure_future(app.serve("127.0.0.1", 0))
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, task.cancel)
    try:
        await task
    except asyncio.CancelledError:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slots", type=int, default=2)
    parser.add_argument("--dump", type=Path, default=None)
    args = parser.parse_args()

    recorder = Recorder() if args.dump is not None else None
    restore = install(recorder) if recorder is not None else None
    manager = None
    try:
        if recorder is not None:
            recorder.default_op = "setup"
        manager = build_manager(args.index_dir, args.seed, args.slots)
        if recorder is not None:
            recorder.default_op = None
        asyncio.run(serve(QueryServiceApp(manager)))
    finally:
        if manager is not None:
            manager.shutdown()
        if restore is not None:
            restore()
        if recorder is not None:
            args.dump.write_text(json.dumps(recorder.dump()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
