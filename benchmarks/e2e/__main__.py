"""``python -m benchmarks.e2e`` (from the repo root, with ``src`` importable)."""

from .cli import main

raise SystemExit(main())
