"""Source rules: what the package structure alone cannot enforce.

Results must be a pure function of (seed, query), every detector call must
be charged to the ledger, artifacts reach disk only through
:mod:`repro.persist`, and trace values stay display-only.  Each rule below
is a set of banned forms plus the modules allowed to use them, with the
reason.  The rules run once per module of ``src/repro``, so a failure names
its file, and once per banned form on a snippet that must be reported.

There is no suppression comment: a new exception is a new allowlist entry
here, with its reason, where review sees it.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections.abc import Iterator
from pathlib import Path

import pytest

import repro
from repro.detection.base import ObjectDetector

SRC = Path(repro.__file__).parent
MODULES = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))

#: rule -> (module path prefixes under src/repro allowed to break it, reason)
RULES: dict[str, tuple[tuple[str, ...], str]] = {
    "clock": (
        ("stopwatch.py", "service/__main__.py", "service/manager.py", "service/scheduler.py"),
        "wall time is read only through repro.stopwatch.Stopwatch "
        "(service timeouts and heartbeats keep their own clock)",
    ),
    "rng": ((), "results are a pure function of (seed, query): no global or OS-seeded RNG"),
    "detector": (
        ("core/", "detection/"),
        "a detector call outside ExecutionContext is never charged to the ledger",
    ),
    "write": (("persist.py",), "artifacts reach disk only through repro.persist's atomic writer"),
    "np-save": (
        ("persist.py", "detection/columnar.py"),
        "numpy serializes into memory only: persist's writers and columnar.encode_to_bytes",
    ),
    "mmap": (
        ("index/store.py",),
        "VideoIndex is the one mapper, and closes its maps before a generation is unlinked",
    ),
    "display": (
        ("obs/", "service/"),
        "span wall times and the Prometheus exposition are display-only",
    ),
}

_CLOCK_MODULES = {"time", "datetime"}
_SEEDED_CONSTRUCTORS = {"default_rng", "SeedSequence"}
#: ``np.random`` names that are fine to reference (constructors take a seed).
_GENERATOR_API = _SEEDED_CONSTRUCTORS | {"Generator", "BitGenerator", "PCG64", "Philox"}
_NUMPY_SAVERS = {
    f"{mod}.{fn}" for mod in ("np", "numpy") for fn in ("save", "savez", "savez_compressed")
}
_WALL_FIELDS = {"wall_start", "wall_duration"}


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a plain name/attribute chain, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _write_mode(call: ast.Call) -> bool:
    """Whether an ``open``-style call passes a literal write mode."""
    modes = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return any(
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and not set(mode.value).isdisjoint("wxa+")
        for mode in modes
    )


def violations(tree: ast.AST) -> Iterator[tuple[str, int, str]]:
    """``(rule, line, form)`` for every banned form in ``tree``."""
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _CLOCK_MODULES:
                    yield "clock", line, f"import {alias.name}"
                elif root == "random" or alias.name == "numpy.random":
                    yield "rng", line, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            root = node.module.split(".")[0]
            if root in _CLOCK_MODULES:
                yield "clock", line, f"from {node.module} import"
            elif root == "random" or node.module == "numpy.random" or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                yield "rng", line, f"from {node.module} import"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            parts = dotted(node).split(".")
            if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                if parts[2] not in _GENERATOR_API:
                    yield "rng", line, f"legacy global-state {'.'.join(parts)}"
            if node.attr in _WALL_FIELDS:
                yield "display", line, f"read of .{node.attr}"
        elif isinstance(node, ast.Call):
            yield from _call_violations(node, line)


def _call_violations(call: ast.Call, line: int) -> Iterator[tuple[str, int, str]]:
    name = dotted(call.func)
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else name
    if attr in _SEEDED_CONSTRUCTORS and not call.args and not call.keywords:
        yield "rng", line, f"{attr}() seeded from OS entropy"
    if isinstance(call.func, ast.Attribute):
        receiver = call.func.value
        from_super = isinstance(receiver, ast.Call) and dotted(receiver.func) == "super"
        if not from_super and (
            attr in ("detect_many", "detect_columns")
            or (attr == "detect" and "detector" in dotted(receiver).lower())
        ):
            yield "detector", line, f"direct .{attr}(...)"
        if attr in ("write_text", "write_bytes"):
            yield "write", line, f".{attr}(...)"
    if name in ("open", "os.fdopen") and _write_mode(call):
        yield "write", line, f"{name}(...) in a write mode"
    if name in _NUMPY_SAVERS:
        yield "np-save", line, f"{name}(...)"
    if any(kw.arg == "mmap_mode" for kw in call.keywords):
        yield "mmap", line, "mmap_mode="
    if attr == "render_prometheus":
        yield "display", line, "render_prometheus()"


@pytest.mark.parametrize("module", MODULES)
def test_module_keeps_the_source_rules(module: str) -> None:
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    found = [
        f"{module}:{line}: {form} -- {RULES[rule][1]}"
        for rule, line, form in violations(tree)
        if not module.startswith(RULES[rule][0])
    ]
    assert not found, "\n".join(found)


BANNED = {
    "import time": "clock",
    "from datetime import datetime": "clock",
    "import random": "rng",
    "from numpy.random import default_rng": "rng",
    "from numpy import random": "rng",
    "import numpy.random as npr": "rng",
    "np.random.seed(0)": "rng",
    "x = np.random.rand(3)": "rng",
    "rng = np.random.default_rng()": "rng",
    "seq = np.random.SeedSequence()": "rng",
    "detector.detect_many(video, frames)": "detector",
    "self.detector.detect_columns(video, frames)": "detector",
    "context.detector.detect(video, 0)": "detector",
    "path.write_text(text)": "write",
    "path.write_bytes(payload)": "write",
    "open(path, 'w')": "write",
    "open(path, mode='ab')": "write",
    "os.fdopen(fd, 'wb')": "write",
    "np.save(path, values)": "np-save",
    "np.savez_compressed(path, **arrays)": "np-save",
    "view = np.load(path, mmap_mode='r')": "mmap",
    "elapsed = span.wall_duration": "display",
    "offset = record.wall_start + 1": "display",
    "text = registry.render_prometheus()": "display",
}

ALLOWED = [
    "rng = np.random.default_rng(seed)",
    "seq = np.random.SeedSequence(entropy)",
    "def f(rng: np.random.Generator) -> None: ...",
    "super().detect_columns(video, frames)",
    "session.detect(frame)",
    "open(path)",
    "open(path, 'rb')",
    "payload = {'wall_duration': wall}",
    "values = np.load(path)",
]


@pytest.mark.parametrize(("source", "rule"), BANNED.items())
def test_banned_form_is_reported(source: str, rule: str) -> None:
    assert [found for found, _, _ in violations(ast.parse(source))] == [rule]


@pytest.mark.parametrize("source", ALLOWED)
def test_allowed_form_is_not_reported(source: str) -> None:
    assert list(violations(ast.parse(source))) == []


def test_no_detector_subclass_defines_detect_many() -> None:
    """``ObjectDetector.detect_many`` is the harness's detection patch point
    (it wraps ``vars(ObjectDetector)["detect_many"]``): a subclass override
    would run unmeasured.  A detector implements ``detect_columns`` only."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    pending, offenders = [ObjectDetector], []
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro.") and "detect_many" in vars(subclass):
                offenders.append(f"{subclass.__module__}.{subclass.__qualname__}")
    assert not offenders, offenders
