"""RPR007 — persistence hygiene: artifacts reach disk atomically.

Every on-disk artifact the repo produces — index segments, cache files,
catalog snapshots, ``BENCH_*.json`` reports — must go
through ``repro.persist.atomic_write_text`` / ``atomic_write_bytes``: a bare
``Path.write_text`` (or a numpy saver pointed at a path) that dies mid-write
leaves a truncated file that the next reader happily half-parses, which is
exactly the failure mode the crash-safety tests exist to rule out.

Two rules:

1. **No bare artifact writes outside ``persist``.**  ``.write_text(...)`` /
   ``.write_bytes(...)`` calls, builtin ``open()`` / ``os.fdopen()`` in a
   write mode, and ``np.save`` / ``np.savez`` / ``np.savez_compressed``
   targeting anything but an in-memory ``io.BytesIO`` buffer are flagged
   everywhere except the ``persist`` module itself (which owns the
   temp-file + fsync + rename dance).  The sanctioned idiom is: serialize
   into a ``BytesIO``, then hand ``buffer.getvalue()`` to the atomic writer.

2. **Memory-mapped files are closed before unlink.**  A function that opens
   an ``np.load(..., mmap_mode=...)`` view and then deletes paths
   (``os.unlink`` / ``os.remove`` / ``shutil.rmtree`` / ``Path.unlink``)
   without an intervening ``.close()`` risks deleting a file that is still
   mapped — harmless on POSIX, an error on platforms with mandatory sharing
   semantics, and a resource leak everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.project import ModuleInfo, ProjectModel, dotted_name

_WRITE_METHODS = {"write_text", "write_bytes"}
_NUMPY_SAVERS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
_BUFFER_TYPES = {"io.BytesIO", "io.StringIO"}
_OPENERS = {"open", "os.fdopen"}
_PATH_DELETERS = {"os.unlink", "os.remove", "os.rmdir", "shutil.rmtree"}
_ATOMIC_HINT = (
    "serialize into an io.BytesIO and hand buffer.getvalue() to "
    "persist.atomic_write_bytes (or use atomic_write_text for text)"
)


def _mode_argument(node: ast.Call) -> str | None:
    """The file-mode string of an ``open``-style call, when it is a literal."""
    candidates: list[ast.expr] = []
    if len(node.args) >= 2:
        candidates.append(node.args[1])
    candidates.extend(
        kw.value for kw in node.keywords if kw.arg == "mode"
    )
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _buffer_names(func: ast.AST, info: ModuleInfo) -> set[str]:
    """Names bound to in-memory ``io.BytesIO()`` buffers inside ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        elif isinstance(node, ast.NamedExpr):
            value, targets = node.value, [node.target]
        if not isinstance(value, ast.Call):
            continue
        constructor = dotted_name(value.func)
        if constructor is None or info.resolve(constructor) not in _BUFFER_TYPES:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _targets_buffer(arg: ast.expr, buffers: set[str], info: ModuleInfo) -> bool:
    """Whether a saver's first argument is an in-memory buffer."""
    if isinstance(arg, ast.Name):
        return arg.id in buffers
    if isinstance(arg, ast.NamedExpr):
        return _targets_buffer(arg.value, buffers, info)
    if isinstance(arg, ast.Call):
        constructor = dotted_name(arg.func)
        return (
            constructor is not None
            and info.resolve(constructor) in _BUFFER_TYPES
        )
    return False


class PersistenceHygieneChecker(Checker):
    rule = "RPR007"
    title = "artifact writes go through persist.atomic_write_*"

    def check(self, project: ProjectModel) -> Iterator[Diagnostic]:
        persist_module = f"{project.package}.persist"
        for info in project.modules.values():
            if info.name == persist_module:
                continue  # the atomic writer owns the raw-I/O dance
            for func, context, _cls in project.iter_functions(info):
                yield from self._check_writes(info, func, context)
                yield from self._check_mmap_unlink(info, func, context)

    # -- rule 1: bare writes -------------------------------------------------------

    def _check_writes(
        self, info: ModuleInfo, func: ast.AST, context: str
    ) -> Iterator[Diagnostic]:
        buffers = _buffer_names(func, info)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in _WRITE_METHODS
            ):
                yield self.diagnostic(
                    info,
                    node.lineno,
                    node.col_offset,
                    f"bare `.{node.func.attr}(...)` bypasses atomic persistence",
                    context=context,
                    hint=_ATOMIC_HINT,
                )
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = info.resolve(name)
            if resolved in _OPENERS:
                mode = _mode_argument(node)
                if mode is not None and any(c in mode for c in "wxa+"):
                    yield self.diagnostic(
                        info,
                        node.lineno,
                        node.col_offset,
                        f"`{name}(..., {mode!r})` writes a file directly, "
                        "bypassing atomic persistence",
                        context=context,
                        hint=_ATOMIC_HINT,
                    )
            elif resolved in _NUMPY_SAVERS and node.args:
                if not _targets_buffer(node.args[0], buffers, info):
                    yield self.diagnostic(
                        info,
                        node.lineno,
                        node.col_offset,
                        f"`{name}(...)` saves straight to a path, "
                        "bypassing atomic persistence",
                        context=context,
                        hint=_ATOMIC_HINT,
                    )

    # -- rule 2: close mmaps before unlink -----------------------------------------

    def _check_mmap_unlink(
        self, info: ModuleInfo, func: ast.AST, context: str
    ) -> Iterator[Diagnostic]:
        mmap_line: int | None = None
        close_lines: list[int] = []
        deletions: list[tuple[str, ast.Call]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "close":
                close_lines.append(node.lineno)
            name = dotted_name(node.func)
            resolved = info.resolve(name) if name is not None else None
            if resolved == "numpy.load" and any(
                kw.arg == "mmap_mode" for kw in node.keywords
            ):
                if mmap_line is None or node.lineno < mmap_line:
                    mmap_line = node.lineno
            elif resolved in _PATH_DELETERS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "unlink"
                and name is None  # method on a computed receiver, e.g. a Path
            ):
                deletions.append((name or node.func.attr, node))
        if mmap_line is None:
            return
        for name, node in deletions:
            if node.lineno <= mmap_line:
                continue
            if any(mmap_line < line <= node.lineno for line in close_lines):
                continue
            yield self.diagnostic(
                info,
                node.lineno,
                node.col_offset,
                f"`{name}(...)` deletes files while an `np.load(..., "
                "mmap_mode=...)` view from this function may still be open",
                context=context,
                hint="close the memory-mapped view before unlinking its file",
            )


__all__ = ["PersistenceHygieneChecker"]
