"""Project model: parsed modules, import resolution, class hierarchy.

Checkers never touch the filesystem — they see a :class:`ProjectModel`
built once per run.  The model is deliberately approximate (it is a
linter, not a compiler): names resolve through per-module import alias
maps, class bases resolve transitively across modules, and
:mod:`symtable` is used where binding questions matter (is ``random``
here the stdlib module or a local variable?).
"""

from __future__ import annotations

import ast
import symtable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.pragmas import parse_pragmas


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ModuleInfo:
    """One parsed source file plus lazily-built lookup structures."""

    name: str
    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(repr=False)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    _symtable: symtable.SymbolTable | None = field(default=None, repr=False)
    _scopes: dict[tuple[str, int], symtable.SymbolTable] | None = field(
        default=None, repr=False
    )

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else self.name

    def symbol_table(self) -> symtable.SymbolTable:
        if self._symtable is None:
            self._symtable = symtable.symtable(self.source, str(self.path), "exec")
        return self._symtable

    def scope_for(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> symtable.SymbolTable | None:
        """The symtable scope matching an AST definition, if resolvable."""
        if self._scopes is None:
            scopes: dict[tuple[str, int], symtable.SymbolTable] = {}
            stack = [self.symbol_table()]
            while stack:
                table = stack.pop()
                scopes[(table.get_name(), table.get_lineno())] = table
                stack.extend(table.get_children())
            self._scopes = scopes
        return self._scopes.get((node.name, node.lineno))

    def resolve(self, name: str) -> str:
        """Resolve a possibly-dotted local name through the import map.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when the
        module has ``import numpy as np``.  Unresolvable names come back
        unchanged.
        """
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


def _build_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    package_parts = module_name.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: climb from the *package* containing this
                # module (level 1 = current package).
                base_parts = package_parts[: -node.level]
                if node.module:
                    base_parts = base_parts + node.module.split(".")
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}" if base else alias.name
    return mapping


@dataclass
class ClassInfo:
    """A class definition with import-resolved base names."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    base_names: tuple[str, ...]

    @property
    def relpath(self) -> str:
        return self.module.relpath


@dataclass
class ProjectModel:
    """All modules of one package tree, indexed for cross-file questions."""

    root: Path
    package: str
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    classes_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)

    @classmethod
    def build(cls, root: Path, package: str | None = None) -> "ProjectModel":
        """Parse every ``*.py`` under ``root`` (a package directory)."""
        root = root.resolve()
        package = package or root.name
        model = cls(root=root, package=package)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = (package, *rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module_name = ".".join(parts)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            lines = source.splitlines()
            info = ModuleInfo(
                name=module_name,
                path=path,
                relpath=(Path(package) / rel).as_posix(),
                source=source,
                tree=tree,
                lines=lines,
                pragmas=parse_pragmas(lines),
            )
            info.imports = _build_imports(tree, module_name)
            model.modules[module_name] = info
        model._index_classes()
        return model

    def _index_classes(self) -> None:
        for info in self.modules.values():
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = []
                for base in node.bases:
                    name = dotted_name(base)
                    if name is None:
                        continue
                    resolved = info.resolve(name)
                    # A bare name defined in the same module is local.
                    if resolved == name and "." not in name:
                        resolved = f"{info.name}.{name}"
                    bases.append(resolved)
                cinfo = ClassInfo(
                    qualname=f"{info.name}.{node.name}",
                    name=node.name,
                    module=info,
                    node=node,
                    base_names=tuple(bases),
                )
                self.classes[cinfo.qualname] = cinfo
                self.classes_by_name.setdefault(node.name, []).append(cinfo)

    # -- hierarchy queries ---------------------------------------------------------

    def find_class(self, name: str) -> ClassInfo | None:
        """Look up by qualname, else by unique simple name."""
        if name in self.classes:
            return self.classes[name]
        candidates = self.classes_by_name.get(name.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        for candidate in candidates:
            if candidate.qualname.endswith("." + name):
                return candidate
        return None

    def is_subclass(self, cls: ClassInfo, ancestor: str) -> bool:
        """True when ``ancestor`` (simple or qualified name) is a base,
        transitively, of ``cls`` — or is ``cls`` itself."""
        target_simple = ancestor.rsplit(".", 1)[-1]
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if current.name == target_simple or current.qualname == ancestor:
                return True
            for base in current.base_names:
                if base.rsplit(".", 1)[-1] == target_simple:
                    return True
                resolved = self.find_class(base)
                if resolved is not None:
                    stack.append(resolved)
        return False

    # -- iteration helpers ---------------------------------------------------------

    def iter_functions(
        self, info: ModuleInfo
    ) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, ast.ClassDef | None]
    ]:
        """Yield ``(function_node, dotted_context, enclosing_class)``."""

        def visit(
            node: ast.AST, prefix: str, enclosing: ast.ClassDef | None
        ) -> Iterator[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, ast.ClassDef | None]
        ]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    context = f"{prefix}.{child.name}" if prefix else child.name
                    yield child, context, enclosing
                    yield from visit(child, context, enclosing)
                elif isinstance(child, ast.ClassDef):
                    context = f"{prefix}.{child.name}" if prefix else child.name
                    yield from visit(child, context, child)

        yield from visit(info.tree, info.name, None)


__all__ = ["ClassInfo", "ModuleInfo", "ProjectModel", "dotted_name"]
