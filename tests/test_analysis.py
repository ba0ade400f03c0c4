"""Tests for the static invariant analyzer (``repro.analysis``).

Each checker gets fixture-driven coverage: a synthetic mini-project is
written under ``tmp_path``, the project model is built over it, and the
checker must produce at least one true positive — plus a
pragma-suppressed variant proving ``# repro: allow[RULE]`` works.  The
framework pieces (pragmas, runner, CLI, formatting) are tested directly,
and a final test asserts the analyzer runs clean over the real
``src/repro`` tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Diagnostic,
    ProjectModel,
    Severity,
    all_checkers,
    format_diagnostics,
    run_analysis,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.checkers import (
    DeterminismChecker,
    LedgerAccountingChecker,
    ObservabilityHygieneChecker,
    PersistenceHygieneChecker,
)
from repro.analysis.pragmas import parse_pragmas, pragma_allows
from repro.core.events import ExecutionEvent, Progress, event_wire_types
from repro.core.results import ExactResult, QueryResult

PKG = "proj"


def build_project(tmp_path: Path, files: dict[str, str]) -> ProjectModel:
    root = tmp_path / PKG
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return ProjectModel.build(root, PKG)


def rules_of(diagnostics: list[Diagnostic]) -> set[str]:
    return {d.rule for d in diagnostics}


# -- project model --------------------------------------------------------------------


class TestProjectModel:
    def test_import_resolution(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "a.py": """
                    import numpy as np
                    from proj.b import Base as B
                    from . import c
                """,
                "b.py": "class Base: pass\n",
                "c.py": "",
            },
        )
        info = project.modules[f"{PKG}.a"]
        assert info.resolve("np.random.default_rng") == "numpy.random.default_rng"
        assert info.resolve("B") == f"{PKG}.b.Base"
        assert info.resolve("c") == f"{PKG}.c"

    def test_class_hierarchy_across_modules(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "base.py": "class Root: pass\n",
                "mid.py": """
                    from proj.base import Root
                    class Middle(Root): pass
                """,
                "leaf.py": """
                    from proj.mid import Middle
                    class Leaf(Middle): pass
                """,
            },
        )
        leaf = project.find_class("Leaf")
        assert leaf is not None
        assert project.is_subclass(leaf, "Root")
        assert project.is_subclass(leaf, "Middle")
        assert not project.is_subclass(leaf, "Unrelated")
        middle = project.find_class("Middle")
        assert middle is not None
        assert project.is_subclass(middle, "Root")
        assert not project.is_subclass(middle, "Leaf")


# -- pragmas --------------------------------------------------------------------------


class TestPragmas:
    def test_same_line_and_line_above(self) -> None:
        pragmas = parse_pragmas(
            [
                "x = clock()  # repro: allow[RPR001]: sanctioned",
                "# repro: allow[RPR002, RPR007]",
                "y = mutate()",
            ]
        )
        assert pragma_allows(pragmas, 1, "RPR001")
        assert not pragma_allows(pragmas, 1, "RPR002")
        assert pragma_allows(pragmas, 3, "RPR002")
        assert pragma_allows(pragmas, 3, "RPR007")

    def test_star_allows_everything(self) -> None:
        pragmas = parse_pragmas(["z = anything()  # repro: allow[*]"])
        assert pragma_allows(pragmas, 1, "RPR005")


# -- RPR001 determinism ---------------------------------------------------------------


class TestDeterminismChecker:
    def test_true_positives(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "engine.py": """
                    import random
                    import time
                    import numpy as np

                    def sample():
                        rng = np.random.default_rng()
                        return random.random(), time.time(), rng
                """,
            },
        )
        findings = list(DeterminismChecker().check(project))
        messages = "\n".join(d.message for d in findings)
        assert len(findings) == 3
        assert "unseeded" in messages
        assert "random.random" in messages
        assert "wall-clock read `time.time`" in messages

    def test_seeded_rng_and_local_shadow_ok(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "engine.py": """
                    import random
                    import numpy as np

                    def seeded(seed):
                        return np.random.default_rng(seed)

                    def shadowed(random):
                        # symtable: `random` is a parameter, not the module
                        return random.random()
                """,
            },
        )
        assert list(DeterminismChecker().check(project)) == []

    def test_service_plumbing_excluded(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "service/app.py": """
                    import time

                    def heartbeat():
                        return time.monotonic()
                """,
            },
        )
        assert list(DeterminismChecker().check(project)) == []

    def test_pragma_suppressed(self, tmp_path: Path) -> None:
        build_project(
            tmp_path,
            {
                "engine.py": """
                    import time

                    def stamp():
                        return time.perf_counter()  # repro: allow[RPR001]: ledger wall clock
                """,
            },
        )
        report = run_analysis(tmp_path / PKG, package=PKG)
        assert not [d for d in report.findings if d.rule == "RPR001"]
        assert [d for d in report.suppressed if d.rule == "RPR001"]


# -- RPR002 ledger accounting ---------------------------------------------------------


class TestLedgerAccountingChecker:
    def test_direct_detector_call_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "plans.py": """
                    class Runner:
                        def run(self, ctx):
                            a = ctx.detector.detect(ctx.video, 0)
                            b = ctx.detector.detect_many(ctx.video, [1, 2])
                            return a, b
                """,
            },
        )
        findings = list(LedgerAccountingChecker().check(project))
        assert len(findings) == 2
        assert all(f.rule == "RPR002" for f in findings)

    def test_core_and_detector_subclasses_allowed(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "core/context.py": """
                    class ExecutionContext:
                        def detect(self, frame):
                            return self.detector.detect(self.video, frame)
                """,
                "detection/base.py": """
                    class ObjectDetector:
                        def _detect_batch(self, video, frames):
                            raise NotImplementedError
                """,
                "custom.py": """
                    from proj.detection.base import ObjectDetector

                    class Paced(ObjectDetector):
                        def _detect_batch(self, video, frames):
                            return super()._detect_batch(video, frames)
                """,
            },
        )
        assert list(LedgerAccountingChecker().check(project)) == []

    def test_pragma_suppressed(self, tmp_path: Path) -> None:
        build_project(
            tmp_path,
            {
                "plans.py": """
                    class Prefetcher:
                        def compute(self, ctx, frames):
                            # repro: allow[RPR002]: speculative, charged on consumption
                            return ctx.detector.detect_many(ctx.video, frames)
                """,
            },
        )
        report = run_analysis(tmp_path / PKG, package=PKG)
        assert not [d for d in report.findings if d.rule == "RPR002"]
        assert [d for d in report.suppressed if d.rule == "RPR002"]


# -- lock discipline (formerly RPR003) -----------------------------------------------
#
# What RPR003 guessed from the AST is structure now: every lock in ``src/repro``
# (but two module-level ones) is a ``repro.sync.Guarded`` whose fields are
# reachable only inside its ``with`` block, and the ledgers are frozen.  Lock
# order is checked at run time by ``tests/lockdep.py`` (see test_sync.py).


# -- wire tags (formerly RPR005) ------------------------------------------------------
#
# What RPR005 checked over the AST is now impossible to write: defining an
# event or result class registers it, and a tag that is missing, inherited or
# already taken raises when the class statement runs.


class TestWireTagsAtDefinition:
    def test_missing_tag(self) -> None:
        with pytest.raises(TypeError, match="must define its own wire_name"):

            class Untagged(ExecutionEvent):
                pass

        assert "Untagged" not in {cls.__name__ for cls in event_wire_types().values()}

    def test_duplicate_tag(self) -> None:
        with pytest.raises(TypeError, match="reuses wire_name 'progress'.*Progress"):

            class Shadow(ExecutionEvent):
                wire_name = "progress"

        assert event_wire_types()["progress"] is Progress

    def test_tag_inherited_from_a_parent(self) -> None:
        with pytest.raises(TypeError, match="inherited from ExactResult"):

            class Narrower(ExactResult):
                extra: int = 0

        assert QueryResult.wire_types["exact"] is ExactResult


# -- RPR007 persistence hygiene -------------------------------------------------------


class TestPersistenceHygieneChecker:
    def test_bare_write_text_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "report.py": """
                    import json
                    from pathlib import Path

                    def dump(path: Path, payload: dict):
                        path.write_text(json.dumps(payload))
                """,
            },
        )
        findings = list(PersistenceHygieneChecker().check(project))
        assert len(findings) == 1
        assert "write_text" in findings[0].message
        assert "atomic_write" in findings[0].hint

    def test_open_write_mode_flagged_read_mode_clean(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "io_mod.py": """
                    def write(path):
                        with open(path, "w") as handle:
                            handle.write("x")

                    def read(path):
                        with open(path) as handle:
                            return handle.read()

                    def read_binary(path):
                        with open(path, "rb") as handle:
                            return handle.read()
                """,
            },
        )
        findings = list(PersistenceHygieneChecker().check(project))
        assert len(findings) == 1
        assert findings[0].context.endswith(".write")
        assert "'w'" in findings[0].message

    def test_numpy_save_to_path_flagged_buffer_clean(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "arrays.py": """
                    import io
                    import numpy as np

                    def bad(path, values):
                        np.save(path, values)

                    def bad_savez(path, values):
                        np.savez_compressed(path, values=values)

                    def good(values):
                        buffer = io.BytesIO()
                        np.savez_compressed(buffer, values=values)
                        return buffer.getvalue()

                    def good_walrus(values):
                        np.save(buffer := io.BytesIO(), values)
                        return buffer.getvalue()
                """,
            },
        )
        findings = list(PersistenceHygieneChecker().check(project))
        assert len(findings) == 2
        assert {f.context.rsplit(".", 1)[-1] for f in findings} == {
            "bad",
            "bad_savez",
        }

    def test_unlink_with_open_mmap_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "mm.py": """
                    import os
                    import numpy as np

                    def leaky(path):
                        values = np.load(path, mmap_mode="r")
                        total = values.sum()
                        os.unlink(path)
                        return total

                    def disciplined(path):
                        values = np.load(path, mmap_mode="r")
                        total = values.sum()
                        values._mmap.close()
                        os.unlink(path)
                        return total

                    def no_mmap(path):
                        os.unlink(path)
                """,
            },
        )
        findings = list(PersistenceHygieneChecker().check(project))
        assert len(findings) == 1
        assert findings[0].context.endswith(".leaky")
        assert "mmap_mode" in findings[0].message

    def test_persist_module_is_exempt(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "persist.py": """
                    import os

                    def atomic_write_text(path, text):
                        fd, tmp = (0, str(path) + ".tmp")
                        with os.fdopen(fd, "w") as handle:
                            handle.write(text)
                        os.unlink(tmp)
                """,
            },
        )
        assert list(PersistenceHygieneChecker().check(project)) == []

    def test_pragma_suppressed(self, tmp_path: Path) -> None:
        build_project(
            tmp_path,
            {
                "report.py": """
                    def dump(path):
                        path.write_text("x")  # repro: allow[RPR007]: scratch file, no reader
                """,
            },
        )
        report = run_analysis(tmp_path / PKG, package=PKG)
        assert not [d for d in report.findings if d.rule == "RPR007"]
        assert [d for d in report.suppressed if d.rule == "RPR007"]


class TestObservabilityHygieneChecker:
    def test_wall_field_read_outside_obs_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "optimizer/cost.py": """
                    def estimate(span):
                        return span.wall_duration * 2.0
                """,
                "obs/report.py": """
                    def render(span):
                        return f"{span.wall_duration:.3f}s"
                """,
                "service/status.py": """
                    def row(span):
                        return {"wall": span.wall_duration}
                """,
            },
        )
        findings = list(ObservabilityHygieneChecker().check(project))
        assert len(findings) == 1
        assert findings[0].context == f"{PKG}.optimizer.cost.estimate"
        assert "wall_duration" in findings[0].message

    def test_dict_key_literals_are_clean(self, tmp_path: Path) -> None:
        # The worker span payloads in parallel/ carry the wall fields as
        # dict *keys*; only attribute loads leak values into expressions.
        project = build_project(
            tmp_path,
            {
                "parallel/worker.py": """
                    def payload(elapsed):
                        return {"wall_duration": elapsed, "wall_start": 0.0}
                """,
            },
        )
        assert list(ObservabilityHygieneChecker().check(project)) == []

    def test_render_prometheus_outside_service_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "core/engine.py": """
                    def status(registry):
                        return registry.render_prometheus()
                """,
                "service/app.py": """
                    def metrics(registry):
                        return registry.render_prometheus()
                """,
            },
        )
        findings = list(ObservabilityHygieneChecker().check(project))
        assert len(findings) == 1
        assert findings[0].context == f"{PKG}.core.engine.status"
        assert "render_prometheus" in findings[0].message

    def test_span_held_in_variable_flagged(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "core/run.py": """
                    def leaky(tracer):
                        s = tracer.span("execute")
                        s.__enter__()
                        return s

                    def passed_along(tracer, consume):
                        consume(tracer.span("execute"))
                """,
            },
        )
        findings = list(ObservabilityHygieneChecker().check(project))
        assert {f.context.rsplit(".", 1)[-1] for f in findings} == {
            "leaky",
            "passed_along",
        }
        assert all("with" in f.message for f in findings)

    def test_with_item_and_factory_return_are_clean(self, tmp_path: Path) -> None:
        project = build_project(
            tmp_path,
            {
                "core/run.py": """
                    def traced(tracer, ledger):
                        with tracer.span("execute"):
                            with tracer.operator_span("FullScan", ledger):
                                pass

                    def scope(context, name):
                        return maybe_span(context.tracer, name)

                    def op_scope(context, name, ledger):
                        return operator_scope(context, name, ledger)
                """,
            },
        )
        assert list(ObservabilityHygieneChecker().check(project)) == []

    def test_pragma_suppressed(self, tmp_path: Path) -> None:
        build_project(
            tmp_path,
            {
                "core/run.py": """
                    def probe(span):
                        return span.wall_duration  # repro: allow[RPR008]: debug probe
                """,
            },
        )
        report = run_analysis(tmp_path / PKG, package=PKG)
        assert not [d for d in report.findings if d.rule == "RPR008"]
        assert [d for d in report.suppressed if d.rule == "RPR008"]


class TestCliAndFormats:
    def _violating_root(self, tmp_path: Path) -> Path:
        return build_project(
            tmp_path,
            {
                "engine.py": """
                    import random

                    def draw():
                        return random.random()
                """,
            },
        ).root

    def test_cli_exit_codes_and_json(self, tmp_path: Path, capsys) -> None:
        root = self._violating_root(tmp_path)
        rc = analysis_main(
            ["--root", str(root), "--package", PKG, "--format", "json", "--quiet"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "RPR001"

        (root / "engine.py").write_text("def draw():\n    return 4\n")
        rc = analysis_main(["--root", str(root), "--package", PKG, "--quiet"])
        assert rc == 0

    def test_pragma_suppresses_through_the_cli(self, tmp_path: Path, capsys) -> None:
        root = self._violating_root(tmp_path)
        engine = root / "engine.py"
        engine.write_text(
            engine.read_text().replace(
                "return random.random()",
                "return random.random()  # repro: allow[RPR001]: fixture",
            )
        )
        assert analysis_main(["--root", str(root), "--package", PKG]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s), 1 pragma-suppressed" in captured.err

    @pytest.mark.parametrize(
        "flag", ["--baseline=analysis-baseline.json", "--write-baseline"]
    )
    def test_no_baseline_flags(self, tmp_path: Path, capsys, flag) -> None:
        """Pragmas are the one suppression: there is no baseline to accept
        findings into or to read them back from."""
        root = self._violating_root(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["--root", str(root), "--package", PKG, flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "analysis-baseline.json").exists()

    def test_github_format_escapes(self) -> None:
        diag = Diagnostic(
            path="p.py", line=3, col=1, rule="RPR001",
            message="bad%\nthing", severity=Severity.WARNING,
        )
        out = format_diagnostics([diag], "github")
        assert out.startswith("::warning file=p.py,line=3,col=1,title=RPR001::")
        assert "%25" in out and "%0A" in out and "\n" not in out.split("::")[2]

    def test_unknown_format_raises(self) -> None:
        with pytest.raises(ValueError, match="unknown format"):
            format_diagnostics([], "yaml")


# -- the real tree --------------------------------------------------------------------


class TestRealTree:
    def test_src_repro_is_clean(self) -> None:
        root = Path(repro.__file__).resolve().parent
        report = run_analysis(root)
        assert report.ok, format_diagnostics(report.findings)
        assert report.modules_scanned > 100
        assert [checker.rule for checker in all_checkers()] == [
            "RPR001", "RPR002", "RPR007", "RPR008",
        ]
