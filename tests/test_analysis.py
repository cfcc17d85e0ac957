"""Tests for repro.analysis: framework, each REP rule, and the src gate.

Every rule is proven both ways on the seeded-defect corpus under
``tests/analysis_corpus/``: the ``*_defect.py`` file must fire the rule,
its ``*_clean.py`` twin must stay silent under *all* rules.  The suite
also pins the invariant the CI ``check`` job enforces — ``repro check``
over the real ``src/`` tree reports zero errors.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding, analyze_paths, available_lints, register_lint
from repro.analysis.framework import LINTS, BaseLint

CORPUS = Path(__file__).parent / "analysis_corpus"
SRC = Path(__file__).parent.parent / "src"

ALL_RULES = ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
             "REP007", "REP009")


class TestCorpus:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_rule_fires_on_its_defect(self, rule):
        defect = CORPUS / f"{rule.lower()}_defect.py"
        report = analyze_paths([defect], rules=[rule])
        assert report.findings, f"{rule} did not fire on {defect.name}"
        assert {f.rule for f in report.findings} == {rule}
        assert all(f.severity == "error" for f in report.findings)
        assert report.exit_code == 1

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_clean_twin_is_silent_under_every_rule(self, rule):
        clean = CORPUS / f"{rule.lower()}_clean.py"
        report = analyze_paths([clean])  # all rules, not just its own
        assert report.findings == [], [f.format() for f in report.findings]
        assert report.exit_code == 0

    def test_findings_carry_location_and_hint(self):
        report = analyze_paths(
            [CORPUS / "rep003_defect.py"], rules=["REP003"]
        )
        finding = report.findings[0]
        assert finding.path.endswith("rep003_defect.py")
        assert finding.line > 0
        assert finding.hint  # every REP finding ships a fix hint
        assert f"{finding.path}:{finding.line}:" in finding.format()


class TestSrcGate:
    def test_src_tree_is_clean(self):
        """The invariant CI's `check` job enforces on every PR."""
        report = analyze_paths([SRC])
        errors = [f.format() for f in report.findings if f.severity == "error"]
        assert not errors, "\n".join(errors)
        assert report.exit_code == 0
        assert report.files_checked > 50  # really scanned the tree


class TestFramework:
    def test_unknown_rule_raises_value_error(self):
        with pytest.raises(ValueError, match="REP999"):
            analyze_paths([CORPUS / "rep001_clean.py"], rules=["REP999"])

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyze_paths(["no/such/dir"])

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = analyze_paths([bad])
        assert [f.rule for f in report.findings] == ["PARSE"]
        assert report.exit_code == 1

    def test_suppression_comment_silences_one_rule(self, tmp_path):
        src = textwrap.dedent(
            """
            import time

            async def handler():
                time.sleep(1)  # repro: ignore[REP003]
            """
        )
        path = tmp_path / "suppressed.py"
        path.write_text(src, encoding="utf-8")
        assert analyze_paths([path]).findings == []
        # The same code without the comment fires.
        path.write_text(src.replace("  # repro: ignore[REP003]", ""),
                        encoding="utf-8")
        assert [f.rule for f in analyze_paths([path]).findings] == ["REP003"]

    def test_bare_suppression_silences_all_rules(self, tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "import time\n\nasync def h():\n"
            "    time.sleep(1)  # repro: ignore\n",
            encoding="utf-8",
        )
        assert analyze_paths([path]).findings == []

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="x.py", line=1, col=0, rule="REP001",
                    message="m", severity="fatal")

    def test_lints_registry_is_pluggable(self, tmp_path):
        """Custom rules register/unregister like any other plugin."""

        @register_lint("TEST901")
        class AlwaysFires(BaseLint):
            rule = "TEST901"

            def check(self, ctx):
                yield self.finding(ctx, ctx.tree.body[0], "fires everywhere")

        try:
            assert "TEST901" in available_lints()
            path = tmp_path / "any.py"
            path.write_text("x = 1\n", encoding="utf-8")
            report = analyze_paths([path], rules=["TEST901"])
            assert [f.rule for f in report.findings] == ["TEST901"]

            class Impostor(BaseLint):
                rule = "TEST901"

            with pytest.raises(ValueError, match="already registered"):
                register_lint("TEST901")(Impostor)
        finally:
            LINTS.unregister("TEST901")
        assert "TEST901" not in available_lints()

    def test_builtin_rules_are_seeded(self):
        assert set(ALL_RULES) <= set(available_lints())


class TestRuleDetails:
    def test_rep001_flags_unknown_physical_key_as_warning(self, tmp_path):
        src = textwrap.dedent(
            """
            class S:
                capacity_mib: int = 1

                def cache_dict(self):
                    return {"capacity_mib": self.capacity_mib}

                def physical_dict(self):
                    return {"capacty_mib": self.capacity_mib}  # typo
            """
        )
        path = tmp_path / "typo.py"
        path.write_text(src, encoding="utf-8")
        report = analyze_paths([path], rules=["REP001"])
        warnings = [f for f in report.findings if f.severity == "warning"]
        assert any("capacty_mib" in f.message for f in warnings)
        # Warnings alone do not gate.
        assert report.exit_code == 0

    def test_rep001_flags_canonical_key_drop(self, tmp_path):
        src = textwrap.dedent(
            """
            class S:
                capacity_mib: int = 1
                tile_size: int = 4

                def to_dict(self):
                    return {"capacity_mib": self.capacity_mib,
                            "tile_size": self.tile_size}

                def cache_dict(self):
                    data = self.to_dict()
                    del data["tile_size"]  # not ranking-only!
                    return data

                def physical_dict(self):
                    return {"capacity_mib": self.capacity_mib,
                            "tile_size": self.tile_size}
            """
        )
        path = tmp_path / "drop.py"
        path.write_text(src, encoding="utf-8")
        report = analyze_paths([path], rules=["REP001"])
        assert any("tile_size" in f.message and "canonical" in f.message
                   for f in report.findings)

    def test_rep003_ignores_sync_helpers_inside_async(self, tmp_path):
        src = textwrap.dedent(
            """
            import time

            async def handler():
                def worker():
                    time.sleep(1)  # runs via to_thread: fine
                import asyncio
                await asyncio.to_thread(worker)
            """
        )
        path = tmp_path / "nested.py"
        path.write_text(src, encoding="utf-8")
        assert analyze_paths([path], rules=["REP003"]).findings == []

    def test_rep004_allows_seeded_rngs(self, tmp_path):
        src = textwrap.dedent(
            """
            import hashlib
            import random

            def cache_key(params, seed):
                rng = random.Random(seed)
                salt = rng.random()
                return hashlib.sha256(f"{params}{salt}".encode()).hexdigest()
            """
        )
        path = tmp_path / "seeded.py"
        path.write_text(src, encoding="utf-8")
        assert analyze_paths([path], rules=["REP004"]).findings == []

    def test_rep005_collisions_detected_across_files(self, tmp_path):
        for name in ("one.py", "two.py"):
            (tmp_path / name).write_text(
                "from repro.api import register_flow\n\n"
                "@register_flow('dup-flow')\n"
                "def f(s):\n    return {}\n",
                encoding="utf-8",
            )
        report = analyze_paths([tmp_path], rules=["REP005"])
        assert any("duplicate flow name 'dup-flow'" in f.message
                   for f in report.findings)

    def test_rep006_ignores_module_level_callables(self, tmp_path):
        src = textwrap.dedent(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(j):
                return j

            def run(jobs, pool: ProcessPoolExecutor):
                return [pool.submit(work, j) for j in jobs]
            """
        )
        path = tmp_path / "ok.py"
        path.write_text(src, encoding="utf-8")
        assert analyze_paths([path], rules=["REP006"]).findings == []


class TestPublicSurface:
    def test_lazy_exports_resolve(self):
        import repro

        assert repro.Finding is Finding
        assert callable(repro.analyze_paths)
        assert callable(repro.register_lint)
        assert set(ALL_RULES) <= set(repro.available_lints())

    def test_cheap_import_does_not_load_framework(self):
        """sweep.cache pulls only racecheck, never the lint framework."""
        import subprocess
        import sys

        code = (
            "import sys; import repro.sweep.cache; "
            "assert 'repro.analysis.racecheck' in sys.modules; "
            "assert 'repro.analysis.framework' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
