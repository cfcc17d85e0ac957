"""Tests for the top-level CLI (python -m repro)."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_implement_args(self):
        args = build_parser().parse_args(["implement", "MemPool-3D-4MiB"])
        assert args.config == "MemPool-3D-4MiB"
        assert not args.cluster

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.kernel == "matmul"
        assert args.cores == 16

    def test_sweep_defaults_span_50_points(self):
        args = build_parser().parse_args(["sweep"])
        grid = (len(args.capacities) * len(args.flows) * len(args.bandwidths)
                * len(args.matrix_dims) * len(args.core_counts))
        assert grid >= 50
        assert args.workers == 0
        assert args.cache_dir == ".sweep-cache"

    def test_sweep_csv_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--capacities", "1,8", "--bandwidths", "4,64"]
        )
        assert args.capacities == (1, 8)
        assert args.bandwidths == (4.0, 64.0)


class TestCommands:
    def test_implement(self, capsys):
        assert main(["implement", "MemPool-2D-1MiB"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "MHz" in out

    def test_implement_3d_shows_partition(self, capsys):
        assert main(["implement", "MemPool-3D-8MiB"]) == 0
        out = capsys.readouterr().out
        assert "15 banks" in out
        assert "F2F bumps" in out

    def test_implement_cluster(self, capsys):
        assert main(["implement", "MemPool-3D-1MiB", "--cluster"]) == 0
        assert "cluster level" in capsys.readouterr().out

    def test_simulate_matmul(self, capsys):
        assert main(["simulate", "--kernel", "matmul", "--n", "8", "--cores", "4"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_simulate_scoreboard(self, capsys):
        assert main(
            ["simulate", "--kernel", "matmul", "--n", "8", "--cores", "4",
             "--scoreboard"]
        ) == 0
        assert "verified: True" in capsys.readouterr().out

    @pytest.mark.parametrize("kernel", ["dotp", "axpy", "conv2d"])
    def test_simulate_other_kernels(self, kernel, capsys):
        assert main(["simulate", "--kernel", kernel, "--n", "12", "--cores", "4"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_explore(self, capsys):
        assert main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "MemPool-3D-8MiB" in out
        assert "best performance" in out

    def test_sweep_and_resume(self, capsys, tmp_path):
        argv = ["sweep", "--capacities", "1,2", "--bandwidths", "8,32",
                "--cache-dir", str(tmp_path / "cache"),
                "--store", str(tmp_path / "results.jsonl")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "8 jobs: 0 cached, 8 evaluated" in out
        assert "best performance" in out
        assert main(argv) == 0
        assert "8 jobs: 8 cached, 0 evaluated" in capsys.readouterr().out

    def test_sweep_no_cache(self, capsys, tmp_path):
        assert main(["sweep", "--capacities", "1", "--flows", "3D",
                     "--bandwidths", "16", "--no-cache"]) == 0
        assert "1 evaluated" in capsys.readouterr().out

    def test_sweep_thread_backend(self, capsys):
        assert main(["sweep", "--capacities", "1", "--bandwidths", "8,32",
                     "--backend", "thread", "--workers", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "thread backend" in out
        assert "4 evaluated" in out

    def test_sweep_progress_lines_on_stderr(self, capsys, tmp_path):
        argv = ["sweep", "--capacities", "1", "--flows", "3D",
                "--bandwidths", "8,32", "--progress",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1/2 MemPool-3D-1MiB@8B/c" in captured.err
        assert "2/2" in captured.err
        assert "best performance" in captured.out  # stdout report unchanged
        # Cached re-run marks every progress line.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[cached]" in captured.err

    def test_sweep_quiet_without_progress(self, capsys):
        assert main(["sweep", "--capacities", "1", "--flows", "3D",
                     "--bandwidths", "16", "--no-cache"]) == 0
        assert capsys.readouterr().err == ""

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "fig6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_bad_config_name(self, capsys):
        assert main(["implement", "NotAConfig"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro implement: malformed configuration name: 'NotAConfig'"
        ]

    def test_bad_simulate_config_name(self, capsys):
        assert main(["simulate", "--config", "NotAConfig"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro simulate: malformed configuration name: 'NotAConfig'"
        ]


class TestRunCommand:
    def test_run_inline_scenario(self, capsys):
        assert main(["run", "--capacity", "1", "--flow", "3D"]) == 0
        out = capsys.readouterr().out
        assert "MemPool-3D-1MiB" in out
        assert "EDP" in out
        assert "objective (edp)" in out

    def test_run_scenario_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"capacity_mib": 2, "flow": "3D", "objective": "performance"}
        ))
        assert main(["run", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MemPool-3D-2MiB" in out
        assert "objective (performance)" in out

    def test_run_scenario_list_reports_best(self, capsys, tmp_path):
        import json

        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps([
            {"capacity_mib": 1, "flow": "2D"},
            {"capacity_mib": 1, "flow": "3D"},
        ]))
        assert main(["run", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "best edp: MemPool-3D-1MiB" in out

    def test_run_without_inputs_errors(self, capsys):
        assert main(["run"]) == 2
        assert "need --scenario" in capsys.readouterr().err

    @staticmethod
    def _assert_one_line_error(capsys, message):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro run: ")
        assert message in lines[0]
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv, message", [
        (["--capacity", "4", "--flow", "2.5D"], "unknown flow '2.5D'"),
        (["--capacity", "0"], "SPM capacity must be positive"),
        (["--capacity", "4", "--workload", "fft"], "unknown workload 'fft'"),
        (["--capacity", "1", "--bandwidth", "nan"],
         "bandwidth must be finite, got nan"),
    ])
    def test_rejected_flags_exit_2_with_one_line(self, capsys, argv, message):
        assert main(["run", *argv]) == 2
        self._assert_one_line_error(capsys, message)

    def test_rejected_scenario_file_exits_2_with_one_line(self, capsys,
                                                          tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"capacity_mib": 4, "flows": "3D"}))
        assert main(["run", "--scenario", str(path)]) == 2
        self._assert_one_line_error(capsys,
                                    "unknown scenario fields: ['flows']")


BAD_NAMES = [
    pytest.param(["sweep", "--backend", "batched"], id="sweep-backend"),
    pytest.param(["sweep", "--kernels", "fft"], id="sweep-kernels"),
    pytest.param(["search", "--backend", "batched"], id="search-backend"),
    pytest.param(["search", "--strategy", "nope"], id="search-strategy"),
    pytest.param(["search", "--objectives", "beauty"],
                 id="search-objectives"),
    pytest.param(["serve", "--backend", "batched"], id="serve-backend"),
]


def _serve_forever(coro):  # a started service would never return
    coro.close()
    raise AssertionError("the bad name was not rejected")


class TestUnknownNames:
    """A bad name on the command line is one stderr line and exit 2."""

    @pytest.mark.parametrize("argv", BAD_NAMES)
    def test_exits_2_with_one_line(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(asyncio, "run", _serve_forever)
        paths = ["--cache-dir", str(tmp_path / "cache")]
        if argv[0] == "search":
            paths += ["--archive", str(tmp_path / "archive.jsonl")]
        assert main([*argv, *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: unknown ")

    @pytest.mark.parametrize("argv", BAD_NAMES)
    def test_leaves_the_filesystem_untouched(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        """With the default paths, a rejected name neither resets the
        last search's archive (``--resume`` continues it) nor creates a
        cache directory."""
        from repro.__main__ import DEFAULT_SEARCH_ARCHIVE

        monkeypatch.setattr(asyncio, "run", _serve_forever)
        monkeypatch.chdir(tmp_path)
        archive = tmp_path / DEFAULT_SEARCH_ARCHIVE
        archive.write_bytes(b'{"key": "last-search"}\n')
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert archive.read_bytes() == b'{"key": "last-search"}\n'


class TestListCommand:
    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out
        assert "dotp" in out

    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in ("flows:", "workloads:", "objectives:", "strategies:",
                        "experiments:"):
            assert heading in out
        assert "fig789" in out

    def test_list_strategies(self, capsys):
        assert main(["list", "strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("random", "latin-hypercube", "evolutionary",
                     "successive-halving"):
            assert name in out

    def test_list_backends(self, capsys):
        assert main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "thread", "process"):
            assert name in out
        assert "batched" not in out

    def test_sweep_kernels_axis_parses(self):
        args = build_parser().parse_args(["sweep", "--kernels", "matmul,dotp"])
        assert args.kernels == ("matmul", "dotp")


class TestSearchCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.strategy == "evolutionary"
        assert args.budget == 32
        assert args.objectives == ("edp", "energy_efficiency")
        assert not args.resume

    def test_search_and_resume_share_the_cache(self, capsys, tmp_path):
        argv = ["search", "--strategy", "random", "--budget", "6",
                "--cache-dir", str(tmp_path / "cache"),
                "--archive", str(tmp_path / "archive.jsonl")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 evaluated, 0 cached" in out
        assert "best edp" in out
        assert "Pareto front" in out
        assert main(argv + ["--resume"]) == 0
        assert "0 evaluated, 6 cached" in capsys.readouterr().out

    def test_search_needs_an_axis(self, capsys):
        assert main(["search", "--capacities", "4", "--flows", "3D",
                     "--bandwidths", "16"]) == 2
        assert "at least one axis" in capsys.readouterr().err

    def test_custom_archive_accumulates_without_resume(self, capsys, tmp_path):
        # Only the default archive artifact is reset; a user-supplied
        # path must never be deleted by a fresh search.
        archive = tmp_path / "overnight.jsonl"
        argv = ["search", "--strategy", "random", "--budget", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--archive", str(archive)]
        assert main(argv) == 0
        lines_after_first = archive.read_text().count("\n")
        assert main(argv) == 0
        capsys.readouterr()
        assert archive.read_text().count("\n") == 2 * lines_after_first

    def test_search_custom_objectives(self, capsys, tmp_path):
        assert main(["search", "--strategy", "latin-hypercube",
                     "--budget", "5", "--objectives", "performance",
                     "--no-cache", "--archive", ""]) == 0
        assert "best performance" in capsys.readouterr().out

    def test_search_thread_backend_with_progress(self, capsys, tmp_path):
        assert main(["search", "--strategy", "random", "--budget", "4",
                     "--backend", "thread", "--workers", "2", "--progress",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--archive", ""]) == 0
        captured = capsys.readouterr()
        assert "4 evaluated" in captured.out
        assert "1/4" in captured.err
        assert "4/4" in captured.err


class TestCacheCommand:
    def test_stats_clear_gc_roundtrip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--capacities", "1", "--bandwidths", "8,32",
                     "--cache-dir", cache_dir]) == 0
        assert main(["sweep", "--capacities", "1", "--bandwidths", "8,32",
                     "--cache-dir", cache_dir]) == 0  # all hits
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:   4" in out
        assert "hit rate:" in out
        assert "(current)" in out

        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        assert "kept 4 entries" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 4 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_gc_prunes_stale_version(self, capsys, tmp_path):
        import json

        from repro.sweep import ResultCache

        cache_dir = tmp_path / "cache"
        assert main(["sweep", "--capacities", "1", "--flows", "3D",
                     "--bandwidths", "16", "--cache-dir", str(cache_dir)]) == 0
        with ResultCache(cache_dir).path.open("a") as fh:
            fh.write(json.dumps({"key": "stale", "job": {},
                                 "model_version": "1.old",
                                 "status": "ok", "metrics": {}}) + "\n")
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert ResultCache(cache_dir).get("stale") is None

    def test_gc_explicit_keep_version(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--capacities", "1", "--flows", "3D",
                     "--bandwidths", "16", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--keep-version", "1.old"]) == 0
        assert "kept 0 entries" in capsys.readouterr().out

    def test_stats_json_is_the_service_document(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--capacities", "1,2", "--bandwidths", "16",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json",
                     "--cache-dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        for field in ("stores", "misses", "hit_rate", "bytes", "versions"):
            assert field in stats

    def test_merge_folds_a_worker_dir_into_the_shared_root(
        self, capsys, tmp_path
    ):
        worker = str(tmp_path / "worker")
        shared = str(tmp_path / "shared")
        assert main(["sweep", "--capacities", "1", "--bandwidths", "8,32",
                     "--cache-dir", worker]) == 0
        assert main(["sweep", "--capacities", "2", "--bandwidths", "8",
                     "--cache-dir", shared]) == 0
        capsys.readouterr()
        assert main(["cache", "merge", worker, "--cache-dir", shared]) == 0
        assert "merged 4 records" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", shared]) == 0
        assert "entries:   6" in capsys.readouterr().out

    def test_merge_missing_source_fails_cleanly(self, capsys, tmp_path):
        assert main(["cache", "merge", str(tmp_path / "nope"),
                     "--cache-dir", str(tmp_path / "shared")]) == 1
        assert "no cache" in capsys.readouterr().err


class TestInterruptHandling:
    def test_sweep_keyboard_interrupt_exits_130(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.sweep import executor as executor_mod

        def interrupted_run(self, spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            executor_mod.SweepExecutor, "run", interrupted_run
        )
        code = main(["sweep", "--capacities", "1", "--bandwidths", "16",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "resume with the same command" in err

    def test_sweep_interrupt_without_cache_warns(self, capsys, monkeypatch):
        from repro.sweep import executor as executor_mod

        monkeypatch.setattr(
            executor_mod.SweepExecutor, "run",
            lambda self, spec: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        code = main(["sweep", "--capacities", "1", "--bandwidths", "16",
                     "--no-cache"])
        assert code == 130
        assert "not preserved" in capsys.readouterr().err

    def test_search_keyboard_interrupt_exits_130(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.search import driver as driver_mod

        def interrupted_run(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(driver_mod.Searcher, "run", interrupted_run)
        code = main(["search", "--budget", "4", "--capacities", "1,2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--archive", ""])
        assert code == 130
        err = capsys.readouterr().err
        assert "repro search: interrupted" in err


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.cache_dir == ".sweep-cache"
        assert args.queue_limit == 64
        assert args.max_active == 2
        assert args.workers == 0
        assert not args.no_cache

    def test_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--no-cache", "--backend", "thread",
             "--workers", "4", "--queue-limit", "8", "--max-active", "1"]
        )
        assert args.port == 0
        assert args.no_cache
        assert args.backend == "thread"
        assert (args.workers, args.queue_limit, args.max_active) == (4, 8, 1)


class TestReportCommand:
    @pytest.fixture()
    def store_path(self, tmp_path):
        path = tmp_path / "results.jsonl"
        assert main(["sweep", "--capacities", "1,2", "--bandwidths", "8,32",
                     "--no-cache", "--store", str(path)]) == 0
        return path

    def test_summary_by_default(self, capsys, store_path):
        capsys.readouterr()
        assert main(["report", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "best edp" in out
        assert "Pareto front" in out

    def test_objective_table(self, capsys, store_path):
        capsys.readouterr()
        assert main(["report", str(store_path), "--objective", "edp",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top edp of 8 points" in out
        assert "EDP Js" in out

    def test_pareto_flag(self, capsys, store_path):
        capsys.readouterr()
        assert main(["report", str(store_path), "--pareto"]) == 0
        assert "Pareto front" in capsys.readouterr().out

    def test_unknown_objective_raises(self, capsys, store_path):
        capsys.readouterr()
        assert main(["report", str(store_path), "--objective", "beauty"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro report: unknown objective 'beauty'")

    def test_missing_file(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no records" in capsys.readouterr().err

    def test_report_is_read_only(self, capsys, tmp_path):
        # A mistyped path must not leave directories behind.
        target = tmp_path / "not" / "here" / "results.jsonl"
        assert main(["report", str(target)]) == 1
        capsys.readouterr()
        assert not target.parent.exists()


class TestCheckCommand:
    CORPUS = str(Path(__file__).parent / "analysis_corpus")

    def test_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.paths == ["src"]
        assert args.rules is None
        assert not args.json

    def test_clean_file_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "fine.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_defect_exits_one_with_findings(self, capsys):
        code = main(["check", f"{self.CORPUS}/rep003_defect.py"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP003" in out
        assert "rep003_defect.py:" in out
        assert "fix:" in out

    def test_rule_filter_is_repeatable(self, capsys):
        # REP003 filtered out: the REP003-only defect is clean under REP001.
        assert main(["check", "--rule", "REP001", "--rule", "REP002",
                     f"{self.CORPUS}/rep003_defect.py"]) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["check", "--rule", "REP999", "src"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["check", "no/such/path"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_document_schema(self, capsys):
        assert main(["check", "--json",
                     f"{self.CORPUS}/rep004_defect.py"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"rules", "files_checked", "counts", "findings"}
        assert doc["files_checked"] == 1
        assert doc["counts"]["error"] == len(doc["findings"]) > 0
        for finding in doc["findings"]:
            assert set(finding) == {"path", "line", "col", "rule",
                                    "message", "severity", "hint"}
            assert finding["rule"] == "REP004"

    def test_json_clean_run(self, capsys, tmp_path):
        path = tmp_path / "fine.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert main(["check", "--json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []
        assert doc["counts"] == {"error": 0, "warning": 0}

    def test_src_gate_via_cli(self, capsys):
        """`repro check src` exits 0 — the acceptance criterion."""
        src = str(Path(__file__).parent.parent / "src")
        assert main(["check", src]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_list_includes_lints(self, capsys):
        assert main(["list", "lints"]) == 0
        out = capsys.readouterr().out
        for rule in ("REP001", "REP002", "REP003",
                     "REP004", "REP005", "REP006"):
            assert rule in out
