"""Tests for repro.obs: tracing, metrics, profiling, reports.

The load-bearing properties:

* disarmed tracing writes nothing and costs a boolean check;
* armed traces reconstruct the engine -> backend -> worker -> stage
  tree across thread pools, process pools, and the service HTTP
  boundary (one trace id end to end);
* metrics are get-or-create by name, kind-collision-safe, and export
  identically over ``GET /v1/metrics`` (JSON and Prometheus text);
* BENCH artifacts are schema-stamped with the host they ran on;
* the HTML report is fully self-contained (no network fetches).
"""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario
from repro.engine import Engine
from repro.obs import metrics, profile, trace
from repro.obs.profile import StageProfiler
from repro.obs.report import render_html, stamp_bench, write_html


@pytest.fixture()
def trace_state():
    """Snapshot and restore the module-global trace arm/sink state."""
    armed, sink = trace._armed, trace._sink
    yield
    trace._armed, trace._sink = armed, sink


def _scenarios(n: int = 2) -> list:
    bandwidths = (4.0, 16.0, 64.0, 128.0)
    return [
        Scenario(capacity_mib=1 if i % 2 == 0 else 4, flow="2D",
                 bandwidth=bandwidths[i % len(bandwidths)])
        for i in range(n)
    ]


class TestTraceCore:
    def test_disarmed_span_is_shared_noop(self, trace_state):
        trace.disable()
        span = trace.span("anything", attr=1)
        assert span is trace.span("else")  # the singleton: zero alloc
        with span:
            span.set(more=2)  # all no-ops
        assert trace.current_context() is None
        assert trace.envelope() is None

    def test_disarmed_run_writes_no_sink(self, trace_state, tmp_path,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace.disable()
        outcome = Engine(backend="serial").run(_scenarios(2))
        assert outcome.stats.failed == 0
        assert list(tmp_path.iterdir()) == []  # no sink, no side files

    def test_armed_spans_nest_and_record(self, trace_state, tmp_path):
        sink = tmp_path / "t.jsonl"
        trace.enable(sink)
        with trace.span("outer", a=1):
            with trace.span("inner"):
                pass
        trace.disable()
        spans = {s["name"]: s for s in trace.read_spans(sink)}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["inner"]["trace"] == spans["outer"]["trace"]
        assert spans["outer"]["parent"] is None
        assert spans["outer"]["attrs"] == {"a": 1}
        assert spans["outer"]["duration_s"] >= spans["inner"]["duration_s"]

    def test_exception_annotates_and_unwinds(self, trace_state, tmp_path):
        sink = tmp_path / "t.jsonl"
        trace.enable(sink)
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("x")
        assert trace.current_context() is None  # stack unwound
        trace.disable()
        (record,) = trace.read_spans(sink)
        assert record["attrs"]["error"] == "ValueError"

    def test_header_round_trip(self):
        ctx = {"trace": "aa11", "span": "bb22"}
        assert trace.from_header(trace.to_header(ctx)) == ctx
        assert trace.from_header(None) is None
        assert trace.from_header("") is None
        assert trace.from_header("garbage") is None

    def test_walk_tree_orphans_become_roots(self):
        spans = [
            {"trace": "t", "span": "a", "parent": None, "name": "root",
             "start_unix": 1.0},
            {"trace": "t", "span": "b", "parent": "a", "name": "child",
             "start_unix": 2.0},
            {"trace": "t", "span": "c", "parent": "missing",
             "name": "orphan", "start_unix": 3.0},
        ]
        walked = [(d, r["name"]) for d, r in trace.walk_tree(spans)]
        assert walked == [(0, "root"), (1, "child"), (0, "orphan")]


class TestTracePropagation:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_pool_spans_reparent_to_submitter(self, trace_state, tmp_path,
                                              backend):
        sink = tmp_path / "t.jsonl"
        trace.enable(sink)
        with trace.span("test.root"):
            outcome = Engine(backend=backend, workers=2).run(_scenarios(3))
        trace.disable()
        assert outcome.stats.failed == 0
        spans = trace.read_spans(sink)
        assert len({s["trace"] for s in spans}) == 1  # one trace end to end
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        jobs = by_name["engine.job"]
        assert len(jobs) == 3
        backend_span = by_name["engine.backend"][0]
        assert all(j["parent"] == backend_span["span"] for j in jobs)
        # every job span carries a stage pair underneath
        assert len(by_name["stage.implement"]) == 3
        assert len(by_name["stage.cycles"]) == 3

    def test_process_pool_workers_adopt_envelope(self, trace_state,
                                                 tmp_path):
        import os

        sink = tmp_path / "t.jsonl"
        trace.enable(sink)
        with trace.span("test.root"):
            outcome = Engine(backend="process", workers=2).run(_scenarios(2))
        trace.disable()
        assert outcome.stats.failed == 0
        spans = trace.read_spans(sink)
        assert len({s["trace"] for s in spans}) == 1
        worker_pids = {
            s["pid"] for s in spans if s["name"] == "engine.job"
        }
        assert os.getpid() not in worker_pids  # really ran out of process
        tree = {r["name"] for d, r in trace.walk_tree(spans) if d >= 3}
        assert {"engine.job", "stage.implement", "stage.cycles"} <= tree

    def test_engine_trace_kwarg_arms(self, trace_state, tmp_path):
        sink = tmp_path / "t.jsonl"
        Engine(backend="serial", trace=sink).run(_scenarios(1))
        trace.disable()
        names = {s["name"] for s in trace.read_spans(sink)}
        assert "engine.run_many" in names and "engine.job" in names


class TestMetrics:
    def test_counter_math_and_monotonicity(self):
        c = metrics.Counter("t_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_function_and_dead_callback(self):
        g = metrics.Gauge("t_gauge")
        g.set(4)
        assert g.value == 4.0
        g.set_function(lambda: 7)
        assert g.value == 7.0
        g.set_function(lambda: 1 / 0)  # dead callback: NaN, not a crash
        assert g.value != g.value
        assert "NaN" in metrics._fmt(g.value)

    def test_histogram_cumulative_buckets(self):
        h = metrics.Histogram("t_hist", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_registry_get_or_create_and_kind_clash(self):
        reg = metrics.MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = metrics.MetricsRegistry()
        reg.counter("t_requests_total", "requests").inc(2)
        reg.histogram("t_seconds", buckets=(0.5,)).observe(0.1)
        text = reg.prometheus()
        assert "# HELP t_requests_total requests" in text
        assert "# TYPE t_requests_total counter" in text
        assert "t_requests_total 2" in text
        assert 't_seconds_bucket{le="0.5"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_count 1" in text

    def test_engine_job_latency_histogram_fills(self):
        before = metrics.histogram("repro_engine_job_seconds").snapshot()
        Engine(backend="serial").run(_scenarios(2))
        after = metrics.histogram("repro_engine_job_seconds").snapshot()
        assert after["count"] == before["count"] + 2


class TestProfile:
    def test_hooks_and_breakdown(self):
        profiler = StageProfiler()
        with profiler.attached():
            profile.notify("implement", 0.3)
            profile.notify("cycles", 0.1)
            profile.notify("implement", 0.1)
        profile.notify("implement", 99.0)  # detached: not recorded
        breakdown = profiler.breakdown()
        assert breakdown["implement"]["count"] == 2
        assert breakdown["implement"]["total_s"] == pytest.approx(0.4)
        assert breakdown["implement"]["share"] == pytest.approx(0.8)
        assert breakdown["cycles"]["share"] == pytest.approx(0.2)
        assert "implement" in profiler.summary()

    def test_pipeline_feeds_attached_profiler(self):
        profiler = StageProfiler()
        with profiler.attached():
            Engine(backend="serial").run(_scenarios(1))
        breakdown = profiler.breakdown()
        assert set(breakdown) == {"implement", "cycles"}
        assert breakdown["implement"]["count"] == 1

    def test_from_trace_rebuilds_stage_breakdown(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        for name, dur in (("stage.implement", 0.2), ("stage.cycles", 0.1),
                          ("engine.job", 9.9)):
            sink.open("a").write(json.dumps(
                {"trace": "t", "span": name, "parent": None, "name": name,
                 "start_unix": 0.0, "duration_s": dur, "pid": 1, "attrs": {}}
            ) + "\n")
        breakdown = StageProfiler.from_trace(sink).breakdown()
        assert set(breakdown) == {"implement", "cycles"}  # engine.* ignored
        assert breakdown["implement"]["total_s"] == pytest.approx(0.2)


class TestServiceObservability:
    def test_http_boundary_reparents_and_metrics_export(self, trace_state,
                                                        tmp_path):
        from repro.client import ServiceClient
        from repro.service import ReproService

        sink = tmp_path / "svc.jsonl"
        trace.enable(sink)
        service = ReproService(port=0, backend="serial",
                               cache_dir=str(tmp_path / "cache"))
        with service.run_in_thread() as url:
            client = ServiceClient(url)
            with trace.span("client.root"):
                client.run(_scenarios(1))
                job = client.submit_runs(_scenarios(2))
                client.wait(job, timeout_s=60)
            health = client.health()
            snapshot = client.metrics()
            text = client.metrics_text()
        trace.disable()

        # one trace id across client -> HTTP -> runner threads -> stages
        spans = trace.read_spans(sink)
        assert len({s["trace"] for s in spans}) == 1
        names = {s["name"] for s in spans}
        assert {"client.root", "service.runs", "service.job",
                "engine.run_many", "engine.job",
                "stage.implement"} <= names
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["client.root"]

        # satellite: health carries uptime / queue depth / active jobs
        assert health["uptime_s"] > 0
        assert health["queue_depth"] == 0
        assert health["active_jobs"] == 0

        # metrics surface over both formats
        assert snapshot["repro_service_requests_total"]["value"] >= 4
        assert snapshot["repro_service_queue_depth"]["kind"] == "gauge"
        assert "repro_engine_job_seconds_bucket" in text
        assert "# TYPE repro_service_requests_total counter" in text

    def test_backpressure_and_drain_counters(self, tmp_path):
        from repro.client import ServiceClient, ServiceError
        from repro.service import ReproService

        rejected = metrics.counter("repro_service_backpressure_total")
        before = rejected.value
        service = ReproService(port=0, backend="serial", queue_limit=1,
                               max_active=1)
        # stall the single runner so queued jobs pile up deterministically
        import threading

        gate = threading.Event()
        original = service._run_job

        def slow(job):
            gate.wait(10)
            original(job)

        service._run_job = slow
        with service.run_in_thread() as url:
            client = ServiceClient(url, retries=0)
            client.submit_runs(_scenarios(1))  # occupies runner or queue
            # with a stalled runner one of the next submits must bounce
            try:
                client.submit_runs(_scenarios(2))
                client.submit_runs(_scenarios(3))
            except ServiceError as err:
                assert err.status == 429
            else:
                pytest.fail("expected a 429 once the queue filled")
            gate.set()
        assert rejected.value == before + 1


class TestBenchStamp:
    def test_stamp_and_load_round_trip(self):
        stamped = stamp_bench({"workloads": {"matmul": {"speedup": 2.0}}})
        assert stamped["schema_version"] == 1
        assert stamped["host"]["python"]
        assert stamped["workloads"]["matmul"]["speedup"] == 2.0


class TestHtmlReport:
    @pytest.fixture(scope="class")
    def records(self):
        return Engine(backend="serial").run(_scenarios(6)).records

    def test_report_is_self_contained(self, records, tmp_path):
        profiler = StageProfiler()
        profiler("implement", 0.3)
        profiler("cycles", 0.1)
        html = render_html(records, stage_profile=profiler.breakdown(),
                           title="t")
        # all three views render
        assert "Pareto front" in html
        assert "Sweep heatmap" in html
        assert "Per-stage profile" in html
        # zero network fetches: no external URLs, scripts, or imports
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html and "@import" not in html
        assert 'src="' not in html and "url(" not in html
        # identity never rides on color alone: legend + table views exist
        assert "legend" in html and "<table" in html

    def test_sections_are_optional(self):
        html = render_html([], stage_profile=None)
        assert "Pareto front" not in html
        assert "<html" in html  # still a complete document

    def test_write_html(self, records, tmp_path):
        out = write_html(tmp_path / "r.html", records=records)
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert "prefers-color-scheme: dark" in text  # dark mode is designed

    def test_front_tile_keeps_exact_ties(self, records):
        # Two designs with equal metrics dominate neither each other: the
        # tile counts both, as the text report's front does.
        from repro.sweep import pareto_pairs

        best = min(records, key=lambda r: r["metrics"]["edp"])
        tied = [best, {**best, "key": "tied-" + best["key"]}]
        assert len(pareto_pairs(tied)) == 2
        html = render_html(tied)
        assert ('<div class="v">2</div><div class="k">on Pareto front</div>'
                in html)


class TestCli:
    def test_report_html_cli(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        from repro.sweep import ResultStore

        store = ResultStore(tmp_path / "results.jsonl")
        for _, record in Engine(
            backend="serial", store=store
        ).run_many(_scenarios(4)):
            pass
        out = tmp_path / "report.html"
        assert main(["report", str(tmp_path / "results.jsonl"),
                     "--html", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("<svg") >= 2

    def test_report_html_needs_input(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["report", "--html", str(tmp_path / "x.html")]) == 2
        assert main(["report"]) == 2

    def test_trajectory_commands_are_gone(self, tmp_path, capsys):
        from repro.__main__ import main

        for argv in (
            ["trajectory", "check"],
            ["report", str(tmp_path / "r.jsonl"), "--html",
             str(tmp_path / "r.html"), "--trajectory",
             str(tmp_path / "t.json")],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert not (tmp_path / "r.html").exists()

    def test_metrics_cli_against_live_service(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.service import ReproService

        service = ReproService(port=0, backend="serial")
        with service.run_in_thread() as url:
            assert main(["metrics", "--url", url]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert "repro_service_requests_total" in snapshot
            assert main(["metrics", "--url", url, "--prometheus"]) == 0
            assert "# TYPE" in capsys.readouterr().out
