"""Tests for repro.analytic — the calibrated tier-0 prediction tier.

Covers the full contract: calibration drift (re-fit from scratch must
honour every declared error bound), stale-artifact refusal, cache-key
separation between tiers, the pipeline/engine/CLI wiring, the analytic
counters, the generalized successive-halving screen, and the one matmul
model every tier serves.
"""

import json
import re

import pytest

from repro.__main__ import main
from repro.analytic import (
    CalibrationStore,
    calibrate,
    ensure_calibrated,
    predict_cycles,
)
from repro.analytic.store import CalibrationRecord, _reset_stores
from repro.api import Pipeline, Scenario
from repro.api.registry import PREDICTORS, available_predictors
from repro.engine import Engine
from repro.engine.cache import cache_stats
from repro.sweep import ResultCache

#: Valid starting dims per workload (calibrate() swaps in its own dims).
SEED_DIMS = {
    "dotp": 512, "axpy": 512, "conv2d": 18, "matvec": 56, "stencil5": 18,
}

BASE = Scenario(capacity_mib=1, flow="2D", bandwidth=16.0,
                matrix_dim=512, workload="dotp")


@pytest.fixture(autouse=True)
def isolated_stores():
    """Each test starts with empty process-wide calibration stores."""
    _reset_stores()
    yield
    _reset_stores()


@pytest.fixture
def plain_workload():
    """A registered workload with no predictor (tier-0 must fall back)."""
    from repro.api.registry import WORKLOADS, register_workload

    @register_workload("plainw")
    def plainw(scenario):
        return float(scenario.matrix_dim) * 100.0

    yield "plainw"
    WORKLOADS.unregister("plainw")


@pytest.fixture(params=["plainw", "matmul"])
def unpredicted_workload(request):
    """A workload without a predictor: the ``plainw`` fixture, and
    ``matmul``, whose plugin is already the closed-form phase model."""
    if request.param == "plainw":
        return request.getfixturevalue("plain_workload")
    return request.param


@pytest.fixture(scope="module")
def fitted():
    """Every built-in predictor re-fitted from scratch (the drift check)."""
    records = {}
    for workload in available_predictors():
        scenario = BASE.replace(
            workload=workload, matrix_dim=SEED_DIMS[workload], tile_size=None
        )
        records[workload] = calibrate(workload, scenario)
    return records


class TestCalibrationDrift:
    def test_every_predictor_refits_within_declared_bound(self, fitted):
        """The CI drift gate: a from-scratch fit must honour its bound."""
        for workload, record in fitted.items():
            assert record.within_bound, (
                f"{workload}: achieved {record.achieved_error:.3f} > "
                f"declared {record.error_bound:.3f}"
            )
            assert record.achieved_error == pytest.approx(
                max(abs(record.residuals[str(d)]) for d in record.probe_dims)
            )

    def test_residual_summary_covers_every_dim(self, fitted):
        for record in fitted.values():
            for dim in (*record.calibration_dims, *record.probe_dims):
                assert str(dim) in record.residuals

    def test_matvec_declares_contention_limited_bound(self, fitted):
        # matvec's shared-x bank contention is bank-alignment jagged;
        # its wider bound (and nonzero contention regressor) is the
        # documented contract, not an accident.
        record = fitted["matvec"]
        assert record.error_bound == pytest.approx(0.15)
        assert record.contention_factor != 0.0
        for workload, other in fitted.items():
            if workload != "matvec":
                assert other.error_bound <= 0.05


class TestStaleArtifacts:
    def test_version_drift_is_refused(self, fitted):
        record = fitted["dotp"]
        stale = CalibrationRecord.from_json(
            {**record.to_json(), "model_version": "0.0-ancient"}
        )
        store = CalibrationStore(None)
        store.inject(stale)
        assert store.get(stale.key) is None  # refused, not served

    def test_doctored_content_is_refused(self, fitted):
        record = fitted["dotp"]
        doctored = CalibrationRecord.from_json(
            {**record.to_json(), "calibration_dims": [3, 5, 7]}
        )
        assert doctored.is_stale(record.model_version)
        store = CalibrationStore(None)
        store.inject(doctored)
        assert store.get(doctored.key) is None

    def test_stale_record_triggers_refit_not_silent_use(self, fitted):
        record = fitted["dotp"]
        stale = CalibrationRecord.from_json(
            {**record.to_json(), "model_version": "0.0-ancient",
             "factor": 1e9}
        )
        store = CalibrationStore(None)
        store.inject(stale)
        scenario = BASE.replace(workload="dotp", tile_size=None)
        fresh, refitted = ensure_calibrated("dotp", scenario, store)
        assert refitted
        assert fresh.model_version != "0.0-ancient"
        assert fresh.factor != pytest.approx(1e9)
        # The refit shadows the stale line for later lookups.
        again, refitted_again = ensure_calibrated("dotp", scenario, store)
        assert not refitted_again
        assert again.factor == pytest.approx(fresh.factor)

    def test_store_roundtrips_records_on_disk(self, tmp_path, fitted):
        store = CalibrationStore(tmp_path)
        store.put(fitted["dotp"])
        reloaded = CalibrationStore(tmp_path)
        record = reloaded.get(fitted["dotp"].key)
        assert record is not None
        assert record.factor == pytest.approx(fitted["dotp"].factor)
        # Torn trailing line (a crashed writer) is skipped, not fatal.
        with (tmp_path / CalibrationStore.FILENAME).open("a") as fh:
            fh.write('{"key": "torn')
        assert CalibrationStore(tmp_path).get(fitted["dotp"].key) is not None


class TestPredictionAccuracy:
    @pytest.mark.parametrize("workload,dim", [("dotp", 1024), ("axpy", 640)])
    def test_prediction_matches_fast_engine_within_bound(self, workload, dim):
        from repro.api.registry import WORKLOADS

        scenario = BASE.replace(workload=workload, matrix_dim=dim,
                                tile_size=None)
        predicted = predict_cycles(scenario)
        assert predicted is not None
        measured = float(WORKLOADS.get(workload)(scenario))
        bound = PREDICTORS.get(workload).error_bound
        assert abs(predicted - measured) / measured <= bound

    def test_workload_without_predictor_falls_back(self,
                                                   unpredicted_workload):
        scenario = BASE.replace(workload=unpredicted_workload, matrix_dim=512,
                                tile_size=None)
        assert predict_cycles(scenario) is None


class TestKeySeparation:
    def test_marker_present_only_under_analytic_mode(self):
        assert "evaluation_tier" not in BASE.cache_dict()
        assert "evaluation_tier" not in BASE.cache_dict("fast")
        assert BASE.cache_dict("analytic")["evaluation_tier"] == "analytic"
        assert BASE.cycles_dict("analytic")["evaluation_tier"] == "analytic"

    def test_cache_and_cycles_keys_differ_across_tiers(self):
        default_cache, default_cycles = BASE.cache_key, BASE.cycles_key
        assert BASE.cache_key_for("analytic") != default_cache
        assert BASE.cycles_key_for("analytic") != default_cycles
        # The fast engine's keys are the byte-identical default keys.
        assert BASE.cache_key_for("fast") == default_cache
        assert BASE.cycles_key_for("fast") == default_cycles

    def test_workloads_without_predictor_keep_default_keys(
        self, unpredicted_workload
    ):
        scenario = BASE.replace(workload=unpredicted_workload, matrix_dim=512,
                                tile_size=None)
        assert not scenario.predicted_by("analytic")
        assert scenario.cache_key_for("analytic") == scenario.cache_key
        assert scenario.cycles_key_for("analytic") == scenario.cycles_key


class TestPipelineWiring:
    def test_analytic_engine_param_serves_predictions(self):
        scenario = BASE.replace(matrix_dim=1280, tile_size=None)
        tier1 = Pipeline().run(scenario)
        tier0 = Pipeline(engine="analytic").run(scenario)
        predicted = predict_cycles(scenario)
        assert tier0.cycles == pytest.approx(predicted)  # served tier-0
        assert abs(tier0.cycles - tier1.cycles) / tier1.cycles <= 0.05
        # Physical metrics come from the same implement stage either way.
        assert tier0.footprint_um2 == tier1.footprint_um2

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(engine="psychic")
        # The reference simulator is a simulator choice, bit-identical
        # to fast: no evaluation tier of its own.
        with pytest.raises(ValueError, match="unknown evaluation engine"):
            Pipeline(engine="reference")
        with pytest.raises(ValueError, match="unknown evaluation engine"):
            Engine(sim_engine="reference")


class TestEngineTier0:
    def test_run_many_end_to_end_with_counters(self, tmp_path):
        scenarios = [
            BASE.replace(matrix_dim=dim, bandwidth=bw, tile_size=None)
            for dim in (512, 1024)
            for bw in (8.0, 32.0)
        ]
        engine = Engine(backend="serial", cache=ResultCache(tmp_path),
                        sim_engine="analytic")
        outcome = engine.run(scenarios)
        assert outcome.stats.failed == 0
        assert len(outcome.ok_records) == 4
        assert (tmp_path / CalibrationStore.FILENAME).exists()
        stats = cache_stats(tmp_path)
        assert stats["analytic_predictions"] >= 4
        assert stats["analytic_calibrations"] >= 1
        assert stats["calibration_entries"] >= 1

    def test_tier_records_never_collide_with_tier1(self, tmp_path):
        scenario = BASE.replace(matrix_dim=1024, tile_size=None)
        cache = ResultCache(tmp_path)
        Engine(backend="serial", cache=cache).run([scenario])
        outcome = Engine(backend="serial", cache=ResultCache(tmp_path),
                         sim_engine="analytic").run([scenario])
        # The analytic run must not be served from the tier-1 record.
        assert outcome.stats.evaluated == 1

    def test_scope_serves_predictions_under_its_key_marker(self, tmp_path):
        """The analytic tier's scope is its engine argument: an analytic
        engine predicts under the analytic-marked keys, which never hold
        simulated cycles, while a fast pipeline on the same directory
        simulates under the plain keys."""
        from repro.engine import StageCache

        scenario = Scenario(workload="dotp", matrix_dim=256, num_cores=16,
                            capacity_mib=1)
        simulated = Pipeline(engine="fast").run(scenario).cycles
        predicted = Pipeline(engine="analytic").run(scenario).cycles
        assert simulated != predicted  # the check below can tell them apart
        record = Engine(backend="serial", cache=ResultCache(tmp_path),
                        sim_engine="analytic").run([scenario]).records[0]
        stages = StageCache(tmp_path)
        pinned = Pipeline(engine="fast", stage_cache=stages).run(scenario)
        assert record["key"] == scenario.cache_key_for("analytic")
        assert record["metrics"]["cycles"] == predicted
        assert stages.peek(scenario.cycles_key_for("analytic")) == predicted
        assert pinned.cycles == simulated
        assert stages.peek(scenario.cycles_key) == simulated


    @pytest.mark.parametrize(
        "backend,context",
        [("thread", None), ("process", "fork"), ("process", "spawn")],
        ids=["thread", "process-fork", "process-spawn"],
    )
    def test_every_backend_stores_predictions(self, tmp_path, backend,
                                              context):
        """The tier chosen on the engine reaches every backend's workers
        and keys their records: each stores serial's predictions, under
        the analytic-marked keys, and a fresh engine serves them back."""
        import multiprocessing

        scenarios = [
            Scenario(capacity_mib=1, workload="dotp", matrix_dim=dim,
                     num_cores=16)
            for dim in (768, 1536, 3000, 5000)
        ]

        def run(name, root, **options):
            return Engine(backend=name, cache=ResultCache(root),
                          sim_engine="analytic", **options).run(scenarios)

        serial = run("serial", tmp_path / "serial")
        assert [r["metrics"]["cycles"] for r in serial.records] == [
            926.0, 1835.0, 3577.25, 5944.4375,
        ]
        assert serial.records[0]["key"].startswith("0aa1aacadb4f")
        assert [r["key"] for r in serial.records] == [
            s.cache_key_for("analytic") for s in scenarios
        ]

        mp_context = multiprocessing.get_context(context) if context else None
        root = tmp_path / backend
        outcome = run(backend, root, workers=2, mp_context=mp_context)
        assert outcome.stats.evaluated == 4
        assert outcome.records == serial.records

        again = run("serial", root)
        assert again.stats.cached == 4
        assert [r["metrics"] for r in again.records] == [
            r["metrics"] for r in serial.records
        ]


    def test_sweep_executor_keys_prebuilt_jobs_for_its_tier(self, tmp_path):
        """Jobs from ``SweepSpec.jobs()`` are built for the fast engine;
        an analytic engine keys, evaluates and returns them for its own
        tier."""
        from repro.sweep import SweepSpec

        spec = SweepSpec(capacities_mib=(1,), flows=("2D",),
                         bandwidths=(8.0, 32.0), matrix_dims=(768,),
                         core_counts=(16,), kernels=("dotp",))
        outcome = Engine(cache=ResultCache(tmp_path),
                         sim_engine="analytic").run(spec.jobs())
        scenarios = [job.scenario() for job in spec.jobs()]
        tier0 = Pipeline(engine="analytic")
        assert [r["key"] for r in outcome.records] == [
            s.cache_key_for("analytic") for s in scenarios
        ]
        assert [job.key for job in outcome.jobs] == [
            r["key"] for r in outcome.records
        ]
        assert [r["metrics"]["cycles"] for r in outcome.records] == [
            tier0.run(s).cycles for s in scenarios
        ]


class TestSuccessiveHalvingScreen:
    def _strategy(self, space, **options):
        from repro.search import STRATEGIES

        return STRATEGIES.get("successive-halving")(
            space,
            objectives=(("edp", lambda p: p.edp, False),),
            seed=0,
            **options,
        )

    def test_screen_ranking_matches_brute_force_predictor_ranking(self):
        from repro.search import Choice, SearchSpace

        space = SearchSpace(
            (Choice("capacity_mib", (1, 2, 4, 8)),
             Choice("bandwidth", (4.0, 16.0, 64.0))),
            flow="2D", workload="dotp", matrix_dim=512,
        )
        strategy = self._strategy(space)
        grid = [
            {"capacity_mib": c, "bandwidth": b}
            for c in (1, 2, 4, 8) for b in (4.0, 16.0, 64.0)
        ]
        screened = [strategy._proxy_costs(v)[0] for v in grid]
        brute = [
            Pipeline(engine="analytic").run(space.scenario(v)).edp
            for v in grid
        ]
        ranked_by_screen = sorted(range(len(grid)), key=lambda i: screened[i])
        ranked_by_brute = sorted(range(len(grid)), key=lambda i: brute[i])
        assert ranked_by_screen == ranked_by_brute

    def test_non_matmul_search_recovers_grid_pareto_best(self):
        from repro.search import Choice, Searcher, SearchSpace

        axes = (Choice("capacity_mib", (1, 2, 4, 8)),
                Choice("bandwidth", (4.0, 16.0, 64.0)))
        space = SearchSpace(axes, flow="2D", workload="dotp", matrix_dim=512)
        grid_best = min(
            Pipeline().run(space.scenario(
                {"capacity_mib": c, "bandwidth": b}
            )).edp
            for c in (1, 2, 4, 8) for b in (4.0, 16.0, 64.0)
        )
        outcome = Searcher(
            space, strategy="successive-halving", budget=9,
            objectives=("edp",), seed=0,
        ).run()
        found = min(c.objectives["edp"] for c in outcome.candidates
                    if c.objectives)
        assert found == pytest.approx(grid_best)

    def test_workload_without_predictor_screens_via_matmul_proxy(
        self, plain_workload
    ):
        from repro.search import paper_space

        strategy = self._strategy(paper_space(workload=plain_workload))
        costs = strategy._proxy_costs(
            {"capacity_mib": 1, "flow": "2D", "bandwidth": 16.0}
        )
        assert costs is not None and costs[0] > 0

    def test_memo_invalidated_when_predictor_registry_changes(self):
        from repro.api.registry import register_predictor
        from repro.search import paper_space

        strategy = self._strategy(paper_space(workload="dotp",
                                              matrix_dim=512))
        values = {"capacity_mib": 1, "flow": "2D", "bandwidth": 16.0}
        assert strategy._proxy_costs(values) is not None
        assert strategy._proxy_memo
        generation = strategy._proxy_generation

        @register_predictor("ephemeral-pred")
        def ephemeral(scenario):  # pragma: no cover - never evaluated
            raise AssertionError("screen must not evaluate this")

        try:
            assert strategy._proxy_costs(values) is not None
            assert strategy._proxy_generation != generation
        finally:
            PREDICTORS.unregister("ephemeral-pred")


class TestCli:
    def test_list_predictors(self, capsys):
        assert main(["list", "predictors"]) == 0
        out = capsys.readouterr().out
        for name in ("dotp", "axpy", "conv2d", "matvec", "stencil5"):
            assert name in out
        assert "matmul" not in out

    def test_cache_stats_prints_analytic_counters(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "analytic:" in out
        assert "calibration records" in out

    def test_cache_stats_json_carries_analytic_keys(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        for key in ("analytic_predictions", "analytic_calibrations",
                    "analytic_fallbacks", "calibration_entries"):
            assert key in stats

    def test_sweep_with_analytic_sim_engine_resumes(self, tmp_path, capsys):
        argv = ["sweep", "--capacities", "1", "--flows", "2D",
                "--bandwidths", "8,32", "--matrix-dims", "768",
                "--core-counts", "16", "--kernels", "dotp",
                "--cache-dir", str(tmp_path), "--sim-engine", "analytic"]
        assert main(argv) == 0
        assert "2 jobs: 0 cached, 2 evaluated, 0 failed" in (
            capsys.readouterr().out
        )
        assert main(argv) == 0
        assert "2 jobs: 2 cached, 0 evaluated, 0 failed" in (
            capsys.readouterr().out
        )

    def test_run_with_analytic_sim_engine(self, tmp_path, capsys):
        scenario = BASE.replace(matrix_dim=2048, tile_size=None)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert main(["run", "--scenario", str(path),
                     "--sim-engine", "analytic"]) == 0
        predicted = Pipeline(engine="analytic").run(scenario).cycles
        assert f"cycles:          {predicted:10.3e}" in capsys.readouterr().out


class TestOneMatmulModel:
    def test_paper_grid_on_analytic_is_the_fast_tier_grid(self, tmp_path,
                                                          capsys):
        """Matmul has no predictor, so the analytic tier serves the
        paper grid through the phase model: the fast tier's report,
        store, records and stage memos, and no calibration fitted."""

        def sweep(name, *options):
            argv = ["sweep", "--bandwidths", "2,4,8,16,32,64,128",
                    "--cache-dir", str(tmp_path / name),
                    "--store", str(tmp_path / f"{name}.jsonl"), *options]
            assert main(argv) == 0
            out = capsys.readouterr().out
            return re.sub(r" in [0-9.]+s$", " in <s>", out, flags=re.M)

        fast_out = sweep("fast")
        tier0_out = sweep("analytic", "--sim-engine", "analytic")
        assert "56 jobs: 0 cached, 56 evaluated, 0 failed in <s>" in tier0_out
        assert tier0_out == fast_out
        for name in ("{}.jsonl", "{}/results.jsonl", "{}/stages.jsonl"):
            assert (tmp_path / name.format("analytic")).read_bytes() == (
                tmp_path / name.format("fast")
            ).read_bytes()
        assert not (tmp_path / "analytic" / CalibrationStore.FILENAME).exists()
