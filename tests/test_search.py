"""Tests for repro.search — space, pareto, strategies, archive, driver."""

import json
import random

import pytest

from repro.engine import Engine
from repro.search import (
    Choice,
    FloatRange,
    IntRange,
    ParetoArchive,
    STRATEGIES,
    SearchSpace,
    Searcher,
    Strategy,
    axis_from_dict,
    crowding_distances,
    dominates,
    non_dominated,
    non_dominated_sort,
    paper_space,
    register_strategy,
)
from repro.search.strategies import lhs_units
from repro.sweep import ResultCache, SweepSpec, record_to_point

#: The paper's exhaustive 56-point grid, shared by the recovery tests.
GRID_BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@pytest.fixture(scope="module")
def grid_best():
    outcome = Engine().run(SweepSpec(bandwidths=GRID_BANDWIDTHS).jobs())
    points = [record_to_point(r) for r in outcome.ok_records]
    return {
        "edp": min(p.edp for p in points),
        "energy_efficiency": max(p.energy_efficiency for p in points),
    }


class TestAxes:
    def test_choice_unit_roundtrip(self):
        axis = Choice("flow", ("2D", "3D"))
        assert axis.from_unit(0.0) == "2D"
        assert axis.from_unit(0.99) == "3D"
        assert axis.from_unit(axis.to_unit("3D")) == "3D"
        assert axis.cardinality == 2
        assert axis.grid() == ("2D", "3D")

    def test_choice_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Choice("flow", ())
        with pytest.raises(ValueError):
            Choice("flow", ("2D", "2D"))

    def test_numeric_choice_mutates_to_value_neighbor(self):
        axis = Choice("bandwidth", (2.0, 4.0, 8.0, 16.0))
        rng = random.Random(0)
        for _ in range(50):
            assert axis.mutate(8.0, rng) in (4.0, 16.0)
        # Edges clamp instead of wrapping.
        assert all(axis.mutate(2.0, rng) in (2.0, 4.0) for _ in range(20))

    def test_categorical_choice_mutates_to_other_value(self):
        axis = Choice("flow", ("2D", "3D"))
        rng = random.Random(0)
        assert axis.mutate("2D", rng) == "3D"

    def test_int_range_linear_and_log(self):
        lin = IntRange("num_cores", 16, 256)
        assert lin.from_unit(0.0) == 16
        assert lin.from_unit(1.0) == 256
        assert lin.cardinality == 241
        log = IntRange("capacity_mib", 1, 8, log2=True)
        assert log.from_unit(0.0) == 1
        assert log.from_unit(1.0) == 8
        assert log.from_unit(log.to_unit(4)) == 4

    def test_float_range_log_interpolation(self):
        axis = FloatRange("bandwidth", 2.0, 128.0, log=True)
        assert axis.from_unit(0.0) == pytest.approx(2.0)
        assert axis.from_unit(1.0) == pytest.approx(128.0)
        assert axis.from_unit(0.5) == pytest.approx(16.0)
        assert axis.cardinality is None
        with pytest.raises(ValueError):
            axis.grid()

    def test_rejects_unknown_scenario_field(self):
        with pytest.raises(ValueError):
            Choice("voltage", (0.8, 0.9))
        with pytest.raises(ValueError):
            Choice("objective", ("edp",))  # objectives never change metrics

    def test_arch_dotted_names_allowed(self):
        axis = Choice("arch.core_kge", (60.0, 80.0))
        assert axis.name == "arch.core_kge"

    def test_axis_dict_roundtrip(self):
        for axis in (
            Choice("flow", ("2D", "3D")),
            IntRange("capacity_mib", 1, 8, log2=True),
            FloatRange("bandwidth", 2.0, 128.0, log=True),
        ):
            rebuilt = axis_from_dict(json.loads(json.dumps(axis.to_dict())))
            assert rebuilt == axis


class TestSearchSpace:
    def test_paper_space_is_the_56_point_grid(self):
        space = paper_space()
        assert space.cardinality == 56
        assert len(list(space.grid())) == 56

    def test_scenario_building_with_base_fields(self):
        space = SearchSpace(
            (Choice("capacity_mib", (1, 8)),), flow="3D", workload="matmul"
        )
        scenario = space.scenario({"capacity_mib": 8})
        assert scenario.capacity_mib == 8
        assert scenario.flow == "3D"

    def test_arch_axis_routes_into_overrides(self):
        space = SearchSpace(
            (Choice("arch.core_kge", (60.0, 80.0)),), capacity_mib=1
        )
        scenario = space.scenario({"arch.core_kge": 80.0})
        assert scenario.arch_params().core_kge == 80.0
        # The default value canonicalizes to "no overrides".
        assert space.scenario({"arch.core_kge": 60.0}).arch is None

    def test_try_scenario_returns_none_on_invalid(self):
        space = SearchSpace(
            (Choice("tile_size", (7, 256)),), capacity_mib=1, matrix_dim=326400
        )
        assert space.try_scenario({"tile_size": 7}) is None  # 7 ∤ 326400
        assert space.try_scenario({"tile_size": 256}) is not None

    def test_arch_base_dict_and_dotted_base_keys(self):
        axes = (Choice("capacity_mib", (1, 2)),)
        via_dict = SearchSpace(axes, flow="3D", arch={"core_kge": 80.0})
        via_dotted = SearchSpace(axes, flow="3D", **{"arch.core_kge": 80.0})
        for space in (via_dict, via_dotted):
            scenario = space.scenario({"capacity_mib": 1})
            assert scenario.arch_params().core_kge == 80.0
        rebuilt = SearchSpace.from_dict(via_dict.to_dict())
        assert rebuilt.scenario({"capacity_mib": 1}).arch == {"core_kge": 80.0}

    def test_unknown_arch_param_rejected_at_construction(self):
        axes = (Choice("capacity_mib", (1, 2)),)
        with pytest.raises(ValueError, match="arch parameter"):
            SearchSpace(axes, arch={"banking_factor": 2})
        with pytest.raises(ValueError, match="arch parameter"):
            SearchSpace(axes, **{"arch.banking_factor": 2})
        with pytest.raises(ValueError, match="arch parameter"):
            Choice("arch.banking_factor", (2, 4))

    def test_rejects_duplicate_and_conflicting_names(self):
        with pytest.raises(ValueError):
            SearchSpace((Choice("flow", ("2D",)), Choice("flow", ("3D",))))
        with pytest.raises(ValueError):
            SearchSpace((Choice("flow", ("2D", "3D")),), flow="2D")
        with pytest.raises(ValueError):
            SearchSpace(
                (Choice("arch.core_kge", (60.0, 80.0)),),
                **{"arch.core_kge": 70.0},
            )
        with pytest.raises(ValueError):
            SearchSpace(())

    def test_space_dict_roundtrip(self):
        space = paper_space(workload="matmul")
        rebuilt = SearchSpace.from_dict(json.loads(json.dumps(space.to_dict())))
        assert rebuilt.names == space.names
        assert rebuilt.base == space.base
        assert rebuilt.cardinality == 56


class TestParetoPrimitives:
    def test_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_non_dominated(self):
        costs = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0)]
        assert non_dominated(costs) == [0, 1, 2]

    def test_non_dominated_sort_layers(self):
        costs = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert non_dominated_sort(costs) == [[0], [1], [2]]

    def test_non_dominated_sort_partitions(self):
        rng = random.Random(3)
        costs = [(rng.random(), rng.random()) for _ in range(30)]
        fronts = non_dominated_sort(costs)
        assert sorted(i for front in fronts for i in front) == list(range(30))
        assert fronts[0] == non_dominated(costs)

    def test_crowding_boundaries_are_infinite(self):
        costs = [(0.0, 3.0), (1.0, 2.0), (3.0, 0.0)]
        d = crowding_distances(costs)
        assert d[0] == float("inf")
        assert d[2] == float("inf")
        assert 0 < d[1] < float("inf")


class TestStrategies:
    def test_builtins_registered(self):
        for name in ("random", "latin-hypercube", "evolutionary",
                     "successive-halving"):
            assert name in STRATEGIES

    def test_random_never_repeats_and_exhausts(self):
        space = SearchSpace((Choice("capacity_mib", (1, 2, 4, 8)),), flow="2D")
        strategy = STRATEGIES.get("random")(space, seed=0)
        first = strategy.propose(10)
        assert len(first) == 4  # space has only 4 points
        keys = {strategy.values_key(v) for v in first}
        assert len(keys) == 4
        assert strategy.propose(3) == []  # exhausted

    def test_lhs_units_stratify_every_axis(self):
        units = lhs_units(random.Random(0), 8, ("a", "b"))
        for name in ("a", "b"):
            strata = sorted(int(u[name] * 8) for u in units)
            assert strata == list(range(8))

    def test_successive_halving_spends_budget_on_screened_best(self):
        # Proxy-screened promotion: with a pool 4x the generation, the
        # promoted candidates must lean toward the analytically-best
        # bandwidths (the proxy is monotone in bandwidth here).
        space = paper_space()
        strategy = STRATEGIES.get("successive-halving")(
            space,
            objectives=(("edp", lambda p: p.edp, False),),
            seed=0,
        )
        promoted = strategy.propose(6)
        assert len(promoted) == 6
        mean_bw = sum(v["bandwidth"] for v in promoted) / len(promoted)
        assert mean_bw > 32.0  # uniform sampling would average ~36/2

    def test_strategy_options_validated(self):
        space = paper_space()
        with pytest.raises(ValueError):
            STRATEGIES.get("evolutionary")(space, population=1)
        with pytest.raises(ValueError):
            STRATEGIES.get("successive-halving")(space, eta=1)


class TestParetoArchive:
    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        searcher = Searcher(
            paper_space(), strategy="random", budget=6,
            archive=ParetoArchive(path),
        )
        outcome = searcher.run()
        assert len(searcher.archive) == 6
        reloaded = ParetoArchive(path)
        assert len(reloaded) == 6
        front_keys = {e["key"] for e in reloaded.front()}
        assert front_keys == {c.key for c in outcome.front}

    def test_front_entries_are_non_dominated(self, tmp_path):
        archive = ParetoArchive(tmp_path / "archive.jsonl")
        Searcher(
            paper_space(), strategy="latin-hypercube", budget=10,
            archive=archive,
        ).run()
        front = archive.front()
        assert front
        costs = [tuple(e["search"]["costs"]) for e in archive.ok_entries()]
        for entry in front:
            c = tuple(entry["search"]["costs"])
            assert not any(dominates(other, c) for other in costs)

    def test_front_ignores_entries_from_other_objective_sets(self, tmp_path):
        # One archive file shared by searches over different objective
        # sets: cost vectors are only comparable within one set.
        path = tmp_path / "archive.jsonl"
        Searcher(paper_space(), strategy="random", budget=5,
                 objectives=("edp", "energy_efficiency"),
                 archive=ParetoArchive(path)).run()
        Searcher(paper_space(), strategy="random", budget=5, seed=9,
                 objectives=("performance",),
                 archive=ParetoArchive(path)).run()
        archive = ParetoArchive(path)
        # Default: the most recent entry's objective set.
        assert all(
            tuple(e["search"]["objectives"]) == ("performance",)
            for e in archive.front()
        )
        # Explicit selection reaches the earlier set.
        two = archive.front(objectives=("edp", "energy_efficiency"))
        assert two
        assert all(len(e["search"]["costs"]) == 2 for e in two)

    def test_torn_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        Searcher(paper_space(), strategy="random", budget=4,
                 archive=ParetoArchive(path)).run()
        before = ParetoArchive(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "zz", "sea')  # a killed run's torn append
        reloaded = ParetoArchive(path)
        assert len(reloaded) == len(before) == 4
        assert reloaded.front() == before.front()

    def test_search_metadata_recorded(self):
        archive = ParetoArchive()
        Searcher(paper_space(), strategy="random", budget=4,
                 archive=archive).run()
        entry = archive.entries()[0]
        assert set(entry["search"]) == {
            "values", "generation", "objectives", "costs"
        }
        assert "edp" in entry["search"]["objectives"]


class TestSearcher:
    def test_budget_respected_and_unique(self):
        outcome = Searcher(paper_space(), strategy="random", budget=20).run()
        assert outcome.stats.proposed == 20
        assert len({c.key for c in outcome.candidates}) == 20

    def test_exhausts_small_space_below_budget(self):
        space = SearchSpace((Choice("capacity_mib", (1, 2, 4, 8)),), flow="3D")
        outcome = Searcher(space, strategy="random", budget=50).run()
        assert outcome.stats.proposed == 4

    def test_key_aliasing_assignments_terminate(self):
        # tile 256 is 1 MiB's derived tile, so both assignments fold to
        # the same scenario key: the search must evaluate one candidate
        # and stop — neither looping forever nor crashing.
        space = SearchSpace(
            (Choice("tile_size", (None, 256)),), capacity_mib=1, flow="2D"
        )
        outcome = Searcher(space, strategy="random", budget=8).run()
        assert outcome.stats.proposed == 1
        assert len(outcome.ok_candidates) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Searcher(paper_space(), budget=0)
        with pytest.raises(ValueError):
            Searcher(paper_space(), objectives=())
        with pytest.raises(ValueError):
            Searcher(paper_space(), objectives=("beauty",))
        with pytest.raises(ValueError):
            Searcher(paper_space(), strategy="gradient-descent")

    def test_front_is_non_dominated_subset(self):
        outcome = Searcher(paper_space(), budget=16).run()
        assert outcome.front
        for c in outcome.front:
            assert not any(
                dominates(other.costs, c.costs)
                for other in outcome.ok_candidates
            )

    def test_ranked_and_best(self):
        outcome = Searcher(paper_space(), budget=12).run()
        ranked = outcome.ranked("edp")
        values = [c.objectives["edp"] for c in ranked]
        assert values == sorted(values)
        assert outcome.best("edp") is ranked[0]
        with pytest.raises(ValueError):
            outcome.ranked("beauty")

    def test_report_names_winners(self):
        outcome = Searcher(paper_space(), budget=12).run()
        text = outcome.report()
        assert "best edp" in text
        assert "Pareto front" in text

    def test_trajectory_is_deterministic(self):
        a = Searcher(paper_space(), budget=15, seed=7).run()
        b = Searcher(paper_space(), budget=15, seed=7).run()
        assert [c.key for c in a.candidates] == [c.key for c in b.candidates]

    def test_resume_from_cache_is_free(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Searcher(paper_space(), budget=18, cache=cache).run()
        assert first.stats.evaluated == 18
        again = Searcher(paper_space(), budget=18, cache=cache).run()
        assert again.stats.evaluated == 0
        assert again.stats.cached == 18
        assert [c.key for c in again.candidates] == [
            c.key for c in first.candidates
        ]

    def test_killed_search_resumes_without_reevaluation(self, tmp_path):
        # A search killed after 10 evaluations == a fresh run whose first
        # 10 candidates are already cached: the retry pays only the rest.
        cache = ResultCache(tmp_path)
        partial = Searcher(paper_space(), budget=10, cache=cache).run()
        assert partial.stats.evaluated == 10
        full = Searcher(paper_space(), budget=28, cache=cache).run()
        assert full.stats.cached >= 10
        assert full.stats.evaluated <= 18
        assert [c.key for c in full.candidates[:10]] == [
            c.key for c in partial.candidates
        ]

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = Searcher(paper_space(), budget=12, workers=0).run()
        parallel = Searcher(paper_space(), budget=12, workers=2).run()
        assert [c.key for c in serial.candidates] == [
            c.key for c in parallel.candidates
        ]
        assert [c.objectives for c in serial.ok_candidates] == [
            c.objectives for c in parallel.ok_candidates
        ]

    def test_failed_candidates_reported_not_fatal(self):
        from repro.api import WORKLOADS, register_workload

        @register_workload("flaky_search_wl")
        def flaky(scenario):
            if scenario.capacity_mib >= 4:
                raise RuntimeError("diverged")
            return 1.0e6 * scenario.capacity_mib

        try:
            space = SearchSpace(
                (Choice("capacity_mib", (1, 2, 4, 8)),),
                flow="2D",
                workload="flaky_search_wl",
            )
            outcome = Searcher(space, strategy="random", budget=4).run()
            assert outcome.stats.proposed == 4
            assert outcome.stats.failed == 2
            assert len(outcome.ok_candidates) == 2
            assert "failures (2)" in outcome.report()
        finally:
            WORKLOADS.unregister("flaky_search_wl")


class TestEvolutionaryRecovery:
    def test_recovers_grid_optima_at_half_budget(self, grid_best):
        outcome = Searcher(
            paper_space(),
            objectives=("edp", "energy_efficiency"),
            strategy="evolutionary",
            budget=28,
        ).run()
        assert outcome.best("edp").objectives["edp"] == pytest.approx(
            grid_best["edp"]
        )
        assert outcome.best("energy_efficiency").objectives[
            "energy_efficiency"
        ] == pytest.approx(grid_best["energy_efficiency"])


class TestStrategyPlugins:
    """Strategies must be registrable from user code (no core edits)."""

    def test_user_registered_strategy_drives_a_search(self):
        @register_strategy("test-first-come")
        class FirstCome(Strategy):
            def propose(self, n):
                batch = []
                for values in self.space.grid():
                    if len(batch) == n:
                        break
                    if self.claim(values):
                        batch.append(values)
                return batch

        try:
            outcome = Searcher(
                paper_space(), strategy="test-first-come", budget=5
            ).run()
            assert outcome.stats.proposed == 5
            assert outcome.stats.generations == 1
        finally:
            STRATEGIES.unregister("test-first-come")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_strategy("random")(object())

    def test_strategy_instance_can_be_passed_directly(self):
        strategy = STRATEGIES.get("random")(paper_space(), seed=3)
        outcome = Searcher(
            paper_space(), strategy=strategy, budget=4
        ).run()
        assert outcome.stats.proposed == 4
