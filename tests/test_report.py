"""Direct tests for repro.sweep.report — labels, ranking, summaries."""

import pytest

from repro.core.explorer import pareto_front
from repro.engine import Engine
from repro.sweep import (
    Job,
    SweepSpec,
    failure_record,
    format_table,
    labeled_points,
    rank,
    summarize,
)


@pytest.fixture(scope="module")
def mixed_records():
    """A small grid's records plus two injected failures, interleaved."""
    ok = Engine().run(
        SweepSpec(capacities_mib=(1, 4), bandwidths=(4.0, 64.0)).jobs()
    ).records
    boom = failure_record(
        Job(capacity_mib=8, flow="3D", bandwidth=4.0), RuntimeError("boom")
    )
    crash = failure_record(
        Job(capacity_mib=8, flow="2D", bandwidth=64.0), ValueError("crash")
    )
    return [boom] + ok[:4] + [crash] + ok[4:]


class TestLabeledPoints:
    def test_preserves_input_order_and_skips_failures(self, mixed_records):
        pairs = labeled_points(mixed_records)
        assert len(pairs) == 8  # failures dropped
        ok_labels = [
            Job.from_params(r["job"]).label
            for r in mixed_records
            if r["status"] == "ok"
        ]
        assert [label for label, _ in pairs] == ok_labels

    def test_labels_carry_flow_capacity_and_bandwidth(self, mixed_records):
        labels = {label for label, _ in labeled_points(mixed_records)}
        assert "MemPool-3D-4MiB@64B/c" in labels
        assert "MemPool-2D-1MiB@4B/c" in labels

    def test_empty_input(self):
        assert labeled_points([]) == []


class TestRank:
    def test_orders_best_first_per_objective(self, mixed_records):
        for objective, reverse in (("edp", False), ("performance", True)):
            ranked = rank(mixed_records, objective)
            values = [getattr(p, objective) for _, p in ranked]
            assert values == sorted(values, reverse=reverse)

    def test_unknown_objective_error_names_choices(self, mixed_records):
        with pytest.raises(ValueError, match="beauty"):
            rank(mixed_records, "beauty")

    def test_failures_never_ranked(self, mixed_records):
        assert len(rank(mixed_records, "edp")) == 8


class TestFormatTable:
    def test_renders_rows_and_header(self, mixed_records):
        text = format_table(labeled_points(mixed_records))
        assert "EDP Js" in text
        assert text.count("\n") == 8  # header + 8 rows

    def test_empty(self):
        assert format_table([]) == "(no results)"


class TestSummarize:
    def test_mixed_records_report_winners_front_and_failures(
        self, mixed_records
    ):
        text = summarize(mixed_records)
        assert "best edp:" in text
        assert "best performance:" in text
        assert "Pareto front" in text
        assert "failures (2):" in text
        assert "RuntimeError: boom" in text
        assert "ValueError: crash" in text

    def test_summary_front_matches_pareto_front(self, mixed_records):
        pairs = labeled_points(mixed_records)
        front = pareto_front([p for _, p in pairs])
        text = summarize(mixed_records)
        front_block = text.split("Pareto front:")[1].split("failures")[0]
        assert front_block.count("perf") == len(front)

    def test_all_failed(self):
        records = [
            failure_record(Job(capacity_mib=1, flow="2D"), RuntimeError("x"))
        ]
        text = summarize(records)
        assert "(no successful results)" in text
        assert "failures (1):" in text
