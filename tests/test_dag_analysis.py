"""Tests for the program analysis and export tools."""

import json

import pytest

from repro.analysis.formulas import bidiag_greedy_cp
from repro.dag.analysis import (
    graph_stats,
    kernel_breakdown,
    max_parallelism,
    memory_footprint_tiles,
    parallelism_profile,
    step_breakdown,
    ts_tt_work_split,
)
from repro.dag.export import save_dot, save_json, to_dot, to_json
from repro.ir import get_program
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree


@pytest.fixture(scope="module")
def greedy_graph():
    return get_program("bidiag", 8, 6, GreedyTree())


@pytest.fixture(scope="module")
def flatts_graph():
    return get_program("bidiag", 8, 6, FlatTSTree())


class TestGraphStats:
    def test_work_equals_total_weight(self, greedy_graph):
        stats = graph_stats(greedy_graph)
        assert stats.work == greedy_graph.total_weight()
        assert stats.n_tasks == len(greedy_graph)
        assert stats.n_edges == greedy_graph.n_edges

    def test_span_matches_formula(self, greedy_graph):
        stats = graph_stats(greedy_graph)
        assert stats.span == bidiag_greedy_cp(8, 6)

    def test_average_parallelism_bounds(self, greedy_graph):
        stats = graph_stats(greedy_graph)
        assert 1.0 <= stats.average_parallelism <= stats.n_tasks

    def test_greedy_has_shorter_span_than_flatts(self, greedy_graph, flatts_graph):
        assert graph_stats(greedy_graph).span < graph_stats(flatts_graph).span

    def test_flatts_and_greedy_have_comparable_work(self, greedy_graph, flatts_graph):
        # TT kernels do the same flops as TS ones split differently; total
        # work differs by less than 50%.
        w_greedy = graph_stats(greedy_graph).work
        w_flatts = graph_stats(flatts_graph).work
        assert 0.5 < w_greedy / w_flatts < 2.0

    def test_sources_and_sinks(self, greedy_graph):
        stats = graph_stats(greedy_graph)
        assert stats.n_sources >= 1
        assert stats.n_sinks >= 1
        assert stats.max_in_degree >= 1
        assert stats.max_out_degree >= 1


class TestParallelismProfile:
    def test_profile_covers_span(self, greedy_graph):
        profile = parallelism_profile(greedy_graph, n_bins=20)
        assert len(profile) == 20
        assert all(active >= 0 for _, active in profile)
        assert max(active for _, active in profile) >= 1

    def test_greedy_peak_exceeds_flatts(self, greedy_graph, flatts_graph):
        assert max_parallelism(greedy_graph) >= max_parallelism(flatts_graph)

    def test_empty_graph(self):
        from repro.ir import Program

        assert parallelism_profile(Program([], [])) == []

    def test_invalid_bins(self, greedy_graph):
        with pytest.raises(ValueError):
            parallelism_profile(greedy_graph, n_bins=0)


class TestBreakdowns:
    def test_kernel_breakdown_fractions_sum_to_one(self, greedy_graph):
        breakdown = kernel_breakdown(greedy_graph)
        total = sum(entry["work_fraction"] for entry in breakdown.values())
        assert total == pytest.approx(1.0)

    def test_flatts_routes_work_through_ts_kernels(self, flatts_graph, greedy_graph):
        ts_flatts, tt_flatts = ts_tt_work_split(flatts_graph)
        ts_greedy, tt_greedy = ts_tt_work_split(greedy_graph)
        assert ts_flatts > 0.9
        assert tt_greedy > 0.9
        assert ts_flatts + tt_flatts == pytest.approx(1.0)
        assert ts_greedy + tt_greedy == pytest.approx(1.0)

    def test_step_breakdown_total(self, greedy_graph):
        steps = step_breakdown(greedy_graph)
        assert sum(steps.values()) == pytest.approx(greedy_graph.total_weight())

    def test_memory_footprint(self, greedy_graph):
        # BIDIAG touches every tile of the 8x6 matrix.
        assert memory_footprint_tiles(greedy_graph) == 8 * 6


class TestExport:
    def test_dot_contains_all_tasks(self):
        graph = get_program("qr", 3, 2, GreedyTree())
        dot = to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.count(" [label=") == len(graph)
        assert dot.count("->") == graph.n_edges

    def test_dot_size_limit(self, flatts_graph):
        with pytest.raises(ValueError):
            to_dot(flatts_graph, max_tasks=10)
        assert to_dot(flatts_graph, max_tasks=None)

    def test_json_roundtrip_structure(self):
        graph = get_program("qr", 4, 3, FlatTTTree())
        payload = json.loads(to_json(graph))
        assert payload["n_tasks"] == len(graph)
        assert payload["n_edges"] == graph.n_edges
        assert len(payload["tasks"]) == len(graph)
        assert len(payload["edges"]) == graph.n_edges
        kernels = {t["kernel"] for t in payload["tasks"]}
        assert "GEQRT" in kernels

    def test_json_edges_are_the_csr_in_source_order(self):
        graph = get_program("qr", 4, 3, FlatTTTree())
        edges = [tuple(e) for e in json.loads(to_json(graph))["edges"]]
        assert edges == sorted(graph.edges())

    def test_save_helpers(self, tmp_path):
        graph = get_program("qr", 3, 3, GreedyTree())
        dot_path = tmp_path / "g.dot"
        json_path = tmp_path / "g.json"
        save_dot(graph, str(dot_path))
        save_json(graph, str(json_path), indent=2)
        assert dot_path.read_text().startswith("digraph")
        assert json.loads(json_path.read_text())["n_tasks"] == len(graph)
