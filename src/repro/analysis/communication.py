"""Communication-volume analysis for distributed runs.

Section VI-D of the paper observes that the choice of the *top-level*
(inter-node) reduction tree changes the communication volume: the greedy
top tree "doubles the number of communications on square cases" compared to
the flat tree, which is why the flat tree can win despite exposing less
parallelism.  These tools quantify that trade-off:

* :func:`communication_volume` counts, from a compiled
  :class:`~repro.ir.program.Program` and a block-cyclic distribution, the
  inter-node messages the owner-computes rule induces (one message per
  produced data item and destination node, matching the runtime
  simulator's accounting);
* :func:`communication_matrix` breaks the same count down by
  (source node, destination node) pair;
* :func:`panel_messages_estimate` gives the closed-form per-panel message
  counts of the flat and binomial top trees used in the discussion — the
  level at which the paper's factor-of-two statement holds exactly;
* :func:`engine_communication_check` cross-checks a simulated
  :class:`~repro.runtime.scheduler.Schedule`'s message accounting against
  these static counts: both deduplicate transfers per (producer,
  destination node), so engine and analysis must agree *exactly*, under
  every scheduling policy and network model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.ir.program import Program
from repro.tiles.distribution import BlockCyclicDistribution


def _cross_edge_pairs(
    graph: Program, distribution: BlockCyclicDistribution
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicated cross-node transfers of a compiled program, vectorized.

    Returns ``(src op, src node, dst node)`` for every distinct
    (producer op, destination node) pair — the same dedup rule the
    per-edge set-based walk applies, computed as whole-array passes over
    the successor CSR: map every op to its node with one block-cyclic
    vector op, compare the two sides of every dependency edge, and unique
    the surviving (producer, destination) keys.
    """
    owner = distribution.owner_array(graph.owner_rows_np, graph.owner_cols_np)
    n = len(graph)
    src = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(graph.succ_indptr_np)
    )
    dst_node = owner[graph.succ_ids_np]
    src_node = owner[src]
    cross = src_node != dst_node
    n_nodes = distribution.grid.size
    pair = np.unique(src[cross] * n_nodes + dst_node[cross])
    src_u = pair // n_nodes
    return src_u, owner[src_u], pair % n_nodes


def _cross_edge_walk(
    graph: Program, distribution: BlockCyclicDistribution
) -> Iterator[Tuple[int, int]]:
    """``(src node, dst node)`` of every deduplicated cross-node transfer.

    The scalar per-edge walk: one ``distribution.owner`` call per op, so
    it honours any :class:`BlockCyclicDistribution` subclass that
    overrides the owner rule (the vectorized path assumes the stock one).
    """
    owner = [
        distribution.owner(i, j)
        for i, j in zip(graph.owner_rows_np.tolist(), graph.owner_cols_np.tolist())
    ]
    seen: set[Tuple[int, int]] = set()
    for src_id in range(len(graph)):
        src_node = owner[src_id]
        for dst_id in graph.successors(src_id):
            dst_node = owner[dst_id]
            if dst_node == src_node:
                continue
            key = (src_id, dst_node)
            if key in seen:
                continue
            seen.add(key)
            yield src_node, dst_node


@dataclass(frozen=True)
class CommunicationStats:
    """Inter-node communication induced by a program on a distribution.

    Attributes
    ----------
    messages:
        Number of distinct (producer task, destination node) transfers.
    tile_transfers:
        Same count — kept as an explicit alias because each message carries
        exactly one tile in this model.
    bytes_moved:
        Total bytes moved at the legacy full-tile-per-message accounting
        (``messages * nb^2 * 8``, the ``uniform`` network model's pricing;
        the ``alpha-beta`` model derives smaller per-message payloads from
        the producing op's written tile halves, so only message *counts* —
        not byte totals — are comparable across network models).
    per_node_sent:
        Messages sent by each node (indexed by rank).
    per_node_received:
        Messages received by each node.
    """

    messages: int
    tile_transfers: int
    bytes_moved: int
    per_node_sent: List[int]
    per_node_received: List[int]


def communication_volume(
    graph: Program,
    distribution: BlockCyclicDistribution,
    *,
    tile_size: int = 160,
) -> CommunicationStats:
    """Count the inter-node transfers of ``graph`` under ``distribution``.

    A transfer happens when a task's output is consumed by a task mapped
    to a different node; transfers of the same output to the same node are
    counted once (the runtime caches remote tiles), mirroring the *message-count* accounting
    of :class:`repro.runtime.engine.SimulationEngine` under every network
    model.  Byte totals use the legacy full-tile pricing and match the
    engine's ``comm_bytes`` only under ``network="uniform"``.
    """
    n_nodes = distribution.grid.size
    if type(distribution) is BlockCyclicDistribution:
        # Vectorized static count (same dedup rule, whole-array passes).
        _, src_nodes, dst_nodes = _cross_edge_pairs(graph, distribution)
        messages = int(src_nodes.size)
        sent = np.bincount(src_nodes, minlength=n_nodes).tolist()
        received = np.bincount(dst_nodes, minlength=n_nodes).tolist()
    else:
        sent = [0] * n_nodes
        received = [0] * n_nodes
        messages = 0
        for src_node, dst_node in _cross_edge_walk(graph, distribution):
            messages += 1
            sent[src_node] += 1
            received[dst_node] += 1
    tile_bytes = tile_size * tile_size * 8
    return CommunicationStats(
        messages=messages,
        tile_transfers=messages,
        bytes_moved=messages * tile_bytes,
        per_node_sent=sent,
        per_node_received=received,
    )


def communication_matrix(
    graph: Program,
    distribution: BlockCyclicDistribution,
) -> List[List[int]]:
    """Message counts per (source node, destination node) pair."""
    n_nodes = distribution.grid.size
    if type(distribution) is BlockCyclicDistribution:
        _, src_nodes, dst_nodes = _cross_edge_pairs(graph, distribution)
        flat = np.bincount(
            src_nodes * n_nodes + dst_nodes, minlength=n_nodes * n_nodes
        )
        return flat.reshape(n_nodes, n_nodes).tolist()
    matrix = [[0] * n_nodes for _ in range(n_nodes)]
    for src_node, dst_node in _cross_edge_walk(graph, distribution):
        matrix[src_node][dst_node] += 1
    return matrix


def panel_messages_estimate(grid_rows: int, top: str) -> int:
    """Closed-form number of inter-node eliminations of one panel step.

    With ``R`` process-grid rows, the top-level tree combines ``R`` per-node
    heads; every top-level elimination moves (at least) one tile across the
    network.

    * flat top tree: ``R - 1`` eliminations, all into the head row —
      sequential, but the minimum possible volume;
    * greedy/binomial top tree: also ``R - 1`` eliminations, but each round
      sends its tiles concurrently *and* the trailing-matrix updates of
      every elimination pair cross the network too, which is what doubles
      the observed communication volume on square matrices (Section VI-D).
      The estimate returned for ``"greedy"`` therefore counts
      ``2 (R - 1)`` tile movements per panel.
    """
    if grid_rows < 1:
        raise ValueError("grid_rows must be >= 1")
    top = top.strip().lower()
    if top == "flat":
        return max(grid_rows - 1, 0)
    if top in ("greedy", "binomial", "fibonacci"):
        return 2 * max(grid_rows - 1, 0)
    raise ValueError(f"unknown top tree {top!r}")


def engine_communication_check(
    schedule,
    graph: Program,
    distribution: BlockCyclicDistribution,
    *,
    tile_size: int = 160,
) -> CommunicationStats:
    """Cross-check a schedule's message accounting against the static counts.

    The :class:`~repro.runtime.engine.SimulationEngine` deduplicates
    transfers per (producer op, destination node) exactly like
    :func:`communication_volume`, so the two counts must agree *exactly* —
    for every scheduling policy and every network model.  Byte totals are
    deliberately *not* compared: the alpha-beta model prices per-message
    payloads from the producing op's written tile halves, while the static
    analysis charges the legacy full tile.  Raises ``ValueError`` on any
    mismatch (total or per-node sent counts) and returns the static
    :class:`CommunicationStats` on success.
    """
    stats = communication_volume(graph, distribution, tile_size=tile_size)
    if schedule.messages != stats.messages:
        raise ValueError(
            f"engine counted {schedule.messages} messages but the static "
            f"analysis counts {stats.messages}"
        )
    if schedule.messages_per_node is not None and (
        list(schedule.messages_per_node) != list(stats.per_node_sent)
    ):
        raise ValueError(
            f"engine per-node sent counts {list(schedule.messages_per_node)} "
            f"disagree with the static analysis {stats.per_node_sent}"
        )
    return stats


def communication_ratio(
    graph_a: Program,
    graph_b: Program,
    distribution: BlockCyclicDistribution,
) -> float:
    """Ratio of message counts of two programs under the same distribution.

    Used by the ablation benchmarks to verify the paper's "greedy doubles
    the communications of flat" observation at the DAG level.
    """
    a = communication_volume(graph_a, distribution).messages
    b = communication_volume(graph_b, distribution).messages
    if b == 0:
        return math.inf if a > 0 else 1.0
    return a / b
