"""The event-loop kernel: one greedy replay of a prepared program.

Every schedule the runtime produces comes out of :func:`replay`.  The
three callers — :meth:`repro.runtime.engine.SimulationEngine.run`, the
batched sweeps of :mod:`repro.runtime.batch` and the Monte-Carlo draws of
:mod:`repro.runtime.scenario` — only *prepare* its inputs as flat Python
lists (durations, owner nodes, a dense-rank policy order, successor
lists) and differ in what they share between calls.

The kernel is the PaRSEC-like runtime discipline of the paper, written
once:

* **owner-computes placement** — every op runs on the node that owns its
  output tile (``node_of``), on that node's earliest-free core;
* **greedy priority dispatch** — each node pops its ready ops in policy
  order.  The order arrives as dense ranks (``rank_of[op]`` is the op's
  position in the stable ``(policy key, op id)`` sort and ``id_of``
  inverts it), so heaps hold small ints and ties break by op id;
* **one transfer per (producer, destination node)** — the runtime caches
  remote tiles.  Under the uniform network every cross-node edge pays the
  flat transfer time and the first one per pair counts a message; under an
  event-driven network the first release injects one message through the
  sender's NIC and later consumers reuse its arrival time.

Three details are load-bearing for bit-reproducibility and are kept on
purpose:

* ``busy`` accumulates in pop order — a vectorized sum would associate
  differently;
* the nodes are drained greedily in round-robin — each node empties its
  ready heap before the next node runs;
* each NIC serializes injections in *dispatch* order, not in finish-time
  order.  That is the same no-lookahead greedy discipline the loop
  applies to cores; a time-ordered NIC would need a global message queue
  and would reprice schedules.

Two optional perturbations serve the scenario layer: ``core_factors``
stretch an op's duration by the factor of the core it lands on, and
``noise`` stretches a producer's wire time.  Both default to ``None``,
and with all-ones factors the schedule is bit-identical to the
unperturbed one (multiplying by ``1.0`` is an exact float identity).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.runtime.machine import Machine
from repro.runtime.network import NetworkModel
from repro.runtime.scheduler import Schedule

__all__ = ["KernelRun", "replay"]


class KernelRun(NamedTuple):
    """One replay's schedule plus the loop state the tracer reads back."""

    schedule: Schedule
    #: Per op: the time its last input arrived (dependency release).
    ready_time: List[float]
    #: Event-driven networks: (producer, destination node) -> arrival, in
    #: NIC dispatch order.
    transfer_arrival: Dict[Tuple[int, int], float]
    #: Uniform network: the deduplicated (producer, destination node) pairs.
    seen_transfers: Set[Tuple[int, int]]


def replay(
    machine: Machine,
    network: NetworkModel,
    durations: Sequence[float],
    node_of: Optional[Sequence[int]],
    rank_of: Sequence[int],
    id_of: Sequence[int],
    succ_lists: Sequence[Sequence[int]],
    indegree: Sequence[int],
    init_ready: Sequence[int],
    *,
    msg_bytes: Optional[Sequence[int]] = None,
    core_factors: Optional[Sequence[float]] = None,
    noise: Optional[Sequence[float]] = None,
) -> KernelRun:
    """Replay one prepared program; see the module docstring.

    ``node_of`` is ``None`` on one node.  ``indegree`` is the base
    in-degree list (copied, not mutated) and ``init_ready`` the ops with
    no predecessors.  ``msg_bytes`` gives every op's payload and is
    required for event-driven networks on more than one node.
    """
    n = len(durations)
    n_nodes = machine.n_nodes
    if n == 0:
        return KernelRun(
            Schedule(
                0.0, [], [], [], [0.0] * n_nodes, 0, 0,
                core_of_task=[],
                comm_time_per_node=[0.0] * n_nodes,
                messages_per_node=[0] * n_nodes,
            ),
            [], {}, set(),
        )
    indegree = list(indegree)
    ready_time = [0.0] * n
    start = [0.0] * n
    finish = [0.0] * n
    core_of_op = [0] * n
    heappush = heapq.heappush
    heappop = heapq.heappop
    cf = core_factors
    cores = machine.cores_per_node
    seen_transfers: Set[Tuple[int, int]] = set()
    transfer_arrival: Dict[Tuple[int, int], float] = {}

    if node_of is None:
        # One node: every edge is local, so the node round-robin and all
        # transfer accounting vanish; one drain loop empties the ready heap.
        core_heap = [(0.0, c) for c in range(cores)]  # already a heap
        ready = [rank_of[op_id] for op_id in init_ready]
        heapq.heapify(ready)
        busy = 0.0
        scheduled = 0
        while ready:
            op_id = id_of[heappop(ready)]
            core_free, core_idx = heappop(core_heap)
            rt = ready_time[op_id]
            t_start = core_free if core_free > rt else rt
            d = durations[op_id]
            if cf is not None:
                d = d * cf[core_idx]
            t_finish = t_start + d
            start[op_id] = t_start
            finish[op_id] = t_finish
            core_of_op[op_id] = core_idx
            busy += d
            heappush(core_heap, (t_finish, core_idx))
            scheduled += 1
            for succ in succ_lists[op_id]:
                if t_finish > ready_time[succ]:
                    ready_time[succ] = t_finish
                deg = indegree[succ] - 1
                indegree[succ] = deg
                if deg == 0:
                    heappush(ready, rank_of[succ])
        if scheduled < n:  # pragma: no cover - defensive (cycle)
            raise RuntimeError("engine stalled: the program has a cycle")
        schedule = Schedule(
            makespan=max(finish),
            start=start,
            finish=finish,
            node_of_task=[0] * n,
            busy_time_per_node=[busy],
            messages=0,
            comm_bytes=0,
            core_of_task=core_of_op,
            comm_time_per_node=[0.0],
            messages_per_node=[0],
        )
        return KernelRun(schedule, ready_time, transfer_arrival, seen_transfers)

    busy_of = [0.0] * n_nodes
    messages = 0
    comm_bytes = 0
    sent = [0] * n_nodes
    comm_time = [0.0] * n_nodes
    event_driven = network.event_driven
    if event_driven and msg_bytes is None:
        raise ValueError("event-driven networks need per-op message bytes")
    transfer = machine.transfer_time()
    tile_bytes = machine.tile_bytes
    handshake = network.handshake_seconds(machine)
    # (injection seconds, wire seconds) per distinct payload size — the
    # recorded streams only produce a handful of distinct sizes.
    msg_cost_cache: Dict[int, Tuple[float, float]] = {}
    nic_free = [0.0] * n_nodes

    core_heaps: List[List[Tuple[float, int]]] = [
        [(0.0, c) for c in range(cores)] for _ in range(n_nodes)
    ]
    ready_heaps: List[List[int]] = [[] for _ in range(n_nodes)]
    for op_id in init_ready:
        heappush(ready_heaps[node_of[op_id]], rank_of[op_id])

    scheduled = 0
    while scheduled < n:
        progressed = False
        for node in range(n_nodes):
            heap = ready_heaps[node]
            core_heap = core_heaps[node]
            while heap:
                op_id = id_of[heappop(heap)]
                core_free, core_idx = heappop(core_heap)
                rt = ready_time[op_id]
                t_start = core_free if core_free > rt else rt
                d = durations[op_id]
                if cf is not None:
                    d = d * cf[core_idx]
                t_finish = t_start + d
                start[op_id] = t_start
                finish[op_id] = t_finish
                core_of_op[op_id] = core_idx
                busy_of[node] += d
                heappush(core_heap, (t_finish, core_idx))
                scheduled += 1
                progressed = True
                for succ in succ_lists[op_id]:
                    dst = node_of[succ]
                    arrival = t_finish
                    if dst != node:
                        tkey = (op_id, dst)
                        if event_driven:
                            cached = transfer_arrival.get(tkey)
                            if cached is None:
                                n_bytes = msg_bytes[op_id]  # type: ignore[index]
                                cost = msg_cost_cache.get(n_bytes)
                                if cost is None:
                                    cost = (
                                        machine.injection_seconds(n_bytes),
                                        network.message_seconds(n_bytes, machine),
                                    )
                                    msg_cost_cache[n_bytes] = cost
                                injection, wire = cost
                                if noise is not None:
                                    # Noise stretches the wire, not the
                                    # sender's NIC occupancy.
                                    wire = wire * noise[op_id]
                                inject_start = t_finish + handshake
                                if nic_free[node] > inject_start:
                                    inject_start = nic_free[node]
                                nic_free[node] = inject_start + injection
                                cached = inject_start + wire
                                transfer_arrival[tkey] = cached
                                messages += 1
                                comm_bytes += n_bytes
                                sent[node] += 1
                                comm_time[node] += injection
                            arrival = cached
                        else:
                            hop = transfer
                            if noise is not None:
                                hop = hop * noise[op_id]
                            arrival += hop
                            if tkey not in seen_transfers:
                                seen_transfers.add(tkey)
                                messages += 1
                                comm_bytes += tile_bytes
                                sent[node] += 1
                                comm_time[node] += hop
                    if arrival > ready_time[succ]:
                        ready_time[succ] = arrival
                    deg = indegree[succ] - 1
                    indegree[succ] = deg
                    if deg == 0:
                        heappush(ready_heaps[dst], rank_of[succ])
        if not progressed:  # pragma: no cover - defensive (cycle)
            raise RuntimeError("engine stalled: the program has a cycle")

    schedule = Schedule(
        makespan=max(finish),
        start=start,
        finish=finish,
        node_of_task=list(node_of),
        busy_time_per_node=busy_of,
        messages=messages,
        comm_bytes=comm_bytes,
        core_of_task=core_of_op,
        comm_time_per_node=comm_time,
        messages_per_node=sent,
    )
    return KernelRun(schedule, ready_time, transfer_arrival, seen_transfers)
