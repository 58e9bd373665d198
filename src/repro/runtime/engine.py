"""Simulation engine: replay a Program under any policy and network.

The :class:`SimulationEngine` splits the PaRSEC-like runtime into parts:

* the **policy** (:mod:`repro.runtime.policies`) only ranks ops; the
  engine collapses its keys into a dense-rank order, the stable
  ``(policy key, op id)`` sort, so tie-breaking is stable task-id
  ordering and schedules are bit-reproducible across runs and Python hash
  seeds;
* the **network model** (:mod:`repro.runtime.network`) prices cross-node
  transfers: ``uniform`` is a flat pre-charge per edge, ``alpha-beta``
  turns each deduplicated (producer, destination node) transfer into a
  message event with latency + bandwidth cost, serialized injection
  through the sender's NIC and an optional rendezvous handshake;
* the **event loop** is the one kernel of :mod:`repro.runtime.kernel`.
  This module is its preparer for single runs; :mod:`repro.runtime.batch`
  (many candidates of one program) and :mod:`repro.runtime.scenario`
  (Monte-Carlo draws) are the other two.

Preparation turns every per-op quantity into a flat array
(:meth:`SimulationEngine.prepare`):

* the **duration vector** is a 12-entry per-machine kernel-duration table
  (:meth:`repro.runtime.machine.Machine.kernel_duration_table`) gathered
  through the program's packed kernel-code column, memoized per
  (machine, program); heterogeneous machines fold their per-node
  slowdowns into it, and their per-core slowdowns go to the kernel;
* the **owner vector** is one vectorized block-cyclic computation over the
  owner-tile coordinate columns, memoized per (program, grid) — callers
  that already know the mapping can also pass ``node_of_op=`` to
  :meth:`SimulationEngine.run`;
* the **dense-rank order** comes from the vectorized rank hooks of
  :mod:`repro.runtime.policies`, memoized per (program, policy, machine,
  grid) — with the machine folded out for machine-invariant policies, and
  ``locality`` folded onto ``list`` on one node, where the two coincide.

The memo tables are module-level and keyed by weak program references, so
a tuning sweep whose candidates share a cached program shares the pricing
and rank work across all of them, and dropping a program from the program
cache frees its tables.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import Tracer, TransferRecord, current_tracer
from repro.runtime import kernel
from repro.runtime.machine import Machine
from repro.runtime.network import (
    AlphaBetaNetwork,
    NetworkModel,
    UniformNetwork,
    get_network_model,
    resolved_message_bytes_vector,
)
from repro.runtime.policies import SchedulingPolicy, get_policy
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

# --------------------------------------------------------------------------- #
# Per-(program, ...) memo tables.  Weak keys: dropping a Program from the
# program cache frees its derived tables.  A single lock guards all of them
# — the tuning thread pools hit them concurrently and the values are cheap
# to (re)build, so contention is negligible.
# --------------------------------------------------------------------------- #
_MEMO_LOCK = threading.Lock()
#: program -> {machine: duration vector (float64, read-only)}
_DURATION_VECTORS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(grid rows, grid cols): owner vector (int64, read-only)}
_OWNER_VECTORS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(policy token, machine-or-None, grid key): (rank_of, id_of)}
#: A policy's total order as dense ranks; ``machine`` is folded to
#: ``None`` for machine-invariant rankings so runs that differ only in
#: their machine share one entry.
_RANK_ORDERS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)
#: program -> {(machine, grid key): makespan lower bound in seconds}
#: Analytic ``max(critical path, area)`` bounds used by the batch engine's
#: pre-pruning; keyed per (machine, grid) because both the duration vector
#: and the owner-computes placement feed the bound.
_BATCH_BOUNDS: "weakref.WeakKeyDictionary[Program, Dict]" = (
    weakref.WeakKeyDictionary()
)

#: A dense-rank policy ordering: ``rank_of[op]`` is the op's position in
#: the stable ``(key, op id)`` sort and ``id_of[position]`` inverts it.
DenseOrder = Tuple[List[int], List[int]]


def _memo_get(table, program: Program, key, name: str):
    with _MEMO_LOCK:
        per = table.get(program)
        value = None if per is None else per.get(key)
    # Hit/miss accounting happens outside the memo lock; one registry
    # increment per run-level vector lookup (not per op), so the metrics
    # cost is negligible even in tuning sweeps.
    REGISTRY.inc(f"engine.memo.{name}.{'hits' if value is not None else 'misses'}")
    return value


def _memo_put(table, program: Program, key, value) -> None:
    with _MEMO_LOCK:
        per = table.get(program)
        if per is None:
            per = {}
            table[program] = per
        per[key] = value


def engine_memo_stats() -> Dict[str, int]:
    """Entry counts and hit/miss totals of the per-program memo tables.

    The entry counts are read off the weak-keyed tables directly; the
    hit/miss counters live in the observability registry
    (:data:`repro.obs.metrics.REGISTRY`, names ``engine.memo.*``), so
    callers can bracket a run with ``REGISTRY.snapshot()`` /
    ``delta_since`` for per-run figures or ``REGISTRY.reset("engine.memo.")``
    instead of inheriting totals from unrelated runs.
    """
    with _MEMO_LOCK:
        stats = {
            "duration_programs": len(_DURATION_VECTORS),
            "owner_programs": len(_OWNER_VECTORS),
            "rank_programs": len(_RANK_ORDERS),
            "batch_bound_programs": len(_BATCH_BOUNDS),
        }
    for name in ("duration", "owner", "rank", "batch.bound"):
        for outcome in ("hits", "misses"):
            stats[f"{name.replace('.', '_')}_{outcome}"] = int(
                REGISTRY.counter(f"engine.memo.{name}.{outcome}")
            )
    for name in ("candidates", "simulated", "deduped", "pruned"):
        stats[f"batch_{name}"] = int(
            REGISTRY.counter(f"engine.memo.batch.{name}")
        )
    return stats


def _dense_order(keys: Sequence[object], n: int) -> DenseOrder:
    """Collapse policy keys into the stable ``(key, op id)`` permutation.

    Heap-popping ``rank_of[op]`` ints reproduces ``(keys[op], op)`` tuple
    pops exactly: a stable ascending sort breaks key ties by ascending op
    id, and heap order over distinct ints is total.
    """
    if n == 0:
        return [], []
    id_of_np: Optional[np.ndarray] = None
    try:
        arr = np.asarray(keys)
        if arr.dtype.kind in "biuf":
            if arr.shape == (n,):
                id_of_np = np.argsort(arr, kind="stable")
            elif arr.ndim == 2 and arr.shape[0] == n:
                # Tuple keys (e.g. locality's (remote, -level)): lexsort
                # with the first component primary.  np.lexsort is stable,
                # so full ties keep ascending op id.
                id_of_np = np.lexsort(arr.T[::-1])
    except (TypeError, ValueError):
        id_of_np = None
    if id_of_np is None:
        # Exotic key types: Python's stable sort is the reference order.
        id_of = sorted(range(n), key=keys.__getitem__)
        rank_of = [0] * n
        for rank, op_id in enumerate(id_of):
            rank_of[op_id] = rank
        return rank_of, id_of
    rank_np = np.empty(n, dtype=np.int64)
    rank_np[id_of_np] = np.arange(n, dtype=np.int64)
    return rank_np.tolist(), id_of_np.tolist()


def _collect_transfers(
    machine: Machine,
    network: NetworkModel,
    finish: Sequence[float],
    node_of: Sequence[int],
    transfer_arrival: Dict[Tuple[int, int], float],
    seen_transfers: "set[Tuple[int, int]]",
    msg_bytes: Optional[Sequence[int]],
) -> List[TransferRecord]:
    """Reconstruct per-message transfer records after the event loop.

    The kernel records nothing while running; every message's full
    timeline is recoverable from state it already keeps.  Under the
    event-driven models the arrival map's insertion order *is* the NIC
    dispatch order, and ``inject_start = arrival - wire`` / ``injection``
    / ``wire`` are re-derived from the payload size exactly as the loop
    derived them.  Under the uniform model each deduplicated edge is a
    flat pre-charge with no NIC queueing, so the record is ``release ->
    release + transfer`` with the tile payload.
    """
    records: List[TransferRecord] = []
    if network.event_driven:
        assert msg_bytes is not None
        handshake = network.handshake_seconds(machine)
        for (op_id, dst), arrival in transfer_arrival.items():
            n_bytes = msg_bytes[op_id]
            wire = network.message_seconds(n_bytes, machine)
            records.append(
                TransferRecord(
                    op_id=op_id,
                    src=node_of[op_id],
                    dst=dst,
                    n_bytes=n_bytes,
                    release=finish[op_id],
                    handshake=handshake,
                    inject_start=arrival - wire,
                    injection=machine.injection_seconds(n_bytes),
                    wire=wire,
                    arrival=arrival,
                )
            )
    else:
        transfer = machine.transfer_time()
        n_bytes = machine.tile_bytes
        for op_id, dst in sorted(seen_transfers):
            release = finish[op_id]
            records.append(
                TransferRecord(
                    op_id=op_id,
                    src=node_of[op_id],
                    dst=dst,
                    n_bytes=n_bytes,
                    release=release,
                    handshake=0.0,
                    inject_start=release,
                    injection=transfer,
                    wire=transfer,
                    arrival=release + transfer,
                )
            )
    return records


@dataclass
class PreparedRun:
    """One (program, engine configuration)'s kernel inputs, as flat lists.

    Built by :meth:`SimulationEngine.prepare`; :meth:`replay` runs the
    event-loop kernel over it, optionally with a different duration list
    or per-op wire-noise factors (the scenario layer's draws).
    """

    program: Program
    machine: Machine
    network: NetworkModel
    #: Nominal per-op durations (the memoized vector the policy ranks by).
    nominal_np: np.ndarray
    #: Nominal durations times the per-node slowdowns (float64).
    durations_np: np.ndarray
    durations: List[float]
    #: Owner node per op, or ``None`` on one node.
    node_np: Optional[np.ndarray]
    node_of: Optional[List[int]]
    rank_of: List[int]
    id_of: List[int]
    #: Per-op payloads, for event-driven networks on more than one node.
    msg_bytes: Optional[List[int]]
    core_factors: Optional[Tuple[float, ...]]

    def replay(
        self,
        durations: Optional[Sequence[float]] = None,
        noise: Optional[Sequence[float]] = None,
    ) -> kernel.KernelRun:
        """One kernel pass (``durations`` defaults to the prepared ones)."""
        succ_lists, indegree, sources = self.program.dispatch_lists()
        return kernel.replay(
            self.machine,
            self.network,
            self.durations if durations is None else durations,
            self.node_of,
            self.rank_of,
            self.id_of,
            succ_lists,
            indegree,
            sources,
            msg_bytes=self.msg_bytes,
            core_factors=self.core_factors,
            noise=noise,
        )


def _network_token(network: NetworkModel) -> Optional[Tuple]:
    """Hashable identity of a built-in network model, or ``None``.

    Unknown subclasses get ``None`` (never shared or deduplicated): their
    pricing may depend on state the engine cannot see.
    """
    if type(network) is UniformNetwork:
        return ("uniform",)
    if type(network) is AlphaBetaNetwork:
        return ("alpha-beta", network.eager)
    return None


def _listed(lists: Optional[Dict], key: Optional[Tuple], array: np.ndarray) -> list:
    """``array.tolist()``, shared through ``lists`` under ``key`` if given."""
    if lists is None or key is None:
        return array.tolist()
    out = lists.get(key)
    if out is None:
        out = array.tolist()
        lists[key] = out
    return out


class SimulationEngine:
    """Replay compiled programs on a machine model under a pluggable policy.

    Parameters
    ----------
    machine:
        The machine model (node count, cores, kernel durations, network
        hardware parameters, optional per-node / per-core slowdowns).
    distribution:
        Tile-to-node mapping; defaults to a 2D block-cyclic distribution on
        the near-square process grid for the machine's node count.
    policy:
        A :class:`~repro.runtime.policies.SchedulingPolicy` name or
        instance (default ``"list"``, greedy bottom-level list scheduling).
    network:
        A :class:`~repro.runtime.network.NetworkModel` name or instance
        (default ``"uniform"``, the flat-cost communication model).
    """

    def __init__(
        self,
        machine: Machine,
        distribution: Optional[BlockCyclicDistribution] = None,
        *,
        policy: Union[str, SchedulingPolicy] = "list",
        network: Union[str, NetworkModel] = "uniform",
    ) -> None:
        self.machine = machine
        #: The machine without its slowdowns: the model durations are
        #: priced and policies rank by, so heterogeneous variants of one
        #: machine share its memo entries.
        self.nominal_machine = (
            machine
            if machine.node_slowdowns is None and machine.core_slowdowns is None
            else replace(machine, node_slowdowns=None, core_slowdowns=None)
        )
        self.policy = get_policy(policy)
        self.network = get_network_model(network)
        if distribution is None:
            distribution = BlockCyclicDistribution(
                ProcessGrid.for_square_matrix(machine.n_nodes)
            )
        if distribution.grid.size != machine.n_nodes:
            raise ValueError(
                f"distribution has {distribution.grid.size} processes but the machine "
                f"has {machine.n_nodes} nodes"
            )
        self.distribution = distribution

    # ------------------------------------------------------------------ #
    # Memoized per-program vectors (shared module-wide across engines)
    # ------------------------------------------------------------------ #
    @property
    def grid_key(self) -> Optional[Tuple[int, int]]:
        """The placement's memo key: the grid shape of a canonical
        block-cyclic distribution on more than one node, else ``None``
        (one node needs no placement; a distribution subclass's own
        ``owner()`` makes its mapping unkeyable)."""
        dist = self.distribution
        if self.machine.n_nodes == 1 or type(dist) is not BlockCyclicDistribution:
            return None
        return (dist.grid.rows, dist.grid.cols)

    def duration_vector(self, program: Program) -> np.ndarray:
        """Per-op nominal durations on this machine (float64, read-only,
        memoized).

        One 12-entry kernel table gather instead of ``len(program)`` dict
        lookups; identical values to ``machine.kernel_duration(op.kernel)``
        per op.
        """
        machine = self.nominal_machine
        vec = _memo_get(_DURATION_VECTORS, program, machine, "duration")
        if vec is None:
            vec = machine.kernel_duration_table()[program.kernel_codes_np]
            vec.setflags(write=False)
            _memo_put(_DURATION_VECTORS, program, machine, vec)
        return vec

    def owner_vector(self, program: Program) -> Optional[np.ndarray]:
        """Owner node of every op (int64, memoized), or ``None`` on one node.

        Uses the vectorized block-cyclic mapping
        (:meth:`~repro.tiles.distribution.BlockCyclicDistribution.owner_array`)
        over the program's owner-tile columns; distribution subclasses with
        a custom ``owner()`` fall back to per-op resolution (uncached).
        """
        if self.machine.n_nodes == 1:
            return None
        dist = self.distribution
        key = self.grid_key
        if key is not None:
            vec = _memo_get(_OWNER_VECTORS, program, key, "owner")
            if vec is None:
                vec = dist.owner_array(
                    program.owner_rows_np, program.owner_cols_np
                )
                vec.setflags(write=False)
                _memo_put(_OWNER_VECTORS, program, key, vec)
            return vec
        rows = program.owner_rows_np.tolist()
        cols = program.owner_cols_np.tolist()
        return np.fromiter(
            (dist.owner(i, j) for i, j in zip(rows, cols)),
            dtype=np.int64,
            count=len(program),
        )

    def rank_order(
        self,
        program: Program,
        durations_np: np.ndarray,
        node_np: Optional[np.ndarray],
        *,
        cacheable: bool = True,
    ) -> DenseOrder:
        """The policy's dense-rank order over ``program`` (memoized).

        Uses the policy's vectorized :meth:`~repro.runtime.policies.
        SchedulingPolicy.rank_array` hook when available, falling back to
        :meth:`~repro.runtime.policies.SchedulingPolicy.rank`.  Only
        policies with a ``cache_token`` on a keyable placement hit the
        memo; ``cacheable=False`` (a caller-supplied placement) bypasses it.
        """
        policy = self.policy
        machine = self.nominal_machine
        # On one node every producer is local, so locality's (remote count,
        # bottom level) keys are (0, list key) for every op: the stable sort
        # is the list policy's, bit for bit.  Fold the policy so the two
        # share one order entry and the cheaper float ranking.
        if node_np is None and policy.cache_token == ("locality",):
            policy = get_policy("list")
        token = policy.cache_token
        grid_key = self.grid_key
        key = None
        if (
            cacheable
            and token is not None
            and (machine.n_nodes == 1 or grid_key is not None)
        ):
            machine_key = None if policy.rank_machine_invariant else machine
            key = (token, machine_key, grid_key)
            cached = _memo_get(_RANK_ORDERS, program, key, "rank")
            if cached is not None:
                return cached
        keys = policy.rank_array(program, durations_np, node_np, machine)
        if keys is None:
            node_list = (
                node_np.tolist() if node_np is not None else [0] * len(program)
            )
            keys = policy.rank(program, durations_np.tolist(), node_list, machine)
        if len(keys) != len(program):
            raise ValueError(
                f"policy {policy.name!r} ranked {len(keys)} ops, "
                f"expected {len(program)}"
            )
        order = _dense_order(keys, len(program))
        if key is not None:
            _memo_put(_RANK_ORDERS, program, key, order)
        return order

    def prepare(
        self,
        program: Program,
        node_of_op: Optional[Sequence[int]] = None,
        *,
        lists: Optional[Dict] = None,
    ) -> PreparedRun:
        """Resolve every kernel input of one run of ``program``.

        ``node_of_op`` optionally overrides the distribution's placement.
        ``lists`` lets a caller preparing many runs (the batch engine)
        share the Python-list mirrors of keyable vectors between them.
        Priorities are nominal: the policy ranks ops by the unperturbed
        durations, its model of the machine, whatever the slowdowns.
        """
        machine = self.machine
        network = self.network
        n = len(program)
        nominal_np = durations_np = self.duration_vector(program)
        if node_of_op is None:
            node_np = self.owner_vector(program)
            cacheable = True
        else:
            if len(node_of_op) != n:
                raise ValueError(
                    f"node_of_op has {len(node_of_op)} entries but the program "
                    f"has {n} ops"
                )
            node_np = np.ascontiguousarray(node_of_op, dtype=np.int64)
            if machine.n_nodes == 1:
                node_np = None
            cacheable = False
        rank_of, id_of = self.rank_order(
            program, durations_np, node_np, cacheable=cacheable
        )
        grid_key = self.grid_key if cacheable else None
        durations_key: Optional[Tuple] = ("durations", machine)
        node_factors = machine.node_factors()
        if node_factors is not None:
            # Owner nodes are fixed per op, so node slowdowns fold into the
            # duration vector; core slowdowns apply when the core is chosen.
            nf = np.asarray(node_factors, dtype=np.float64)
            if node_np is None:
                durations_np = durations_np * nf[0]
            else:
                durations_np = durations_np * nf[node_np]
                # The folded durations depend on the placement too.
                durations_key = ("durations", machine, grid_key) if grid_key else None
        node_of = None
        if node_np is not None:
            node_of = _listed(
                lists, ("node", grid_key) if grid_key else None, node_np
            )
        msg_bytes = None
        if node_np is not None and network.event_driven:
            net_tok = _network_token(network)
            msg_bytes = _listed(
                lists,
                ("msg", net_tok, machine) if net_tok is not None else None,
                resolved_message_bytes_vector(network, program, machine),
            )
        return PreparedRun(
            program=program,
            machine=machine,
            network=network,
            nominal_np=nominal_np,
            durations_np=durations_np,
            durations=_listed(lists, durations_key, durations_np),
            node_np=node_np,
            node_of=node_of,
            rank_of=rank_of,
            id_of=id_of,
            msg_bytes=msg_bytes,
            core_factors=machine.core_factors(),
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        *,
        node_of_op: Optional[Sequence[int]] = None,
    ) -> Schedule:
        """Simulate one replay of ``program`` and return the schedule.

        ``node_of_op`` optionally supplies a precomputed owner-node array
        (one entry per op), skipping the distribution lookup entirely —
        useful when a caller already resolved the mapping, e.g. for a
        custom placement study.
        """
        # Ambient tracer pickup: one thread-local read.  The kernel never
        # consults the tracer — it records nothing while running — so
        # traced and untraced replays execute identical instructions and
        # schedules are bit-identical by construction.
        tracer = current_tracer()
        if tracer is None:
            schedule = self.prepare(program, node_of_op).replay().schedule
        else:
            with tracer.phase("simulate"):
                with tracer.phase("rank"):
                    prepared = self.prepare(program, node_of_op)
                run = prepared.replay()
                if len(program):
                    self._record_run(tracer, program, run, prepared.msg_bytes)
            schedule = run.schedule
        # Opt-in static verification on exit (REPRO_VERIFY=1): sanitize the
        # schedule's feasibility before handing it to the caller.
        from repro.verify.hooks import verify_enabled

        if verify_enabled():
            from repro.verify.hooks import check_schedule

            check_schedule(
                schedule,
                program,
                self.machine,
                distribution=self.distribution,
                network=self.network,
                node_of_op=node_of_op,
            )
        return schedule

    # ------------------------------------------------------------------ #
    # Trace recording (post-loop; see repro.obs.tracer)
    # ------------------------------------------------------------------ #
    def _record_run(
        self,
        tracer: Tracer,
        program: Program,
        run: kernel.KernelRun,
        msg_bytes: Optional[List[int]],
    ) -> None:
        """Hand one finished replay's state to the ambient tracer.

        Called strictly after the event loop: the arrays are the ones the
        Schedule already carries (shared, not copied) and the transfer
        timeline is a lazy closure over the loop's dedup structures —
        reconstructed only when an exporter or metrics reader asks for it
        — so recording cannot feed back into scheduling decisions and
        costs O(1) per replay.
        """
        schedule = run.schedule
        transfers: Optional[Callable[[], List[TransferRecord]]] = None
        if run.transfer_arrival or run.seen_transfers:
            machine, network = self.machine, self.network

            def _reconstruct() -> List[TransferRecord]:
                return _collect_transfers(
                    machine,
                    network,
                    schedule.finish,
                    schedule.node_of_task,
                    run.transfer_arrival,
                    run.seen_transfers,
                    msg_bytes,
                )

            transfers = _reconstruct
        tracer.record_engine_run(
            program=program,
            policy=self.policy.name,
            network=self.network.name,
            n_nodes=self.machine.n_nodes,
            cores_per_node=self.machine.cores_per_node,
            makespan=schedule.makespan,
            start=schedule.start,
            finish=schedule.finish,
            node_of=schedule.node_of_task,
            core_of=schedule.core_of_task,
            ready_time=run.ready_time,
            transfers=transfers,
        )


def run_policy(
    program: Program,
    machine: Machine,
    *,
    policy: Union[str, SchedulingPolicy] = "list",
    distribution: Optional[BlockCyclicDistribution] = None,
    network: Union[str, NetworkModel] = "uniform",
) -> Schedule:
    """One-shot convenience wrapper around :class:`SimulationEngine`."""
    return SimulationEngine(
        machine, distribution, policy=policy, network=network
    ).run(program)


def critical_path_seconds(program: Program, machine: Machine) -> float:
    """Duration-weighted critical path: the makespan lower bound no
    scheduling policy can beat on ``machine`` (unbounded cores, free
    communication)."""
    if len(program) == 0:
        return 0.0
    return program.critical_path_np(
        machine.kernel_duration_table()[program.kernel_codes_np]
    )


def serial_seconds(program: Program, machine: Machine) -> float:
    """Single-core replay time: the makespan upper bound for any policy."""
    # Summed in stream order (not numpy pairwise), bit-identical to a
    # per-op Python accumulation.
    table = machine.kernel_duration_table()
    return sum(table[program.kernel_codes_np].tolist())
