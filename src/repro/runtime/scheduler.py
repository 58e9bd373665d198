"""The :class:`Schedule` result record of one simulated replay.

The scheduling loop lives in the engine/policy/network split of
:mod:`repro.runtime.engine`, :mod:`repro.runtime.policies` and
:mod:`repro.runtime.network`: the
:class:`~repro.runtime.engine.SimulationEngine` prepares every per-op
quantity and hands it to the one event loop of :mod:`repro.runtime.kernel`,
a pluggable :class:`~repro.runtime.policies.SchedulingPolicy` ranks the
ready queue, and a :class:`~repro.runtime.network.NetworkModel` prices
cross-node transfers (``uniform`` flat cost, or message-level
``alpha-beta`` with NIC occupancy).  Every replay — single, batched or
Monte-Carlo — returns a :class:`Schedule` (makespan, per-task times, node
mapping, communication statistics).

The behaviour mimics the PaRSEC runtime the paper relies on:
owner-computes task mapping over a 2D block-cyclic distribution, greedy
priority-driven scheduling, and one deduplicated tile transfer per
(producer, destination node) pair — however the network model prices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.machine import Machine


@dataclass
class Schedule:
    """Result of scheduling a program.

    Attributes
    ----------
    makespan:
        Total simulated time in seconds.
    start, finish:
        Per-task start and finish times (indexed by task id).
    node_of_task:
        Node each task ran on.
    busy_time_per_node:
        Total compute seconds spent by each node.
    messages, comm_bytes:
        Number of inter-node messages and total bytes moved.
    """

    makespan: float
    start: List[float]
    finish: List[float]
    node_of_task: List[int]
    busy_time_per_node: List[float]
    messages: int
    comm_bytes: int
    #: Core index (within its node) each task ran on; filled by the
    #: simulation engine and used by the utilization helpers of
    #: :mod:`repro.obs.util`.  ``None`` for schedules built by hand.
    core_of_task: Optional[List[int]] = None
    #: Seconds each node spent sending (NIC injection time under the
    #: alpha-beta network model; ``sent * transfer_time`` under uniform).
    #: ``None`` for schedules built by hand.
    comm_time_per_node: Optional[List[float]] = None
    #: Deduplicated messages *sent* by each node (indexed by rank); sums to
    #: ``messages``.  ``None`` for schedules built by hand.
    messages_per_node: Optional[List[int]] = None

    @property
    def comm_seconds(self) -> float:
        """Total sending time across all nodes (0.0 when not tracked)."""
        return sum(self.comm_time_per_node or ())

    @property
    def n_tasks(self) -> int:
        return len(self.start)

    def node_utilization(self, machine: Machine) -> List[float]:
        """Fraction of available core-seconds each node spent computing."""
        from repro.obs.util import node_busy_fractions

        return node_busy_fractions(
            self.busy_time_per_node, self.makespan, machine.cores_per_node
        )
