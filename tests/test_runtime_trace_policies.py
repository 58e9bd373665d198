"""Tests for schedule traces (Gantt / utilization) and scheduler policies."""

import pytest

from repro.ir import get_program
from repro.obs.clock import FakeClock
from repro.obs.export import gantt_text
from repro.obs.tracer import Tracer
from repro.obs.util import idle_seconds_per_node, utilization_summary
from repro.runtime.engine import run_policy
from repro.runtime.machine import Machine
from repro.trees import FlatTSTree, GreedyTree


@pytest.fixture(scope="module")
def small_run():
    program = get_program("bidiag", 6, 4, GreedyTree())
    machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
    tracer = Tracer(clock=FakeClock())
    with tracer.activate():
        schedule = run_policy(program, machine)
    return machine, schedule, tracer.runs[-1]


class TestUtilization:
    def test_busy_fraction_in_unit_interval(self, small_run):
        machine, schedule, _ = small_run
        summary = utilization_summary(schedule, machine)
        assert 0.0 < summary["overall_busy_fraction"] <= 1.0
        assert all(0.0 <= f <= 1.0 for f in summary["busy_fraction_per_node"])

    def test_idle_plus_busy_equals_capacity(self, small_run):
        machine, schedule, _ = small_run
        summary = utilization_summary(schedule, machine)
        capacity = machine.total_cores * schedule.makespan
        busy = sum(schedule.busy_time_per_node)
        assert summary["total_idle_seconds"] == pytest.approx(capacity - busy)

    def test_idle_seconds_per_node(self, small_run):
        machine, schedule, _ = small_run
        idle = idle_seconds_per_node(
            schedule.busy_time_per_node, schedule.makespan, machine.cores_per_node
        )
        assert len(idle) == machine.n_nodes
        assert all(v >= -1e-12 for v in idle)


def _lanes(chart):
    return [line for line in chart.splitlines() if line.startswith("n")]


class TestGantt:
    def test_chart_has_one_lane_per_busy_core(self, small_run):
        machine, _, run = small_run
        lanes = _lanes(gantt_text(run, width=40))
        assert 1 <= len(lanes) <= machine.total_cores
        # Each lane has exactly `width` cells between the pipes.
        body = lanes[0].split("|")[1]
        assert len(body) == 40

    def test_chart_shows_kernels_and_idle(self, small_run):
        _, _, run = small_run
        chart = gantt_text(run, width=60)
        assert "legend:" in chart
        body = "".join(line.split("|")[1] for line in _lanes(chart))
        assert any(ch != "." for ch in body)

    def test_lane_cap(self, small_run):
        _, _, run = small_run
        chart = gantt_text(run, width=20, max_lanes=1)
        assert len(_lanes(chart)) == 1
        assert "more core lanes not shown" in chart

    def test_invalid_width(self, small_run):
        _, _, run = small_run
        with pytest.raises(ValueError):
            gantt_text(run, width=0)


class TestSchedulerPolicies:
    def test_unknown_policy_rejected(self):
        program = get_program("qr", 2, 2, GreedyTree())
        with pytest.raises(ValueError):
            run_policy(program, Machine(), policy="magic")

    @pytest.mark.parametrize("policy", ["list", "fifo", "weight"])
    def test_all_policies_produce_valid_schedules(self, policy):
        program = get_program("qr", 6, 4, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        schedule = run_policy(program, machine, policy=policy)
        assert schedule.makespan > 0
        assert len(schedule.start) == len(program)
        # Dependencies respected.
        for src, dst in program.edges():
            assert schedule.start[dst] >= schedule.finish[src] - 1e-12

    def test_bottom_level_not_worse_than_fifo(self):
        program = get_program("bidiag", 8, 6, FlatTSTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        blevel = run_policy(program, machine, policy="list").makespan
        fifo = run_policy(program, machine, policy="fifo").makespan
        assert blevel <= fifo * 1.05

    def test_core_assignment_is_consistent(self):
        program = get_program("qr", 5, 3, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=3, tile_size=100)
        schedule = run_policy(program, machine)
        assert schedule.core_of_task is not None
        assert all(0 <= c < machine.cores_per_node for c in schedule.core_of_task)
        # Tasks on the same core never overlap in time.
        by_core = {}
        for tid, core in enumerate(schedule.core_of_task):
            by_core.setdefault((schedule.node_of_task[tid], core), []).append(tid)
        for tasks in by_core.values():
            tasks.sort(key=lambda t: schedule.start[t])
            for a, b in zip(tasks, tasks[1:]):
                assert schedule.start[b] >= schedule.finish[a] - 1e-12
