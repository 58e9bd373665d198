"""Tests for the observability subsystem (:mod:`repro.obs`).

The load-bearing contract is *non-perturbation*: the engine records
nothing inside its event loop, so schedules must be bit-identical with
tracing on and off under every scheduling policy and network model.  On
top of that, this module pins the Chrome trace-event export for a small
fixed program (schema validity, pid/tid <-> node/core mapping, matched
B/E phase spans, monotonic timestamps) and unit-tests the metrics
registry, the shared utilization helpers, the injectable clock and the
span profiler.
"""

import json

import numpy as np
import pytest

from repro.api import SvdPlan, execute
from repro.ir import clear_program_cache, get_program
from repro.obs import (
    REGISTRY,
    FakeClock,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    core_busy_seconds,
    current_tracer,
    node_busy_fractions,
    profile_enabled,
    profile_snapshot,
    profiled,
    reset_profiles,
    run_metrics,
    trace_enabled,
    utilization_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime.engine import SimulationEngine, engine_memo_stats
from repro.runtime.machine import Machine
from repro.runtime.policies import POLICIES
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTTTree, GreedyTree

NETWORKS = ("uniform", "alpha-beta")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_program_cache()
    yield
    clear_program_cache()


def _machine(n_nodes=4, cores=4, nb=100):
    return Machine(n_nodes=n_nodes, cores_per_node=cores, tile_size=nb)


def _simulate(machine, *, policy="list", network="uniform", tracer=None,
              p=6, q=6, tree=None):
    from repro.api.resolver import default_grid

    grid = default_grid(machine.n_nodes, p, q)
    program = get_program(
        "bidiag", p, q, tree or FlatTTTree(),
        n_cores=machine.cores_per_node, grid_rows=grid.rows,
    )
    engine = SimulationEngine(
        machine, BlockCyclicDistribution(grid), policy=policy, network=network
    )
    if tracer is None:
        return engine.run(program)
    with tracer.activate():
        return engine.run(program)


def _assert_schedules_identical(a, b):
    assert a.makespan == b.makespan  # bitwise, not approx
    assert a.start == b.start
    assert a.finish == b.finish
    assert a.node_of_task == b.node_of_task
    assert a.core_of_task == b.core_of_task
    assert a.messages == b.messages
    assert a.comm_bytes == b.comm_bytes
    assert a.comm_seconds == b.comm_seconds


# --------------------------------------------------------------------------- #
# Non-perturbation: bit-identical schedules with tracing on and off
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_tracing_does_not_perturb_schedule(policy, network):
    machine = _machine()
    plain = _simulate(machine, policy=policy, network=network)
    clear_program_cache()
    tracer = Tracer(clock=FakeClock())
    traced = _simulate(machine, policy=policy, network=network, tracer=tracer)
    _assert_schedules_identical(plain, traced)
    assert len(tracer.runs) == 1
    run = tracer.runs[0]
    assert run.policy == policy
    assert run.network == network
    assert len(run) == len(plain.start)
    assert run.makespan == plain.makespan


@pytest.mark.parametrize("network", ["uniform", "alpha-beta"])
def test_tracing_records_every_deduplicated_transfer(network):
    machine = _machine(n_nodes=2, cores=2)
    grid = ProcessGrid(1, 2)
    program = get_program("bidiag", 6, 6, FlatTTTree(), n_cores=2,
                          grid_rows=grid.rows)
    dist = BlockCyclicDistribution(grid)
    engine = SimulationEngine(machine, dist, network=network)
    plain = engine.run(program)
    tracer = Tracer(clock=FakeClock())
    with tracer.activate():
        traced = engine.run(program)
    _assert_schedules_identical(plain, traced)
    transfers = tracer.runs[0].transfers
    assert len(transfers) == plain.messages > 0
    assert sum(t.n_bytes for t in transfers) == plain.comm_bytes


def test_single_node_run_has_no_transfers():
    tracer = Tracer(clock=FakeClock())
    schedule = _simulate(_machine(n_nodes=1), tracer=tracer, tree=GreedyTree())
    run = tracer.runs[0]
    assert run.transfers == []
    assert run.n_nodes == 1
    assert schedule.messages == 0


# --------------------------------------------------------------------------- #
# Transfer reconstruction invariants
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("network", NETWORKS)
def test_transfer_records_are_consistent(network):
    tracer = Tracer(clock=FakeClock())
    schedule = _simulate(_machine(), network=network, tracer=tracer)
    run = tracer.runs[0]
    assert len(run.transfers) == schedule.messages > 0
    finish = schedule.finish
    for record in run.transfers:
        assert record.src != record.dst
        assert record.n_bytes > 0
        assert record.release == finish[record.op_id]
        assert record.handshake >= 0.0
        assert record.queued >= 0.0
        assert record.injection > 0.0
        assert record.wire > 0.0
        assert record.arrival == pytest.approx(record.inject_start + record.wire)
        assert record.arrival >= record.release
    if network == "uniform":
        # Flat cost: no handshake, no NIC queueing, wire == injection.
        assert all(r.handshake == 0.0 for r in run.transfers)
        assert all(r.queued == 0.0 for r in run.transfers)
        assert all(r.wire == r.injection for r in run.transfers)
    assert sum(r.n_bytes for r in run.transfers) == schedule.comm_bytes


# --------------------------------------------------------------------------- #
# Golden-pinned Chrome trace for a small fixed program
# --------------------------------------------------------------------------- #
def _traced_fixture():
    """One traced 6x6 FlatTT run on 4 nodes with a deterministic clock."""
    tracer = Tracer(clock=FakeClock())
    plan = SvdPlan(m=600, n=600, stage="ge2bnd", variant="bidiag",
                   tree="flattt", tile_size=100, n_cores=4, n_nodes=4,
                   network="alpha-beta")
    result = execute(plan, "simulate", trace=tracer)
    return tracer, result


def test_golden_trace_schema_and_mapping(tmp_path):
    tracer, result = _traced_fixture()
    payload = chrome_trace(tracer)
    assert validate_chrome_trace(payload) == []

    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    timed = [e for e in events if e["ph"] != "M"]
    # Metadata leads, timed events are globally ts-sorted.
    assert events[: len(meta)] == meta
    ts = [e["ts"] for e in timed]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)

    # Wall-clock phases: one matched B/E pair per pipeline phase on pid 0.
    phase_names = {e["name"] for e in timed if e["ph"] == "B"}
    assert phase_names == {"compile", "dep-analysis", "rank", "simulate"}
    begins = [e for e in timed if e["ph"] == "B"]
    ends = [e for e in timed if e["ph"] == "E"]
    assert len(begins) == len(ends) == 4
    assert all(e["pid"] == 0 and e["tid"] == 1 for e in begins + ends)

    # Task events: one X per op, pid/tid encoding the (node, core) placement.
    run = tracer.runs[0]
    tasks = [e for e in timed if e.get("cat") == "task"]
    assert len(tasks) == len(run) == result.n_tasks
    assert sorted(e["args"]["op"] for e in tasks) == list(range(len(run)))
    for event in tasks:
        op = event["args"]["op"]
        assert event["pid"] == 1 + run.node_of[op]
        assert event["tid"] == run.core_of[op] + 1
        assert event["ts"] == pytest.approx(run.start[op] * 1e6)
        assert event["dur"] == pytest.approx(
            (run.finish[op] - run.start[op]) * 1e6
        )
        assert event["name"] in run.kernel_names()

    # Transfer events ride the per-node NIC lane.
    transfers = [e for e in timed if e.get("cat") == "transfer"]
    assert len(transfers) == result.messages == len(run.transfers)
    nic_tid = run.cores_per_node + 1
    assert all(e["tid"] == nic_tid for e in transfers)
    assert sum(e["args"]["bytes"] for e in transfers) == result.comm_bytes

    # Ready-queue counter track present and bounded.
    counters = [e for e in timed if e["ph"] == "C"]
    assert 0 < len(counters) <= 1000

    # otherData summarizes the run.
    other = payload["otherData"]
    assert other["generator"] == "repro.obs"
    assert other["runs"] == [
        {
            "label": "run0",
            "policy": "list",
            "network": "alpha-beta",
            "ops": len(run),
            "makespan_s": run.makespan,
        }
    ]

    # The file round-trips through JSON unchanged.
    path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as fh:
        reloaded = json.load(fh)
    assert reloaded == json.loads(json.dumps(payload))
    assert validate_chrome_trace(reloaded) == []


def test_golden_phase_spans_with_fake_clock():
    tracer, _result = _traced_fixture()
    # FakeClock ticks 0.5 per read: the span layout is fully deterministic.
    spans = [(s.name, s.seconds, s.depth) for s in tracer.phases]
    assert spans == [
        ("dep-analysis", 0.5, 1),
        ("compile", 1.5, 0),
        ("rank", 0.5, 1),
        ("simulate", 1.5, 0),
    ]
    assert tracer.phase_seconds() == {
        "dep-analysis": 0.5,
        "compile": 1.5,
        "rank": 0.5,
        "simulate": 1.5,
    }


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": 3}) != []
    bad_ts = {"traceEvents": [
        {"ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 1.0},
        {"ph": "X", "pid": 1, "tid": 1, "ts": 2.0, "dur": 1.0},
    ]}
    assert any("backwards" in p for p in validate_chrome_trace(bad_ts))
    unclosed = {"traceEvents": [{"ph": "B", "pid": 0, "tid": 1,
                                 "ts": 0.0, "name": "x"}]}
    assert any("unclosed" in p for p in validate_chrome_trace(unclosed))
    negative = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                                 "ts": 1.0, "dur": -2.0}]}
    assert any("dur" in p for p in validate_chrome_trace(negative))
    floats = {"traceEvents": [{"ph": "X", "pid": 1.5, "tid": 1,
                               "ts": 1.0, "dur": 2.0}]}
    assert any("integer" in p for p in validate_chrome_trace(floats))


# --------------------------------------------------------------------------- #
# Gantt renderers
# --------------------------------------------------------------------------- #
def test_gantt_text_and_svg():
    tracer, _result = _traced_fixture()
    text = tracer.gantt(width=60)
    lines = text.splitlines()
    assert "policy=list network=alpha-beta" in lines[0]
    assert any(line.startswith("n00c00 |") for line in lines)
    assert any("nic|" in line for line in lines)  # NIC lanes for senders
    assert any("%" in line for line in lines if "|" in line)

    svg = tracer.gantt_svg(width_px=400)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "GEQRT" in svg  # legend
    assert svg.count("<rect") > len(tracer.runs[0].transfers)


def test_gantt_empty_tracer():
    tracer = Tracer(clock=FakeClock())
    assert tracer.gantt() == "(no engine run recorded)"
    with pytest.raises(ValueError):
        tracer.gantt_svg()


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.inc("a.hits")
    reg.inc("a.hits", 2)
    reg.inc("b.misses")
    reg.set_gauge("depth", 7)
    reg.observe("sizes", 80000)
    snap = reg.snapshot()
    assert snap["counters"] == {"a.hits": 3, "b.misses": 1}
    assert snap["gauges"] == {"depth": 7}
    assert snap["histograms"]["sizes"]["count"] == 1
    assert reg.counter("a.hits") == 3
    assert reg.counter("nope") == 0


def test_registry_delta_since_and_reset():
    reg = MetricsRegistry()
    reg.inc("x")
    before = reg.snapshot()
    assert reg.delta_since(before) == {}
    reg.inc("x", 4)
    reg.inc("y")
    assert reg.delta_since(before) == {"x": 4, "y": 1}
    reg.reset(prefix="x")
    assert reg.counter("x") == 0
    assert reg.counter("y") == 1
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_histogram_power_of_two_buckets():
    hist = Histogram()
    for value in (0, 1, 2, 3, 4, 1024):
        hist.observe(value)
    out = hist.to_dict()
    assert out["count"] == 6
    assert out["min"] == 0 and out["max"] == 1024
    # Bucket key is 2**bit_length(v): 0->0, 1->2, {2,3}->4, 4->8, 1024->2048.
    assert out["buckets"] == {"0": 1, "2": 1, "4": 2, "8": 1, "2048": 1}
    with pytest.raises(ValueError):
        hist.observe(-1)


def test_engine_memo_stats_promoted_to_registry():
    REGISTRY.reset(prefix="engine.memo.")
    machine = _machine(n_nodes=1, cores=4)
    _simulate(machine, tree=GreedyTree())
    stats = engine_memo_stats()
    # Table-size keys survive alongside the hit/miss counters.
    for key in ("duration_programs", "owner_programs", "rank_programs"):
        assert key in stats
    assert stats["duration_misses"] >= 1
    # One dense-rank order per (program, policy, machine): one miss, then
    # the second run of the same program hits it.
    assert (stats["rank_misses"], stats["rank_hits"]) == (1, 0)
    before_hits = stats["duration_hits"]
    _simulate(machine, tree=GreedyTree())  # same program -> memo hits
    stats = engine_memo_stats()
    assert stats["duration_hits"] > before_hits
    assert (stats["rank_misses"], stats["rank_hits"]) == (1, 1)


# --------------------------------------------------------------------------- #
# Shared utilization helpers
# --------------------------------------------------------------------------- #
def test_node_busy_fractions_and_core_busy_seconds():
    busy = [2.0, 1.0]
    frac = node_busy_fractions(busy, makespan=2.0, cores_per_node=2)
    assert frac == [0.5, 0.25]
    assert node_busy_fractions(busy, makespan=0.0, cores_per_node=2) == [0.0, 0.0]

    start = [0.0, 1.0, 0.0]
    finish = [1.0, 3.0, 2.0]
    node_of = [0, 0, 1]
    core_of = [0, 1, 0]
    per_core = core_busy_seconds(start, finish, node_of, core_of, 2, 2)
    assert per_core.shape == (2, 2)
    assert per_core.tolist() == [[1.0, 2.0], [2.0, 0.0]]


def test_utilization_summary_matches_schedule():
    machine = _machine()
    schedule = _simulate(machine)
    summary = utilization_summary(schedule, machine)
    assert summary["makespan"] == schedule.makespan
    assert len(summary["busy_fraction_per_node"]) == machine.n_nodes
    assert 0.0 < summary["overall_busy_fraction"] <= 1.0
    assert summary["total_idle_seconds"] >= 0.0
    per_core = np.asarray(summary["busy_fraction_per_core"])
    assert per_core.shape == (machine.n_nodes, machine.cores_per_node)
    # Per-node fraction is the mean of its core fractions.
    assert np.allclose(per_core.mean(axis=1), summary["busy_fraction_per_node"])
    # The summary is JSON-serializable as-is.
    json.dumps(summary)


# --------------------------------------------------------------------------- #
# run_metrics / RunResult.metrics
# --------------------------------------------------------------------------- #
def test_run_metrics_untraced_keys():
    machine = _machine()
    schedule = _simulate(machine)
    metrics = run_metrics(schedule, machine)
    assert set(metrics) == {"utilization", "communication", "cache"}
    comm = metrics["communication"]
    assert comm["messages"] == schedule.messages
    assert comm["bytes"] == schedule.comm_bytes
    assert len(comm["messages_per_node"]) == machine.n_nodes


def test_run_metrics_traced_extras():
    machine = _machine()
    tracer = Tracer(clock=FakeClock())
    schedule = _simulate(machine, network="alpha-beta", tracer=tracer)
    metrics = run_metrics(schedule, machine, tracer=tracer)
    assert metrics["network"] == "alpha-beta"
    assert metrics["policy"] == "list"
    ready = metrics["ready_queue"]
    assert ready["peak"] >= 1
    assert ready["time_weighted_mean"] > 0.0
    sizes = metrics["message_sizes"]
    assert sizes["count"] == schedule.messages
    assert sizes["sum"] == schedule.comm_bytes


def test_execute_attaches_metrics_and_cache_delta():
    plan = SvdPlan(m=600, n=600, stage="ge2bnd", tile_size=100,
                   n_cores=4, n_nodes=2)
    first = execute(plan, "simulate")
    assert first.trace is None
    assert first.metrics is not None
    assert first.metrics["cache"].get("program_cache.misses") == 1
    assert first.metrics["utilization"]["overall_busy_fraction"] > 0
    second = execute(plan, "simulate")
    assert second.metrics["cache"].get("program_cache.hits") == 1
    assert "program_cache.misses" not in second.metrics["cache"]
    # Metrics stay out of the pinned experiment-row schema.
    assert "metrics" not in first.to_row()
    assert "trace" not in first.to_row()


def test_execute_trace_flag_precedence(monkeypatch):
    plan = SvdPlan(m=400, n=400, stage="ge2bnd", tile_size=100, n_cores=2)
    assert execute(plan, "simulate").trace is None
    traced = execute(plan, "simulate", trace=True)
    assert traced.trace is not None and len(traced.trace.runs) == 1
    # plan.trace opts in; explicit trace=False beats both plan and env.
    assert execute(plan.with_(trace=True), "simulate").trace is not None
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled()
    assert execute(plan, "simulate").trace is not None
    assert execute(plan, "simulate", trace=False).trace is None
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert not trace_enabled()
    assert execute(plan, "simulate").trace is None
    # An explicit tracer instance accumulates runs across calls.
    tracer = Tracer(clock=FakeClock())
    execute(plan, "simulate", trace=tracer)
    execute(plan, "simulate", trace=tracer)
    assert [run.label for run in tracer.runs] == ["run0", "run1"]


def test_numeric_backend_also_carries_cache_metrics():
    plan = SvdPlan(m=300, n=200, stage="ge2val", tile_size=100, n_cores=2)
    result = execute(plan, "numeric")
    assert result.metrics is not None
    assert "cache" in result.metrics
    assert "utilization" not in result.metrics  # simulate-only


# --------------------------------------------------------------------------- #
# Clock, activation, profiler
# --------------------------------------------------------------------------- #
def test_fake_clock_steps_and_advances():
    clock = FakeClock(start=1.0, step=0.25)
    assert clock.now() == 1.0
    assert clock.now() == 1.25
    clock.advance(10.0)
    assert clock.now() == 11.5


def test_tracer_activation_is_scoped_and_nestable():
    assert current_tracer() is None
    outer, inner = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
    with outer.activate():
        assert current_tracer() is outer
        with inner.activate():
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is None


def test_profiler_disabled_by_default_and_enabled_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_profiles(reread_env=True)
    assert not profile_enabled()
    with profiled("noop"):
        pass
    assert profile_snapshot() == {}

    monkeypatch.setenv("REPRO_PROFILE", "1")
    reset_profiles(reread_env=True)
    assert profile_enabled()
    for _ in range(3):
        with profiled("span"):
            pass
    snap = profile_snapshot()
    assert snap["span"]["count"] == 3
    assert snap["span"]["total_s"] >= 0.0
    assert snap["span"]["min_s"] <= snap["span"]["max_s"]

    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_profiles(reread_env=True)


# --------------------------------------------------------------------------- #
# CLI: trace / stats subcommands
# --------------------------------------------------------------------------- #
def test_cli_trace_writes_valid_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.json"
    svg = tmp_path / "t.svg"
    code = main([
        "trace", "600", "600", "--nodes", "2", "--cores", "4",
        "--nb", "100", "--network", "alpha-beta",
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert validate_chrome_trace(payload) == []
    assert svg.read_text().startswith("<svg")
    captured = capsys.readouterr().out
    assert str(out) in captured


def test_cli_stats_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "stats.json"
    code = main([
        "stats", "600", "600", "--nodes", "2", "--cores", "4",
        "--nb", "100", "--json", str(out),
    ])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"plan", "metrics"}
    metrics = payload["metrics"]
    assert "utilization" in metrics and "cache" in metrics
    assert "ready_queue" in metrics  # stats always traces

    code = main(["stats", "600", "600", "--nb", "100", "--cores", "4"])
    assert code == 0
    human = capsys.readouterr().out
    assert "overall busy" in human
    assert "cache counters" in human


def test_cli_simulate_auto_emits_trace_under_env(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    target = tmp_path / "auto.json"
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_TRACE_FILE", str(target))
    code = main(["simulate", "400", "400", "--nb", "100", "--cores", "2"])
    assert code == 0
    assert f"trace written to {target}" in capsys.readouterr().out
    with open(target, encoding="utf-8") as fh:
        assert validate_chrome_trace(json.load(fh)) == []


def test_trace_overhead_is_bounded():
    """Tracing may add bookkeeping after the loop, never inside it.

    A coarse guard (the precise bound lives in benchmarks/bench_obs.py):
    a traced run must stay within 2x of an untraced run wall-clock on the
    same warmed program cache.
    """
    import time

    machine = _machine(n_nodes=2, cores=4)
    _simulate(machine)  # warm program cache + memo tables
    t0 = time.perf_counter()
    for _ in range(3):
        _simulate(machine)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(3):
        _simulate(machine, tracer=Tracer(clock=FakeClock()))
    traced = time.perf_counter() - t0
    assert traced < plain * 2 + 0.05


def test_engine_run_record_is_column_oriented():
    tracer = Tracer(clock=FakeClock())
    schedule = _simulate(_machine(), tracer=tracer)
    run = tracer.runs[0]
    # Shared, not copied: recording is O(1) next to the schedule build.
    assert run.start is schedule.start
    assert run.finish is schedule.finish
    assert run.node_of is schedule.node_of_task
    assert run.core_of is schedule.core_of_task
    names = run.kernel_names()
    assert len(names) == len(run)
    assert set(names) <= {
        "GEQRT", "TSQRT", "TTQRT", "UNMQR", "TSMQR", "TTMQR",
        "GELQT", "TSLQT", "TTLQT", "UNMLQ", "TSMLQ", "TTMLQ",
    }


def test_tracer_meta_lands_in_other_data():
    tracer = Tracer(clock=FakeClock())
    tracer.meta["experiment"] = "fig3"
    _simulate(_machine(n_nodes=1), tracer=tracer, tree=GreedyTree())
    assert chrome_trace(tracer)["otherData"]["experiment"] == "fig3"
