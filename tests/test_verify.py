"""Unit tests for the static verification subsystem (repro.verify).

Covers the kernel-semantics oracle, the dataflow verifier, the schedule
sanitizer (including a synthetic NIC-overload trigger), the determinism
lint, the ``REPRO_VERIFY=1`` hooks and the ``repro verify`` CLI.  The
exhaustive mutation-injection coverage lives in
``tests/test_verify_mutations.py``.
"""

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.ir.compiler import compile_program, get_program
from repro.ir.program import Op, Program
from repro.kernels.costs import KERNEL_WEIGHTS, KernelName
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.network import get_network_model
from repro.runtime.scheduler import Schedule
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees.flat import FlatTSTree, FlatTTTree
from repro.trees.greedy import GreedyTree
from repro.verify import (
    VerificationError,
    kernel_access_sets,
    verify_program,
    verify_schedule,
)
from repro.verify import hooks
from repro.verify.findings import Finding, VerificationReport
from repro.verify.lint import lint_paths, lint_source
from repro.verify.semantics import KERNEL_ARITY, kernel_owner_tile


def _mk_op(index, kernel, params, owner_tile=None):
    """Build an Op whose access sets follow the oracle semantics."""
    reads, writes = kernel_access_sets(kernel, params)
    return Op(
        index=index,
        kernel=kernel,
        params=params,
        reads=reads,
        writes=writes,
        weight=KERNEL_WEIGHTS[kernel],
        owner_tile=owner_tile or kernel_owner_tile(kernel, params),
    )


# --------------------------------------------------------------------------- #
# Kernel semantics oracle
# --------------------------------------------------------------------------- #
class TestSemantics:
    def test_arity_validation(self):
        with pytest.raises(ValueError, match="tile indices"):
            kernel_access_sets(KernelName.GEQRT, (0, 0, 0))
        with pytest.raises(ValueError, match="tile indices"):
            kernel_owner_tile(KernelName.TSMQR, (0, 1))

    def test_every_kernel_has_semantics(self):
        for kernel in KernelName:
            params = tuple(range(KERNEL_ARITY[kernel]))
            reads, writes = kernel_access_sets(kernel, params)
            assert writes, f"{kernel} writes nothing"
            assert kernel_owner_tile(kernel, params)

    def test_geqrt_writes_both_halves(self):
        reads, writes = kernel_access_sets(KernelName.GEQRT, (2, 1))
        assert reads == frozenset()
        assert writes == frozenset({("U", 2, 1), ("L", 2, 1)})

    def test_ttqrt_spares_killed_lower_half(self):
        # TT reflectors live in the *upper* half of the killed tile: the
        # lower half (GEQRT reflectors) must not be written, which is what
        # lets TTQRT overlap the UNMQR updates of the same row.
        _reads, writes = kernel_access_sets(KernelName.TTQRT, (0, 3, 1))
        assert ("L", 3, 1) not in writes
        assert writes == frozenset({("U", 0, 1), ("U", 3, 1)})

    def test_ttlqt_mirrors_ttqrt(self):
        _reads, writes = kernel_access_sets(KernelName.TTLQT, (0, 3, 1))
        assert writes == frozenset({("L", 1, 0), ("L", 1, 3)})

    def test_recorder_agrees_with_semantics(self):
        # The compiled op stream (recorder path) must match the independent
        # semantics op by op — the core cross-validation of this subsystem.
        program = compile_program("rbidiag", 4, 3, GreedyTree())
        for op in program.ops:
            reads, writes = kernel_access_sets(op.kernel, op.params)
            assert op.reads == reads, op
            assert op.writes == writes, op
            assert op.owner_tile == kernel_owner_tile(op.kernel, op.params)


# --------------------------------------------------------------------------- #
# Dataflow verifier
# --------------------------------------------------------------------------- #
class TestProgramVerifier:
    @pytest.mark.parametrize(
        "algorithm,tree",
        [
            ("qr", GreedyTree()),
            ("bidiag", FlatTSTree()),
            ("bidiag", GreedyTree()),
            ("rbidiag", FlatTTTree()),
        ],
    )
    def test_clean_programs_report_zero_findings(self, algorithm, tree):
        program = compile_program(algorithm, 5, 4, tree)
        report = verify_program(program)
        assert report.ok, report.summary(None)
        assert report.checked > len(program)

    def test_missing_edge_is_a_data_race_finding(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        victim = max(i for i in range(len(program)) if pred_lists[i])
        dropped = pred_lists[victim].pop()
        mutated = Program(list(program.ops), pred_lists)
        report = verify_program(mutated)
        assert not report.ok
        assert any(
            f.code == "P-MISSING-EDGE" and f.op == victim and f.other == dropped
            for f in report.findings
        ), report.summary(None)

    def test_spurious_edge_detected(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        # Give the last op a dependency on op 0 it does not need.
        victim = len(program) - 1
        assert 0 not in pred_lists[victim]
        pred_lists[victim] = sorted(pred_lists[victim] + [0])
        report = verify_program(Program(list(program.ops), pred_lists))
        assert report.count("P-SPURIOUS-EDGE") == 1
        assert report.count("P-MISSING-EDGE") == 0

    def test_duplicate_edge_is_a_topology_finding(self):
        program = compile_program("qr", 4, 4, GreedyTree())
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        victim = max(i for i in range(len(program)) if pred_lists[i])
        pred_lists[victim].append(pred_lists[victim][-1])  # duplicate, unsorted
        report = verify_program(Program(list(program.ops), pred_lists))
        assert report.count("P-TOPOLOGY") >= 1

    def test_use_before_write_detected(self):
        # A lone UNMQR reads reflectors no kernel ever produced.
        op = _mk_op(0, KernelName.UNMQR, (0, 0, 1))
        report = verify_program(Program([op], [[]]))
        assert report.count("P-USE-BEFORE-WRITE") == 1
        assert report.count("P-MISSING-EDGE") == 0

    def test_wrong_owner_tile_detected(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        ops = list(program.ops)
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        bad = replace(ops[3], owner_tile=(ops[3].owner_tile[0] + 1, 0))
        ops[3] = bad
        report = verify_program(Program(ops, pred_lists))
        assert report.count("P-OWNER-TILE") == 1

    def test_wrong_access_set_detected(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        ops = list(program.ops)
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        bad = replace(ops[5], reads=ops[5].reads | {("U", 0, 0)})
        ops[5] = bad
        report = verify_program(Program(ops, pred_lists))
        assert any(
            f.code == "P-ACCESS-SET" and f.op == 5 for f in report.findings
        ), report.summary(None)

    def test_malformed_params_reported_not_raised(self):
        op = _mk_op(0, KernelName.GEQRT, (0, 0))
        bad = replace(op, params=(0,))
        report = verify_program(Program([bad], [[]]))
        assert report.count("P-ACCESS-SET") == 1


# --------------------------------------------------------------------------- #
# Schedule sanitizer
# --------------------------------------------------------------------------- #
class TestScheduleSanitizer:
    @pytest.fixture(scope="class")
    def setup(self):
        program = compile_program("bidiag", 5, 4, GreedyTree())
        machine = Machine(n_nodes=4, cores_per_node=2)
        engine = SimulationEngine(machine)
        schedule = engine.run(program)
        return program, machine, engine, schedule

    def test_clean_schedule_accepted(self, setup):
        program, machine, engine, schedule = setup
        report = verify_schedule(
            schedule, program, machine, distribution=engine.distribution
        )
        assert report.ok, report.summary(None)

    def test_shape_violation_short_circuits(self, setup):
        program, machine, engine, schedule = setup
        bad = replace(schedule, start=schedule.start[:-1])
        report = verify_schedule(
            bad, program, machine, distribution=engine.distribution
        )
        assert report.codes() == {"S-SHAPE": 1}

    def test_negative_start_detected(self, setup):
        program, machine, engine, schedule = setup
        start = list(schedule.start)
        src = next(i for i in range(len(start)) if start[i] == 0.0)
        durations = machine.kernel_duration_table()[
            program.kernel_codes_np
        ].tolist()
        start[src] = -1.0
        finish = list(schedule.finish)
        finish[src] = start[src] + durations[src]
        bad = replace(schedule, start=start, finish=finish)
        report = verify_schedule(
            bad, program, machine, distribution=engine.distribution
        )
        assert report.count("S-TIME-RANGE") == 1

    def test_nic_overload_detected(self):
        # Synthetic two-node scenario: two producers on node 0 whose remote
        # consumers start exactly at the no-contention arrival bound — the
        # two NIC injections cannot both fit before their wire deadlines.
        machine = Machine(n_nodes=2, cores_per_node=2)
        network = get_network_model("alpha-beta")
        grid = ProcessGrid(1, 2)
        dist = BlockCyclicDistribution(grid)
        ops = [
            _mk_op(0, KernelName.GEQRT, (0, 0)),
            _mk_op(1, KernelName.GEQRT, (1, 0)),
            _mk_op(2, KernelName.UNMQR, (0, 0, 1)),
            _mk_op(3, KernelName.UNMQR, (1, 0, 1)),
        ]
        program = Program(ops, [[], [], [0], [1]])
        node_of = [dist.owner(*op.owner_tile) for op in ops]
        assert node_of == [0, 0, 1, 1]
        durations = machine.kernel_duration_table()[
            program.kernel_codes_np
        ].tolist()
        handshake = network.handshake_seconds(machine)
        from repro.runtime.network import resolved_message_bytes_vector

        nbytes = resolved_message_bytes_vector(network, program, machine)
        wire = [network.message_seconds(int(b), machine) for b in nbytes]
        inj = [machine.injection_seconds(int(b)) for b in nbytes]
        assert min(inj) > 0
        start = [0.0, 0.0, 0.0, 0.0]
        finish = [durations[0], durations[1], 0.0, 0.0]
        # Both consumers start exactly at the contention-free arrival bound.
        start[2] = (finish[0] + handshake) + wire[0]
        start[3] = (finish[1] + handshake) + wire[1]
        finish[2] = start[2] + durations[2]
        finish[3] = start[3] + durations[3]
        schedule = Schedule(
            makespan=max(finish),
            start=start,
            finish=finish,
            node_of_task=node_of,
            busy_time_per_node=[
                durations[0] + durations[1],
                durations[2] + durations[3],
            ],
            messages=2,
            comm_bytes=int(nbytes[0]) + int(nbytes[1]),
            core_of_task=[0, 1, 0, 1],
            comm_time_per_node=[inj[0] + inj[1], 0.0],
            messages_per_node=[2, 0],
        )
        report = verify_schedule(
            schedule,
            program,
            machine,
            distribution=dist,
            network=network,
        )
        assert report.codes() == {"S-NIC-OVERLOAD": 1}, report.summary(None)

    def test_empty_program_schedule_ok(self):
        machine = Machine(n_nodes=2, cores_per_node=2)
        engine = SimulationEngine(machine)
        program = Program([], [])
        schedule = engine.run(program)
        report = verify_schedule(
            schedule, program, machine, distribution=engine.distribution
        )
        assert report.ok, report.summary(None)


# --------------------------------------------------------------------------- #
# Findings / report plumbing
# --------------------------------------------------------------------------- #
class TestReport:
    def test_summary_and_rows(self):
        report = VerificationReport(subject="unit")
        report.add("P-MISSING-EDGE", "lost", op=3, other=1)
        report.add("S-MAKESPAN", "wrong")
        assert not report.ok
        assert report.codes() == {"P-MISSING-EDGE": 1, "S-MAKESPAN": 1}
        assert "[op 3 <- 1]" in str(report.findings[0])
        rows = report.to_rows()
        assert rows[0]["subject"] == "unit"
        assert rows[1]["op"] == -1
        with pytest.raises(VerificationError) as err:
            report.raise_if_failed()
        assert err.value.report is report
        assert isinstance(err.value, AssertionError)

    def test_summary_limit(self):
        report = VerificationReport(subject="unit")
        for i in range(15):
            report.add("S-DURATION", f"bad {i}", op=i)
        text = report.summary(limit=10)
        assert "and 5 more" in text
        assert len(report.summary(None).splitlines()) == 16

    def test_extend_folds_counts(self):
        a = VerificationReport(subject="a", checked=3)
        b = VerificationReport(subject="b", checked=4)
        b.add("S-OWNER", "x")
        a.extend(b)
        assert a.checked == 7
        assert a.count("S-OWNER") == 1

    def test_finding_str_without_op(self):
        assert str(Finding("S-MAKESPAN", "off")) == "S-MAKESPAN: off"


# --------------------------------------------------------------------------- #
# Determinism lint
# --------------------------------------------------------------------------- #
CORE = "src/repro/ir/synthetic.py"
OUTSIDE = "src/repro/analysis/synthetic.py"
ENGINE = "src/repro/runtime/synthetic.py"


class TestLint:
    def _codes(self, path, source):
        return [f.code for f in lint_source(path, source)]

    def test_set_literal_iteration_flagged_in_core(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert self._codes(CORE, src) == ["DTM001"]
        assert self._codes(OUTSIDE, src) == []

    def test_sorted_iteration_clean(self):
        src = "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n"
        assert self._codes(CORE, src) == []

    def test_annotated_parameter_tracked(self):
        src = (
            "from typing import FrozenSet\n"
            "def f(items: FrozenSet[int]):\n"
            "    return [i for i in items]\n"
        )
        assert self._codes(CORE, src) == ["DTM001"]

    def test_set_algebra_tracked(self):
        src = (
            "def f(a: set, b: set):\n"
            "    for x in a - b:\n"
            "        print(x)\n"
        )
        assert self._codes(CORE, src) == ["DTM001"]

    def test_self_attribute_tracked(self):
        src = (
            "class G:\n"
            "    def __init__(self):\n"
            "        self._edges = set()\n"
            "    def walk(self):\n"
            "        return [e for e in self._edges]\n"
        )
        assert self._codes(CORE, src) == ["DTM001"]

    def test_suppression_comment(self):
        src = "for x in {1, 2}:  # dtm: allow\n    print(x)\n"
        assert self._codes(CORE, src) == []

    def test_id_ordering_flagged_everywhere(self):
        src = "xs = sorted(objs, key=lambda o: id(o))\n"
        assert self._codes(OUTSIDE, src) == ["DTM002"]
        assert self._codes(CORE, src) == ["DTM002"]
        assert self._codes(OUTSIDE, "ok = id(a) < id(b)\n") == ["DTM002"]
        # Plain identity use is not ordering.
        assert self._codes(OUTSIDE, "same = id(a) == id(b)\n") == []

    def test_wall_clock_flagged_in_engine_only(self):
        src = "import time\nt = time.perf_counter()\n"
        assert self._codes(ENGINE, src) == ["DTM003"]
        assert self._codes(OUTSIDE, src) == []
        src2 = "from time import monotonic\nt = monotonic()\n"
        assert self._codes(ENGINE, src2) == ["DTM003"]
        src3 = "from datetime import datetime\nt = datetime.now()\n"
        assert self._codes(ENGINE, src3) == ["DTM003"]

    def test_dict_iteration_not_flagged(self):
        # dicts preserve insertion order: deterministic when insertions are.
        src = "d = {}\nfor k in d:\n    print(k)\n"
        assert self._codes(CORE, src) == []

    def test_syntax_error_reported(self):
        assert self._codes(CORE, "def f(:\n") == ["DTM000"]

    def test_repository_tree_is_clean(self):
        findings = lint_paths(["src"])
        assert findings == [], "\n".join(str(f) for f in findings)


# --------------------------------------------------------------------------- #
# REPRO_VERIFY hooks
# --------------------------------------------------------------------------- #
class TestHooks:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(hooks.ENV_VAR, raising=False)
        assert not hooks.verify_enabled()
        monkeypatch.setenv(hooks.ENV_VAR, "0")
        assert not hooks.verify_enabled()
        monkeypatch.setenv(hooks.ENV_VAR, "1")
        assert hooks.verify_enabled()

    def test_check_program_raises_on_mutation(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        hooks.check_program(program)  # clean: no raise
        pred_lists = [list(program.predecessors(i)) for i in range(len(program))]
        victim = max(i for i in range(len(program)) if pred_lists[i])
        pred_lists[victim].pop()
        with pytest.raises(VerificationError, match="P-MISSING-EDGE"):
            hooks.check_program(Program(list(program.ops), pred_lists))

    def test_engine_and_cache_hooks_pass_clean(self, monkeypatch):
        monkeypatch.setenv(hooks.ENV_VAR, "1")
        machine = Machine(n_nodes=2, cores_per_node=2)
        program = get_program("bidiag", 4, 3, GreedyTree(), cache=False)
        for network in ("uniform", "alpha-beta"):
            engine = SimulationEngine(machine, network=network)
            schedule = engine.run(program)
            assert schedule.makespan > 0

    def test_engine_hook_raises_on_defective_schedule(self, monkeypatch):
        # Force the event-loop kernel to emit a corrupt schedule, and check
        # the exit hook catches it.
        from repro.runtime import kernel

        monkeypatch.setenv(hooks.ENV_VAR, "1")
        machine = Machine(n_nodes=2, cores_per_node=2)
        program = get_program("bidiag", 4, 3, GreedyTree(), cache=False)
        engine = SimulationEngine(machine)
        real = kernel.replay

        def corrupt(*args, **kwargs):
            run = real(*args, **kwargs)
            schedule = run.schedule
            return run._replace(
                schedule=replace(schedule, makespan=schedule.makespan * 2.0)
            )

        monkeypatch.setattr(kernel, "replay", corrupt)
        with pytest.raises(VerificationError, match="S-MAKESPAN"):
            engine.run(program)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestVerifyCli:
    ARGS = ["verify", "320", "240", "--nb", "80", "--nodes", "2", "--cores", "2"]

    def test_clean_plan_exits_zero(self, capsys):
        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_all_policies_all_networks(self, capsys):
        rc = cli.main(self.ARGS + ["--all-policies", "--all-networks"])
        assert rc == 0
        out = capsys.readouterr().out
        # 6 policies x 2 networks + the program report.
        assert out.count("schedule[") == 12

    @pytest.mark.parametrize(
        "defect,code",
        [
            ("drop-edge", "P-MISSING-EDGE"),
            ("perturb-start", "S-DURATION"),
            ("swap-owner", "S-OWNER"),
        ],
    )
    def test_injected_defect_exits_nonzero(self, capsys, tmp_path, defect, code):
        out_file = tmp_path / "report.json"
        rc = cli.main(
            self.ARGS + ["--inject-defect", defect, "--json", str(out_file)]
        )
        assert rc == 1
        assert code in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is False
        assert any(
            f["code"] == code
            for r in payload["reports"]
            for f in r["findings"]
        )

    def test_json_report_on_clean_plan(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert cli.main(self.ARGS + ["--json", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["checks"] > 0
        assert all(r["findings"] == [] for r in payload["reports"])
