import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfaceflow import cli, oracle, pipeline
from surfaceflow.errors import (InternalInvariantError, PreconditionError,
                               StructuralError)
from surfaceflow.flows import DCycle
from surfaceflow.instances import (generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid, load_instance,
                                   parse_instance, serialize_instance)
from surfaceflow.oracle import exact_integral_multiflow
from surfaceflow.pipeline import (PipelineConfig, render_report, run,
                                  solution_wire, verify_solution)
from surfaceflow.rational import rat

from conftest import torus_demand_instance
from test_instances import BAD_LEAVES, _leaf_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"
GAP_N1_SOLUTION = solution_wire(run(load_instance(GOLDEN / "gap_n1.json"))[0])


def aliased_dart_solution() -> dict:
    """Two copies of one D-cycle of ``gap_n1`` (m = 10, optimum 1), the
    second written with every dart minus 2m."""
    cycle = [0, 11, 18, 14, 6]
    return {"value": "2/1", "flow": [
        {"cycle": cycle, "demand": 9, "value": "1/1"},
        {"cycle": [d - 20 for d in cycle], "demand": -1, "value": "1/1"}]}


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(PreconditionError):
            PipelineConfig(epsilon="0/1")
        with pytest.raises(PreconditionError):
            PipelineConfig(epsilon="3/2")
        assert PipelineConfig(epsilon="1/4").eps == rat("1/4")

    def test_bad_choices(self):
        with pytest.raises(PreconditionError):
            PipelineConfig(branch="fastest")
        with pytest.raises(PreconditionError):
            PipelineConfig(verify="paranoid")


class TestRun:
    def test_planar_takes_separating_branch(self):
        inst = generate_planar_random(14, seed=2)
        flow, report = run(inst)
        assert report["stages"]["split"]["branch"] == "separating"
        assert all(c["ok"] for c in report["checks"])
        flow.verify_feasible()
        assert all(v == int(v) for v in flow.values.values())

    def test_torus_takes_nonseparating_branch(self):
        inst = generate_torus_grid(3, 3, [(0, 4), (1, 5)],
                                   cap_mode="random", seed=1)
        _, report = run(inst)
        assert report["stages"]["split"]["branch"] == "nonseparating"

    def test_gap_two_value_at_least_one(self):
        flow, report = run(generate_gap_family(2))
        assert flow.value >= 1

    def test_forced_and_improved_branches(self):
        inst = generate_torus_grid(3, 3, [(0, 4), (1, 5)],
                                   cap_mode="random", seed=1)
        auto, _ = run(inst)
        forced, rep_f = run(inst, PipelineConfig(branch="nonseparating"))
        improved, rep_i = run(inst, PipelineConfig(branch="improved"))
        assert rep_f["stages"]["split"]["branch"] == "nonseparating"
        assert rep_i["stages"]["split"]["branch"] == "improved"
        assert forced.value == auto.value
        improved.verify_feasible()

    def test_full_oracle_verification(self):
        inst = generate_planar_random(10, seed=1)
        flow, report = run(inst, PipelineConfig(verify="full-oracle"))
        opt, _ = exact_integral_multiflow(inst)
        assert report["oracle"]["value"] == opt
        assert flow.value <= opt

    def test_demand_across_supply_components(self):
        """Demand 1-2 joins the supply components {0, 1} and {2, 3}: its
        conservation rows at 2 and 3 are reached by no arc of the LP's
        spanning forest, and only demand 0-1 can be routed."""
        inst = parse_instance({"vertices": 4, "edges": [
            {"id": 0, "u": 0, "v": 1, "kind": "supply", "cap": 2},
            {"id": 1, "u": 2, "v": 3, "kind": "supply", "cap": 2},
            {"id": 2, "u": 1, "v": 2, "kind": "demand", "cap": 1},
            {"id": 3, "u": 0, "v": 1, "kind": "demand", "cap": 1}],
            "rotation": [[0, 6], [1, 7, 4], [5, 2], [3]]})
        flow, report = run(inst, PipelineConfig(verify="full-oracle"))
        assert report["stages"]["lp"]["engine"] == "exact"
        assert report["stages"]["lp"]["value"] == "1/1"
        assert report["output"]["value"] == "1/1" and flow.value == 1
        assert report["oracle"]["value"] == 1
        assert all(check["ok"] for check in report["checks"])

    def test_report_deterministic(self):
        inst = generate_planar_random(12, seed=5)
        _, r1 = run(inst)
        _, r2 = run(inst)
        assert render_report(r1) == render_report(r2)

    def test_report_schema(self):
        inst = generate_planar_random(12, seed=5)
        _, report = run(inst)
        assert report["schema"] == "surfaceflow-report/1"
        for key in ("lp", "decompose", "uncross", "split", "round"):
            assert key in report["stages"]
        json.loads(render_report(report))


    def test_report_lists_each_class_ascending(self, monkeypatch):
        # four meridians listed as columns 0, 2, 1, 3: the classification
        # gives their class in cyclic order, the report in index order
        inst = torus_demand_instance()
        meridians = [DCycle.from_darts(
            inst, tuple(2 * (16 + 4 * i + j) for i in range(4)))
            for j in (0, 2, 1, 3)]
        monkeypatch.setattr(pipeline, "split_support", lambda flow: (
            [], [], meridians, [flow.denom] * 4))
        real, made = pipeline.classify_homotopy, []
        monkeypatch.setattr(pipeline, "classify_homotopy", lambda *args: (
            made.append(real(*args)) or made[-1]))
        _, report = run(inst, PipelineConfig(branch="nonseparating"))
        (members,) = made[0].classes
        assert list(members) != sorted(members)
        assert report["stages"]["classify"]["classes"] == [[0, 1, 2, 3]]

    def test_stage_prefixes_invariant_failure(self, monkeypatch):
        witness = object()

        def failing(*args, **kwargs):
            raise InternalInvariantError("boom", witness=witness)

        monkeypatch.setattr(pipeline, "uncross_flow", failing)
        with pytest.raises(InternalInvariantError) as info:
            run(load_instance(GOLDEN / "gap_n1.json"))
        assert str(info.value) == "[stage uncross] boom"
        assert info.value.witness is witness
        assert str(info.value.__cause__) == "boom"


class TestVerify:
    def test_pipeline_output_accepted(self):
        inst = generate_planar_random(12, seed=3)
        flow, _ = run(inst)
        assert verify_solution(inst, solution_wire(flow))["ok"]

    def test_oracle_output_accepted(self):
        inst = generate_planar_random(10, seed=4)
        _, flow = exact_integral_multiflow(inst)
        assert verify_solution(inst, solution_wire(flow))["ok"]

    def test_tampered_value_rejected(self):
        inst = generate_planar_random(12, seed=3)
        flow, _ = run(inst)
        data = solution_wire(flow)
        data["value"] = "1000/1"
        verdict = verify_solution(inst, data)
        assert not verdict["ok"]
        assert verdict["problems"][0]["kind"] == "value"

    @pytest.mark.parametrize("value", ["abc", "1/0", 1.5, [1], True])
    def test_malformed_value_is_a_verdict(self, value):
        inst = generate_planar_random(12, seed=3)
        flow, _ = run(inst)
        data = solution_wire(flow)
        data["value"] = value
        verdict = verify_solution(inst, data)
        assert not verdict["ok"]
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    @pytest.mark.parametrize("field, change", [
        ("value", lambda old: True),
        ("demand", float),
        ("demand", str),
        ("cycle", lambda old: [float(old[0])] + old[1:]),
        ("cycle", lambda old: [True] + old[1:]),
        ("cycle", lambda old: ["x"] + old[1:]),
    ], ids=["value-true", "demand-float", "demand-str", "dart-float",
            "dart-bool", "dart-str"])
    def test_malformed_cycle_record_is_a_verdict(self, field, change):
        inst = generate_gap_family(1)
        flow, _ = run(inst)
        data = solution_wire(flow)
        rec = data["flow"][0]
        assert rec["value"] == "1/1"
        rec[field] = change(rec[field])
        verdict = verify_solution(inst, data)
        assert not verdict["ok"]
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    def test_aliased_darts_are_malformed(self):
        inst = load_instance(GOLDEN / "gap_n1.json")
        assert len(inst.graph.edges) == 10
        verdict = verify_solution(inst, aliased_dart_solution())
        assert not verdict["ok"]
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    @pytest.mark.parametrize("data", [
        json.loads((GOLDEN / "gap_n2.json").read_text()),  # an instance
        {}, [], "x", None,
        {"flow": {}}, {"value": "0/1"},
        {"schema": "surfaceflow-report/1", "flow": []},
        {"schema": None, "flow": []},
    ], ids=["instance", "empty", "list", "string", "null", "flow-object",
            "no-flow", "report-schema", "null-schema"])
    def test_not_a_solution_is_malformed(self, data):
        inst = load_instance(GOLDEN / "gap_n2.json")
        verdict = verify_solution(inst, data)
        assert not verdict["ok"]
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    def test_schema_may_be_omitted(self):
        inst = load_instance(GOLDEN / "gap_n1.json")
        data = dict(GAP_N1_SOLUTION)
        del data["schema"]
        assert verify_solution(inst, data)["ok"]
        assert verify_solution(inst, {"flow": []}) == \
            {"ok": True, "problems": [], "value": "0/1"}

    def test_overload_rejected(self):
        inst = generate_planar_random(12, seed=3)
        flow, _ = run(inst)
        data = solution_wire(flow)
        data["flow"] = [dict(rec, value="1000/1") for rec in data["flow"]]
        data["value"] = None
        verdict = verify_solution(inst, {"flow": data["flow"]})
        if flow.value > 0:
            assert not verdict["ok"]
            assert any(p["kind"] == "capacity" for p in verdict["problems"])


class TestCli:
    def test_generate_solve_verify_roundtrip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "report.json"
        sol_path = tmp_path / "sol.json"
        dot_path = tmp_path / "map.dot"
        assert cli.main(["generate", "planar", "--size", "12", "--seed", "3",
                         "-o", str(inst_path)]) == 0
        assert cli.main(["solve", str(inst_path),
                         "--report", str(rep_path),
                         "--solution", str(sol_path),
                         "--dot", str(dot_path)]) == 0
        report = json.loads(rep_path.read_text())
        assert report["schema"] == "surfaceflow-report/1"
        assert dot_path.read_text().startswith("graph")
        assert cli.main(["verify", str(inst_path), str(sol_path)]) == 0

    def test_python_m_runs_the_cli(self, tmp_path):
        """``python -m surfaceflow`` runs the command line from a checkout,
        with no console script installed."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "surfaceflow", "generate", "gap", "--n",
             "1"], capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert serialize_instance(parse_instance(done.stdout)) \
            == serialize_instance(generate_gap_family(1))

    def test_verify_rejects_tampering(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        sol_path = tmp_path / "sol.json"
        cli.main(["generate", "gap", "--n", "1", "-o", str(inst_path)])
        cli.main(["solve", str(inst_path), "--solution", str(sol_path)])
        data = json.loads(sol_path.read_text())
        data["value"] = "9/1"
        sol_path.write_text(json.dumps(data))
        assert cli.main(["verify", str(inst_path), str(sol_path)]) == 3

    def test_verify_rejects_aliased_darts(self, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(aliased_dart_solution()))
        assert cli.main(["verify", str(GOLDEN / "gap_n1.json"),
                         str(sol_path)]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    @pytest.mark.parametrize("dart", [0.0, True, "0"])
    def test_verify_rejects_a_non_int_dart(self, tmp_path, capsys, dart):
        """``surface.cycle_vertices`` is the one check of a record's darts;
        its refusal is the verdict's witness."""
        data = json.loads(json.dumps(GAP_N1_SOLUTION))
        data["flow"][0]["cycle"][1] = dart
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(data))
        assert cli.main(["verify", str(GOLDEN / "gap_n1.json"),
                         str(sol_path)]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]
        assert verdict["problems"][0]["witness"].startswith(
            "darts must be ints: ")

    @pytest.mark.parametrize("doc", ["instance", "{}"])
    def test_verify_refuses_a_file_that_is_no_solution(self, tmp_path,
                                                        capsys, doc):
        inst_path = GOLDEN / "gap_n2.json"
        if doc == "instance":
            sol_path = inst_path
        else:
            sol_path = tmp_path / "sol.json"
            sol_path.write_text(doc)
        assert cli.main(["verify", str(inst_path), str(sol_path)]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert not verdict["ok"]
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]

    def test_oracle_and_refusal_exit_codes(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        cli.main(["generate", "gap", "--n", "1", "-o", str(inst_path)])
        assert cli.main(["oracle", str(inst_path)]) == 0
        assert cli.main(["oracle", str(inst_path), "--multicut"]) == 0
        assert cli.main(["oracle", str(inst_path), "--max-nodes", "1"]) == 4

    @pytest.mark.parametrize("argv", [
        ["oracle", "{inst}"], ["solve", "{inst}", "--verify", "full-oracle"]],
        ids=["oracle", "solve"])
    def test_oracle_bookkeeping_mismatch_exits_1(self, monkeypatch, capsys,
                                                  argv):
        """A packing that misreports its value fails an internal invariant:
        exit 1 with one line, not a traceback."""
        pack = oracle.pack_cycles

        def misreporting(*args):
            value, best = pack(*args)
            return value + 1, best

        monkeypatch.setattr(oracle, "pack_cycles", misreporting)
        inst = GOLDEN / "gap_n1.json"
        assert cli.main([a.format(inst=inst) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal invariant failed: ")
        assert "oracle bookkeeping mismatch" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("kind", "weird"), ("cap", 1.0), ("cap", "1"), ("cap", True)],
        ids=["kind", "cap-float", "cap-str", "cap-bool"])
    def test_bad_kind_or_cap_is_schema_exit_2(self, tmp_path, capsys, field,
                                              value):
        """``Instance`` is the one check of kinds and capacities; the
        parser hands them over unchecked."""
        doc = json.loads((GOLDEN / "gap_n1.json").read_text())
        doc["edges"][3][field] = value
        with pytest.raises(StructuralError) as info:
            parse_instance(doc)
        assert info.value.code == "schema"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: edge 3 ") and err.count("\n") == 1

    def test_non_int_dart_exits_2(self, tmp_path):
        doc = json.loads((GOLDEN / "gap_n1.json").read_text())
        doc["rotation"][0][0] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("epsilon", ["abc", "1/0"])
    def test_unparsable_epsilon_exits_2(self, epsilon):
        assert cli.main(["solve", str(GOLDEN / "gap_n1.json"),
                         "--epsilon", epsilon]) == 2

    @pytest.mark.parametrize("family", ["torus", "planar"])
    def test_negative_demand_count_exits_2(self, capsys, family):
        # the torus generator used to blame the grid's vertex pairs
        assert cli.main(["generate", family, "--demands", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: demand count must be non-negative\n"

    def test_usage_errors(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["solve", str(bad)]) == 2


    @pytest.mark.parametrize("argv", [
        ["solve", "{bad}"],
        ["solve", "{dir}"],
        ["solve", "{inst}", "--report", "{dir}"],
        ["verify", "{inst}", "{bad}"],
        ["verify", "{inst}", "{dir}"],
        ["verify", "{bad}", "{inst}"],
        ["oracle", "{bad}"],
        ["oracle", "{inst}", "--max-cycles", "-1"],
        ["oracle", "{inst}", "--max-nodes", "-1"],
        ["generate", "torus", "--p", "2"],
        ["generate", "torus", "--p", "3", "--q", "3", "--demands", "37"],
        ["generate", "torus", "--demands", "-1"],
        ["generate", "gap", "--n", "0"],
        ["generate", "planar", "--size", "5"],
        ["generate", "planar", "--demands", "-1"],
    ])
    def test_bad_input_is_one_line_exit_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        paths = {"bad": bad, "dir": tmp_path,
                 "inst": GOLDEN / "gap_n1.json"}
        argv = [a.format(**paths) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_demand_loop_is_one_line_exit_2(self, tmp_path, capsys, command):
        # the loop's one-dart "cycle" uses no supply edge, so it is no flow
        inst_path = tmp_path / "loop.json"
        inst_path.write_text(json.dumps({
            "vertices": 2, "rotation": [[0, 3, 4, 5], [1, 2]], "edges": [
                {"id": 0, "u": 0, "v": 1, "kind": "supply", "cap": 1},
                {"id": 1, "u": 1, "v": 0, "kind": "supply", "cap": 1},
                {"id": 2, "u": 0, "v": 0, "kind": "demand", "cap": 1}]}))
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps({"value": "1/1", "flow": [
            {"cycle": [4], "demand": 2, "value": "1/1"}]}))
        argv = [command, str(inst_path)]
        if command == "verify":
            argv.append(str(sol_path))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: demand edge 2 is a loop\n"


# 5,000 digits: past Python's default limit of 4,300 for int <-> str, so
# json cannot read the number and ``%d`` cannot write it
LONG_INT = "9" * 5000
PLACEHOLDER = 123454321


def torus_and_solution(tmp_path) -> tuple:
    """``generate torus --p 3 --q 3 --demands 2 --seed 1`` and its own
    solution: both paths, and both documents parsed."""
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert cli.main(["generate", "torus", "--p", "3", "--q", "3",
                     "--demands", "2", "--seed", "1",
                     "-o", str(inst_path)]) == 0
    assert cli.main(["solve", str(inst_path), "--solution",
                     str(sol_path)]) == 0
    return (inst_path, json.loads(inst_path.read_text()), sol_path,
            json.loads(sol_path.read_text()))


def write_with_long_int(path, doc) -> None:
    """Write ``doc`` with ``PLACEHOLDER`` spelled as ``LONG_INT``."""
    path.write_text(json.dumps(doc).replace(str(PLACEHOLDER), LONG_INT))


class TestLongNumbers:
    """Numbers past the int-to-string digit limit end in one ``error:``
    line (exit 2) where the JSON cannot be read, and in a ``malformed``
    verdict (exit 3) where ``verify`` cannot state a value."""

    def test_long_capacity_exits_2(self, tmp_path, capsys):
        _, inst, _, _ = torus_and_solution(tmp_path)
        inst["edges"][0]["cap"] = PLACEHOLDER
        bad = tmp_path / "bad.json"
        write_with_long_int(bad, inst)
        capsys.readouterr()
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") \
            and err.count("\n") == 1

    def test_long_demand_in_solution_exits_2(self, tmp_path, capsys):
        inst_path, _, sol_path, sol = torus_and_solution(tmp_path)
        sol["flow"][0]["demand"] = PLACEHOLDER
        write_with_long_int(sol_path, sol)
        capsys.readouterr()
        assert cli.main(["verify", str(inst_path), str(sol_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solution is not valid JSON: ") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("values", [
        ["1e5000"], ["1/%d" % 2 ** 9000, "1/%d" % 3 ** 6000]],
        ids=["exponent", "long-denominator"])
    def test_unstatable_value_is_malformed(self, tmp_path, capsys, values):
        """``1e5000`` is refused by ``rat``; two values whose sum has a
        5,573-digit denominator are read, but their total cannot be
        written."""
        inst_path, _, sol_path, sol = torus_and_solution(tmp_path)
        for rec, value in zip(sol["flow"], values):
            rec["value"] = value
        sol_path.write_text(json.dumps(sol))
        capsys.readouterr()
        assert cli.main(["verify", str(inst_path), str(sol_path)]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert [p["kind"] for p in verdict["problems"]] == ["malformed"]


class TestVerifyFuzz:
    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(_leaf_paths(GAP_N1_SOLUTION)),
           value=BAD_LEAVES)
    def test_one_bad_leaf_exits_0_or_3(self, tmp_path, path, value):
        doc = json.loads(json.dumps(GAP_N1_SOLUTION))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(GOLDEN / "gap_n1.json"),
                         str(sol_path)]) in (0, 3)
