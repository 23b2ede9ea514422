"""Tests for the command-line interface."""

import argparse
import ast
import collections
import dataclasses
import json
import math
import inspect
import shlex
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cqcalc import cli
from cqcalc import diagram as dg
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw
from test_diagram import wiring_node_json
from test_golden import ENTROPY_STATE, golden_argvs, wishart_state

C2 = rc.C(2)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    rc_ = cli.main(argv + ["--out", str(out)])
    return rc_, out


class TestEval:
    def test_uniform_vector(self, tmp_path):
        src = tmp_path / "d.dg"
        src.write_text("uniform C2 1")
        code, out = run_to_file(tmp_path, ["eval", str(src)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["matrix_re"] == [[0.5], [0.5]]
        assert rep["format_version"] == 2

    def test_chsh_scalar(self, tmp_path):
        d, b = pr.chsh_scoring_diagram()
        dfile = tmp_path / "chsh.json"
        dfile.write_text(json.dumps(dg.diagram_to_json(d)))
        bfile = tmp_path / "bind.json"
        bfile.write_text(
            json.dumps({k: rc.tensor_to_json(v) for k, v in b.items()})
        )
        code, out = run_to_file(
            tmp_path, ["eval", str(dfile), "--bindings", str(bfile)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["scalar_re"] == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-9)

    def test_missing_binding_exit_2_names_hole(self, tmp_path, capsys):
        src = tmp_path / "d.dg"
        src.write_text("hole mystery : C2 -> C2\nuniform C2 1 ; mystery")
        assert cli.main(["eval", str(src)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path):
        src = tmp_path / "d.dg"
        src.write_text("not a diagram !!!")
        assert cli.main(["eval", str(src)]) == 2

    @pytest.mark.parametrize("text", ["reg S = classical 2N\nuniform S 1", "hole h : C2 -> C2 causal junk !!\nh"])
    def test_trailing_declaration_tokens_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "d.dg"
        src.write_text(text)
        assert cli.main(["eval", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parse error in {src}: 1:") and "unexpected token" in err

    @pytest.mark.parametrize("label", [[1], {"a": 1}, 1, 1.5, True], ids=repr)
    def test_label_not_a_string_exit_2(self, tmp_path, capsys, label):
        j = dg.diagram_to_json(dg.parse_diagram("hole h : C2 -> C2\nuniform C2 1 ; h"))
        j["nodes"][1]["label"] = label
        src = tmp_path / "d.json"
        src.write_text(json.dumps(j))
        assert cli.main(["eval", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parse error in {src}") and "malformed diagram JSON" in err

    @pytest.mark.parametrize("form", ["dsl", "json"])
    def test_quantum_uniform_exit_2(self, tmp_path, form):
        # spiders and uniforms are classical-wire generators
        if form == "dsl":
            src = tmp_path / "d.dg"
            src.write_text("uniform Q2 1 ; discard Q2")
        else:
            j = dg.diagram_to_json(dg.parse_diagram("uniform C2 1 ; discard C2"))
            src = tmp_path / "d.json"
            src.write_text(json.dumps(j).replace('"classical"', '"quantum"'))
        assert cli.main(["eval", str(src)]) == 2

    @pytest.mark.parametrize(
        "defect",
        [
            "no_types", "wire_to_missing_node", "binding_without_matrix", "mistyped_binding", "nan_entry",
            "inf_entry", "nan_box_payload", "inf_box_payload",
        ],
    )
    def test_malformed_eval_input_exit_2(self, tmp_path, capsys, defect):
        # a NaN binding evaluated to "scalar_re":NaN, which strict JSON refuses
        src = tmp_path / "d.dg"
        src.write_text("hole f : C2 -> C2\nuniform C2 1 ; f ; discard C2")
        binding = rc.tensor_to_json(rc.identity([rc.C(2)]))
        entry = {"nan": math.nan, "inf": math.inf}.get(defect[:3])
        if defect in ("nan_entry", "inf_entry"):
            binding["matrix"][0][0][0] = entry
        elif defect.endswith("box_payload"):
            j = dg.diagram_to_json(dg.parse_diagram("box g : C2 -> C2\nuniform C2 1 ; g ; discard C2"))
            (node,) = [n for n in j["nodes"] if n["kind"] == dg.BOX]
            node["payload"] = rc.tensor_to_json(rc.identity([rc.C(2)]))
            node["payload"]["matrix"][0][0][0] = entry
            src = tmp_path / "d.json"
            src.write_text(json.dumps(j))
        elif defect == "no_types":
            src = tmp_path / "d.json"
            src.write_text(json.dumps({"nodes": [], "wires": []}))
        elif defect == "wire_to_missing_node":
            j = dg.diagram_to_json(dg.parse_diagram("uniform C2 1 ; discard C2"))
            j["wires"][0][1][1] = 5
            src = tmp_path / "d.json"
            src.write_text(json.dumps(j))
        elif defect == "binding_without_matrix":
            del binding["matrix"]
        else:
            binding = rc.tensor_to_json(rc.identity([rc.C(3)]))
        bfile = tmp_path / "bind.json"
        bfile.write_text(json.dumps({"f": binding}))
        code, out = run_to_file(tmp_path, ["eval", str(src), "--bindings", str(bfile)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("not finite" in err) == (entry is not None)

    @pytest.mark.parametrize(
        "nodes,wires,types,message",
        [
            ([], [(("x", 0), ("out", 0))], 1, "malformed wire"),
            ([dg.uniform_gen(C2, 1)] + [dg.discard_gen(C2)] * 2, [(("n", 0, 0), ("n", 1, 0)), (("n", 0, 0), ("n", 2, 0))], 0,
             "port ('n', 0, 0) used 2 times"),
            ([dg.uniform_gen(C2, 1)] * 2 + [dg.discard_gen(C2)], [(("n", 0, 0), ("n", 2, 0)), (("n", 1, 0), ("n", 2, 0))], 0,
             "port ('n', 2, 0) used 2 times"),
            ([], [(("in", 0), ("out", 1))], 2, "boundary input 1 not connected"),
            ([], [(("in", 0), ("out", 0))], (1, 2), "boundary output 1 not connected"),
            ([dg.spider_gen(C2, 1, 1)], [(("n", 0, 0), ("n", 0, 0))], 0, "diagram contains a cycle"),
            ([dg.spider_gen(C2, 1, 1)] * 2, [(("n", 0, 0), ("n", 1, 0)), (("n", 1, 0), ("n", 0, 0))], 0,
             "diagram contains a cycle"),
            ([dg.spider_gen(C2, 2, 2)] * 2 + [dg.uniform_gen(C2, 1), dg.discard_gen(C2)],
             [(("n", 2, 0), ("n", 0, 0)), (("n", 0, 0), ("n", 1, 0)), (("n", 1, 0), ("n", 0, 1)),
              (("n", 0, 1), ("n", 1, 1)), (("n", 1, 1), ("n", 3, 0))], 0, "diagram contains a cycle"),
        ],
        ids=["malformed", "source_twice", "target_twice", "input_open", "output_open", "self_loop",
             "two_cycle", "cycle_with_tails"],
    )
    def test_ill_typed_json_exit_2(self, tmp_path, capsys, nodes, wires, types, message):
        n_in, n_out = types if isinstance(types, tuple) else (types, types)
        d = dg.Diagram(dict(enumerate(nodes)), wires, (C2,) * n_in, (C2,) * n_out)
        src = tmp_path / "d.json"
        src.write_text(json.dumps(dg.diagram_to_json(d)))
        assert cli.main(["eval", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ill-typed diagram: ") and message in err

    @pytest.mark.parametrize("dim,width", [(2.0, 2), ("2", 2), (True, 1)], ids=repr)
    def test_binding_dimension_not_an_integer_exit_2(self, tmp_path, capsys, dim, width):
        src = tmp_path / "d.dg"
        src.write_text(f"hole f : C{width} -> C{width}\nuniform C{width} 1 ; f ; discard C{width}")
        binding = rc.tensor_to_json(rc.identity([rc.C(width)]))
        binding["in_regs"][0]["base_dim"] = binding["out_regs"][0]["base_dim"] = dim
        bfile = tmp_path / "bind.json"
        bfile.write_text(json.dumps({"f": binding}))
        assert cli.main(["eval", str(src), "--bindings", str(bfile)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad bindings file {bfile}")

    @pytest.mark.parametrize("scale", [True, 1.5], ids=repr)
    def test_symbolic_scale_not_an_integer_fails_at_load(self, tmp_path, capsys, scale):
        j = dg.diagram_to_json(dg.parse_diagram("reg S = classical N\nuniform S 1 ; discard S"))
        j["nodes"][0]["out_ports"][0]["sym"]["scale"] = scale
        src = tmp_path / "d.json"
        src.write_text(json.dumps(j))
        assert cli.main(["eval", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parse error in {src}") and "positive integer" in err

    @pytest.mark.parametrize("kind", ["swap", "identity"])
    def test_wiring_node_kind_fails_at_load(self, tmp_path, capsys, kind):
        src = tmp_path / "d.json"
        src.write_text(json.dumps(wiring_node_json(kind)))
        assert cli.main(["eval", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parse error in {src}") and f"generator kind '{kind}'" in err


    @pytest.mark.parametrize(
        "source",
        [
            "reg S = classical N\nuniform S 1 ; discard S",  # a symbolic width
            "swap C2",  # atoms and a declaration missing an operand
            "uniform C2",
            "spider C2 1",
            "discard",
            "box f : C2 ->",
            "box b : C2 -> C2\nuniform C2 1 ; b ; discard C2",  # no payload and no binding
        ],
    )
    def test_bad_eval_source_exit_2(self, tmp_path, capsys, source):
        src = tmp_path / "d.dg"
        src.write_text(source)
        assert cli.main(["eval", str(src)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCheck:
    def test_shipped_script_verifies(self, tmp_path):
        code, out = run_to_file(
            tmp_path, ["check", "soundness_k2", "--eps-fn", "1,1"]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["verified"]
        assert rep["budget"] == "eps(1*N) + eps(2*N) + eps(4*N) + eps(8*N)"
        assert rep["budget_numeric"]["value"] == 0.81640625

    @pytest.mark.parametrize("name", ["soundness_k2", "chain_k3", "single_stage"])
    def test_second_check_replays_once(self, tmp_path, monkeypatch, name):
        """A shipped script is built once per process, so a later check of
        it matches its rules only in the one replay of run_script."""
        calls = collections.Counter()
        find = rw.find_matches

        def counted_find(*args, **kwargs):
            calls[phase] += 1
            return find(*args, **kwargs)

        monkeypatch.setattr(rw, "find_matches", counted_find)
        argv = ["check", name, "--dims", ("M" if name == "single_stage" else "N") + "=1"]
        phase = "first"
        assert run_to_file(tmp_path, argv)[0] == 0
        script = rw.SHIPPED_SCRIPTS[name]()
        phase = "replay"
        rw.replay_script(script)
        phase = "second"
        assert run_to_file(tmp_path, argv)[0] == 0
        assert calls["replay"] > 0 and calls["second"] == calls["replay"]

    @staticmethod
    def _check_evaluations(tmp_path, monkeypatch, argv):
        """Run a check; returns its replayed (step, rule) records, its
        steps' reports and every diagram it evaluated."""
        replay, evaluate = rw.replay_script, dg.Diagram.evaluate
        replayed, evaluated = [], []

        def captured_replay(script):
            state, records = replay(script)
            replayed.append(records)
            return state, records

        def counted_evaluate(self, binding=None):
            evaluated.append(self)
            return evaluate(self, binding)

        monkeypatch.setattr(rw, "replay_script", captured_replay)
        monkeypatch.setattr(dg.Diagram, "evaluate", counted_evaluate)
        code, out = run_to_file(tmp_path, argv)
        assert code == 0
        (records,) = replayed
        return records, json.loads(out.read_text())["steps"], evaluated

    def test_unread_derived_holes_are_not_evaluated(self, tmp_path, monkeypatch):
        # no later step of chain_k1 reads S@1 or T1, so neither source
        # side is evaluated; both steps still check at 0 by construction
        records, steps, evaluated = self._check_evaluations(
            tmp_path, monkeypatch, ["check", "chain_k1", "--dims", "N=1"]
        )
        dims = {"N": 1}
        sources = {}
        for (step, rule), rep in zip(records, steps):
            if rule.binding_mode != "fresh":
                sources[step["rule"]] = rule.rhs if rule.binding_mode == "derive_lhs" else rule.lhs
                assert (rep["status"], rep["distance"]) == ("exact-ok", 0.0)
        assert sorted(sources) == ["expand_S", "merge"]
        for side in sources.values():
            assert not any(d is side.subst(dims) for d in evaluated)

    def test_read_derived_hole_is_evaluated(self, tmp_path, monkeypatch):
        # soundness_k2's second stage reads T1, so its first merge
        # evaluates the cut once and binds T1 to it
        records, steps, evaluated = self._check_evaluations(
            tmp_path, monkeypatch, ["check", "soundness_k2", "--dims", "N=1"]
        )
        (first, rep), *_ = [(rule, rep) for (step, rule), rep in zip(records, steps) if step["rule"] == "merge"]
        assert (rep["status"], rep["distance"]) == ("exact-ok", 0.0)
        assert sum(d is first.lhs.subst({"N": 1}) for d in evaluated) == 1

    def test_tampered_script_fails_at_step(self, tmp_path):
        j = rw.script_to_json(rw.SHIPPED_SCRIPTS["single_stage"]())
        j["steps"][0]["loc"] = [99]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(j))
        code, out = run_to_file(tmp_path, ["check", str(bad)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["verified"]

    def test_negative_dims_exit_2(self, tmp_path, capsys):
        argv = ["check", "soundness_k2", "--dims", "N=-1", "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_n_value_exit_2(self, tmp_path, capsys):
        argv = ["check", "soundness_k2", "--eps-fn", "1,1", "--n-value", "-2"]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "--n-value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script,table,named",
        [
            ("soundness_k2", {"eps": 3}, "3"),
            ("soundness_k2", {"delta": "1,1"}, "'eps'"),
            ("spot_check_lemma", {"eps": "1,1"}, "'delta'"),
        ],
        ids=["non_string_entry", "missing_eps", "missing_delta"],
    )
    def test_bad_eps_fn_table_exit_2_names_it(self, tmp_path, capsys, script, table, named):
        argv = ["check", script, "--eps-fn", json.dumps(table), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "spec",
        ["-1,1", "nan,1", "inf,1", "1,nan", "-inf,1", '{"eps": "-0.5,1"}', "1,-1", "1,-2000", '{"eps": "1,-1"}'],
        ids=[
            "negative", "nan_constant", "inf_constant", "nan_rate", "minus_inf", "table_negative",
            "negative_rate", "overflowing_rate", "table_negative_rate",
        ],
    )
    def test_bad_eps_fn_constant_exit_2(self, tmp_path, capsys, spec):
        # an error function is a non-negative bound c * 2^(-a n) with
        # finite c and a that does not grow with n; a negative c used to
        # give a negative budget, and a = -2000 an OverflowError
        argv = ["check", "soundness_k2", f"--eps-fn={spec}", "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: bad decay spec")

    def test_unbound_dims_symbol_exit_2_names_it(self, tmp_path, capsys):
        argv = ["check", "single_stage", "--dims", "N=1", "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert "'M'" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["no_initial", "future_version", "loc_not_a_list", "dangling"])
    def test_malformed_script_exit_2(self, tmp_path, capsys, defect):
        j = rw.script_to_json(rw.script_soundness_k2())
        if defect == "no_initial":
            j = {"format_version": 1, "name": "x"}
        elif defect == "future_version":
            j["format_version"] = 2
        elif defect == "loc_not_a_list":
            j["steps"][0]["loc"] = 5
        else:
            j["initial"]["wires"] = j["initial"]["wires"][1:]
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(j))
        assert cli.main(["check", str(sfile), "--out", str(tmp_path / "x")]) == 2
        assert "script" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [True, 1.5], ids=repr)
    @pytest.mark.parametrize("where", ["initial_diagram", "rule_params", "claimed_total"])
    def test_symbolic_scale_not_an_integer_exit_2(self, tmp_path, capsys, where, scale):
        # a scale of true replayed as 1 and verified; 1.5 loaded and
        # failed later, or was truncated to 1 in the claimed total
        j = rw.script_to_json(rw.SHIPPED_SCRIPTS["single_stage"]())
        if where == "initial_diagram":
            j["initial"]["nodes"][0]["out_ports"][0]["sym"]["scale"] = scale
        elif where == "rule_params":
            j["steps"][0]["params"]["scale"] = scale
        else:
            j["claimed_total"][0][2] = scale
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(j))
        assert cli.main(["check", str(sfile), "--dims", "M=1", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "malformed proof script" in err and "positive integer" in err

    @pytest.mark.parametrize("scale", [1, 64])
    def test_integer_base_exit_2(self, tmp_path, capsys, scale):
        # an integer base is a dimension that ignores the scale: the two
        # scripts replayed over one C3 -> C9 round and verified, and
        # --eps-fn 1,1 priced them at 0.5 and 5.4e-20
        lhs = rw._spot_lhs(scale, 3)
        step = {"rule": "spot_check", "loc": tuple(sorted(lhs.nodes)), "params": {"scale": scale, "base": 3}}
        script = rw.ProofScript("int_base", lhs, [step], rw.eps(scale, "N"))
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(script)))
        code, out = run_to_file(tmp_path, ["check", str(sfile), "--eps-fn", "1,1"])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "malformed proof script" in err and "not a width symbol" in err

    def test_nan_axiom_probe_fails_verification(self, tmp_path, monkeypatch):
        # an axiom's distance is a probe that must be finite, as in rules
        distance = rw.rule_distance

        def nan_axioms(rule, *args):
            return math.nan if rule.validation_mode == "axiom" else distance(rule, *args)

        monkeypatch.setattr(rw, "rule_distance", nan_axioms)
        code, out = run_to_file(tmp_path, ["check", "chain_k1", "--dims", "N=1"])
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["verified"] and rep["claimed_total_matches"]
        assert [s["status"] for s in rep["steps"]] == ["exact-ok", "axiom-failed", "axiom-failed", "exact-ok"]

    @pytest.mark.parametrize("rule", ["causality", "merge"])
    def test_loc_naming_absent_node_fails_verification(self, tmp_path, rule):
        script = rw.ProofScript(
            "absent",
            dg.Diagram(),
            [{"rule": rule, "loc": (0, 1), "params": {"name": "t"}}],
            rw.EpsExpr.zero(),
        )
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(script)))
        code, out = run_to_file(tmp_path, ["check", str(sfile)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["verified"]
        assert "absent" in rep["error"]

    @pytest.mark.parametrize("case", ["merge_g_as_f", "chain_k1_merge_as_A@2"])
    def test_step_reusing_a_label_fails_verification(self, tmp_path, case):
        # holes that share a label denote one process, so a merge may not
        # name its hole after a node that it leaves in place
        if case == "merge_g_as_f":
            d = dg.parse_diagram(
                "hole f : C2 -> C2\nhole g : C2 -> C2\nuniform C2 1 ; f ; g ; discard C2"
            )
            (gid,) = [n for n, g in d.nodes.items() if g.label == "g"]
            step = {"rule": "merge", "loc": (gid,), "params": {"name": "f"}}
            script, label = rw.ProofScript("reuse", d, [step], rw.EpsExpr.zero()), "f"
        else:
            chain, label = rw.script_chain(1), "A@2"
            merge = {**chain.steps[-1], "params": {"name": label}}
            script = dataclasses.replace(chain, steps=chain.steps[:-1] + (merge,))
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(script)))
        code, out = run_to_file(tmp_path, ["check", str(sfile), "--dims", "N=1"])
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["verified"]
        assert repr(label) in rep["error"] and "outside its loc" in rep["error"]

    @pytest.mark.parametrize("dims", [[], ["--dims", "N=1"]])
    def test_merge_named_after_a_node_it_fuses_fails_verification(self, tmp_path, dims):
        # the lhs already binds f, so a hole f derived from the cut would
        # denote a second process under the same label
        d = dg.parse_diagram(
            "hole f : C2 -> C2\nhole g : C2 -> C2\nuniform C2 1 ; f ; g ; discard C2"
        )
        loc = sorted(n for n, g in d.nodes.items() if g.label in ("f", "g"))
        step = {"rule": "merge", "loc": loc, "params": {"name": "f"}}
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(rw.ProofScript("fuse", d, [step], rw.EpsExpr.zero()))))
        code, out = run_to_file(tmp_path, ["check", str(sfile)] + dims)
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["verified"]
        assert "'f'" in rep["error"] and "fuses" in rep["error"]

    def test_merge_of_a_payloadless_box_is_checked(self, tmp_path):
        d = dg.parse_diagram(
            "box f : C2 -> C2\nhole g : C2 -> C2\nuniform C2 1 ; f ; g ; discard C2"
        )
        loc = sorted(n for n, g in d.nodes.items() if g.label in ("f", "g"))
        step = {"rule": "merge", "loc": loc, "params": {"name": "h"}}
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(rw.ProofScript("box", d, [step], rw.EpsExpr.zero()))))
        code, out = run_to_file(tmp_path, ["check", str(sfile), "--dims", "N=1"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["verified"]
        assert [s["status"] for s in rep["steps"]] == ["exact-ok"]

    def test_step_reusing_a_removed_label_is_checked(self, tmp_path):
        # the first merge consumes B@1, so the second may name its hole B@1;
        # the binding of the removed node must not stand for the new one
        chain = rw.script_chain(2)
        merge = {**chain.steps[-1], "params": {"name": "B@1"}}
        script = dataclasses.replace(chain, steps=chain.steps[:-1] + (merge,))
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(rw.script_to_json(script)))
        code, out = run_to_file(tmp_path, ["check", str(sfile), "--dims", "N=0"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["verified"]
        assert rep["steps"][-1]["rule"] == "merge" and rep["steps"][-1]["status"] == "exact-ok"

    def test_empty_script_zero_budget(self, tmp_path):
        initial = dg.Diagram.from_generator(dg.uniform_gen(rc.C(2), 1))
        script = rw.ProofScript("empty", initial, [], rw.EpsExpr.zero())
        sfile = tmp_path / "empty.json"
        sfile.write_text(json.dumps(rw.script_to_json(script)))
        code, out = run_to_file(tmp_path, ["check", str(sfile)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["verified"]
        assert rep["budget"] == "0"


class TestSimulate:
    def test_same_seed_byte_identical(self, tmp_path):
        argv = ["simulate", "--rounds", "40", "--seed", "7"]
        _, out1 = run_to_file(tmp_path, argv, "a.json")
        _, out2 = run_to_file(tmp_path, argv, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_reports_abort_frequency(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            ["simulate", "--rounds", "60", "--sweep", "4", "--strategy", "all-zero"],
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["abort_count"] == sum(r["aborted"] for r in rep["runs"])
        assert len(rep["runs"]) == 4

    def test_jobs_flag_matches_serial(self, tmp_path):
        argv = ["simulate", "--rounds", "30", "--sweep", "3"]
        _, serial = run_to_file(tmp_path, argv + ["--jobs", "1"], "s.json")
        _, par = run_to_file(tmp_path, argv + ["--jobs", "3"], "p.json")
        assert serial.read_bytes() == par.read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--rounds", "0", "--out", str(tmp_path / "x")]) == 2

    def test_negative_sweep_exit_2(self, tmp_path, capsys):
        code, out = run_to_file(tmp_path, ["simulate", "--rounds", "5", "--sweep", "-1"])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_beyond_memory_exit_2(self, tmp_path, capsys):
        # 10^6 seeds x 10^8 rounds of two doubles is 1.4 PiB, beyond any
        # address space, so the sampler's first allocation fails at once
        code, out = run_to_file(tmp_path, ["simulate", "--rounds", "100000000", "--sweep", "1000000"])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: 1000000 seeds x 100000000 rounds do not fit in memory\n"

    def test_sweep_0_is_a_single_run(self, tmp_path):
        code, out = run_to_file(tmp_path, ["simulate", "--rounds", "5", "--sweep", "0"])
        assert code == 0
        assert "report" in json.loads(out.read_text())

    @pytest.mark.parametrize("defect", ["one_input", "no_state", "ragged"])
    def test_bad_strategy_exit_2(self, tmp_path, capsys, defect):
        j = pr.strategy_to_json(pr.optimal_chsh_strategy())
        if defect == "one_input":
            j["povms"] = [player[:1] for player in j["povms"]]
        elif defect == "no_state":
            del j["state"]
        else:
            j["povms"][1][0] = j["povms"][1][0][:1]
        self.assert_strategy_exit_2(tmp_path, capsys, j)

    @pytest.mark.parametrize("defect", ["trace_2", "not_hermitian", "not_psd"])
    def test_bad_shared_state_exit_2(self, tmp_path, capsys, defect):
        j = pr.strategy_to_json(pr.optimal_chsh_strategy())
        rho = np.array([[complex(*x) for x in row] for row in j["state"]])
        if defect == "trace_2":
            rho = 2 * rho
        elif defect == "not_hermitian":
            rho[0, 1] += 0.1
        else:
            rho = rho + 0.1 * np.diag([1.0, -1.0, 1.0, -1.0])
        j["state"] = [[[x.real, x.imag] for x in row] for row in rho]
        self.assert_strategy_exit_2(tmp_path, capsys, j)

    def assert_strategy_exit_2(self, tmp_path, capsys, j):
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(j))
        argv = ["simulate", "--rounds", "20", "--strategy", str(sfile)]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["one_input", "not_psd", "negative_row"])
    def test_bad_strategy_sweep_exit_2(self, tmp_path, capsys, defect):
        # negative_row passes validate() and the CHSH alphabet check;
        # the probability checks of its outcome table refuse it, inside
        # strategy_from_json
        s = pr.optimal_chsh_strategy()
        if defect == "one_input":
            s = pr.DeviceStrategy(s.shared_state, [t[:1] for t in s.povms])
        elif defect == "not_psd":
            rho = s.density() + 0.1 * np.diag([1.0, -1.0, 1.0, -1.0])
            s = pr.DeviceStrategy(pr.bipartite_state(rho, 2, 2), s.povms)
        else:
            z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
            rho = np.diag([1.0 + 1e-10, -1e-10, 0.0, 0.0]).astype(complex)
            s = pr.DeviceStrategy(pr.bipartite_state(rho, 2, 2), [[z, z], [z, z]])
        j = pr.strategy_to_json(s)
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(j))
        argv = ["simulate", "--rounds", "20", "--sweep", "5", "--strategy", str(sfile)]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("version", [7, 0, "1", True, 1.0, "missing"])
    def test_strategy_format_version_exit_2(self, tmp_path, capsys, version):
        j = pr.strategy_to_json(pr.optimal_chsh_strategy())
        if version == "missing":
            del j["format_version"]
        else:
            j["format_version"] = version
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(j))
        argv = ["simulate", "--rounds", "20", "--strategy", str(sfile), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "x").exists()
        named = None if version == "missing" else version
        assert capsys.readouterr().err == f"error: unsupported strategy format {named!r}\n"

    def test_named_strategies_built_once_per_process(self, tmp_path, monkeypatch):
        calls = collections.Counter()
        for name in ("optimal_chsh_strategy", "deterministic_strategy"):
            build = getattr(pr, name)
            monkeypatch.setattr(pr, name, lambda *a, build=build, name=name: calls.update([name]) or build(*a))
        cli._strategy.cache_clear()
        for _ in range(2):
            for flags in ([], ["--strategy", "all-zero"]):
                assert cli.main(["simulate", "--rounds", "5", *flags, "--out", str(tmp_path / "x")]) == 0
        assert calls == {"optimal_chsh_strategy": 1, "deterministic_strategy": 1}

    def test_strategy_file_validated_once(self, tmp_path, monkeypatch):
        sfile = tmp_path / "s.json"
        sfile.write_text(json.dumps(pr.strategy_to_json(pr.optimal_chsh_strategy())))
        calls, validate = [], pr.DeviceStrategy.validate
        monkeypatch.setattr(pr.DeviceStrategy, "validate", lambda s, *a: calls.append(s) or validate(s, *a))
        cli._strategy.cache_clear()
        argv = ["simulate", "--rounds", "20", "--sweep", "3", "--strategy", str(sfile)]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
        assert len(calls) == 1 and calls[0] is cli._load_strategy(str(sfile))

    def count_parses(self, monkeypatch) -> list:
        cli._strategy.cache_clear()
        calls, parse = [], pr.strategy_from_json
        monkeypatch.setattr(pr, "strategy_from_json", lambda j: calls.append(j) or parse(j))
        return calls

    def simulate_runs(self, tmp_path, sfile) -> list:
        out = tmp_path / "out.json"
        argv = ["simulate", "--rounds", "30", "--sweep", "3", "--strategy", str(sfile), "--out", str(out)]
        assert cli.main(argv) == 0
        return json.loads(out.read_text())["runs"]

    def test_strategy_file_parsed_once_per_content(self, tmp_path, monkeypatch):
        calls = self.count_parses(monkeypatch)
        text = json.dumps(pr.strategy_to_json(pr.optimal_chsh_strategy()))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(text)
        second.write_text(text)
        runs = self.simulate_runs(tmp_path, first)
        assert self.simulate_runs(tmp_path, first) == runs
        assert len(calls) == 1
        # the same bytes at another path share the entry
        assert self.simulate_runs(tmp_path, second) == runs
        assert len(calls) == 1
        assert cli._load_strategy(str(first)) is cli._load_strategy(str(second))

    def test_rewritten_strategy_file_is_read_again(self, tmp_path, monkeypatch):
        calls = self.count_parses(monkeypatch)
        sfile = tmp_path / "s.json"
        optimal = json.dumps(pr.strategy_to_json(pr.optimal_chsh_strategy()))
        zero = json.dumps(pr.strategy_to_json(pr.deterministic_strategy(lambda x: 0, lambda y: 0)))
        sfile.write_text(optimal)
        optimal_runs = self.simulate_runs(tmp_path, sfile)
        sfile.write_text(zero)
        zero_runs = self.simulate_runs(tmp_path, sfile)
        assert zero_runs != optimal_runs
        sfile.write_text(optimal)
        assert self.simulate_runs(tmp_path, sfile) == optimal_runs
        assert len(calls) == 2
        # each report is that of a process that never saw the other file
        for text, runs in ((zero, zero_runs), (optimal, optimal_runs)):
            cli._strategy.cache_clear()
            sfile.write_text(text)
            assert self.simulate_runs(tmp_path, sfile) == runs

    @pytest.mark.parametrize("defect", ["malformed", "negative_row", "format_version"])
    def test_bad_strategy_file_exit_2_on_every_call(self, tmp_path, capsys, monkeypatch, defect):
        calls = self.count_parses(monkeypatch)
        j = pr.strategy_to_json(pr.optimal_chsh_strategy())
        sfile = tmp_path / "s.json"
        if defect == "malformed":
            text = json.dumps(j)[:-1]
            try:
                json.loads(text)
            except json.JSONDecodeError as e:
                want = f"error: cannot read JSON file {sfile}: {e}\n"
        elif defect == "negative_row":
            z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
            rho = np.diag([1.0 + 1e-10, -1e-10, 0.0, 0.0]).astype(complex)
            text = json.dumps(pr.strategy_to_json(pr.DeviceStrategy(pr.bipartite_state(rho, 2, 2), [[z, z], [z, z]])))
            want = "error: malformed strategy JSON: probabilities are not non-negative\n"
        else:
            text = json.dumps(j | {"format_version": 2})
            want = "error: unsupported strategy format 2\n"
        sfile.write_text(text)
        argv = ["simulate", "--rounds", "20", "--sweep", "2", "--strategy", str(sfile), "--out", str(tmp_path / "x")]
        for _ in range(3):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == want
            assert not (tmp_path / "x").exists()
        assert len(calls) == (0 if defect == "malformed" else 3)
        assert cli._strategy.cache_info().currsize == 0
        # mended in place, the file loads on the next call
        sfile.write_text(json.dumps(j))
        assert cli.main(argv) == 0


class TestEntropy:
    def test_diagonal_example_matches_closed_form(self, tmp_path):
        code, out = run_to_file(tmp_path, ["entropy", "--example", "diagonal"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["h_min"] == pytest.approx(-math.log2(0.65), abs=1e-6)
        assert rep["converged"]
        assert rep["format_version"] == 3 and "seed" not in rep

    def test_state_file(self, tmp_path):
        state = {
            "branches": [
                {"re": [[0.5, 0.0], [0.0, 0.0]]},
                {"re": [[0.0, 0.0], [0.0, 0.5]]},
            ]
        }
        sfile = tmp_path / "st.json"
        sfile.write_text(json.dumps(state))
        code, out = run_to_file(tmp_path, ["entropy", "--state", str(sfile)])
        assert code == 0
        rep = json.loads(out.read_text())
        # perfectly distinguishable branches: guessing succeeds
        assert rep["h_min"] == pytest.approx(0.0, abs=1e-9)

    def test_guessing_probability_1_prints_zero_not_minus_zero(self, tmp_path):
        # one branch of trace 1: -log2(1) printed "h_min":-0.0
        sfile = tmp_path / "st.json"
        sfile.write_text(json.dumps({"branches": [{"re": [[0.5, 0.0], [0.0, 0.5]]}]}))
        code, out = run_to_file(tmp_path, ["entropy", "--state", str(sfile)])
        assert code == 0
        assert b'"h_min":0.0,' in out.read_bytes()

    def test_no_input_exit_2(self, tmp_path):
        assert cli.main(["entropy", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("tol", ["0", "1e-300", "1e-15"])
    @pytest.mark.parametrize("state", ["entropy_state", "wishart"])
    def test_tol_below_rounding_never_inverts_the_interval(self, tmp_path, capsys, state, tol):
        # --tol 0 reported converged: true with gap -4.44e-16, p_guess_lower
        # above p_guess_upper
        sfile = tmp_path / "st.json"
        sfile.write_text(json.dumps(ENTROPY_STATE if state == "entropy_state" else wishart_state(3, 8, 2)))
        code, out = run_to_file(tmp_path, ["entropy", "--state", str(sfile), "--tol", tol])
        assert code == 0 and capsys.readouterr().err == ""
        rep = json.loads(out.read_text())
        assert rep["gap"] == rep["p_guess_upper"] - rep["p_guess_lower"]
        if rep["converged"]:
            assert 0.0 <= rep["gap"] <= float(tol)

    @pytest.mark.parametrize(
        "branches",
        [
            [[[0.5, 0.1], [0.0, 0.5]]],  # not Hermitian
            [[[0.75, 0.0], [0.0, -0.25]]],  # not PSD
            [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]],  # total trace 1.25
            [],
            [[[0.5]], [[0.25, 0.0], [0.0, 0.25]]],  # shapes differ
            [[[0.0, 0.0], [0.0, 0.0]]] * 3,  # total trace 0: nothing to guess
            [[[math.nan, 0.0], [0.0, 0.5]], [[0.1, 0.0], [0.0, 0.1]]],  # NaN entry
            [[[0.25, 0.0], [0.0, math.inf]], [[0.1, 0.0], [0.0, 0.1]]] * 2,  # infinite entry
        ],
        ids=["non_hermitian", "non_psd", "trace_above_1", "empty", "mixed_shapes", "trace_0",
             "nan_entry", "inf_entry"],
    )
    def test_bad_state_exit_2(self, tmp_path, capsys, branches):
        sfile = tmp_path / "st.json"
        sfile.write_text(json.dumps({"branches": [{"re": b} for b in branches]}))
        assert cli.main(["entropy", "--state", str(sfile), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: bad state file")


class TestExtract:
    def test_hash_hex_round_trip(self, tmp_path):
        argv = ["extract", "--n", "8", "--m", "2", "--source", "a5", "--seed", "1"]
        code, out = run_to_file(tmp_path, argv)
        assert code == 0
        rep = json.loads(out.read_text())
        # recompute from the echoed hash seed
        from cqcalc import extractor as ex

        src = [(0xA5 >> (7 - i)) & 1 for i in range(8)]
        seed_bits = [
            (int(rep["hash_seed_hex"], 16) >> (8 - i)) & 1 for i in range(9)
        ]
        want = ex.toeplitz_extract(src, seed_bits, 2)
        assert int(rep["output_hex"], 16) == (want[0] << 1) | want[1]

    def test_distance_below_bound(self, tmp_path):
        code, out = run_to_file(
            tmp_path, ["extract", "--n", "8", "--m", "2", "--hmin", "4"]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["distance"] <= rep["leftover_hash_bound"] + 1e-12

    @pytest.mark.parametrize(
        "n,m", [(40, 2), (13, 1), (8, 5), (4, 0), (2, 3)], ids=["huge_n", "n_13", "m_5", "m_0", "m_above_n"]
    )
    def test_hmin_out_of_range_exit_2(self, tmp_path, capsys, n, m):
        argv = ["extract", "--n", str(n), "--m", str(m), "--hmin", "1"]
        code, out = run_to_file(tmp_path, argv)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "n,m,source", [(4, 0, "a"), (4, -1, "a"), (0, 1, "0")], ids=["m_0", "m_negative", "n_0"]
    )
    def test_source_bad_shape_exit_2(self, tmp_path, capsys, n, m, source):
        argv = ["extract", "--n", str(n), "--m", str(m), "--source", source]
        code, out = run_to_file(tmp_path, argv)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: need 1 <= m <= n\n"

    def test_bad_hex_exit_2(self, tmp_path):
        assert (
            cli.main(
                ["extract", "--n", "4", "--m", "1", "--source", "zz", "--out", str(tmp_path / "x")]
            )
            == 2
        )

    @pytest.mark.parametrize("flag", ["--source", "--hash-seed"])
    @pytest.mark.parametrize("text", ["-1", "+5", "0x5", " 5", "5\n", "a_5", "\uff15", ""], ids=repr)
    def test_only_hex_digits_accepted(self, tmp_path, capsys, flag, text):
        # int(text, 16) took a sign, a 0x prefix, spaces, underscores and
        # non-ASCII digits: --source -1 hashed as all ones
        values = {"--source": "a5", "--hash-seed": "1ff"}
        values[flag] = text
        argv = ["extract", "--n", "8", "--m", "2"] + [f"{k}={v}" for k, v in values.items()]
        code, out = run_to_file(tmp_path, argv)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: bad hex string")

    def test_hex_digits_either_case(self, tmp_path):
        _, lower = run_to_file(tmp_path, ["extract", "--n", "8", "--m", "2", "--source", "a5", "--hash-seed", "1fe"], "l.json")
        _, upper = run_to_file(tmp_path, ["extract", "--n", "8", "--m", "2", "--source", "A5", "--hash-seed", "1FE"], "u.json")
        rep_l, rep_u = json.loads(lower.read_text()), json.loads(upper.read_text())
        assert rep_l["output_hex"] == rep_u["output_hex"] and rep_l["hash_seed_hex"] == "1fe"


class TestRules:
    def test_rule_listing_all_ok(self, tmp_path):
        code, out = run_to_file(tmp_path, ["rules", "--trials", "2"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["all_ok"]
        names = [r["name"] for r in rep["rules"]]
        assert "spider_fusion" in names and "causality" in names

    @pytest.mark.parametrize("flag,value", [("--trials", 0), ("--trials", -3), ("--dim", 0), ("--dim", 6)])
    def test_unchecked_or_empty_rules_exit_2(self, tmp_path, capsys, monkeypatch, flag, value):
        def no_draw(g, rng):  # a refused --dim fails before any hole is drawn
            raise AssertionError(f"drew hole {g.label!r}")

        monkeypatch.setattr(rw, "sample_hole", no_draw)
        code, out = run_to_file(tmp_path, ["rules", flag, str(value)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_same_seed_byte_identical(self, tmp_path):
        argv = ["rules", "--trials", "2", "--seed", "5"]
        _, a = run_to_file(tmp_path, argv, "a.json")
        _, b = run_to_file(tmp_path, argv, "b.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "name,trial,field", [("causality", 2, "max_deviation"), ("spot_check@1", 1, "measured_distance")]
    )
    def test_nan_trial_fails_its_rule(self, tmp_path, monkeypatch, name, trial, field):
        # max(0.0, nan) is 0.0, so a NaN trial of causality read as ok
        distance, calls = rw.rule_distance, collections.Counter()

        def nan_trial(rule, *args):
            calls[rule.name] += 1
            return math.nan if (rule.name, calls[rule.name]) == (name, trial) else distance(rule, *args)

        monkeypatch.setattr(rw, "rule_distance", nan_trial)
        code, out = run_to_file(tmp_path, ["rules", "--trials", "3"])
        assert code == 1
        rep = json.loads(out.read_text())
        failed = [r for r in rep["rules"] if not r["ok"]]
        assert [r["name"] for r in failed] == [name] and math.isnan(failed[0][field])
        assert not rep["all_ok"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_only_fresh_holes_are_redrawn(self, tmp_path, monkeypatch, dim):
        """rules --trials 5 runs a rule's trials only when a redraw can
        change its distance, settles a derived rule with no draw and no
        evaluation, and its records are those of the loop that ran every
        trial of every rule."""
        counts = collections.defaultdict(collections.Counter)
        current, checked = [None], set()
        draw, sample, evaluate = rc.random_cq_channel, rw.sample_hole, dg.Diagram.evaluate

        def counted_draw(*args, **kwargs):
            counts[current[0]]["random_cq_channel"] += 1
            return draw(*args, **kwargs)

        def counted_sample(g, rng):
            counts[current[0]][g.label] += 1
            return sample(g, rng)

        def counted_evaluate(self, binding=None):
            counts[current[0]]["evaluate"] += 1
            return evaluate(self, binding)

        def named(distance):
            def run(rule, *args):
                current[0] = rule.name
                checked.add(rule.name)
                return distance(rule, *args)

            return run

        monkeypatch.setattr(rc, "random_cq_channel", counted_draw)
        monkeypatch.setattr(rw, "sample_hole", counted_sample)
        monkeypatch.setattr(dg.Diagram, "evaluate", counted_evaluate)
        monkeypatch.setattr(rw, "rule_distance", named(rw.rule_distance))
        monkeypatch.setattr(rw, "derived_distance", named(rw.derived_distance))
        code, out = run_to_file(tmp_path, ["rules", "--dim", str(dim), "--trials", "5"])
        assert code == 0
        records = json.loads(out.read_text())["rules"][:6]
        got = {name: counts.pop(name, collections.Counter()) for name in [r["name"] for r in records]}
        assert None not in counts  # nothing drawn or evaluated outside a rule's check
        for name in ("uniform_absorbs_discard", "widen_uniform", "spider_fusion", "uniform_is_scaled_spider"):
            assert got[name] == {"evaluate": 2}, name
        assert "expand_S@1" in checked and got["expand_S@1"] == {}
        assert got["causality"] == {"h": 5, "random_cq_channel": 5, "evaluate": 10}

        # the reference: every trial of every rule, as before
        reference = []
        for rule in rw.builtin_rules(dim):
            worst = 0.0
            for offset in range(5):
                worst = max(worst, rw.rule_distance(rule, {}, np.random.default_rng(offset)))
            reference.append(
                {
                    "name": rule.name,
                    "mode": rule.validation_mode,
                    "cost": str(rule.cost),
                    "max_deviation": worst,
                    "ok": worst <= 1e-9,
                }
            )
        assert counts["expand_S@1"] == {"R@1": 5, "R@2": 5, "random_cq_channel": 10, "evaluate": 5}
        assert json.dumps(records, sort_keys=True) == json.dumps(reference, sort_keys=True)


def _expected_calls(workload):
    """EXPECT_CALLED[workload] of the benchmark runner, read from its
    source without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["EXPECT_CALLED"]:
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("bench/run.py has no EXPECT_CALLED")


class TestBenchmarkTraceGate:
    def test_warm_proofs_jobs_reach_every_traced_function(self, tmp_path, monkeypatch):
        """The benchmark's traced pass fails a workload whose listed
        functions go uncalled, so work cached across calls must not skip
        them: a second check and rules job in one process, with the
        workload's DSL round trip, reach all."""
        argvs = [["check", "soundness_k2", "--dims", "N=1"], ["rules", "--dim", "2"]]

        def jobs():
            for argv in argvs:
                assert run_to_file(tmp_path, argv)[0] == 0
            d = dg.parse_diagram("(uniform C2 1 ; discard C2) * (uniform C3 1 ; discard C3)")
            assert dg.diagrams_equal(d, dg.parse_diagram(dg.print_diagram(d)))

        jobs()
        calls = collections.Counter()

        def counted(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return run

        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("cqcalc.")]
        names = _expected_calls("proofs")
        for name in names:
            short, attr = name.split(".")
            module = sys.modules[f"cqcalc.{short}"]
            if inspect.isfunction(getattr(module, attr, None)):
                fn = getattr(module, attr)
                for other in loaded:  # and where another module imported it by name
                    for a, v in list(vars(other).items()):
                        if v is fn:
                            monkeypatch.setattr(other, a, counted(name, fn))
            else:
                monkeypatch.setattr(module.Diagram, attr, counted(name, getattr(module.Diagram, attr)))
        jobs()
        assert "rewrite.find_matches" in names
        assert [n for n in names if not calls[n]] == []


class TestTolerance:
    TOL_COMMANDS = [
        ["check", "chain_k1", "--dims", "N=1"],
        ["rules", "--trials", "1"],
        ["entropy", "--example", "diagonal"],
    ]

    @pytest.mark.parametrize("argv", TOL_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "-1e-300"])
    def test_non_finite_or_negative_exit_2(self, tmp_path, capsys, argv, tol):
        # --tol inf verified everything, and --tol nan failed as a check
        out = tmp_path / "r.json"
        assert cli.main(argv + [f"--tol={tol}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", TOL_COMMANDS, ids=" ".join)
    def test_zero_accepted(self, tmp_path, argv):
        code, out = run_to_file(tmp_path, argv + ["--tol", "0"])
        assert code in (0, 1) and out.exists()

    def test_default_and_environment(self, tmp_path, monkeypatch):
        assert cli.build_parser().parse_args(["rules"]).tol == 1e-9
        _, plain = run_to_file(tmp_path, ["rules", "--trials", "1"], "plain.json")
        monkeypatch.setenv("CQCALC_TOL", "soon")
        code, env = run_to_file(tmp_path, ["rules", "--trials", "1"], "env.json")
        assert code == 0 and env.read_bytes() == plain.read_bytes()


class TestOptionSets:
    def test_each_command_takes_only_the_options_it_reads(self):
        # every option but simulate --jobs, which the benchmark passes;
        # eval and entropy read no seed, so they take no --seed
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert got == {
            "eval": ["--bindings", "--out"],
            "check": ["--dims", "--eps-fn", "--n-value", "--out", "--seed", "--tol"],
            "simulate": ["--chi", "--jobs", "--out", "--q", "--rounds", "--seed", "--strategy", "--sweep"],
            "entropy": ["--example", "--out", "--state", "--tol"],
            "extract": ["--hash-seed", "--hmin", "--m", "--n", "--out", "--seed", "--source"],
            "rules": ["--dim", "--out", "--seed", "--tol", "--trials"],
        }
        shared = ("--seed", "--out", "--tol", "--jobs")
        assert sum(o in opts for opts in got.values() for o in shared) == 14


class TestReadmeExamples:
    def test_documented_commands_run(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv[1:] for argv in lines if argv and argv[0] == "cqcalc"]
        assert len(commands) == 7
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mydiagram.dg").write_text("uniform C2 1 ; discard C2\n")
        for i, argv in enumerate(commands):
            assert cli.main(argv + ["--out", f"r{i}.json"]) == 0, argv


class TestCommonFlags:
    @pytest.mark.parametrize("argv", [
        ["check", "soundness_k2"],
        ["check", "soundness_k2", "--dims", "N=1"],
        ["rules", "--trials", "1"],
        ["extract", "--n", "8", "--m", "2", "--source", "a5"],
        ["extract", "--n", "6", "--m", "2", "--hmin", "3"],
        ["extract", "--n", "6", "--m", "2"],
        ["simulate", "--rounds", "5"],
    ], ids=" ".join)
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        # numpy's generators take no negative seed; this was a traceback
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rules", "--trials", "1"],
        ["check", "soundness_k2"],
        ["simulate", "--rounds", "5"],
    ], ids=" ".join)
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argv, where):
        out = tmp_path / "no" / "r.json" if where == "missing_dir" else tmp_path
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report file")


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_reports_match_fresh_parser_calls(self, tmp_path):
        # a flag given to one main call must not carry into the next
        (tmp_path / "state.json").write_text(json.dumps({
            "branches": [
                {"re": [[0.3, 0.1], [0.1, 0.1]]},
                {"re": [[0.1, -0.05], [-0.05, 0.25]]},
                {"re": [[0.125, 0.0], [0.0, 0.125]], "im": [[0.0, 0.05], [-0.05, 0.0]]},
            ]
        }))
        state = str(tmp_path / "state.json")
        argvs = [
            ["entropy", "--state", state, "--tol", "1e-3"],
            ["extract", "--n", "6", "--m", "2", "--hmin", "5"],
            ["entropy", "--state", state],
            ["simulate", "--rounds", "20", "--sweep", "2", "--strategy", "all-zero"],
            ["simulate", "--rounds", "20"],
        ]
        for i, argv in enumerate(argvs):
            _, shared = run_to_file(tmp_path, argv, f"shared{i}.json")
            fresh = tmp_path / f"fresh{i}.json"
            args = cli.build_parser().parse_args(argv + ["--out", str(fresh)])
            assert args.func(args) == 0
            assert shared.read_bytes() == fresh.read_bytes(), argv


def reference_dumps(x) -> str:
    return json.dumps(x, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _view(a, how):
    """a itself, or a view that is not C-contiguous: every other entry
    along the first axis, or the transpose."""
    if how == "a[::2]" and a.ndim:
        return a[::2]
    return a.T if how == "a.T" else a


# ndim 1 and 2 with no empty axis: where the digit template applies
_filled_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6)
_arrays = st.builds(
    _view,
    st.one_of(
        # each entry drawn on its own (no fill value), so boundary values turn up;
        # digits at ndim 0 and 3 too, which the template does not take
        hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
                   elements=st.integers(0, 9), fill=st.nothing()),
        hnp.arrays(st.sampled_from([np.int8, np.int64]), _filled_shapes,
                   elements=st.integers(-1, 10), fill=st.nothing()),
        # any of the dtypes at ndim 0-3, empty shapes included; uint64 and
        # int64 arrays of one shape stack as float64
        hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64, np.bool_, np.float64]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    ),
    st.sampled_from(["a", "a[::2]", "a.T"]),
)
_placeholder_like = st.text(alphabet='"\x00', max_size=4)
_json_leaves = st.one_of(
    _arrays,
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, np.float64("nan")]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\é☃\U0001f600')),
    # runs of NULs, alone or after a quote, encode like the emitter's array placeholder
    _placeholder_like,
)
_json_values = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4) | _placeholder_like, kids, max_size=5),
        # keys json converts to text: mutually comparable ints, floats and bools, or None
        st.dictionaries(st.integers() | st.floats() | st.booleans(), kids, max_size=5),
        st.dictionaries(st.none(), kids),
        # int rows, with bools and empty rows mixed in
        st.lists(st.lists(st.integers() | st.booleans(), max_size=4), max_size=4),
    ),
    max_leaves=30,
)



@st.composite
def _record_lists(draw):
    """Lists of records.  Most keys hold digit arrays of one shape and
    dtype in every record, some as views that are not C-contiguous; at
    a mixed key a record may instead hold digits of a longer shape, an
    array of another shape or dtype, with a 10 or a -1, or of bools, or
    no array.  Now and then a record has another key set."""
    names = st.text(max_size=3) | st.sampled_from(["output_bits", "é", 'a"b', "\x00", '"\x00'])
    if draw(st.integers(0, 3)):
        keys = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    else:  # keys json converts to text, which no fill takes
        keys = draw(st.lists(st.integers(), min_size=1, max_size=3, unique=True))
    mixed = {k: draw(st.integers(0, 3)) == 0 for k in keys}
    shapes = {k: draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4)) for k in keys}
    dtypes = {k: draw(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64])) for k in keys}
    records = []
    for _ in range(draw(st.sampled_from([1, 2, 3, 4, 5]))):
        record = {}
        for k in keys:
            kind = draw(st.sampled_from(["digits", "reshaped", "array", "leaf"])) if mixed[k] else "digits"
            if kind in ("digits", "reshaped"):
                how = draw(st.sampled_from(["a", "a[::2]", "a.T"]))
                shape = shapes[k] if kind == "digits" else (shapes[k][0] + 1, *shapes[k][1:])
                if how == "a[::2]":
                    shape = (2 * shape[0], *shape[1:])
                elif how == "a.T":
                    shape = shape[::-1]
                a = draw(hnp.arrays(dtypes[k], shape, elements=st.integers(0, 9), fill=st.nothing()))
                record[k] = _view(a, how)
            else:
                record[k] = draw(_arrays if kind == "array" else _json_leaves)
        if draw(st.integers(0, 9)) == 0:
            record[draw(names)] = draw(_json_leaves)
        records.append(record)
    return records


# record lists on their own, under dict keys next to other values, in
# nested dicts, in a list, and as a field of each record of a record list
_reports = st.one_of(
    _record_lists(),
    st.dictionaries(st.text(max_size=4), _record_lists() | _json_leaves, max_size=3),
    st.dictionaries(st.text(max_size=2), st.dictionaries(st.text(max_size=2), _record_lists(), max_size=2), max_size=2),
    st.lists(_record_lists(), max_size=2),
    st.tuples(_record_lists(), _record_lists()).map(lambda p: [dict(r, inner=p[1]) for r in p[0]]),
)


def template_digit_texts(arrays: list) -> list:
    """_digit_texts with the digit template and its digit positions
    built anew for every shape of every call."""
    texts, by_shape = [None] * len(arrays), {}
    for i, a in enumerate(arrays):
        by_shape.setdefault(a.shape, []).append(i)
    for shape, index in by_shape.items():
        stack = np.stack([arrays[i] for i in index])
        if stack.min() < 0 or stack.max() > 9:
            for i in index:
                texts[i] = json.dumps(arrays[i].tolist(), separators=(",", ":"))
            continue
        entry = "[" + ",".join("0" * shape[1]) + "]" if len(shape) == 2 else "0"
        template = np.frombuffer(("[" + ",".join([entry] * shape[0]) + "]").encode(), dtype=np.uint8)
        fill = np.tile(template, (len(index), 1))
        fill[:, np.flatnonzero(template == 48)] = stack.reshape(len(index), -1).astype(np.uint8) + 48
        text, size = fill.tobytes().decode(), len(template)
        for j, i in enumerate(index):
            texts[i] = text[j * size : (j + 1) * size]
    return texts


class TestEmitter:
    @settings(max_examples=100, deadline=None)
    @given(
        arrays=st.lists(
            hnp.arrays(
                st.sampled_from([np.int8, np.int32, np.int64]),
                st.sampled_from([(1,), (3,), (7,), (1, 1), (2, 5), (4, 5), (5, 4)]),
                elements=st.integers(-1, 10) | st.integers(0, 9),
                fill=st.nothing(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_digit_texts_match_the_template_construction(self, arrays):
        # shapes recur across examples, so most calls read a cached
        # template; a stack holding a -1 or a 10 is written from tolist()
        want = template_digit_texts(arrays)
        assert cli._digit_texts(arrays) == want
        assert cli._digit_texts(arrays) == want

    def test_digit_template_built_once_per_shape(self):
        cli._digit_template.cache_clear()
        runs = [np.arange(10).reshape(2, 5) % 10, np.ones(6, dtype=np.int64)]
        for _ in range(3):
            assert cli._digit_texts(runs) == template_digit_texts(runs)
        info = cli._digit_template.cache_info()
        assert (info.misses, info.hits) == (2, 4)
        template, digits = cli._digit_template((2, 5))
        assert not template.flags.writeable and not digits.flags.writeable

    def test_golden_reports_match_json_dumps(self, tmp_path, monkeypatch):
        reports, emit = [], cli._emit
        out = tmp_path / "out.json"

        def keep(report, out_path):
            reports.append(report)
            emit(report, out_path)

        monkeypatch.setattr(cli, "_emit", keep)
        argvs = golden_argvs(tmp_path)
        for argv in argvs:
            out.unlink(missing_ok=True)
            cli.main(argv + ["--out", str(out)])
            assert out.read_bytes() == (reference_dumps(reports[-1]) + "\n").encode(), argv
        assert len(reports) == len(argvs)
        for argv, report in zip(argvs, reports):
            assert cli._dumps(report) == reference_dumps(report), argv

    @settings(max_examples=200, deadline=None)
    @given(x=_reports)
    def test_record_lists_match_json_dumps(self, x, tmp_path_factory):
        out = tmp_path_factory.mktemp("emit") / "out.json"
        try:
            want = reference_dumps(x)
        except TypeError:  # keys json cannot sort
            with pytest.raises(TypeError):
                cli._emit(x, str(out))
            assert not out.exists()
            return
        cli._emit(x, str(out))
        assert out.read_bytes() == (want + "\n").encode()

    @pytest.mark.parametrize("text", ["\x00", '"\x00', "\x00\x00", 'a"\x00\x00', '"\x00"\x00\x00'], ids=repr)
    def test_strings_that_encode_like_the_placeholder(self, text):
        # a string equal to a run of NULs, or ending in a quote and one, turns up
        # where the arrays' placeholder is searched for
        digits = np.array([[1, 2], [3, 4]], dtype=np.int8)
        x = {text: digits, "a": [text, np.arange(3), {text: text}], "runs": [{text: digits}, {text: digits.T}]}
        assert cli._dumps(x) == reference_dumps(x)

    def test_stdout_prints_the_file_text(self, tmp_path, capsys):
        argv = ["simulate", "--rounds", "7", "--sweep", "3", "--seed", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / "out.json").read_text()

    @settings(max_examples=300, deadline=None)
    @given(x=_json_values)
    def test_matches_json_dumps(self, x):
        assert cli._dumps(x) == reference_dumps(x)

    @settings(max_examples=300, deadline=None)
    @given(x=_arrays | st.lists(_arrays, max_size=3) | st.dictionaries(st.text(max_size=2), _arrays, max_size=3))
    def test_arrays_match_json_dumps(self, x):
        assert cli._dumps(x) == reference_dumps(x)

    @pytest.mark.parametrize(
        "x",
        [
            np.int64(3),
            np.int8(1),
            np.bool_(True),
            {"bits": [np.uint8(1)]},
            np.array([{1}], dtype=object),
            {1, 2},
            b"ab",
            [1, np.int64(2)],
            [[1], [np.int64(2)]],
            {"a": {"b": {1}}},
            {b"k": 1},
            {(1, 2): 1},
            {1: 1, "a": 2},
        ],
        ids=repr,
    )
    def test_rejects_what_json_dumps_rejects(self, x, tmp_path):
        with pytest.raises(TypeError):
            reference_dumps(x)
        with pytest.raises(TypeError):
            cli._dumps(x)
        out = tmp_path / "out.json"
        for report in (x, {"report": x}, {"runs": [{"a": x}, {"a": x}]}):
            with pytest.raises(TypeError):
                cli._emit(report, str(out))
            assert not out.exists()


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SWEEP_SHAPES = [(10_000, 10), (100, 1000)]


@pytest.mark.parametrize("rounds,sweep", SWEEP_SHAPES)
def test_sweep_peak_memory(tmp_path, rounds, sweep):
    # the command's traced peak is at most 200 bytes per sampled round,
    # and writing the report raises it at most a fifth above the
    # sampler's own peak: the digit fills and the report text are
    # smaller than the sampler's scratch arrays
    out = tmp_path / "out.json"
    argv = ["simulate", "--rounds", str(rounds), "--sweep", str(sweep), "--out", str(out)]
    args = cli.build_parser().parse_args(argv)
    sampler = _traced_peak(pr.spotcheck_run, rounds, args.q, args.chi, pr.optimal_chsh_strategy(), range(sweep))
    peak = _traced_peak(cli.main, argv)
    assert peak <= 200 * rounds * sweep
    assert peak <= 1.2 * sampler
    assert len(json.loads(out.read_text())["runs"]) == sweep


@pytest.mark.parametrize("rounds,sweep", SWEEP_SHAPES)
def test_emit_peak_memory(tmp_path, monkeypatch, rounds, sweep):
    # writing a built sweep report traces at most 1.5x the report's
    # bytes plus the bytes of its runs' arrays
    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: reports.append(report))
    assert cli.main(["simulate", "--rounds", str(rounds), "--sweep", str(sweep)]) == 0
    [report] = reports
    arrays = sum(v.nbytes for run in report["runs"] for v in run.values() if isinstance(v, np.ndarray))
    out = tmp_path / "out.json"
    peak = _traced_peak(emit, report, str(out))
    assert peak <= 1.5 * (out.stat().st_size + arrays)
