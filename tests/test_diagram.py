"""Tests for the diagram IR, DSL, and evaluation."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqcalc import diagram as dg
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw

C2, C3, Q2 = rc.C(2), rc.C(3), rc.Q(2)


def random_binding(rng, holes):
    out = {}
    for label, (tin, tout) in holes.items():
        m = rng.normal(size=(rc.total_dim(tout), rc.total_dim(tin)))
        out[label] = rc.ProcessTensor(tin, tout, m + 1j * rng.normal(size=m.shape))
    return out


class TestParse:
    def test_uniform(self):
        d = dg.parse_diagram("uniform C2 2")
        assert len(d.nodes) == 1
        assert d.out_types == (C2, C2)

    def test_declared_box_then_discard(self):
        d = dg.parse_diagram("box f : I -> Q2\nf ; discard Q2")
        assert not d.typecheck()
        assert d.in_types == () and d.out_types == ()

    def test_seq_type_error_names_both_types(self):
        with pytest.raises(dg.DiagramParseError) as e:
            dg.parse_diagram("box f : I -> Q2\nf ; discard C2")
        assert "Q2" in str(e.value) and "C2" in str(e.value)

    def test_quantum_spider_and_uniform_rejected(self):
        for make in (lambda: dg.spider_gen(Q2, 0, 2), lambda: dg.uniform_gen(Q2, 1)):
            with pytest.raises(ValueError):
                make()

    def test_unknown_register(self):
        with pytest.raises(dg.DiagramParseError):
            dg.parse_diagram("discard Zork")

    def test_positioned_errors(self):
        with pytest.raises(dg.DiagramParseError) as e:
            dg.parse_diagram("uniform C2 x")
        ln, col, _ = e.value.errors[0]
        assert ln == 1

    def test_symbolic_register(self):
        d = dg.parse_diagram("reg S = classical N\nuniform S 1")
        assert d.symbolic
        v = d.subst({"N": 1}).evaluate().vector()
        assert np.allclose(v, [0.5, 0.5])

    @pytest.mark.parametrize("text,col", [
        # the tokenizer splits 2N into 2 and N, and N used to be dropped
        ("reg S = classical 2N\nuniform S 1", 20),
        ("reg S = quantum 2 junk\ndiscard S", 19),
        ("hole h : C2 -> C2 causal junk !!\nh", 26),
        ("box f : I -> C2 stochastic ;\nf", 28),
    ], ids=["symbol after width", "word after width", "word after flag", "semicolon after flag"])
    def test_trailing_tokens_in_declarations_rejected(self, text, col):
        with pytest.raises(dg.DiagramParseError) as e:
            dg.parse_diagram(text)
        assert e.value.errors[0][:2] == (1, col)
        assert "unexpected token" in e.value.errors[0][2]

    def test_declaration_flags_parse(self):
        d = dg.parse_diagram("hole h : C2 -> C2 causal stochastic\nh")
        assert d.nodes[0].flags == frozenset({"causal", "stochastic"})


class TestTypecheck:
    def test_identity_ok(self):
        assert dg.Diagram.id_wires([C2, Q2]).typecheck() == []

    def test_dangling_port(self):
        g = dg.box("f", (C2,), (C2,))
        d = dg.Diagram({0: g}, [(("in", 0), ("n", 0, 0))], (C2,), ())
        errs = d.typecheck()
        assert any("node 0" in e for e in errs)

    def test_kind_mismatch(self):
        d = dg.Diagram(
            {0: dg.discard_gen(Q2)},
            [(("in", 0), ("n", 0, 0))],
            (C2,),
            (),
        )
        errs = d.typecheck()
        assert any("connects" in e for e in errs)


class TestEvaluate:
    def test_uniform_value(self):
        assert np.allclose(dg.parse_diagram("uniform C2 1").evaluate().vector(), [0.5, 0.5])

    def test_spider_discard_contraction(self):
        d = dg.parse_diagram("spider C2 0 2 ; discard C2 * id C2")
        oracle = rc.compose_seq(
            rc.spider(C2, 2), rc.compose_par(rc.discard(C2), rc.identity([C2]))
        )
        assert np.allclose(d.evaluate().matrix, oracle.matrix)

    def test_unbound_hole(self):
        d = dg.parse_diagram("hole h : C2 -> C2\nh")
        with pytest.raises(KeyError):
            d.evaluate()

    def test_binding_type_mismatch(self):
        d = dg.parse_diagram("hole h : C2 -> C2\nh")
        with pytest.raises(TypeError):
            d.evaluate({"h": rc.identity([C3])})

    def test_interchange(self):
        rng = np.random.default_rng(5)
        f = dg.Diagram.from_generator(dg.hole("f", (C2,), (C3,)))
        g = dg.Diagram.from_generator(dg.hole("g", (C3,), (C2,)))
        h = dg.Diagram.from_generator(dg.hole("h", (Q2,), (C2,)))
        k = dg.Diagram.from_generator(dg.hole("k", (C2,), (C2,)))
        b = random_binding(
            rng,
            {"f": ((C2,), (C3,)), "g": ((C3,), (C2,)), "h": ((Q2,), (C2,)), "k": ((C2,), (C2,))},
        )
        lhs = (f.then(g)).beside(h.then(k))
        rhs = (f.beside(h)).then(g.beside(k))
        assert np.allclose(lhs.evaluate(b).matrix, rhs.evaluate(b).matrix, atol=1e-12)

    def test_contraction_order_independence(self):
        # same graph built in two different orders evaluates identically
        rng = np.random.default_rng(6)
        f = dg.Diagram.from_generator(dg.hole("f", (C2,), (C2,)))
        g = dg.Diagram.from_generator(dg.hole("g", (C2,), (C2,)))
        b = random_binding(rng, {"f": ((C2,), (C2,)), "g": ((C2,), (C2,))})
        idw = dg.Diagram.id_wires([C2])
        d1 = (f @ idw) >> (idw @ g)
        d2 = (idw @ g) >> (f @ idw)
        assert np.allclose(d1.evaluate(b).matrix, d2.evaluate(b).matrix, atol=1e-12)

    def test_dagger_commutes(self):
        rng = np.random.default_rng(7)
        d = dg.parse_diagram(
            "hole f : C2 -> Q2\nhole g : Q2 -> C2\nf ; g"
        )
        b = random_binding(rng, {"f": ((C2,), (Q2,)), "g": ((Q2,), (C2,))})
        ev = d.evaluate(b)
        bd = {k: rc.dagger_conjugate_transpose(v) for k, v in b.items()}
        evd = d.dagger().evaluate(bd)
        assert np.allclose(evd.matrix, np.conj(ev.matrix.T), atol=1e-12)

    def test_membership_by_construction(self):
        # any binding picks a member of the denoted set: evaluating the
        # diagram equals plugging the binding into the composite by hand
        rng = np.random.default_rng(8)
        d = dg.parse_diagram("hole f : C2 -> C2\nuniform C2 1 ; f")
        b = random_binding(rng, {"f": ((C2,), (C2,))})
        direct = rc.compose_seq(rc.uniform(C2, 1), b["f"])
        assert np.allclose(d.evaluate(b).matrix, direct.matrix)

    def test_pass_through_wire(self):
        d = dg.Diagram.id_wires([C2]) @ dg.parse_diagram("uniform C3 1")
        out = d.evaluate()
        oracle = rc.compose_par(rc.identity([C2]), rc.uniform(C3, 1))
        assert np.allclose(out.matrix, oracle.matrix)

    def test_layered_lanes_contract_one_piece_at_a_time(self):
        # ten `uniform C4 1` states, then ten discards: multiplying every
        # state out before a discard meets it holds 4^10 entries, 16 MB
        d = dg.parse_diagram(" * ".join(["uniform C4 1"] * 10) + " ; " + " * ".join(["discard C4"] * 10))
        tracemalloc.start()
        try:
            value = d.evaluate().number()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1, abs=1e-12)
        assert peak < 1 << 20

    def test_sixty_wires(self):
        # more wires than `np.einsum` has index letters
        d = dg.parse_diagram(" * ".join(["(uniform C4 1 ; discard C4)"] * 60))
        assert len(d.wires) == 60
        assert d.evaluate().number() == pytest.approx(1, abs=1e-12)

    def test_chsh_scoring_value(self):
        from cqcalc import protocol

        d, b = protocol.chsh_scoring_diagram()
        assert d.evaluate(b).number().real == pytest.approx(0.5 + np.sqrt(2) / 4, abs=1e-9)


class TestCanonical:
    def test_interchange_same_form(self):
        f = dg.Diagram.from_generator(dg.box("f", (C2,), (C2,)))
        g = dg.Diagram.from_generator(dg.box("g", (C3,), (C3,)))
        idc2 = dg.Diagram.id_wires([C2])
        idc3 = dg.Diagram.id_wires([C3])
        d1 = (idc3 @ f) >> (g @ idc2)
        d2 = (g @ idc2) >> (idc3 @ f)
        assert dg.diagrams_equal(d1, d2)

    def test_idempotent(self):
        d = dg.parse_diagram("uniform C2 2 ; id C2 * discard C2")
        c1 = dg.canonical_form(d)
        c2 = dg.canonical_form(c1)
        assert c1.nodes == c2.nodes and sorted(c1.wires) == sorted(c2.wires)

    def test_idempotent_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = rng.integers(1, 4)
            d = dg.Diagram.id_wires([C2])
            for i in range(n):
                d = d >> dg.Diagram.from_generator(dg.box(f"b{rng.integers(2)}", (C2,), (C2,)))
            c1 = dg.canonical_form(d)
            c2 = dg.canonical_form(c1)
            assert c1.nodes == c2.nodes and sorted(c1.wires) == sorted(c2.wires)

    def test_swap_dissolved(self):
        d = dg.parse_diagram("swap C2 C3 ; swap C3 C2")
        assert not d.nodes
        assert dg.diagrams_equal(d, dg.Diagram.id_wires([C2, C3]))


class TestPrint:
    def test_round_trip_simple(self):
        d = dg.parse_diagram("uniform C2 2 ; id C2 * discard C2")
        assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    def test_round_trip_crossing(self):
        f = dg.Diagram.from_generator(dg.box("f", (C2,), (C2,)))
        g = dg.Diagram.from_generator(dg.box("g", (C3,), (C3,)))
        d = (dg.Diagram.id_wires([C3]) @ f) >> (g @ dg.Diagram.id_wires([C2]))
        assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    def test_empty_diagram_round_trip(self):
        d = dg.Diagram.id_wires(())
        assert dg.print_diagram(d) == "id I\n"
        assert dg.parse_diagram("id I") == d

    def test_round_trip_holes_flags(self):
        d = dg.parse_diagram("hole h : C2 -> C2 causal\nh")
        d2 = dg.parse_diagram(dg.print_diagram(d))
        assert dg.diagrams_equal(d2, d)
        assert list(d2.nodes.values())[0].flags == frozenset({"causal"})

    @pytest.mark.parametrize("k", range(3, 9))
    def test_closed_lanes_print_without_swaps(self, k):
        d = dg.parse_diagram(" * ".join(["(uniform C2 1 ; discard C2)"] * k))
        text = dg.print_diagram(d)
        assert text == " * ".join(["uniform C2 1"] * k) + " ;\n" + " * ".join(["discard C2"] * k) + "\n"
        assert dg.diagrams_equal(dg.parse_diagram(text), d)

    def test_symbolic_registers_print_alike_under_any_hash_seed(self):
        source = "reg S = classical N\nreg T = classical M\nuniform S 1 * uniform T 1"
        code = f"from cqcalc import diagram as dg; print(dg.print_diagram(dg.parse_diagram({source!r})), end='')"
        src = str(Path(dg.__file__).resolve().parents[1])
        texts = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
            )
            texts.add(run.stdout)
        assert len(texts) == 1
        assert dg.diagrams_equal(dg.parse_diagram(texts.pop()), dg.parse_diagram(source))


class TestPrintRefuses:
    """print_diagram gives text that parses back to the same diagram, or
    raises ValueError."""

    @pytest.mark.parametrize("x", [0.1234567, 1e-7, 1 / 3, 5e-324, 0.25, 0.5, 1.0, 0.0])
    def test_scalar_reads_back_as_the_same_float(self, x):
        text = dg.print_diagram(dg.Diagram.from_generator(dg.scalar_gen(x)))
        (g,) = dg.parse_diagram(text).nodes.values()
        assert g.payload == x

    def test_scalar_text(self):
        texts = [dg.print_diagram(dg.Diagram.from_generator(dg.scalar_gen(x))) for x in (0.25, 0.5, 1, 1e-7)]
        assert texts == ["scalar 0.25\n", "scalar 0.5\n", "scalar 1\n", "scalar 0.0000001\n"]

    def test_box_payload_raises(self):
        d = dg.Diagram.from_generator(dg.box("f", (C2,), (C2,), rc.identity((C2,))))
        with pytest.raises(ValueError, match="payload"):
            dg.print_diagram(d)

    def test_labels_hold_at(self):
        d = dg.parse_diagram("hole S@1 : C2 -> C2\nhole R@2 : C2 -> C2\nS@1 ; R@2")
        assert sorted(g.label for g in d.nodes.values()) == ["R@2", "S@1"]
        assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    def test_proof_diagrams_at_width_1_round_trip(self):
        for d in PROOF_DIAGRAMS:
            d = d.subst({"N": 1, "M": 1})
            assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    def test_generated_names_skip_labels(self):
        d = dg.Diagram.from_generator(dg.box("f0", (C2,), (C2,))) @ dg.Diagram.from_generator(dg.box(None, (C3,), (C3,)))
        text = dg.print_diagram(d)
        assert text == "box f0 : C2 -> C2\nbox f1 : C3 -> C3\nf0 * f1\n"
        assert dg.diagrams_equal(_unnamed(dg.parse_diagram(text), {"f0"}), d)

    @pytest.mark.parametrize(
        "other",
        [dg.hole("h", (C3,), (C3,)), dg.hole("h", (C2,), (C2,), ("causal",)), dg.box("h", (C2,), (C2,))],
        ids=["type", "flags", "kind"],
    )
    def test_one_label_on_two_generators_raises(self, other):
        d = dg.Diagram.from_generator(dg.hole("h", (C2,), (C2,))) @ dg.Diagram.from_generator(other)
        with pytest.raises(ValueError, match="'h' names two different generators"):
            dg.print_diagram(d)

    @pytest.mark.parametrize("label", ["x y", "2f", "f-g", "", *sorted(dg._KEYWORDS)])
    def test_label_not_a_name_raises(self, label):
        with pytest.raises(ValueError, match="DSL name"):
            dg.print_diagram(dg.Diagram.from_generator(dg.hole(label, (C2,), (C2,))))

    def test_width_symbol_not_a_name_raises(self):
        r = rc.Register(rc.CLASSICAL, rc.SymWidth(1, "2N"))
        with pytest.raises(ValueError, match="DSL name"):
            dg.print_diagram(dg.Diagram.from_generator(dg.uniform_gen(r, 1)))

    @pytest.mark.parametrize(
        "g", [dg.hole("h", (C2,), (C2,), ("linear",)), dg.Generator(dg.UNIFORM, None, (), (C2,), flags=("causal",))]
    )
    def test_unwritable_flag_raises(self, g):
        with pytest.raises(ValueError, match="flags"):
            dg.print_diagram(dg.Diagram.from_generator(g))

    def test_box_flags_parse(self):
        d = dg.parse_diagram("box f : C2 -> C2 causal stochastic\nf")
        (g,) = d.nodes.values()
        assert g.flags == {"causal", "stochastic"}
        assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_wide_stacks_parse_back_or_raise(self, data):
        d = _wide_stack(data)
        kinds = {}
        for g in d.nodes.values():
            if g.label is not None:
                kinds.setdefault(g.label, set()).add((g.kind, g.in_ports, g.out_ports, g.flags))
        if any(len(k) > 1 for k in kinds.values()):
            with pytest.raises(ValueError, match="names two different generators"):
                dg.print_diagram(d)
            return
        again = dg.parse_diagram(dg.print_diagram(d))
        assert dg.diagrams_equal(_unnamed(again, set(kinds)), d)
        assert sorted(_scalars(again)) == sorted(_scalars(d))


class TestImmutable:
    def test_nodes_and_wires_cannot_change(self):
        d = dg.parse_diagram("uniform C2 2 ; id C2 * discard C2")
        with pytest.raises(TypeError):
            d.nodes[0] = dg.discard_gen(C2)
        with pytest.raises(AttributeError):
            d.wires.append((("in", 0), ("out", 0)))
        with pytest.raises(AttributeError):
            d.in_types = (C2,)

    def test_builder_dict_is_not_shared(self):
        nodes = {0: dg.uniform_gen(C2, 1)}
        d = dg.Diagram(nodes, [(("n", 0, 0), ("out", 0))], (), (C2,))
        nodes[1] = dg.discard_gen(C2)
        assert list(d.nodes) == [0] and d.typecheck() == []

    def test_typecheck_result_is_fresh(self):
        d = dg.parse_diagram("uniform C2 1")
        d.typecheck().append("spoiled")
        d.topo_order().append(9)
        assert d.typecheck() == [] and d.topo_order() == [0]

    def test_subst_built_once_per_values(self):
        d = dg.parse_diagram("reg S = classical N\nuniform S 1")
        one = d.subst({"N": 1})
        assert d.subst({"N": 1}) is one and d.subst({"N": np.int64(1)}) is one
        assert d.subst({"N": 2}).out_types == (rc.C(4),) and one.out_types == (C2,)

    def test_caches_are_not_fields(self):
        d = dg.parse_diagram("uniform C2 1 ; discard C2")
        fresh = repr(d)
        d.evaluate()
        d.subst({})
        assert repr(d) == fresh and d == dg.parse_diagram("uniform C2 1 ; discard C2")

    def test_boxes_with_equal_payloads_are_equal(self):
        # equal but distinct payloads: == raised ValueError (ambiguous truth value)
        payloads = [rc.ProcessTensor((C2,), (C2,), np.eye(2)) for _ in range(2)]
        d, e = (dg.Diagram.from_generator(dg.box("f", (C2,), (C2,), p)) for p in payloads)
        assert payloads[0] is not payloads[1] and d == e
        assert hash(d.nodes[0]) == hash(e.nodes[0])
        other = dg.box("f", (C2,), (C2,), rc.ProcessTensor((C2,), (C2,), np.eye(2)[::-1]))
        assert d != dg.Diagram.from_generator(other)

    def test_print_leaves_diagram_and_canonical_form(self, monkeypatch):
        f = dg.Diagram.from_generator(dg.box(None, (C2,), (C2,)))
        g = dg.Diagram.from_generator(dg.box(None, (C2,), (C2,)))
        d = f >> g
        snapshot = dg.Diagram(dict(d.nodes), list(d.wires), d.in_types, d.out_types)
        forms, canonical = [], dg.canonical_form
        monkeypatch.setattr(dg, "canonical_form", lambda *a: forms.append(canonical(*a)) or forms[-1])
        text = dg.print_diagram(d)
        assert text == "box f0 : C2 -> C2\nbox f1 : C2 -> C2\nf0 ;\nf1\n"
        assert d == snapshot
        assert forms == [canonical(d)]
        assert all(g.label is None for g in forms[0].nodes.values())

    def test_evaluate_result_shares_generator_tensor(self):
        # a lone generator's matrix is frozen already, so evaluate's
        # ProcessTensor keeps a view of it instead of a copy
        d = dg.parse_diagram("uniform C3 2")
        assert np.shares_memory(d.evaluate().matrix, rc.uniform(C3, 2).matrix)
        assert not d.evaluate().matrix.flags.writeable


class TestJson:
    def test_round_trip(self):
        d = dg.parse_diagram("hole h : C2 -> Q2\nuniform C2 1 ; h ; discard Q2")
        d2 = dg.diagram_from_json(dg.diagram_to_json(d))
        assert dg.diagrams_equal(d, d2)

    def test_symbolic_round_trip(self):
        d = dg.parse_diagram("reg S = classical N\nuniform S 2")
        d2 = dg.diagram_from_json(dg.diagram_to_json(d))
        assert dg.diagrams_equal(d, d2)

    def test_missing_boundary_types_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            dg.diagram_from_json({"nodes": [], "wires": []})

    @pytest.mark.parametrize("kind", ["swap", "identity"])
    def test_wiring_is_not_a_node_kind(self, kind):
        # identity and swap are made by Diagram.id_wires and Diagram.swap
        with pytest.raises(ValueError, match=f"malformed.*unknown generator kind '{kind}'"):
            dg.diagram_from_json(wiring_node_json(kind))

    def test_dimension_is_a_json_integer(self):
        j = dg.diagram_to_json(dg.parse_diagram("uniform C1 1 ; discard C1"))
        for reg in j["in_types"] + j["out_types"] + [r for n in j["nodes"] for r in n["in_ports"] + n["out_ports"]]:
            reg["base_dim"] = True
        with pytest.raises(ValueError, match="malformed.*positive integer"):
            dg.diagram_from_json(j)


def wiring_node_json(kind: str) -> dict:
    """Diagram JSON with one node of kind swap (two wires) or identity
    (one wire), the other fields those of a hole."""
    ports = (C2, C2) if kind == "swap" else (C2,)
    j = dg.diagram_to_json(dg.Diagram.from_generator(dg.hole("f", ports, ports)))
    j["nodes"][0].update(kind=kind, label=None)
    return j


MAX_WIRES = 4  # keeps the evaluated carriers small


# (kind, inputs a hole takes, types a hole gives)
_pieces = st.lists(
    st.tuples(
        st.sampled_from(["id", "swap", "hole"]),
        st.integers(0, 2),
        st.lists(st.sampled_from([C2, Q2]), max_size=2),
    ),
    max_size=4,
)
_types = st.lists(st.sampled_from([C2, Q2]), max_size=3).map(tuple)


def typed_layer(in_types, pieces, tag):
    """The pieces placed left to right with `@` on `in_types`: a hole,
    a swap where two wires remain, else an identity; wires that no piece
    takes pass through.  Hole labels start with `tag`; returns (layer,
    {label: (in, out)})."""
    rest, layer, holes = list(in_types), dg.Diagram.id_wires(()), {}
    for kind, n_in, outs in pieces:
        if kind == "hole":
            n_in = min(n_in, len(rest))
            room = MAX_WIRES - len(layer.out_types) - len(rest) + n_in
            label = f"{tag}{len(holes)}"
            holes[label] = (tuple(rest[:n_in]), tuple(outs[: max(0, room)]))
            part = dg.Diagram.from_generator(dg.hole(label, *holes[label]))
        elif kind == "swap" and len(rest) >= 2:
            part = dg.Diagram.swap(*rest[:2])
        elif rest:
            part = dg.Diagram.id_wires(rest[:1])
        else:
            continue
        layer = layer @ part
        rest = rest[len(part.in_types):]
    return layer @ dg.Diagram.id_wires(rest), holes


def _stack(data, tags):
    """One layer per tag, each on the previous one's outputs, the first
    on drawn types; returns (layers, {label: (in, out)})."""
    layers, holes, types = [], {}, data.draw(_types)
    for tag in tags:
        layer, h = typed_layer(types, data.draw(_pieces), tag)
        layers.append(layer)
        holes.update(h)
        types = layer.out_types
    return layers, holes


class TestCompositionLaws:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_then_associative_wire_for_wire(self, data):
        (a, b, c), _ = _stack(data, "abc")
        assert (a >> b) >> c == a >> (b >> c)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_beside_associative_wire_for_wire(self, data):
        (a,), _ = _stack(data, "a")
        (b,), _ = _stack(data, "b")
        (c,), _ = _stack(data, "c")
        assert (a @ b) @ c == a @ (b @ c)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_interchange(self, data, seed):
        (a, c), left = _stack(data, "ac")
        (b, d), right = _stack(data, "bd")
        lhs = (a @ b) >> (c @ d)
        rhs = (a >> c) @ (b >> d)
        assert dg.diagrams_equal(lhs, rhs)
        binding = _channels({**left, **right}, np.random.default_rng(seed))
        assert np.allclose(lhs.evaluate(binding).matrix, rhs.evaluate(binding).matrix, atol=1e-12, rtol=0)


def _sweep_reference(d, binding=None):
    """The single-accumulator sweep that `Diagram.evaluate` ran before it
    contracted connected pieces: every node is folded into one tensor in
    topological order, and pass-through wires are multiplied on last.
    Kept as the reference that pins `evaluate`."""
    binding = binding or {}
    by_src, by_dst = {}, {}
    for i, (s, t) in enumerate(d.wires):
        by_src[s] = i
        by_dst[t] = i

    current = np.array(1.0, dtype=complex)
    axes: list = []  # wire indices of open axes

    for nid in d.topo_order():
        g = d.nodes[nid]
        sem = g.semantics(binding)
        out_w = [by_src[("n", nid, i)] for i in range(len(g.out_ports))]
        in_w = [by_dst[("n", nid, i)] for i in range(len(g.in_ports))]
        dims = [r.total_dim for r in g.out_ports] + [r.total_dim for r in g.in_ports]
        t = np.asarray(sem.matrix).reshape(dims) if dims else np.asarray(sem.matrix).reshape(())
        node_axes = out_w + in_w
        shared = [w for w in in_w if w in axes]
        c_pos = [axes.index(w) for w in shared]
        n_pos = [node_axes.index(w) for w in shared]
        current = np.tensordot(current, t, axes=(c_pos, n_pos)) if shared else np.multiply.outer(current, t)
        axes = [w for w in axes if w not in shared] + [w for w in node_axes if w not in shared]

    # pass-through wires (boundary input straight to boundary output)
    pass_through = [
        i for i, (s, t) in enumerate(d.wires) if s[0] == "in" and t[0] == "out"
    ]
    pt_axes = {}
    for i in pass_through:
        dim = d.in_types[d.wires[i][0][1]].total_dim
        current = np.multiply.outer(current, np.eye(dim, dtype=complex))
        pt_axes[i] = (len(axes), len(axes) + 1)  # (out-side, in-side)
        axes += [("pto", i), ("pti", i)]

    # assemble boundary axis order
    out_axis, in_axis = [], []
    for k in range(len(d.out_types)):
        i = by_dst[("out", k)]
        out_axis.append(pt_axes[i][0] if i in pt_axes else axes.index(i))
    for k in range(len(d.in_types)):
        i = by_src[("in", k)]
        in_axis.append(pt_axes[i][1] if i in pt_axes else axes.index(i))
    perm = out_axis + in_axis
    if sorted(perm) != list(range(len(axes))):
        raise AssertionError("internal contraction bookkeeping error")
    current = np.transpose(current, axes=perm) if perm else current
    d_out = rc.total_dim(d.out_types)
    d_in = rc.total_dim(d.in_types)
    return rc.ProcessTensor(d.in_types, d.out_types, current.reshape(d_out, d_in))


def _closed_stack(data, tags):
    """A `_stack` composed with `>>`, fed by a uniform on some classical
    inputs and closed by a discard on some outputs, so that it can hold
    unconnected pieces next to pass-through wires."""
    layers, holes = _stack(data, tags)
    d = layers[0]
    for layer in layers[1:]:
        d = d >> layer
    pre = post = dg.Diagram.id_wires(())
    for r in d.in_types:
        feed = r.kind == rc.CLASSICAL and data.draw(st.booleans())
        pre = pre @ (dg.Diagram.from_generator(dg.uniform_gen(r, 1)) if feed else dg.Diagram.id_wires([r]))
    for r in d.out_types:
        close = data.draw(st.booleans())
        post = post @ (dg.Diagram.from_generator(dg.discard_gen(r)) if close else dg.Diagram.id_wires([r]))
    return pre >> d >> post, holes


def _wide_stack(data):
    """A `_closed_stack` in which each hole may be a payload-less box,
    unlabelled or labelled from a pool that meets the hole labels and the
    names given to unlabelled boxes, with scalars and spiders beside it."""
    d, _ = _closed_stack(data, "ab")
    labels = st.sampled_from([None, None, None, "f0", "f1", "a0"])
    flags = st.sets(st.sampled_from(["causal", "stochastic"]))
    nodes = {
        nid: dg.box(data.draw(labels), g.in_ports, g.out_ports, flags=data.draw(flags))
        if g.kind == dg.HOLE and data.draw(st.booleans())
        else g
        for nid, g in d.nodes.items()
    }
    d = dg.Diagram(nodes, d.wires, d.in_types, d.out_types)
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            part = dg.scalar_gen(data.draw(st.floats(0, 1)))
        else:
            legs = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda k: sum(k) > 0))
            part = dg.spider_gen(data.draw(st.sampled_from([C2, C3])), *legs)
        part = dg.Diagram.from_generator(part)
        d = part @ d if data.draw(st.booleans()) else d @ part
    return d


def _unnamed(d, labels):
    """d with the label taken off every box and hole whose label is not
    in labels: the names that print_diagram gave unlabelled ones."""
    nodes = {
        nid: dataclasses.replace(g, label=None) if g.kind in (dg.BOX, dg.HOLE) and g.label not in labels else g
        for nid, g in d.nodes.items()
    }
    return dg.Diagram(nodes, d.wires, d.in_types, d.out_types)


def _scalars(d):
    return [g.payload for g in d.nodes.values() if g.kind == dg.SCALAR]


def _channels(holes, rng):
    # channels, so that entries stay at most 1 and 1e-12 is a rounding bound
    return {h: rc.random_cq_channel(*io, rng) for h, io in holes.items()}


def _assert_matches_sweep(d, binding):
    assert np.allclose(d.evaluate(binding).matrix, _sweep_reference(d, binding).matrix, atol=1e-12, rtol=0)


class TestEvaluateMatchesSweep:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_closed_stacks(self, data, seed):
        d, holes = _closed_stack(data, "abc")
        _assert_matches_sweep(d, _channels(holes, np.random.default_rng(seed)))

    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_script_steps_at_base_1(self, name):
        _, records = rw.replay_script(rw.SHIPPED_SCRIPTS[name]())
        rng = np.random.default_rng(0)
        checked = 0
        for _, rule in records:
            for side in (rule.lhs, rule.rhs):
                d = side.subst({"N": 1, "M": 1})
                if d.largest_carrier > rw.DIM_CAP**2:
                    continue
                binding = {g.label: rw.sample_hole(g, rng) for g in d.opaque_nodes}
                _assert_matches_sweep(d, binding)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rule_sides(self, dim):
        rng = np.random.default_rng(dim)
        for rule in rw.builtin_rules(dim) + rw.axiom_rules():
            for side in (rule.lhs, rule.rhs):
                d = side.subst({"N": dim})
                binding = {g.label: rw.sample_hole(g, rng) for g in d.opaque_nodes}
                _assert_matches_sweep(d, binding)


class TestStructuralLaws:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dagger_involution_wire_for_wire(self, data):
        (a, b), _ = _stack(data, "ab")
        d = a >> b
        assert d.dagger().dagger() == d

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_dagger_evaluates_to_adjoint(self, data, seed):
        d, holes = _closed_stack(data, "ab")
        binding = _channels(holes, np.random.default_rng(seed))
        adjoint = {h: rc.dagger_conjugate_transpose(p) for h, p in binding.items()}
        ev = d.evaluate(binding).matrix
        assert np.allclose(d.dagger().evaluate(adjoint).matrix, ev.conj().T, atol=1e-12, rtol=0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_wire_for_wire(self, data):
        d, _ = _closed_stack(data, "ab")
        assert dg.diagram_from_json(json.loads(json.dumps(dg.diagram_to_json(d)))) == d

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dsl_round_trip(self, data):
        d, _ = _closed_stack(data, "ab")
        assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_evaluate_repeats_bytes(self, data, seed):
        # a second evaluate reuses the diagram's plan; a rebuilt equal
        # diagram plans afresh: all three give the same bytes
        d, holes = _closed_stack(data, "ab")
        text = dg.print_diagram(d)
        a, b = dg.parse_diagram(text), dg.parse_diagram(text)
        assert a == b
        binding = _channels(holes, np.random.default_rng(seed))
        first = a.evaluate(binding).matrix.tobytes()
        assert a.evaluate(binding).matrix.tobytes() == first
        assert b.evaluate(binding).matrix.tobytes() == first


# ---------------------------------------------------------------------------
# the layered printer as it was before its one-pass rewrite, kept as the
# reference that pins the text of every diagram it printed correctly


def _reference_reg_name(r, regnames):
    if r in regnames:
        return regnames[r]
    if not r.symbolic:
        name = ("C" if r.kind == rc.CLASSICAL else "Q") + str(r.base_dim)
        m = dg._AUTO_REG.match(name)
        if m:
            regnames[r] = name
            return name
    name = f"r{len(regnames)}"
    regnames[r] = name
    return name


def _reference_print(d):
    d = dg.canonical_form(d)
    regnames, lines, decls, gensym = {}, [], {}, 0
    nodes = dict(d.nodes)
    for nid, g in sorted(nodes.items()):
        if g.kind in (dg.BOX, dg.HOLE):
            label = g.label
            if label is None:
                label = f"f{gensym}"
                gensym += 1
                g = nodes[nid] = dataclasses.replace(g, label=label)
            if label not in decls:
                decls[label] = g
    d = dg.Diagram(nodes, d.wires, d.in_types, d.out_types)

    ports = [p for _, g in sorted(d.nodes.items()) for p in g.in_ports + g.out_ports]
    for r in dict.fromkeys([*d.in_types, *d.out_types, *ports]):
        nm = _reference_reg_name(r, regnames)
        if not dg._AUTO_REG.match(nm):
            dim = r.base_dim if not r.symbolic else r.base_dim.symbol
            if r.symbolic and r.base_dim.scale != 1:
                raise ValueError("cannot print scaled symbolic widths as DSL")
            lines.append(f"reg {nm} = {r.kind} {dim}")

    for label, g in sorted(decls.items()):
        tin = "*".join(_reference_reg_name(r, regnames) for r in g.in_ports) or "I"
        tout = "*".join(_reference_reg_name(r, regnames) for r in g.out_ports) or "I"
        flag = "".join(f" {f}" for f in ("causal", "stochastic") if f in g.flags)
        lines.append(f"{'box' if g.kind == dg.BOX else 'hole'} {label} : {tin} -> {tout}{flag}")

    by_src = {s: i for i, (s, t) in enumerate(d.wires)}
    by_dst = {t: i for i, (s, t) in enumerate(d.wires)}
    layer = {}
    for nid in d.topo_order():
        g = d.nodes[nid]
        lmax = 0
        for i in range(len(g.in_ports)):
            w = d.wires[by_dst[("n", nid, i)]]
            if w[0][0] == "n":
                lmax = max(lmax, layer[w[0][1]])
        layer[nid] = lmax + 1
    layers = {}
    for nid, l in layer.items():
        layers.setdefault(l, []).append(nid)

    open_wires = [by_src[("in", k)] for k in range(len(d.in_types))]
    terms = []

    def wire_reg(i):
        return d.wire_type(d.wires[i])

    def emit_permutation(target):
        nonlocal open_wires
        cur = list(open_wires)
        while cur != target:
            for j in range(len(cur) - 1):
                if target.index(cur[j]) > target.index(cur[j + 1]):
                    parts = []
                    for k2, w in enumerate(cur):
                        if k2 == j:
                            r1, r2 = wire_reg(cur[j]), wire_reg(cur[j + 1])
                            parts.append(f"swap {_reference_reg_name(r1, regnames)} {_reference_reg_name(r2, regnames)}")
                        elif k2 != j + 1:
                            parts.append(f"id {_reference_reg_name(wire_reg(w), regnames)}")
                    terms.append(" * ".join(parts))
                    cur[j], cur[j + 1] = cur[j + 1], cur[j]
                    break
        open_wires = cur

    for l in sorted(layers):
        nids = sorted(layers[l])
        needed = []
        for nid in nids:
            needed.extend(by_dst[("n", nid, i)] for i in range(len(d.nodes[nid].in_ports)))
        rest = [w for w in open_wires if w not in needed]
        emit_permutation(needed + rest)
        parts, new_open = [], []
        for nid in nids:
            g = d.nodes[nid]
            parts.append(_reference_atom_text(g, regnames))
            new_open.extend(by_src[("n", nid, i)] for i in range(len(g.out_ports)))
        parts += [f"id {_reference_reg_name(wire_reg(w), regnames)}" for w in rest]
        new_open.extend(rest)
        if parts:
            terms.append(" * ".join(parts))
        open_wires = new_open

    emit_permutation([by_dst[("out", k)] for k in range(len(d.out_types))])
    if not terms:
        terms.append(" * ".join(f"id {_reference_reg_name(r, regnames)}" for r in d.in_types) or "id I")
    return "\n".join(lines + [" ;\n".join(terms)]) + "\n"


def _reference_atom_text(g, regnames):
    if g.kind in (dg.BOX, dg.HOLE):
        return g.label
    if g.kind == dg.SPIDER:
        r = (g.in_ports + g.out_ports)[0]
        return f"spider {_reference_reg_name(r, regnames)} {len(g.in_ports)} {len(g.out_ports)}"
    if g.kind == dg.UNIFORM:
        return f"uniform {_reference_reg_name(g.out_ports[0], regnames)} {len(g.out_ports)}"
    if g.kind == dg.DISCARD:
        return f"discard {_reference_reg_name(g.in_ports[0], regnames)}"
    x = float(g.payload)
    s = f"{x:g}"
    if "e" in s or "E" in s:
        s = f"{x:.12f}"
    return f"scalar {s}"


def proof_diagrams():
    """Each shipped script's initial and final diagram, then both sides
    of every step's rule, with symbolic widths."""
    out = []
    for name in sorted(rw.SHIPPED_SCRIPTS):
        script = rw.SHIPPED_SCRIPTS[name]()
        final, records = rw.replay_script(script)
        out += [script.initial, final.diagram]
        out += [side for _, rule in records for side in (rule.lhs, rule.rhs)]
    return out


PROOF_DIAGRAMS = proof_diagrams()


class TestPrintMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_closed_stacks(self, data):
        d, _ = _closed_stack(data, "abc")
        assert dg.print_diagram(d) == _reference_print(d)

    def test_proof_diagrams_at_width_1(self):
        assert len(PROOF_DIAGRAMS) == 96
        for d in PROOF_DIAGRAMS:
            d = d.subst({"N": 1, "M": 1})
            assert dg.print_diagram(d) == _reference_print(d)

    def test_symbolic_proof_diagrams_raise_alike(self):
        raised = 0
        for d in PROOF_DIAGRAMS:
            try:
                expected = _reference_print(d)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    dg.print_diagram(d)
                raised += 1
            else:
                assert dg.print_diagram(d) == expected
        assert raised == 93
