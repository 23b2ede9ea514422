"""Tests for the budgeted rewrite engine and proof scripts."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from cqcalc import diagram as dg
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw
from cqcalc.regcalc import SymWidth

C2, C3 = rc.C(2), rc.C(3)

# one generator of each kind and flag set that a merge can fuse
MERGE_PARTS = [
    dg.uniform_gen(C2, 1),
    dg.uniform_gen(C2, 2),
    dg.discard_gen(C2),
    dg.spider_gen(C2, 1, 2),
    dg.scalar_gen(1.0),
    dg.scalar_gen(0.5),
    dg.scalar_gen(0.0),
    dg.box("f", (C2,), (C2,), rc.identity((C2,))),
    dg.box("g", (C2,), (C2,)),
    dg.hole("h0", (C2,), (C2,)),
    dg.hole("h1", (C2,), (C2,), {"stochastic"}),
    dg.hole("h2", (C2,), (C2,), {"causal"}),
    dg.hole("h3", (C2,), (C2,), {"causal", "stochastic"}),
]


def _ref_causal(g):
    if g.kind in (dg.UNIFORM, dg.DISCARD):
        return True
    if g.kind == dg.SCALAR:
        return float(g.payload) == 1.0
    if g.kind in (dg.HOLE, dg.BOX):
        return "causal" in g.flags
    return False


def _ref_stochastic(g):
    if g.kind in (dg.UNIFORM, dg.DISCARD, dg.SCALAR):
        return True
    if g.kind in (dg.HOLE, dg.BOX):
        return "causal" in g.flags or "stochastic" in g.flags
    return False


def _merged_flags(parts):
    """The flags a merge of parts infers: causal things compose
    causally, stochastic things stochastically."""
    if all(map(_ref_causal, parts)):
        return frozenset({"causal", "stochastic"})
    if all(map(_ref_stochastic, parts)):
        return frozenset({"stochastic"})
    return frozenset()


class TestEpsExpr:
    def test_addition_is_commutative(self):
        a = rw.eps(1, "N") + rw.eps(2, "N")
        b = rw.eps(2, "N") + rw.eps(1, "N")
        assert a == b
        assert str(a) == "eps(1*N) + eps(2*N)"

    def test_budget_eval_eps_sum(self):
        e = rw.eps(1, "N") + rw.eps(2, "N") + rw.eps(4, "N") + rw.eps(8, "N")
        res = rw.budget_eval(e, lambda n: 2.0**-n, N=1)
        assert res["value"] == 2**-1 + 2**-2 + 2**-4 + 2**-8
        assert not res["divergent"]

    def test_budget_eval_sqrt_atom(self):
        e = rw.sqrt2eps(rw.eps(1, "N", fn="delta"))
        fns = {"delta": lambda n: 2.0**-n}
        res = rw.budget_eval(e, fns, N=4)
        assert res["value"] == pytest.approx(math.sqrt(2 * 2.0**-4), abs=1e-15)

    def test_infinite_sum_geometric_tail(self):
        res = rw.budget_eval(rw.lam(1, "N"), rw.ExpDecay(1.0, 1.0), N=2)
        oracle = sum(2.0 ** -(2**i * 2) for i in range(60))
        assert not res["divergent"]
        assert res["tail_bound"] >= 0
        assert res["value"] == pytest.approx(oracle, abs=1e-12)
        assert res["value"] >= oracle  # upper bound, not an estimate

    def test_infinite_sum_divergence_flag(self):
        res = rw.budget_eval(rw.lam(1, "N"), lambda n: 0.1, N=1)
        assert res["divergent"]

    def test_json_round_trip(self):
        e = rw.const(0.5) + rw.eps(2, "M") + rw.sqrt2eps(rw.eps(1, "M", fn="delta"))
        assert rw.eps_expr_from_json(rw.eps_expr_to_json(e)) == e


class TestMatcher:
    def test_unique_hole_match(self):
        s = rw.SHIPPED_SCRIPTS["single_stage"]()
        rule = rw.rule_expand_S(1, "M")
        ms = rw.find_matches(s.initial, rule.lhs)
        assert len(ms) == 1
        assert ms[0].loc == (1,)

    def test_attachment_into_matched_region_rejected(self):
        # a pattern that covers both endpoints of a wire without
        # containing that wire cannot embed
        host = dg.Diagram(
            {0: dg.uniform_gen(C2, 1), 1: dg.discard_gen(C2)},
            [(("n", 0, 0), ("n", 1, 0))],
            (),
            (),
        )
        pattern = dg.Diagram(
            {0: dg.uniform_gen(C2, 1), 1: dg.discard_gen(C2)},
            [(("n", 0, 0), ("out", 0)), (("in", 0), ("n", 1, 0))],
            (C2,),
            (C2,),
        )
        assert rw.find_matches(host, pattern) == []

    def test_boundary_input_fed_from_inside_rejected(self):
        # the pattern's discard takes a boundary input; in the host the
        # uniform that the match also covers feeds it.  The discard comes
        # first, so its wire is the first that the matcher checks
        pattern = dg.parse_diagram("discard C2 * uniform C2 1")
        assert rw.find_matches(dg.parse_diagram("uniform C2 1 ; discard C2"), pattern) == []
        lanes = dg.parse_diagram("(uniform C2 1 ; discard C2) * (uniform C2 1 ; discard C2)")
        assert len(rw.find_matches(lanes, pattern)) == 2

    def test_uniform_leg_permutation(self):
        # the pattern's discarded leg may be either host leg
        host = dg.Diagram(
            {0: dg.uniform_gen(C2, 2), 1: dg.discard_gen(C2), 2: dg.discard_gen(C2)},
            [(("n", 0, 0), ("n", 1, 0)), (("n", 0, 1), ("n", 2, 0))],
            (),
            (),
        )
        pattern = rw.rule_uniform_absorbs_discard(C2).lhs
        found = rw.find_matches(host, pattern)
        assert len(found) == 2
        assert rw.find_matches(host, pattern, (0, 2)) == [m for m in found if m.loc == (0, 2)]

    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_search_within_loc_finds_the_whole_host_matches(self, name):
        # apply_rule searches only the loc nodes and applies the first match
        script = rw.SHIPPED_SCRIPTS[name]()
        state = rw.RewriteState(script.initial)
        for step in script.steps:
            before = state.diagram
            state, rule = rw._step_apply(state, step)
            if rule.name != "merge":
                loc = tuple(sorted(step["loc"]))
                whole = [m for m in rw.find_matches(before, rule.lhs) if m.loc == loc]
                assert whole and [m for m in rw.find_matches(before, rule.lhs, loc) if m.loc == loc] == whole

    def test_flags_must_agree(self):
        host = dg.Diagram.from_generator(dg.hole("h", (C2,), (C2,)))
        pattern = dg.Diagram.from_generator(dg.hole("h", (C2,), (C2,), ("causal",)))
        assert rw.find_matches(host, pattern) == []


class TestApply:
    def host(self):
        return dg.Diagram(
            {0: dg.uniform_gen(C2, 2), 1: dg.discard_gen(C2)},
            [(("n", 0, 0), ("out", 0)), (("n", 0, 1), ("n", 1, 0))],
            (),
            (C2,),
        )

    def test_exact_rule_keeps_budget(self):
        state = rw.RewriteState(self.host())
        rule = rw.rule_uniform_absorbs_discard(C2)
        new, loc = rw.apply_rule(state, rule)
        assert loc == (0, 1)
        assert new.budget == rw.EpsExpr.zero()
        assert np.allclose(new.diagram.evaluate().vector(), [0.5, 0.5])

    def test_fresh_node_ids(self):
        state = rw.RewriteState(self.host())
        new, _ = rw.apply_rule(state, rw.rule_uniform_absorbs_discard(C2))
        assert set(new.diagram.nodes) == {2}

    def test_wrong_loc_reports_candidates(self):
        state = rw.RewriteState(self.host())
        with pytest.raises(rw.RewriteError) as e:
            rw.apply_rule(state, rw.rule_uniform_absorbs_discard(C2), loc=(5, 6))
        assert "(0, 1)" in str(e.value)

    def test_miss_message_bytes(self):
        state = rw.RewriteState(self.host())
        with pytest.raises(rw.RewriteError) as e:
            rw.apply_rule(state, rw.rule_uniform_absorbs_discard(C2), loc=(6, 5))
        assert str(e.value) == (
            "rule 'uniform_absorbs_discard' does not match at (5, 6); candidate locations: [(0, 1)]"
        )
        with pytest.raises(rw.RewriteError) as e:
            rw.apply_rule(state, rw.rule_widen_uniform(C3))
        assert str(e.value) == "rule 'widen_uniform' does not match at None; candidate locations: []"

    def test_axiom_rule_adds_cost(self):
        s = rw.script_spot_check_lemma()
        state = rw.RewriteState(s.initial)
        new, _ = rw.apply_rule(state, rw.rule_spot_check(1, "N"))
        assert new.budget == rw.eps(1, "N")

    def test_boundary_mismatch_rejected(self):
        lhs = dg.Diagram.from_generator(dg.uniform_gen(C2, 1))
        rhs = dg.Diagram.from_generator(dg.uniform_gen(C3, 1))
        with pytest.raises(ValueError):
            rw.RewriteRule("bad", lhs, rhs)


class TestSurgical:
    def test_merge_preserves_semantics(self):
        rng = np.random.default_rng(0)
        d = dg.parse_diagram("hole f : C2 -> C2\nhole g : C2 -> C2\nuniform C2 1 ; f ; g")
        binding = {
            "f": rc.random_cq_channel((C2,), (C2,), rng),
            "g": rc.random_cq_channel((C2,), (C2,), rng),
        }
        before = d.evaluate(binding)
        fid = [n for n, g in d.nodes.items() if g.label == "f"][0]
        gid = [n for n, g in d.nodes.items() if g.label == "g"][0]
        merged, rule = rw.merge_step(d, (fid, gid), "fg")
        binding["fg"] = rule.lhs.evaluate(binding)
        assert np.allclose(merged.evaluate(binding).matrix, before.matrix, atol=1e-12)

    def test_merge_is_an_exact_rule_that_derives_its_hole(self):
        d = dg.parse_diagram("hole f : C2 -> C2\nhole g : C2 -> C2 causal\nuniform C2 1 ; f ; g")
        holes = tuple(n for n, g in d.nodes.items() if g.kind == dg.HOLE)
        _, rule = rw.merge_step(d, holes, "fg")
        assert (rule.name, rule.validation_mode, rule.binding_mode) == ("merge", "exact", "derive_rhs")
        assert not rule.cost
        for seed in range(3):
            assert rw.rule_distance(rule, {}, np.random.default_rng(seed)) <= 1e-12

    def test_merge_flag_inference(self):
        d = dg.parse_diagram("hole f : C2 -> C2 causal\nuniform C2 1 ; f")
        merged, _ = rw.merge_step(d, tuple(d.nodes), "all")
        (g,) = merged.nodes.values()
        assert g.flags == frozenset({"causal", "stochastic"})

    @pytest.mark.parametrize("size", [1, 2])
    def test_merge_flags_per_generator_kind(self, size):
        # every one-node merge and every two-node mix of the kinds
        for parts in itertools.combinations_with_replacement(MERGE_PARTS, size):
            d = dg.Diagram({}, (), (), ())
            for g in parts:
                d = d @ dg.Diagram.from_generator(g)
            merged, _ = rw.merge_step(d, tuple(d.nodes), "merged")
            (g,) = merged.nodes.values()
            assert g.flags == _merged_flags(parts), parts

    def test_causality_discards_inputs(self):
        rng = np.random.default_rng(1)
        d = dg.parse_diagram("hole f : C2 * Q2 -> C2 causal\nf ; discard C2")
        fid = [n for n, g in d.nodes.items() if g.kind == dg.HOLE][0]
        new, _ = rw.apply_rule(rw.RewriteState(d), rw.rule_causality(d.nodes[fid]))
        assert sorted(g.kind for g in new.diagram.nodes.values()) == [dg.DISCARD] * 2
        binding = {"f": rc.random_cq_channel((C2, rc.Q(2)), (C2,), rng, causal=True)}
        assert np.allclose(
            new.diagram.evaluate().matrix, d.evaluate(binding).matrix, atol=1e-12
        )

    def test_causality_discards_every_output(self):
        d = dg.parse_diagram(
            "hole f : C2 -> C2 * C3 causal\nf ; (discard C2 * discard C3)"
        )
        fid = [n for n, g in d.nodes.items() if g.kind == dg.HOLE][0]
        new, loc = rw.apply_rule(rw.RewriteState(d), rw.rule_causality(d.nodes[fid]))
        assert loc == tuple(sorted(d.nodes))
        (g,) = new.diagram.nodes.values()
        assert g == dg.discard_gen(C2)

    def test_causality_requires_causal_flag(self):
        d = dg.parse_diagram("hole f : C2 -> C2\nf ; discard C2")
        fid = [n for n, g in d.nodes.items() if g.kind == dg.HOLE][0]
        with pytest.raises(rw.RewriteError):
            rw.rule_causality(d.nodes[fid])

    def test_absorb_and_widen_are_inverse(self):
        d = dg.Diagram(
            {0: dg.uniform_gen(C3, 1)}, [(("n", 0, 0), ("out", 0))], (), (C3,)
        )
        widened, _ = rw.apply_rule(rw.RewriteState(d), rw.rule_widen_uniform(C3))
        back, _ = rw.apply_rule(widened, rw.rule_uniform_absorbs_discard(C3))
        assert dg.diagrams_equal(back.diagram, d)
        assert np.allclose(back.diagram.evaluate().vector(), d.evaluate().vector())
        assert np.allclose(widened.diagram.evaluate().vector(), d.evaluate().vector())

    def test_absorb_three_legs_keeps_leg_order(self):
        # the middle leg is discarded; the two kept legs stay in order
        d = dg.Diagram(
            {0: dg.uniform_gen(C2, 3), 1: dg.discard_gen(C2), 2: dg.box("f", (C2,), (C3,))},
            [
                (("n", 0, 0), ("out", 0)),
                (("n", 0, 1), ("n", 1, 0)),
                (("n", 0, 2), ("n", 2, 0)),
                (("n", 2, 0), ("out", 1)),
            ],
            (),
            (C2, C3),
        )
        new, loc = rw.apply_rule(rw.RewriteState(d), rw.rule_uniform_absorbs_discard(C2, 3))
        assert loc == (0, 1)
        want = dg.Diagram(
            {0: dg.uniform_gen(C2, 2), 1: dg.box("f", (C2,), (C3,))},
            [(("n", 0, 0), ("out", 0)), (("n", 0, 1), ("n", 1, 0)), (("n", 1, 0), ("out", 1))],
            (),
            (C2, C3),
        )
        assert dg.diagrams_equal(new.diagram, want)
        rng = np.random.default_rng(2)
        f = {"f": rc.random_cq_channel((C2,), (C3,), rng)}
        assert np.allclose(new.diagram.evaluate(f).matrix, d.evaluate(f).matrix, atol=1e-12)

    def test_leg_rules_restricted_to_classical(self):
        with pytest.raises(rw.RewriteError):
            rw.rule_widen_uniform(rc.Q(2))
        with pytest.raises(rw.RewriteError):
            rw.rule_uniform_absorbs_discard(rc.Q(2))

    def test_absorb_needs_two_legs(self):
        with pytest.raises(rw.RewriteError):
            rw.rule_uniform_absorbs_discard(C2, legs=1)


class TestRuleLibrary:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_builtin_rules_exact(self, dim):
        for rule in rw.builtin_rules(dim):
            for seed in range(5):
                rng = np.random.default_rng(100 * dim + seed)
                assert rw.rule_distance(rule, {}, rng) <= 1e-12, rule.name

    def test_draws_fresh_holes(self):
        assert [r.name for r in rw.builtin_rules(2) if rw.draws_fresh_holes(r)] == ["causality"]
        assert all(rw.draws_fresh_holes(r) for r in rw.axiom_rules())
        assert not rw.draws_fresh_holes(_merge_rule())
        # a box without a payload is drawn like a hole
        box = dg.box("g", (C2,), (C2,))
        assert rw.draws_fresh_holes(rw.RewriteRule("box", rw._gen(box), rw._gen(box)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rules_without_fresh_holes_ignore_the_rng(self, dim):
        # under an empty binding, a rule that draws no fresh hole gives the
        # same bytes for every rng
        for rule in rw.builtin_rules(dim) + [_merge_rule()]:
            if not rw.draws_fresh_holes(rule):
                dists = {repr(rw.rule_distance(rule, {}, np.random.default_rng(s))) for s in range(3)}
                assert len(dists) == 1, rule.name

    def test_axiom_rules_well_formed(self):
        for rule in rw.axiom_rules():
            assert rule.validation_mode == "axiom"
            assert rule.cost
            rng = np.random.default_rng(0)
            # both sides evaluate on a common boundary; the deviation is
            # finite and recorded, never asserted against the cost
            assert np.isfinite(rw.rule_distance(rule, {}, rng, {"N": 1}))

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("index", range(4), ids=[r.name for r in rw.axiom_rules()])
    def test_check_step_measures_the_self_test_distance(self, index, seed):
        # check and rules share one numeric check: a one-step script from
        # an axiom's lhs reports the distance that the rules self-test measures
        rule = rw.axiom_rules()[index]
        step = {
            "rule": rule.name.split("@")[0],
            "loc": tuple(sorted(rule.lhs.nodes)),
            "params": {"scale": 1, "base": "N"},
        }
        script = rw.ProofScript(rule.name, rule.lhs, [step], rule.cost)
        rep = rw.run_script(script, dims={"N": 1}, seed=seed)
        assert rep["verified"] and rep["steps"][0]["status"] == "axiom"
        want = rw.rule_distance(rule, {}, np.random.default_rng(seed), {"N": 1})
        assert rep["steps"][0]["distance"] == want

    @pytest.mark.parametrize(
        "mode,dist,want",
        [
            ("exact", None, ("skipped", True)),
            ("exact", 0.0, ("exact-ok", True)),
            ("exact", 1e-9, ("exact-ok", True)),
            ("exact", 2e-9, ("exact-failed", False)),
            ("exact", math.inf, ("exact-failed", False)),
            ("exact", math.nan, ("exact-failed", False)),
            ("axiom", None, ("skipped", True)),
            ("axiom", 0.75, ("axiom", True)),
            ("axiom", math.inf, ("axiom-failed", False)),
            ("axiom", math.nan, ("axiom-failed", False)),
        ],
    )
    def test_verdict(self, mode, dist, want):
        # the one judgement of a distance that check and rules share
        rule = next(r for r in rw.builtin_rules(2) + rw.axiom_rules() if r.validation_mode == mode)
        assert rw.verdict(rule, dist, 1e-9) == want


def _merge_rule():
    d = dg.parse_diagram("hole f : C2 -> C2\nhole g : C2 -> C2 causal\nuniform C2 1 ; f ; g")
    holes = tuple(n for n, g in d.nodes.items() if g.kind == dg.HOLE)
    return rw.merge_step(d, holes, "fg")[1]


def _count_evaluations(monkeypatch, rule):
    """Count Diagram.evaluate calls on each side of rule."""
    calls = {"lhs": 0, "rhs": 0}
    evaluate = dg.Diagram.evaluate

    def counted(self, binding=None):
        calls["lhs" if self is rule.lhs else "rhs"] += 1
        return evaluate(self, binding)

    monkeypatch.setattr(dg.Diagram, "evaluate", counted)
    return calls


class TestRuleDistanceEvaluations:
    # a derive mode's source side is evaluated once, and that value binds
    # the derived hole; the derived side, the hole alone, then equals it by
    # construction and is not evaluated
    @pytest.mark.parametrize(
        "make_rule", [lambda: rw.rule_expand_S(1, 3), _merge_rule], ids=["expand_S", "merge"]
    )
    def test_derive_mode_evaluates_each_side_once(self, monkeypatch, make_rule):
        rule = make_rule()
        calls = _count_evaluations(monkeypatch, rule)
        binding = {}
        dist = rw.rule_distance(rule, binding, np.random.default_rng(3))
        src = "rhs" if rule.binding_mode == "derive_lhs" else "lhs"
        assert calls == {"lhs": 0, "rhs": 0, src: 1}
        # the two-evaluation path, under the binding just made
        want = np.abs(rule.lhs.evaluate(binding).matrix - rule.rhs.evaluate(binding).matrix).max()
        assert dist == float(want)
        # with the derived label already bound, both sides are evaluated
        calls.update(lhs=0, rhs=0)
        assert rw.rule_distance(rule, binding, np.random.default_rng(3)) == dist
        assert calls == {"lhs": 1, "rhs": 1}

    def test_fresh_rule_evaluates_both_sides(self, monkeypatch):
        (rule,) = [r for r in rw.builtin_rules(2) if r.name == "causality"]
        calls = _count_evaluations(monkeypatch, rule)
        rw.rule_distance(rule, {}, np.random.default_rng(0))
        assert calls == {"lhs": 1, "rhs": 1}

    def test_nan_entry_gives_nan(self):
        # one NaN among finite entries: the largest entry is NaN, as with
        # np.abs(lhs - rhs).max()
        (rule,) = [r for r in rw.builtin_rules(2) if r.name == "causality"]
        (h,) = rule.lhs.opaque_nodes
        m = rw.sample_hole(h, np.random.default_rng(0)).matrix.copy()
        m[0, 0] = np.nan
        dist = rw.rule_distance(rule, {h.label: rc.ProcessTensor(h.in_ports, h.out_ports, m)}, None)
        assert math.isnan(dist)


def _run_script_every_derived_hole(script, dims, seed, tol=1e-9):
    """run_script as it was before read sets: every derived hole is
    bound to its evaluated source side, read later or not.  The
    reference for the read set, which must leave every byte as is."""
    state, records = rw.replay_script(script)
    rng, binding, verified, steps = np.random.default_rng(seed), {}, True, []
    for step, rule in records:
        for label in rw._new_labels(rule):
            binding.pop(label, None)
        dist = rw.rule_distance(rule, binding, rng, dims, rw.DIM_CAP**2)
        status, ok = rw.verdict(rule, dist, tol)
        verified = verified and ok
        steps.append(
            {"rule": step["rule"], "loc": list(step["loc"]), "cost": str(rule.cost), "status": status, "distance": dist}
        )
    claimed_matches = state.budget == script.claimed_total
    return {
        "format_version": rw.CHECK_FORMAT_VERSION,
        "script": script.name,
        "verified": verified and claimed_matches,
        "claimed_total_matches": claimed_matches,
        "budget": str(state.budget),
        "budget_atoms": rw.eps_expr_to_json(state.budget),
        "budget_numeric": None,
        "steps": steps,
        "final": dg.diagram_to_json(state.diagram),
    }


class TestLaterReads:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_report_matches_every_derived_hole_reference(self, name, value, seed):
        script = rw.SHIPPED_SCRIPTS[name]()
        dims = {"M" if name == "single_stage" else "N": value}
        got = rw.run_script(script, dims=dims, seed=seed)
        want = _run_script_every_derived_hole(script, dims, seed)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_later_reads_of_soundness_k2(self):
        # the second stage's merge reads T1 and the residual merge reads
        # T2; no step reads an expanded stage or the residual
        _, records = rw.replay_script(rw.script_soundness_k2())
        derived = {}
        for (step, rule), read in zip(records, rw._later_reads(records)):
            if rule.binding_mode != "fresh":
                side = rule.lhs if rule.binding_mode == "derive_lhs" else rule.rhs
                ((label,),) = [[g.label for g in side.opaque_nodes]]
                derived[label] = label in read
        assert derived == {"S@1": False, "T1": True, "S@4": False, "T2": True, "residual": False}

    def test_a_reintroduced_label_ends_the_read(self):
        # a later step that introduces the label draws it anew, so the
        # earlier value is read only by the steps between
        rule = _merge_rule()
        fresh = rw.RewriteRule("again", rule.lhs, rule.lhs)
        records = [(None, rule), (None, rw.RewriteRule("use", rule.rhs, rule.rhs)), (None, fresh)]
        assert [("fg" in r) for r in rw._later_reads(records)] == [True, False, False]
        records = [(None, rule), (None, rw.RewriteRule("redefine", rule.lhs, rule.rhs))]
        assert [("fg" in r) for r in rw._later_reads(records)] == [False, False]

    @pytest.mark.parametrize(
        "make_rule", [lambda: rw.rule_expand_S(1, 3), _merge_rule], ids=["expand_S", "merge"]
    )
    def test_unread_derived_hole_is_drawn_not_evaluated(self, monkeypatch, make_rule):
        rule = make_rule()
        read_binding, every_binding, every_rng = {}, {}, np.random.default_rng(3)
        want = rw.rule_distance(rule, every_binding, every_rng)
        calls = _count_evaluations(monkeypatch, rule)
        rng = np.random.default_rng(3)
        assert rw.rule_distance(rule, read_binding, rng, read=frozenset()) == want == 0.0
        assert calls == {"lhs": 0, "rhs": 0}
        # the source side's holes are drawn as before, from the same stream
        derived = set(every_binding) - set(read_binding)
        assert len(derived) == 1 and read_binding.keys() <= every_binding.keys()
        for label, p in read_binding.items():
            assert p.matrix.tobytes() == every_binding[label].matrix.tobytes()
        assert rng.bit_generator.state == every_rng.bit_generator.state


class TestScripts:
    def test_single_stage_budget(self):
        s = rw.SHIPPED_SCRIPTS["single_stage"]()
        assert s.claimed_total == rw.eps(1, "M") + rw.eps(2, "M")

    def test_single_stage_is_chain_k1_at_base_M(self):
        # same steps, initial diagram and claimed total; only the name differs
        want = dataclasses.replace(rw.script_chain(1, "M"), name="single_stage")
        assert rw.SHIPPED_SCRIPTS["single_stage"]() == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chain_budget(self, k):
        s = rw.script_chain(k)
        want = rw.EpsExpr.zero()
        for i in range(2 * k):
            want = want + rw.eps(2**i, "N")
        assert s.claimed_total == want

    def test_spot_check_lemma_budget(self):
        s = rw.script_spot_check_lemma()
        d = rw.eps(1, "N", fn="delta")
        assert s.claimed_total == d + rw.sqrt2eps(d)

    def test_soundness_final_form(self):
        s = rw.script_soundness_k2()
        final = rw.replay_script(s)[0].diagram
        assert dg.diagrams_equal(final, rw.ure_final_form(), anonymize_holes=True)

    def test_soundness_budget_numeric(self):
        s = rw.script_soundness_k2()
        rep = rw.run_script(s, eps_fns=lambda n: 2.0**-n, N=1)
        assert rep["budget_numeric"]["value"] == 0.81640625

    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_replay_verifies(self, name):
        s = rw.SHIPPED_SCRIPTS[name]()
        base = "M" if name == "single_stage" else "N"
        rep = rw.run_script(s, dims={base: 1}, seed=0)
        assert rep["verified"]
        assert rep["claimed_total_matches"]
        for st in rep["steps"]:
            assert st["status"] in ("exact-ok", "axiom", "skipped")

    def test_exact_steps_validate_tightly(self):
        rep = rw.run_script(rw.SHIPPED_SCRIPTS["single_stage"](), dims={"M": 1}, seed=3)
        ran = [st for st in rep["steps"] if st["status"] == "exact-ok"]
        assert ran and all(st["distance"] <= 1e-9 for st in ran)

    def assert_json_round_trip(self, s):
        s2 = rw.script_from_json(rw.script_to_json(s))
        assert s2.claimed_total == s.claimed_total
        final1 = rw.replay_script(s)[0]
        final2 = rw.replay_script(s2)[0]
        assert dg.diagrams_equal(final1.diagram, final2.diagram)
        assert final1.budget == final2.budget

    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_shipped_script_is_built_once(self, name):
        assert rw.SHIPPED_SCRIPTS[name]() is rw.SHIPPED_SCRIPTS[name]()

    def test_chain_is_shared_with_the_shipped_scripts(self):
        assert rw.SHIPPED_SCRIPTS["chain_k2"]() is rw.script_chain(2)

    def test_chain_is_built_once_however_it_is_called(self):
        chain = rw.script_chain(1)
        assert rw.script_chain(1, "N") is chain and rw.script_chain(k=1) is chain
        assert rw.script_chain(k=1, base="N") is chain

    @pytest.mark.parametrize("name", sorted(rw.SHIPPED_SCRIPTS))
    def test_script_equals_its_json_round_trip(self, name):
        s = rw.SHIPPED_SCRIPTS[name]()
        assert rw.script_from_json(rw.script_to_json(s)) == s

    @pytest.mark.parametrize("source", ["shipped", "loaded"])
    def test_steps_cannot_be_edited(self, source):
        s = rw.script_soundness_k2()
        if source == "loaded":
            s = rw.script_from_json(json.loads(json.dumps(rw.script_to_json(s))))
        step = next(st for st in s.steps if st["params"])
        with pytest.raises(TypeError):
            s.steps[-1]["params"] = {"name": "f"}
        with pytest.raises(TypeError):
            step["params"]["scale"] = 2
        with pytest.raises(TypeError):
            step["loc"][0] = 0
        with pytest.raises(AttributeError):
            s.steps.append(step)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.steps = ()
        assert s == rw.script_soundness_k2()

    def test_script_json_round_trip(self):
        self.assert_json_round_trip(rw.script_chain(2))

    def test_script_json_round_trip_structural_steps(self):
        # the only shipped script with causality, absorb and widen steps
        self.assert_json_round_trip(rw.script_soundness_k2())

    def test_step_cost_is_the_rule_cost(self):
        # a step that adds a smaller atom than the budget already holds
        # must still report its own cost
        lhs1 = rw.rule_spot_check(1, "N").lhs
        lhs2 = rw.rule_spot_check(2, "N").lhs
        state = rw.RewriteState(lhs1 @ lhs2)
        steps = []
        for scale in (2, 1):
            state, loc = rw.apply_rule(state, rw.rule_spot_check(scale, "N"))
            steps.append({"rule": "spot_check", "loc": loc, "params": {"scale": scale, "base": "N"}})
        script = rw.ProofScript("two", lhs1 @ lhs2, steps, state.budget)
        rep = rw.run_script(script)
        assert [st["cost"] for st in rep["steps"]] == ["eps(2*N)", "eps(1*N)"]
        assert rep["verified"]

    @pytest.mark.parametrize("rule,label", [("spot_check", "B@1"), ("starting_soundness", "R@1")])
    def test_new_node_may_not_take_the_label_of_a_node_left_in_place(self, rule, label):
        # holes that share a label denote one process: spot_check adds a
        # B@1 next to the one already there; starting_soundness keeps its
        # R@1, so a second R@1 outside its loc stays the same process
        lhs = rw.rule_spot_check(1, "N").lhs
        other = dg.Diagram.from_generator(dg.hole(label, (C2,), (C2,)))
        step = {"rule": rule, "loc": tuple(sorted(lhs.nodes)), "params": {"scale": 1, "base": "N"}}
        script = rw.ProofScript("reuse", lhs @ other, [step], rw.EpsExpr.zero())
        if rule == "starting_soundness":
            rw.replay_script(script)
        else:
            with pytest.raises(rw.RewriteError, match="B@1"):
                rw.replay_script(script)

    def test_report_is_deterministic_json(self):
        s = rw.SHIPPED_SCRIPTS["single_stage"]()
        r1 = rw.run_script(s, dims={"M": 1}, seed=7)
        r2 = rw.run_script(s, dims={"M": 1}, seed=7)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# ---------------------------------------------------------------------------
# the rule library and shipped diagrams with node ids and port wires listed
# by hand: the composed constructions must reproduce them


DEV, SIDE, STOCH, CAUSAL = rw.DEV, rw.SIDE, rw.STOCH, rw.CAUSAL


def _hw_cw(scale, base):
    return rc.C(SymWidth(scale, base)) if isinstance(base, str) else rc.C(base)


def _hw_widths(scale, base):
    return _hw_cw(scale, base), _hw_cw(2 * scale, base if isinstance(base, str) else base * base)


def _hw_expand_S_rhs(scale, base):
    w, w2 = _hw_widths(scale, base)
    w4 = _hw_cw(4 * scale, base if isinstance(base, str) else base**4)
    R1 = dg.hole(f"R@{scale}", (w, DEV), (w2, DEV), STOCH)
    R2 = dg.hole(f"R@{2 * scale}", (w2, DEV), (w4, DEV), STOCH)
    return dg.Diagram(
        {0: R1, 1: R2},
        [
            (("in", 0), ("n", 0, 0)),
            (("in", 1), ("n", 0, 1)),
            (("in", 2), ("n", 1, 1)),
            (("n", 0, 0), ("n", 1, 0)),
            (("n", 1, 0), ("out", 0)),
            (("n", 0, 1), ("out", 1)),
            (("n", 1, 1), ("out", 2)),
        ],
        (w, DEV, DEV),
        (w4, DEV, DEV),
    )


def _hw_spot_lhs(scale, base, hole_label):
    w, w2 = _hw_widths(scale, base)
    R = dg.hole(hole_label, (w, DEV), (w2, DEV), STOCH)
    return dg.Diagram(
        {0: dg.uniform_gen(w, 2), 1: R},
        [
            (("n", 0, 0), ("out", 0)),
            (("n", 0, 1), ("n", 1, 0)),
            (("in", 0), ("n", 1, 1)),
            (("n", 1, 0), ("out", 1)),
            (("n", 1, 1), ("out", 2)),
        ],
        (DEV,),
        (w, w2, DEV),
    )


def _hw_starting_soundness_rhs(scale, base):
    w, w2 = _hw_widths(scale, base)
    R = dg.hole(f"R@{scale}", (w, DEV), (w2, DEV), STOCH)
    return dg.Diagram(
        {0: dg.uniform_gen(w, 2), 1: R, 2: dg.discard_gen(w2), 3: dg.uniform_gen(w2, 1)},
        [
            (("n", 0, 0), ("out", 0)),
            (("n", 0, 1), ("n", 1, 0)),
            (("in", 0), ("n", 1, 1)),
            (("n", 1, 0), ("n", 2, 0)),
            (("n", 3, 0), ("out", 1)),
            (("n", 1, 1), ("out", 2)),
        ],
        (DEV,),
        (w, w2, DEV),
    )


def _hw_adjustment_completeness(scale, base):
    w, w2 = _hw_widths(scale, base)
    lhs = dg.Diagram({0: dg.uniform_gen(w2, 1)}, [(("n", 0, 0), ("out", 0))], (), (w2,))
    R = dg.hole(f"R@{scale}", (w, DEV), (w2, DEV), STOCH)
    G = dg.hole("honest_state", (), (DEV,), frozenset({"causal", "stochastic"}))
    rhs = dg.Diagram(
        {0: dg.uniform_gen(w, 1), 1: G, 2: R, 3: dg.discard_gen(DEV)},
        [
            (("n", 0, 0), ("n", 2, 0)),
            (("n", 1, 0), ("n", 2, 1)),
            (("n", 2, 0), ("out", 0)),
            (("n", 2, 1), ("n", 3, 0)),
        ],
        (),
        (w2,),
    )
    return lhs, rhs


def _hw_uniform_absorbs_discard_lhs(reg, legs):
    return dg.Diagram(
        {0: dg.uniform_gen(reg, legs), 1: dg.discard_gen(reg)},
        [(("n", 0, p), ("out", p)) for p in range(legs - 1)] + [(("n", 0, legs - 1), ("n", 1, 0))],
        (),
        (reg,) * (legs - 1),
    )


def _hw_spider_fusion_lhs(reg):
    return dg.Diagram(
        {0: dg.spider_gen(reg, 0, 3), 1: dg.spider_gen(reg, 1, 2)},
        [
            (("n", 0, 0), ("out", 0)),
            (("n", 0, 1), ("out", 1)),
            (("n", 0, 2), ("n", 1, 0)),
            (("n", 1, 0), ("out", 2)),
            (("n", 1, 1), ("out", 3)),
        ],
        (),
        (reg,) * 4,
    )


def _hw_causality(h):
    n_in = len(h.in_ports)
    lhs = dg.Diagram(
        {0: h, **{1 + j: dg.discard_gen(r) for j, r in enumerate(h.out_ports)}},
        [(("in", i), ("n", 0, i)) for i in range(n_in)]
        + [(("n", 0, j), ("n", 1 + j, 0)) for j in range(len(h.out_ports))],
        h.in_ports,
        (),
    )
    rhs = dg.Diagram(
        {i: dg.discard_gen(r) for i, r in enumerate(h.in_ports)},
        [(("in", i), ("n", i, 0)) for i in range(n_in)],
        h.in_ports,
        (),
    )
    return lhs, rhs


def _hw_uniform_is_scaled_spider_rhs(reg):
    return dg.Diagram(
        {0: dg.spider_gen(reg, 0, 2), 1: dg.scalar_gen(1.0 / reg.total_dim)},
        [(("n", 0, 0), ("out", 0)), (("n", 0, 1), ("out", 1))],
        (),
        (reg, reg),
    )


def _hw_single_stage_initial(base):
    w1, w4 = rw._w(1, base), rw._w(4, base)
    S = dg.hole("S@1", (w1, DEV, DEV), (w4, DEV, DEV), STOCH)
    return dg.Diagram(
        {0: dg.uniform_gen(w1, 2), 1: S},
        [
            (("n", 0, 0), ("out", 0)),
            (("n", 0, 1), ("n", 1, 0)),
            (("in", 0), ("n", 1, 1)),
            (("in", 1), ("n", 1, 2)),
            (("n", 1, 0), ("out", 1)),
            (("n", 1, 1), ("out", 2)),
            (("n", 1, 2), ("out", 3)),
        ],
        (DEV, DEV),
        (w1, w4, DEV, DEV),
    )


def _hw_chain_initial(k, base):
    nodes = {0: dg.uniform_gen(rw._w(1, base), 2)}
    wires = [(("n", 0, 0), ("out", 0))]
    prev = None
    for j in range(k):
        s = 4**j
        nid = j + 1
        nodes[nid] = dg.hole(
            f"S@{s}", (rw._w(s, base), DEV, DEV), (rw._w(4 * s, base), DEV, DEV), STOCH
        )
        if j == 0:
            wires += [
                (("n", 0, 1), ("n", nid, 0)),
                (("in", 0), ("n", nid, 1)),
                (("in", 1), ("n", nid, 2)),
            ]
        else:
            wires += [(("n", prev, p), ("n", nid, p)) for p in range(3)]
        prev = nid
    wires += [(("n", prev, p), ("out", 1 + p)) for p in range(3)]
    return dg.Diagram(nodes, wires, (DEV, DEV), (rw._w(1, base), rw._w(4**k, base), DEV, DEV))


def _hw_soundness_initial(base):
    w16 = rw._w(16, base)
    adv = dg.hole("adv", (), (DEV, DEV, SIDE), frozenset({"causal", "stochastic"}))
    nodes = {
        0: dg.uniform_gen(rw._w(1, base), 1),
        1: adv,
        2: dg.hole("S@1", (rw._w(1, base), DEV, DEV), (rw._w(4, base), DEV, DEV), STOCH),
        3: dg.hole("S@4", (rw._w(4, base), DEV, DEV), (w16, DEV, DEV), STOCH),
        4: dg.discard_gen(DEV),
        5: dg.discard_gen(DEV),
    }
    wires = [
        (("n", 0, 0), ("n", 2, 0)),
        (("n", 1, 0), ("n", 2, 1)),
        (("n", 1, 1), ("n", 2, 2)),
        (("n", 1, 2), ("out", 1)),
        (("n", 2, 0), ("n", 3, 0)),
        (("n", 2, 1), ("n", 3, 1)),
        (("n", 2, 2), ("n", 3, 2)),
        (("n", 3, 0), ("out", 0)),
        (("n", 3, 1), ("n", 4, 0)),
        (("n", 3, 2), ("n", 5, 0)),
    ]
    return dg.Diagram(nodes, wires, (), (w16, SIDE))


def _hw_ure_final_form(base):
    w16 = rw._w(16, base)
    return dg.Diagram(
        {0: dg.uniform_gen(w16, 1), 1: dg.hole("residual", (), (SIDE,), STOCH)},
        [(("n", 0, 0), ("out", 0)), (("n", 1, 0), ("out", 1))],
        (),
        (w16, SIDE),
    )


def _hw_chsh_scoring_diagram():
    bit, qubit = pr.BIT, pr.QUBIT
    score = np.zeros(16)
    for x, a, b, y in itertools.product(range(2), repeat=4):
        if pr.chsh_game().predicate(x, y, a, b):
            score[x * 8 + a * 4 + b * 2 + y] = 1.0
    payload = rc.ProcessTensor((bit,) * 4, (), score.reshape(1, 16))
    nodes = {
        0: dg.uniform_gen(bit, 2),
        1: dg.uniform_gen(bit, 2),
        2: dg.hole("shared_state", (), (qubit, qubit)),
        3: dg.hole("measure_A", (bit, qubit), (bit,)),
        4: dg.hole("measure_B", (bit, qubit), (bit,)),
        5: dg.box("chsh_score", (bit,) * 4, (), payload=payload),
    }
    wires = [
        (("n", 0, 0), ("n", 5, 0)),
        (("n", 0, 1), ("n", 3, 0)),
        (("n", 1, 0), ("n", 5, 3)),
        (("n", 1, 1), ("n", 4, 0)),
        (("n", 2, 0), ("n", 3, 1)),
        (("n", 2, 1), ("n", 4, 1)),
        (("n", 3, 0), ("n", 5, 1)),
        (("n", 4, 0), ("n", 5, 2)),
    ]
    return dg.Diagram(nodes, wires, (), ())


def _node_view(d):
    """Node dict with box payloads as matrix bytes, since ProcessTensor
    equality is not defined on arrays."""
    def view(g):
        if isinstance(g.payload, rc.ProcessTensor):
            return dataclasses.replace(g, payload=g.payload.matrix.tobytes())
        return g

    return {nid: view(g) for nid, g in d.nodes.items()}


def assert_same_wiring(d, ref, wire_set=False):
    assert list(_node_view(d).items()) == list(_node_view(ref).items())  # matching walks this order
    assert (set(d.wires), len(d.wires)) == (set(ref.wires), len(ref.wires))
    if not wire_set:
        assert d.wires == ref.wires
    assert (d.in_types, d.out_types) == (ref.in_types, ref.out_types)


WIDTHS = [(1, "N"), (4, "N"), (2, "M"), (1, 2), (2, 3)]
REGS = [C2, C3, rc.C(SymWidth(2, "N"))]


class TestRuleLibraryMatchesHandWiring:
    @pytest.mark.parametrize("scale,base", WIDTHS)
    def test_expand_S(self, scale, base):
        rule = rw.rule_expand_S(scale, base)
        w, _ = _hw_widths(scale, base)
        w4 = _hw_cw(4 * scale, base if isinstance(base, str) else base**4)
        S = dg.hole(f"S@{scale}", (w, DEV, DEV), (w4, DEV, DEV), STOCH)
        assert_same_wiring(rule.lhs, dg.Diagram.from_generator(S))
        # the two device wires cross, so only the wire set is kept
        assert_same_wiring(rule.rhs, _hw_expand_S_rhs(scale, base), wire_set=True)

    @pytest.mark.parametrize("scale,base", WIDTHS)
    def test_spot_check_and_starting_soundness(self, scale, base):
        spot = rw.rule_spot_check(scale, base)
        sound = rw.rule_starting_soundness(scale, base)
        assert_same_wiring(spot.lhs, _hw_spot_lhs(scale, base, f"R@{scale}"))
        assert_same_wiring(sound.lhs, _hw_spot_lhs(scale, base, f"R@{scale}"))
        # the fresh uniform's wire follows the round's device wire
        assert_same_wiring(sound.rhs, _hw_starting_soundness_rhs(scale, base), wire_set=True)
        dup = rw.rule_dup_corollary(scale, base)
        assert_same_wiring(dup.lhs, sound.rhs)
        assert_same_wiring(dup.rhs, spot.rhs)

    @pytest.mark.parametrize("scale,base", WIDTHS)
    def test_adjustment_completeness(self, scale, base):
        rule = rw.rule_adjustment_completeness(scale, base)
        lhs, rhs = _hw_adjustment_completeness(scale, base)
        assert_same_wiring(rule.lhs, lhs)
        assert_same_wiring(rule.rhs, rhs)

    @pytest.mark.parametrize("reg", REGS, ids=repr)
    @pytest.mark.parametrize("legs", [2, 3, 4])
    def test_uniform_leg_rules(self, reg, legs):
        absorb = rw.rule_uniform_absorbs_discard(reg, legs)
        assert_same_wiring(absorb.lhs, _hw_uniform_absorbs_discard_lhs(reg, legs))
        widen = rw.rule_widen_uniform(reg, legs - 1)
        assert_same_wiring(widen.rhs, _hw_uniform_absorbs_discard_lhs(reg, legs))

    @pytest.mark.parametrize("reg", REGS, ids=repr)
    def test_spider_rules(self, reg):
        assert_same_wiring(rw.rule_spider_fusion(reg).lhs, _hw_spider_fusion_lhs(reg))
        if not reg.symbolic:
            rule = rw.rule_uniform_is_scaled_spider(reg)
            assert_same_wiring(rule.rhs, _hw_uniform_is_scaled_spider_rhs(reg))

    @pytest.mark.parametrize(
        "in_ports,out_ports",
        [((C2,), (C2,)), ((C2, rc.Q(2)), ()), ((), (C3, rc.Q(2))), ((C2, C3), (C3, C2, C2))],
        ids=repr,
    )
    def test_causality(self, in_ports, out_ports):
        h = dg.hole("h", in_ports, out_ports, CAUSAL)
        rule = rw.rule_causality(h)
        lhs, rhs = _hw_causality(h)
        assert_same_wiring(rule.lhs, lhs)
        assert_same_wiring(rule.rhs, rhs)


class TestShippedDiagramsMatchHandWiring:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("base", ["N", "M"])
    def test_chain_initial(self, k, base):
        assert_same_wiring(rw._chain_initial(k, base), _hw_chain_initial(k, base))

    def test_single_stage_initial_is_the_one_stage_chain(self):
        assert_same_wiring(rw._chain_initial(1, "M"), _hw_single_stage_initial("M"))
        assert rw.SHIPPED_SCRIPTS["single_stage"]().initial == rw._chain_initial(1, "M")

    @pytest.mark.parametrize("base", ["N", "M"])
    def test_soundness_initial_and_final_form(self, base):
        assert_same_wiring(rw._soundness_initial(base), _hw_soundness_initial(base))
        assert_same_wiring(rw.ure_final_form(base), _hw_ure_final_form(base))

    def test_chsh_scoring_diagram(self):
        d, _ = pr.chsh_scoring_diagram()
        assert_same_wiring(d, _hw_chsh_scoring_diagram())
