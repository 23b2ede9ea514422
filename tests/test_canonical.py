"""Pinned behaviour of `canonical_form` and `diagrams_equal`.

The truth table fixes which diagrams of a fixed pool compare equal: the
rule sides of `builtin_rules(2)` and `axiom_rules()`, the shipped
scripts' initial and final diagrams, the DSL and JSON round trips of the
print/JSON tests, hole-relabelled copies (so `anonymize_holes` matters)
and a few diagrams with closed components.  The property tests check
that the canonical form ignores node numbering and wire order.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from cqcalc import diagram as dg
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw

C2, C3 = rc.C(2), rc.C(3)

DSL = {
    "print_simple": "uniform C2 2 ; id C2 * discard C2",
    "print_holes_flags": "hole h : C2 -> C2 causal\nh",
    "json_hole": "hole h : C2 -> Q2\nuniform C2 1 ; h ; discard Q2",
    "json_symbolic": "reg S = classical N\nuniform S 2",
    "lanes_c2_c3": "(uniform C2 1 ; discard C2) * (uniform C3 1 ; discard C3)",
    "lanes_c3_c2": "(uniform C3 1 ; discard C3) * (uniform C2 1 ; discard C2)",
    "lanes_c2x3": " * ".join(["(uniform C2 1 ; discard C2)"] * 3),
    "lane_beside_wire": "id C2 * (uniform C2 1 ; discard C2)",
    "wire_beside_lane": "(uniform C2 1 ; discard C2) * id C2",
    "closed_two_discards": (
        "uniform C2 2 * uniform C2 2 ; id C2 * spider C2 2 0 * id C2 ; discard C2 * discard C2"
    ),
    "closed_loop": "uniform C2 2 ; spider C2 2 0",
    "closed_hole_lanes": (
        "hole h : C2 -> C2\nhole k : C2 -> C2\n"
        "(uniform C2 1 ; h ; discard C2) * (uniform C2 1 ; k ; discard C2)"
    ),
    "closed_hole_lanes_swapped": (
        "hole h : C2 -> C2\nhole k : C2 -> C2\n"
        "(uniform C2 1 ; k ; discard C2) * (uniform C2 1 ; h ; discard C2)"
    ),
}


def _crossing():
    f = dg.Diagram.from_generator(dg.box("f", (C2,), (C2,)))
    g = dg.Diagram.from_generator(dg.box("g", (C3,), (C3,)))
    return (dg.Diagram.id_wires([C3]) @ f) >> (g @ dg.Diagram.id_wires([C2]))


def _relabel_holes(d):
    nodes = {
        n: replace(g, label="x_" + g.label) if g.kind == dg.HOLE else g for n, g in d.nodes.items()
    }
    return dg.Diagram(nodes, list(d.wires), d.in_types, d.out_types)


def _pool():
    out = {}
    for tag, rules in (("builtin2", rw.builtin_rules(2)), ("axiom", rw.axiom_rules())):
        for r in rules:
            out[f"{tag}:{r.name}:lhs"] = r.lhs
            out[f"{tag}:{r.name}:rhs"] = r.rhs
    for name, build in rw.SHIPPED_SCRIPTS.items():
        s = build()
        out[f"script:{name}:initial"] = s.initial
        out[f"script:{name}:final"] = rw.replay_script(s)[0].diagram
    sources = {name: dg.parse_diagram(text) for name, text in DSL.items()}
    sources["print_crossing"] = _crossing()
    for name, d in sources.items():
        out[f"dsl:{name}"] = d
        out[f"dsl:{name}:printed"] = dg.parse_diagram(dg.print_diagram(d))
        out[f"dsl:{name}:json"] = dg.diagram_from_json(dg.diagram_to_json(d))
    for name, d in list(out.items()):
        if any(g.kind == dg.HOLE for g in d.nodes.values()):
            out[f"{name}:relabelled"] = _relabel_holes(d)
    return out


POOL = _pool()


def _with_copies(names):
    """A class of equal diagrams: each name with its DSL round trips."""
    return {n + suffix for n in names for suffix in ("", ":printed", ":json")}


# Classes of mutually equal diagrams in POOL; every other pair differs.
_SHARED = [
    {"builtin2:uniform_absorbs_discard:lhs", "builtin2:widen_uniform:rhs"}
    | _with_copies(["dsl:print_simple"]),
    {"builtin2:uniform_absorbs_discard:rhs", "builtin2:widen_uniform:lhs"},
    _with_copies(["dsl:print_crossing"]),
    _with_copies(["dsl:json_symbolic"]),
    _with_copies(["dsl:lanes_c2_c3", "dsl:lanes_c3_c2"]),
    _with_copies(["dsl:lanes_c2x3"]),
    _with_copies(["dsl:lane_beside_wire", "dsl:wire_beside_lane"]),
    _with_copies(["dsl:closed_two_discards"]),
    _with_copies(["dsl:closed_loop"]),
]
_HOLE_CLASSES = [
    ["axiom:spot_check@1:lhs", "axiom:starting_soundness@1:lhs", "script:spot_check_lemma:initial"],
    ["axiom:spot_check@1:rhs", "axiom:dup_corollary@1:rhs", "script:spot_check_lemma:final"],
    ["axiom:starting_soundness@1:rhs", "axiom:dup_corollary@1:lhs"],
    ["dsl:print_holes_flags", "dsl:print_holes_flags:printed", "dsl:print_holes_flags:json"],
    ["dsl:json_hole", "dsl:json_hole:printed", "dsl:json_hole:json"],
    [
        "dsl:closed_hole_lanes",
        "dsl:closed_hole_lanes:printed",
        "dsl:closed_hole_lanes:json",
        "dsl:closed_hole_lanes_swapped",
        "dsl:closed_hole_lanes_swapped:printed",
        "dsl:closed_hole_lanes_swapped:json",
    ],
]
_HOLEY = sorted(n for n in POOL if n.endswith(":relabelled"))
_LABELLED = [set(c) for c in _HOLE_CLASSES] + [{n + ":relabelled" for n in c} for c in _HOLE_CLASSES]
# with hole labels ignored, each class merges with its relabelled copy,
# and a diagram with holes equals its relabelled copy
_ANON = [set(c) | {n + ":relabelled" for n in c} for c in _HOLE_CLASSES]
_ANON += [
    {n[: -len(":relabelled")], n}
    for n in _HOLEY
    if not any(n[: -len(":relabelled")] in c for c in _HOLE_CLASSES)
]
EQUAL_CLASSES = {False: _SHARED + _LABELLED, True: _SHARED + _ANON}


def _truth_table_mismatches(anonymize):
    cls = {n: i for i, group in enumerate(EQUAL_CLASSES[anonymize]) for n in group}
    names = sorted(POOL)
    bad = []
    for i, a in enumerate(names):
        for b in names[i:]:
            want = a == b or (a in cls and cls.get(b) == cls[a])
            if dg.diagrams_equal(POOL[a], POOL[b], anonymize_holes=anonymize) is not want:
                bad.append((a, b, want))
    return bad


def test_pool_covers_the_classes():
    for groups in EQUAL_CLASSES.values():
        assert set().union(*groups) <= set(POOL)
        assert sum(len(g) for g in groups) == len(set().union(*groups))


def test_truth_table():
    assert _truth_table_mismatches(False) == []


def test_truth_table_anonymized_holes():
    assert _truth_table_mismatches(True) == []


def _renumbered(d, rnd):
    ids = rnd.sample(range(10 * len(d.nodes) + 10), len(d.nodes))
    renum = dict(zip(d.nodes, ids))

    def rename(ep):
        return ("n", renum[ep[1]], ep[2]) if ep[0] == "n" else ep

    wires = [(rename(s), rename(t)) for s, t in d.wires]
    rnd.shuffle(wires)
    order = list(d.nodes)
    rnd.shuffle(order)
    return dg.Diagram({renum[n]: d.nodes[n] for n in order}, wires, d.in_types, d.out_types)


def _form(d):
    c = dg.canonical_form(d)
    return c.nodes, c.wires, c.in_types, c.out_types


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(POOL)), rnd=st.randoms(use_true_random=False))
def test_canonical_form_ignores_numbering(name, rnd):
    d = POOL[name]
    e = _renumbered(d, rnd)
    assert _form(e) == _form(d)
    assert dg.diagrams_equal(e, d, anonymize_holes=True)


# random well-typed diagrams: lanes side by side, each lane a chain of
# C2 pieces that starts at a boundary wire or a uniform and ends at a
# boundary wire or a discard

_PIECES = {
    "f": "f",
    "g": "g",
    "h": "h",
    "fork_ff": "spider C2 1 2 ; f * f ; spider C2 2 1",
    "fork_fg": "spider C2 1 2 ; f * g ; spider C2 2 1",
    "copy_discard": "spider C2 1 2 ; discard C2 * id C2",
}
_DECLS = "box f : C2 -> C2\nbox g : C2 -> C2\nhole h : C2 -> C2\n"

_lane = st.tuples(
    st.sampled_from(["id C2", "uniform C2 1"]),
    st.lists(st.sampled_from(sorted(_PIECES)), max_size=3),
    st.sampled_from(["id C2", "discard C2"]),
)


def _lane_text(lane):
    start, pieces, end = lane
    return "(" + " ; ".join([start] + [_PIECES[p] for p in pieces] + [end]) + ")"


def _lanes_diagram(lanes):
    return dg.parse_diagram(_DECLS + " * ".join(_lane_text(l) for l in lanes))


@settings(max_examples=150, deadline=None)
@given(lanes=st.lists(_lane, min_size=1, max_size=3), rnd=st.randoms(use_true_random=False))
def test_random_diagrams_ignore_numbering(lanes, rnd):
    d = _lanes_diagram(lanes)
    assert _form(_renumbered(d, rnd)) == _form(d)
    assert dg.diagrams_equal(dg.parse_diagram(dg.print_diagram(d)), d)


_closed_lane = st.tuples(
    st.just("uniform C2 1"),
    st.lists(st.sampled_from(sorted(_PIECES)), max_size=2),
    st.just("discard C2"),
)


@settings(max_examples=100, deadline=None)
@given(lanes=st.lists(_closed_lane, min_size=2, max_size=3), rnd=st.randoms(use_true_random=False))
def test_closed_lanes_commute(lanes, rnd):
    shuffled = list(lanes)
    rnd.shuffle(shuffled)
    a, b = _lanes_diagram(lanes), _lanes_diagram(shuffled)
    assert dg.diagrams_equal(a, b)
    assert _form(a) == _form(b)
