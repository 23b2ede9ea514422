"""Error-budgeted diagram rewriting.

A rewrite rule replaces a matched subdiagram by another with the same
boundary typing, adding the rule's cost to a symbolic error budget
(multiset of atoms, summed by the triangle inequality).  Exact
structural rules cost nothing; axiom schemas (the spot-check step and
its relatives) carry symbolic costs like eps(2N) whose concrete
constants are never fixed, so numeric validation records measured
distances for them and asserts only that they are finite.

Proof scripts replay a fixed step list from an initial diagram.  The
shipped scripts rebuild the seeded-expansion chain: a single expansion
stage costs eps(M) + eps(2M); k chained stages cost the sum of
eps(2^i N) for i < 2k; and the full soundness script ends in a uniform
state of width 4^k N next to a residual subnormalized state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from types import MappingProxyType

import numpy as np

from . import diagram as dg
from . import regcalc as rc
from .regcalc import SymWidth

DEV = rc.Q(2)  # toy device-state register used by the shipped scripts
SIDE = rc.Q(2)  # adversary side-information register


# ---------------------------------------------------------------------------
# budget algebra


def _atom_key(a):
    if a[0] == "sqrt2eps":
        return (a[0], tuple(_atom_key(x) for x in a[1]))
    return a


@dataclass(frozen=True)
class EpsExpr:
    """Multiset of error atoms: const(c), eps-style function applications
    fn(scale * base), sqrt2eps(inner) = sqrt(2 * inner), and the infinite
    sum lam(scale * base) = sum_i fn(2^i * scale * base)."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=_atom_key)))

    @staticmethod
    def zero() -> "EpsExpr":
        return EpsExpr(())

    def __add__(self, other: "EpsExpr") -> "EpsExpr":
        return EpsExpr(self.terms + other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(_atom_str(a) for a in self.terms)


def const(c: float) -> EpsExpr:
    return EpsExpr((("const", float(c)),))


def eps(scale: int, base: str, fn: str = "eps") -> EpsExpr:
    return EpsExpr((("eps", fn, int(scale), str(base)),))


def lam(scale: int, base: str, fn: str = "eps") -> EpsExpr:
    return EpsExpr((("lam", fn, int(scale), str(base)),))


def sqrt2eps(inner: EpsExpr) -> EpsExpr:
    return EpsExpr((("sqrt2eps", inner.terms),))


def _atom_str(a):
    if a[0] == "const":
        return repr(a[1])
    if a[0] == "eps":
        return f"{a[1]}({a[2]}*{a[3]})"
    if a[0] == "lam":
        return f"lam[{a[1]}]({a[2]}*{a[3]})"
    return "sqrt(2*(" + str(EpsExpr(a[1])) + "))"


class ExpDecay:
    """Concrete error function c * 2^(-a*n); admits a geometric tail
    bound for the infinite lam sums."""

    def __init__(self, c: float = 1.0, a: float = 1.0):
        self.c, self.a = float(c), float(a)

    def __call__(self, n):
        return self.c * 2.0 ** (-self.a * n)


class UnboundRateError(KeyError):
    """A budget was evaluated with a table that has no function for one
    of its rates."""

    def __init__(self, rate: str):
        super().__init__(f"no function for rate {rate!r}")
        self.rate = rate


def _resolve_fn(eps_fn, name):
    if isinstance(eps_fn, dict):
        if name not in eps_fn:
            raise UnboundRateError(name)
        return eps_fn[name]
    return eps_fn  # single callable serves every function symbol


def budget_eval(e: EpsExpr, eps_fn, N: int) -> dict:
    """Numeric value of a budget at base value N.

    Every base symbol is set to N.  Infinite lam sums take the terms
    i = 0..LAM_K_MAX; when the function is an ExpDecay a geometric tail
    bound is added, otherwise the result carries a divergence flag."""
    value = 0.0
    tail = 0.0
    divergent = False
    for a in e.terms:
        kind = a[0]
        if kind == "const":
            value += a[1]
        elif kind == "eps":
            value += _resolve_fn(eps_fn, a[1])(a[2] * N)
        elif kind == "sqrt2eps":
            inner = budget_eval(EpsExpr(a[1]), eps_fn, N)
            divergent = divergent or inner["divergent"]
            tail += inner["tail_bound"]
            value += math.sqrt(2.0 * inner["value"])
        elif kind == "lam":
            f = _resolve_fn(eps_fn, a[1])
            n0 = a[2] * N
            value += sum(f(2**i * n0) for i in range(LAM_K_MAX + 1))
            if isinstance(f, ExpDecay) and f.a > 0:
                first_omitted = f(2 ** (LAM_K_MAX + 1) * n0)
                ratio = 2.0 ** (-f.a * n0)
                if ratio < 1.0:
                    tail += first_omitted / (1.0 - ratio)
                else:
                    divergent = True
            else:
                divergent = True
    return {"value": value + tail, "partial": value, "tail_bound": tail, "divergent": divergent}


def eps_expr_to_json(e: EpsExpr):
    def atom(a):
        if a[0] == "sqrt2eps":
            return ["sqrt2eps", [atom(x) for x in a[1]]]
        return list(a)

    return [atom(a) for a in e.terms]


def eps_expr_from_json(j) -> EpsExpr:
    def atom(a):
        if a[0] == "sqrt2eps":
            return ("sqrt2eps", tuple(atom(x) for x in a[1]))
        if a[0] == "const":
            return ("const", float(a[1]))
        return (a[0], a[1], rc.positive_int(a[2], "budget scale"), str(a[3]))

    return EpsExpr(tuple(atom(a) for a in j))


# ---------------------------------------------------------------------------
# rules and matching


class RewriteError(Exception):
    pass


@dataclass(frozen=True)
class RewriteRule:
    """A named replacement lhs -> rhs with identical boundary typing.

    validation_mode "exact" rules are numeric identities; "axiom" rules
    carry an unproven cost and are only probed numerically.  Holes with
    the same label on both sides denote the same process.  binding_mode
    controls how rule_distance binds holes: "fresh" draws every hole
    independently; "derive_lhs" (single-hole lhs) defines the lhs hole
    as the evaluated rhs, for definition-unfolding rules; "derive_rhs"
    (single-hole rhs) defines the rhs hole as the evaluated lhs, for
    merges."""

    name: str
    lhs: dg.Diagram
    rhs: dg.Diagram
    cost: EpsExpr = EpsExpr.zero()
    validation_mode: str = "exact"
    binding_mode: str = "fresh"

    def __post_init__(self):
        if self.lhs.in_types != self.rhs.in_types or self.lhs.out_types != self.rhs.out_types:
            raise ValueError(f"rule {self.name}: boundary typing differs between sides")


@dataclass(frozen=True)
class Match:
    node_map: tuple  # (pattern id, host id) pairs
    in_att: tuple  # host source endpoint per pattern input
    out_att: tuple  # host target endpoint per pattern output

    @property
    def loc(self):
        return tuple(sorted(h for _, h in self.node_map))


def _node_compatible(pg: dg.Generator, hg: dg.Generator) -> bool:
    if pg.kind != hg.kind or pg.flags != hg.flags:
        return False
    if pg.kind in (dg.HOLE, dg.BOX) and pg.label != hg.label:
        return False
    if pg.kind == dg.SCALAR:
        return pg.payload == hg.payload
    return pg.in_ports == hg.in_ports and pg.out_ports == hg.out_ports


def find_matches(host: dg.Diagram, pattern: dg.Diagram, within=None) -> list[Match]:
    """All embeddings of the pattern into the host, or with `within` all
    that use only those host nodes, found in the same order.

    Node identity is matched on kind/label/flags/port types; uniform
    legs are matched up to permutation.  Pattern boundary wires record
    host attachment endpoints, which must lie outside the matched nodes.
    Boundary-to-boundary pattern wires are not supported."""
    by_src = {s: (s, t) for s, t in host.wires}
    by_dst = {t: (s, t) for s, t in host.wires}
    pids = sorted(pattern.nodes)
    hosts = [(h, g) for h, g in host.nodes.items() if within is None or h in within]
    out: list[Match] = []
    seen = set()

    def wires_ok(nmap, perms):
        matched = set(nmap.values())
        in_att = [None] * len(pattern.in_types)
        out_att = [None] * len(pattern.out_types)

        def h_out(pid, port):
            return ("n", nmap[pid], perms[pid][port] if pid in perms else port)

        for ps, pd in pattern.wires:
            if ps[0] == "in" and pd[0] == "out":
                raise RewriteError("pattern pass-through wires are not supported")
            hs = h_out(ps[1], ps[2]) if ps[0] == "n" else None
            hd = ("n", nmap[pd[1]], pd[2]) if pd[0] == "n" else None
            if hs is not None and hd is not None:
                if by_src.get(hs) != (hs, hd):
                    return None
            elif hs is None:  # pattern boundary input
                w = by_dst.get(hd)
                if w is None:
                    return None
                src = w[0]
                if src[0] == "n" and src[1] in matched:
                    return None
                in_att[ps[1]] = src
            else:  # pattern boundary output
                w = by_src.get(hs)
                if w is None:
                    return None
                dst = w[1]
                if dst[0] == "n" and dst[1] in matched:
                    return None
                out_att[pd[1]] = dst
        return Match(tuple(sorted(nmap.items())), tuple(in_att), tuple(out_att))

    def backtrack(i, nmap, perms):
        if i == len(pids):
            m = wires_ok(nmap, perms)
            if m is not None:
                key = (m.node_map, m.in_att, m.out_att)
                if key not in seen:
                    seen.add(key)
                    out.append(m)
            return
        pid = pids[i]
        pg = pattern.nodes[pid]
        for hid, hg in hosts:
            if hid in nmap.values() or not _node_compatible(pg, hg):
                continue
            nmap[pid] = hid
            if pg.kind == dg.UNIFORM and len(pg.out_ports) > 1:
                for perm in itertools.permutations(range(len(pg.out_ports))):
                    perms[pid] = perm
                    backtrack(i + 1, nmap, perms)
                del perms[pid]
            else:
                backtrack(i + 1, nmap, perms)
            del nmap[pid]

    backtrack(0, {}, {})
    return out


def _apply_match(host: dg.Diagram, rhs: dg.Diagram, m: Match) -> dg.Diagram:
    removed = set(h for _, h in m.node_map)
    nodes = {nid: g for nid, g in host.nodes.items() if nid not in removed}
    off = max(host.nodes, default=-1) + 1
    idmap = {}
    for rid in sorted(rhs.nodes):
        idmap[rid] = off
        off += 1
        nodes[idmap[rid]] = rhs.nodes[rid]

    def incident(w):
        return (w[0][0] == "n" and w[0][1] in removed) or (w[1][0] == "n" and w[1][1] in removed)

    wires = [w for w in host.wires if not incident(w)]
    for rs, rd in rhs.wires:
        s = m.in_att[rs[1]] if rs[0] == "in" else ("n", idmap[rs[1]], rs[2])
        d = m.out_att[rd[1]] if rd[0] == "out" else ("n", idmap[rd[1]], rd[2])
        wires.append((s, d))
    return dg.Diagram(nodes, wires, host.in_types, host.out_types)


@dataclass(frozen=True)
class RewriteState:
    diagram: dg.Diagram
    budget: EpsExpr = EpsExpr.zero()


def apply_rule(state: RewriteState, rule: RewriteRule, loc=None):
    """Apply a rule; returns (new state, loc used).  loc is the sorted
    tuple of matched host node ids; omit it when the match is unique."""
    if loc is None:
        matches = find_matches(state.diagram, rule.lhs)
    else:
        loc = tuple(sorted(loc))
        matches = [m for m in find_matches(state.diagram, rule.lhs, loc) if m.loc == loc]
    if not matches:
        cands = sorted({m.loc for m in find_matches(state.diagram, rule.lhs)})
        raise RewriteError(
            f"rule {rule.name!r} does not match at {loc}; candidate locations: {cands}"
        )
    m = matches[0]
    newdiag = _apply_match(state.diagram, rule.rhs, m)
    return RewriteState(newdiag, state.budget + rule.cost), m.loc


# ---------------------------------------------------------------------------
# merge: fusing a region into one hole


def cut_subdiagram(d: dg.Diagram, loc):
    """Extract the nodes at loc as a standalone diagram.

    Boundary order follows the host wire list; returns (sub, incoming
    attachment endpoints, outgoing attachment endpoints)."""
    loc = set(loc)
    idmap = {nid: i for i, nid in enumerate(sorted(loc))}
    in_types, out_types, in_atts, out_atts, wires = [], [], [], [], []
    for s, t in d.wires:
        s_in = s[0] == "n" and s[1] in loc
        t_in = t[0] == "n" and t[1] in loc
        if s_in and t_in:
            wires.append((("n", idmap[s[1]], s[2]), ("n", idmap[t[1]], t[2])))
        elif t_in:
            k = len(in_types)
            in_types.append(d.wire_type((s, t)))
            in_atts.append(s)
            wires.append((("in", k), ("n", idmap[t[1]], t[2])))
        elif s_in:
            k = len(out_types)
            out_types.append(d.wire_type((s, t)))
            out_atts.append(t)
            wires.append((("n", idmap[s[1]], s[2]), ("out", k)))
    sub = dg.Diagram(
        {idmap[n]: d.nodes[n] for n in loc}, wires, tuple(in_types), tuple(out_types)
    )
    return sub, in_atts, out_atts


def merge_step(d: dg.Diagram, loc, name: str):
    """Fuse the nodes at loc into a single opaque hole.

    The hole keeps the cut's boundary order and inherits the strongest
    flag set shared by the parts (causal things compose causally;
    stochastic likewise).  Returns (new diagram, the exact rule from the
    cut to the hole, which defines the hole as the evaluated cut)."""
    sub, in_atts, out_atts = cut_subdiagram(d, loc)
    if name in _opaque_labels(sub):
        raise RewriteError(f"merge: the new hole takes the label {name!r} of a node it fuses")
    parts = list(sub.nodes.values())
    if all(g.causal for g in parts):
        flags = frozenset({"causal", "stochastic"})
    elif all(g.stochastic for g in parts):
        flags = frozenset({"stochastic"})
    else:
        flags = frozenset()
    rhs = dg.Diagram.from_generator(dg.hole(name, sub.in_types, sub.out_types, flags))
    m = Match(tuple(enumerate(sorted(loc))), tuple(in_atts), tuple(out_atts))
    return _apply_match(d, rhs, m), RewriteRule("merge", sub, rhs, binding_mode="derive_rhs")


# ---------------------------------------------------------------------------
# rule library


def _w(scale: int, base: str) -> rc.Register:
    return rc.C(SymWidth(scale, base))


def _widths(scale: int, base):
    """Classical registers w, 2w and 4w of a round at width scale*base
    bits (symbolic), or of dimensions base, base^2 and base^4 when base
    is an int."""
    if isinstance(base, str):
        return tuple(_w(k * scale, base) for k in (1, 2, 4))
    return rc.C(base), rc.C(base**2), rc.C(base**4)


STOCH = frozenset({"stochastic"})
CAUSAL = frozenset({"causal"})

_gen, _wires = dg.Diagram.from_generator, dg.Diagram.id_wires

# A diagram or a proof script cannot change once built, so each rule and
# shipped script is built once per argument tuple, on first use; typed,
# so that a script's scale 1.0 gets its own rule.
_memo = lru_cache(maxsize=None, typed=True)


def _discards(regs) -> dg.Diagram:
    """Discards of wires of the given types, side by side."""
    return reduce(dg.Diagram.beside, [_gen(dg.discard_gen(r)) for r in regs], _wires(()))


def _stage_hole(scale: int, base) -> dg.Generator:
    """Expansion stage S@scale: a width-w seed and two devices in, a
    width-4w seed and the two devices out."""
    w, _, w4 = _widths(scale, base)
    return dg.hole(f"S@{scale}", (w, DEV, DEV), (w4, DEV, DEV), STOCH)


def _round_hole(scale: int, base) -> dg.Generator:
    """Protocol round R@scale: a width-w seed and a device in, a
    width-2w output and the device out."""
    w, w2, _ = _widths(scale, base)
    return dg.hole(f"R@{scale}", (w, DEV), (w2, DEV), STOCH)


@_memo
def rule_expand_S(scale: int, base) -> RewriteRule:
    """Definition unfolding: one expansion stage S(w) is a width-w
    round feeding a width-2w round on a second device pair."""
    _, w2, w4 = _widths(scale, base)
    R2 = dg.hole(f"R@{2 * scale}", (w2, DEV), (w4, DEV), STOCH)
    cross = dg.Diagram.swap(DEV, DEV)
    # the width-2w output seeds the second round; each round keeps its device
    rhs = (
        (_gen(_round_hole(scale, base)) @ _wires([DEV]))
        >> (_wires([w2]) @ cross)
        >> (_gen(R2) @ _wires([DEV]))
        >> (_wires([w4]) @ cross)
    )
    lhs = _gen(_stage_hole(scale, base))
    return RewriteRule(f"expand_S@{scale}", lhs, rhs, binding_mode="derive_lhs")


def _spot_lhs(scale, base) -> dg.Diagram:
    """A copied width-w seed: one copy is published, the other seeds a
    round."""
    w, _, _ = _widths(scale, base)
    seed = _gen(dg.uniform_gen(w, 2)) @ _wires([DEV])
    return seed >> (_wires([w]) @ _gen(_round_hole(scale, base)))


def _spot_rhs(scale, base):
    # hand-wired: the pinned check reports print these wires in this order
    w, w2, _ = _widths(scale, base)
    B = dg.hole(f"B@{scale}", (w, DEV), (w, DEV), STOCH)
    A = dg.hole(f"A@{scale}", (w2, w, DEV), (DEV,), CAUSAL)
    return dg.Diagram(
        {0: dg.uniform_gen(w, 2), 1: B, 2: dg.uniform_gen(w2, 2), 3: A},
        [
            (("n", 0, 0), ("out", 0)),
            (("n", 0, 1), ("n", 1, 0)),
            (("in", 0), ("n", 1, 1)),
            (("n", 2, 0), ("out", 1)),
            (("n", 2, 1), ("n", 3, 0)),
            (("n", 1, 0), ("n", 3, 1)),
            (("n", 1, 1), ("n", 3, 2)),
            (("n", 3, 0), ("out", 2)),
        ],
        (DEV,),
        (w, w2, DEV),
    )


@_memo
def rule_spot_check(scale: int, base) -> RewriteRule:
    """Axiom: a protocol round seeded by a copied uniform seed is
    within eps(scale*base) of a fresh doubled-width uniform output next
    to a stochastic correlator and a causal completion."""
    return RewriteRule(
        f"spot_check@{scale}",
        _spot_lhs(scale, base),
        _spot_rhs(scale, base),
        cost=eps(scale, base),
        validation_mode="axiom",
    )


@_memo
def rule_starting_soundness(scale: int, base) -> RewriteRule:
    """Axiom (cost delta): the round's classical output can be replaced
    by a fresh uniform state when the original output is discarded."""
    lhs = _spot_lhs(scale, base)
    w, w2, _ = _widths(scale, base)
    fresh = _wires([w]) @ _discards([w2]) @ _gen(dg.uniform_gen(w2, 1)) @ _wires([DEV])
    return RewriteRule(
        f"starting_soundness@{scale}",
        lhs,
        lhs >> fresh,
        cost=eps(scale, base, fn="delta"),
        validation_mode="axiom",
    )


@_memo
def rule_dup_corollary(scale: int, base) -> RewriteRule:
    """Axiom (cost sqrt(2*delta)): replace the discarded-output form by
    the duplicated form with a causal completion."""
    sound = rule_starting_soundness(scale, base)
    rhs = _spot_rhs(scale, base)
    return RewriteRule(
        f"dup_corollary@{scale}",
        sound.rhs,
        rhs,
        cost=sqrt2eps(eps(scale, base, fn="delta")),
        validation_mode="axiom",
    )


@_memo
def rule_adjustment_completeness(scale: int, base) -> RewriteRule:
    """Axiom (cost 2*delta): the uniform doubled-width state is within
    the closure of honest protocol outputs."""
    w, w2, _ = _widths(scale, base)
    G = dg.hole("honest_state", (), (DEV,), frozenset({"causal", "stochastic"}))
    rhs = (
        (_gen(dg.uniform_gen(w, 1)) @ _gen(G))
        >> _gen(_round_hole(scale, base))
        >> (_wires([w2]) @ _discards([DEV]))
    )
    cost = eps(scale, base, fn="delta") + eps(scale, base, fn="delta")
    return RewriteRule(
        f"adjustment_completeness@{scale}",
        _gen(dg.uniform_gen(w2, 1)),
        rhs,
        cost=cost,
        validation_mode="axiom",
    )


@_memo
def rule_uniform_absorbs_discard(reg, legs: int = 2) -> RewriteRule:
    """A uniform state with `legs` legs whose last leg is discarded is
    the uniform state with one leg fewer (classical wires only)."""
    if reg.kind != rc.CLASSICAL:
        raise RewriteError("leg-count rules for uniform states hold on classical wires only")
    if legs < 2:
        raise RewriteError("need at least two legs to absorb a discard")
    lhs = _gen(dg.uniform_gen(reg, legs)) >> (_wires([reg] * (legs - 1)) @ _discards([reg]))
    rhs = _gen(dg.uniform_gen(reg, legs - 1))
    return RewriteRule("uniform_absorbs_discard", lhs, rhs)


@_memo
def rule_widen_uniform(reg, legs: int = 1) -> RewriteRule:
    """A uniform state with `legs` legs gains a fresh, discarded leg."""
    r = rule_uniform_absorbs_discard(reg, legs + 1)
    return RewriteRule("widen_uniform", r.rhs, r.lhs)


def rule_spider_fusion(reg) -> RewriteRule:
    lhs = _gen(dg.spider_gen(reg, 0, 3)) >> (_wires([reg, reg]) @ _gen(dg.spider_gen(reg, 1, 2)))
    rhs = _gen(dg.spider_gen(reg, 0, 4))
    return RewriteRule("spider_fusion", lhs, rhs)


def rule_causality(h: dg.Generator) -> RewriteRule:
    """A causal generator with every output discarded is the discard of
    each of its inputs."""
    if "causal" not in h.flags:
        raise RewriteError(f"{h.kind} {h.label!r} is not flagged causal")
    return RewriteRule("causality", _gen(h) >> _discards(h.out_ports), _discards(h.in_ports))


def rule_uniform_is_scaled_spider(reg) -> RewriteRule:
    lhs = _gen(dg.uniform_gen(reg, 2))
    rhs = _gen(dg.spider_gen(reg, 0, 2)) @ _gen(dg.scalar_gen(1.0 / reg.total_dim))
    return RewriteRule("uniform_is_scaled_spider", lhs, rhs)


def builtin_rules(dim: int = 2) -> list[RewriteRule]:
    """Exact structural rules at a concrete classical width."""
    reg = rc.C(dim)
    return [
        rule_uniform_absorbs_discard(reg),
        rule_widen_uniform(reg),
        rule_spider_fusion(reg),
        rule_causality(dg.hole("h", (reg,), (reg,), CAUSAL)),
        rule_uniform_is_scaled_spider(reg),
        rule_expand_S(1, dim),
    ]


def axiom_rules() -> list[RewriteRule]:
    return [
        rule_spot_check(1, "N"),
        rule_starting_soundness(1, "N"),
        rule_dup_corollary(1, "N"),
        rule_adjustment_completeness(1, "N"),
    ]


RULE_FACTORIES = {
    "expand_S": rule_expand_S,
    "spot_check": rule_spot_check,
    "starting_soundness": rule_starting_soundness,
    "dup_corollary": rule_dup_corollary,
    "adjustment_completeness": rule_adjustment_completeness,
}


def sample_hole(g: dg.Generator, rng) -> rc.ProcessTensor:
    """Flag-respecting random instantiation of a hole."""
    causal = "causal" in g.flags
    return rc.random_cq_channel(g.in_ports, g.out_ports, rng, causal=causal)


# ---------------------------------------------------------------------------
# proof scripts


@dataclass(frozen=True)
class ProofScript:
    """A replayable derivation: an initial diagram plus a fixed list of
    rule applications and merges, with the budget the script claims to
    accumulate.

    A script is an immutable value: `steps` is a tuple of read-only
    mappings, each of a `rule` name, a `loc` tuple and read-only
    `params`, so a shipped script can be built once and shared.  An
    edited script is a new one, made with `dataclasses.replace`."""

    name: str
    initial: dg.Diagram
    steps: tuple
    claimed_total: EpsExpr

    def __post_init__(self):
        def frozen(st):
            params = MappingProxyType(dict(st.get("params", {})))
            return MappingProxyType({"rule": st["rule"], "loc": tuple(st["loc"]), "params": params})

        object.__setattr__(self, "steps", tuple(map(frozen, self.steps)))


SCRIPT_FORMAT_VERSION = 1


def script_to_json(s: ProofScript) -> dict:
    return {
        "format_version": SCRIPT_FORMAT_VERSION,
        "name": s.name,
        "initial": dg.diagram_to_json(s.initial),
        "steps": [
            {"rule": st["rule"], "loc": list(st["loc"]), "params": dict(st.get("params", {}))}
            for st in s.steps
        ],
        "claimed_total": eps_expr_to_json(s.claimed_total),
    }


def _step_from_json(st) -> dict:
    loc = tuple(st["loc"])
    if not isinstance(st["rule"], str) or not all(isinstance(n, int) for n in loc):
        raise TypeError(f"step {st!r} needs a rule name and integer node ids")
    params = dict(st.get("params", {}))
    if "scale" in params:
        params["scale"] = rc.positive_int(params["scale"], "rule scale")
    if not isinstance(params.get("base", ""), str):
        # an integer base would be a dimension that ignores the scale
        raise TypeError(f"rule base {params['base']!r} is not a width symbol")
    return {"rule": st["rule"], "loc": loc, "params": params}


def script_from_json(j: dict) -> ProofScript:
    """Inverse of script_to_json; raises ValueError on an unsupported
    format version or a malformed script."""
    if not isinstance(j, dict) or j.get("format_version") != SCRIPT_FORMAT_VERSION:
        version = j.get("format_version") if isinstance(j, dict) else None
        raise ValueError(f"unsupported script format {version!r}")
    try:
        initial = dg.diagram_from_json(j["initial"])
        errors = initial.typecheck()
        if errors:
            raise ValueError("initial diagram: " + "; ".join(errors))
        return ProofScript(
            j["name"],
            initial,
            [_step_from_json(st) for st in j["steps"]],
            eps_expr_from_json(j["claimed_total"]),
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed proof script: {e!r}") from e


class _Builder:
    """Records a script by actually applying each step, so the recorded
    locations are guaranteed to replay."""

    def __init__(self, name: str, initial: dg.Diagram, base: str):
        self.name = name
        self.initial = initial
        self.base = base
        self.state = RewriteState(initial)
        self.steps: list = []

    def step(self, rule: str, loc, **params):
        step = {"rule": rule, "loc": tuple(loc), "params": params}
        self.state = _step_apply(self.state, step)[0]
        self.steps.append(step)

    # -- node lookup on the current diagram --------------------------------
    def _only(self, pred, what):
        ids = [nid for nid, g in self.state.diagram.nodes.items() if pred(g)]
        if len(ids) != 1:
            raise RewriteError(f"expected exactly one {what}, found {ids}")
        return ids[0]

    def hole_id(self, label: str) -> int:
        return self._only(
            lambda g: g.kind == dg.HOLE and g.label == label, f"hole {label!r}"
        )

    def uniform_id(self, scale: int, legs: int) -> int:
        reg = _w(scale, self.base)
        return self._only(
            lambda g: g.kind == dg.UNIFORM
            and len(g.out_ports) == legs
            and g.out_ports[0] == reg,
            f"uniform {scale}*{self.base} with {legs} legs",
        )

    def discard_on(self, nid: int) -> int:
        d = self.state.diagram
        for s, t in d.wires:
            if s[0] == "n" and s[1] == nid and t[0] == "n" and d.nodes[t[1]].kind == dg.DISCARD:
                return t[1]
        raise RewriteError(f"no discard attached to node {nid}")

    def finish(self) -> ProofScript:
        return ProofScript(self.name, self.initial, self.steps, self.state.budget)


# -- shipped derivations -----------------------------------------------------


def _chain_initial(k: int, base: str) -> dg.Diagram:
    """A copied seed feeding k chained expansion stages S@1, S@4, ..."""
    w1 = _w(1, base)
    d = _gen(dg.uniform_gen(w1, 2)) @ _wires([DEV, DEV])
    for j in range(k):
        d = d >> (_wires([w1]) @ _gen(_stage_hole(4**j, base)))
    return d


def _apply_stage(bld: _Builder, level: int):
    """Unfold stage `level` and contract it into the running summary
    process T{level+1}: expand, spot-check both rounds, merge."""
    s = 4**level
    b = bld.base
    bld.step("expand_S", (bld.hole_id(f"S@{s}"),), scale=s, base=b)
    bld.step(
        "spot_check",
        sorted((bld.uniform_id(s, 2), bld.hole_id(f"R@{s}"))),
        scale=s,
        base=b,
    )
    bld.step(
        "spot_check",
        sorted((bld.uniform_id(2 * s, 2), bld.hole_id(f"R@{2 * s}"))),
        scale=2 * s,
        base=b,
    )
    ids = [bld.hole_id(f"B@{s}"), bld.hole_id(f"A@{s}"), bld.uniform_id(2 * s, 2), bld.hole_id(f"B@{2 * s}")]
    if level > 0:  # also the summary so far and the previous stage's last round
        ids += [bld.hole_id(f"T{level}"), bld.hole_id(f"A@{s // 2}"), bld.uniform_id(s, 2)]
    bld.step("merge", sorted(ids), name=f"T{level + 1}")


def script_chain(k: int, base: str = "N") -> ProofScript:
    """k chained stages collapse level by level; total cost is the sum
    of eps(2^i N) for i < 2k.  Built once per (k, base), however the
    arguments are spelled."""
    return _script_chain(k, base)


@_memo
def _script_chain(k: int, base: str) -> ProofScript:
    bld = _Builder(f"chain_k{k}", _chain_initial(k, base), base)
    for j in range(k):
        _apply_stage(bld, j)
    return bld.finish()


def _soundness_initial(base: str) -> dg.Diagram:
    """Adversarial two-stage run: an adversary prepares both device
    states plus side information; the final seed is published and the
    device outputs are discarded."""
    adv = dg.hole("adv", (), (DEV, DEV, SIDE), frozenset({"causal", "stochastic"}))
    d = _gen(dg.uniform_gen(_w(1, base), 1)) @ _gen(adv)
    for s in (1, 4):
        d = d >> (_gen(_stage_hole(s, base)) @ _wires([SIDE]))
    return d >> (_wires([_w(16, base)]) @ _discards([DEV, DEV]) @ _wires([SIDE]))


def ure_final_form(base: str = "N") -> dg.Diagram:
    """Target shape: a fresh width-16N uniform seed in tensor with a
    leftover subnormalized side-information state."""
    residual = dg.hole("residual", (), (SIDE,), STOCH)
    return _gen(dg.uniform_gen(_w(16, base), 1)) @ _gen(residual)


@_memo
def script_soundness_k2(base: str = "N") -> ProofScript:
    """Two-stage soundness: the published seed is within
    eps(N)+eps(2N)+eps(4N)+eps(8N) of a fresh uniform seed in tensor
    with a residual adversary state."""
    bld = _Builder("soundness_k2", _soundness_initial(base), base)
    bld.step("widen_uniform", (bld.uniform_id(1, 1),))
    for j in range(2):
        _apply_stage(bld, j)
    a8 = bld.hole_id("A@8")
    bld.step("causality", (a8, bld.discard_on(a8)))
    u16 = bld.uniform_id(16, 2)
    bld.step("absorb_discard", (u16, bld.discard_on(u16)))
    keep = bld.uniform_id(16, 1)
    rest = tuple(sorted(n for n in bld.state.diagram.nodes if n != keep))
    bld.step("merge", rest, name="residual")
    return bld.finish()


@_memo
def script_spot_check_lemma(base: str = "N") -> ProofScript:
    """The spot-check axiom decomposed into its two half-steps: replace
    the published seed (cost delta), then duplicate it back into the
    round (cost sqrt(2*delta))."""
    bld = _Builder("spot_check_lemma", _spot_lhs(1, base), base)
    bld.step(
        "starting_soundness",
        sorted((bld.uniform_id(1, 2), bld.hole_id("R@1"))),
        scale=1,
        base=base,
    )
    loc = tuple(sorted(bld.state.diagram.nodes))  # the whole diagram
    bld.step("dup_corollary", loc, scale=1, base=base)
    return bld.finish()


SHIPPED_SCRIPTS = {
    # one expansion stage under a copied seed collapses to fresh uniforms
    # plus a summary process, at cost eps(M) + eps(2M)
    "single_stage": _memo(lambda: replace(script_chain(1, "M"), name="single_stage")),
    "soundness_k2": script_soundness_k2,
    "spot_check_lemma": script_spot_check_lemma,
    **{f"chain_k{k}": partial(script_chain, k) for k in (1, 2, 3)},
}


# ---------------------------------------------------------------------------
# replay and validation


def _structural_rule(name: str, d: dg.Diagram, loc) -> RewriteRule:
    """The exact rule that a causality/absorb_discard/widen_uniform step
    applies, built from the one non-discard node at loc."""
    gens = [d.nodes[n] for n in loc if d.nodes[n].kind != dg.DISCARD]
    if len(gens) != 1:
        raise RewriteError(f"step {name!r} needs one non-discard node at {loc}")
    (g,) = gens
    if name == "causality":
        return rule_causality(g)
    if g.kind != dg.UNIFORM:
        raise RewriteError(f"step {name!r} needs a uniform state, found a {g.kind}")
    if name == "absorb_discard":
        return rule_uniform_absorbs_discard(g.out_ports[0], len(g.out_ports))
    return rule_widen_uniform(g.out_ports[0], len(g.out_ports))


STRUCTURAL = {"causality", "absorb_discard", "widen_uniform"}


def _step_apply(state: RewriteState, step):
    """Apply one script step; returns (new state, the rule it applied)."""
    name, loc = step["rule"], tuple(step["loc"])
    params = dict(step.get("params", {}))
    absent = [n for n in loc if n not in state.diagram.nodes]
    if absent:
        raise RewriteError(f"step {name!r}: loc names absent nodes {absent}")
    if name == "merge":
        if not isinstance(params.get("name"), str):
            raise RewriteError("a merge step needs a hole name in params.name")
        d, rule = merge_step(state.diagram, loc, params["name"])
        new = RewriteState(d, state.budget + rule.cost)
    else:
        if name in STRUCTURAL:
            rule = _structural_rule(name, state.diagram, loc)
        elif name in RULE_FACTORIES:
            try:
                rule = RULE_FACTORIES[name](params["scale"], params["base"])
            except (KeyError, TypeError, ValueError) as e:
                raise RewriteError(f"bad params for rule {name!r}: {e!r}") from e
        else:
            raise RewriteError(f"unknown rule {name!r}")
        new, _ = apply_rule(state, rule, loc)
    # holes that share a label denote one process, so a step may not
    # give a new node the label of a node that it leaves in place
    fresh = _new_labels(rule)
    nodes = state.diagram.nodes
    reused = {g.label for n, g in nodes.items() if g.label in fresh and n not in loc and g.opaque}
    if reused:
        raise RewriteError(
            f"step {name!r}: its rhs reuses the label(s) {sorted(reused)} of nodes outside its loc"
        )
    return new, rule


def _opaque_labels(d: dg.Diagram) -> set:
    return {g.label for g in d.opaque_nodes}


def _new_labels(rule: RewriteRule) -> set:
    """Labels of the opaque nodes that a rule introduces."""
    return _opaque_labels(rule.rhs) - _opaque_labels(rule.lhs)


def _later_reads(records) -> list:
    """Per replayed step, the labels whose binding a later step reads.
    A step reads the labels of its lhs.  It draws the labels it
    introduces anew (run_script first drops their stale bindings), so
    it reads no earlier binding of those."""
    live, out = set(), []
    for _, rule in reversed(records):
        out.append(frozenset(live))
        live = (live - _new_labels(rule)) | _opaque_labels(rule.lhs)
    return out[::-1]


def replay_script(script: ProofScript):
    """Symbolic replay; returns (final state, (step, rule) per step)."""
    state = RewriteState(script.initial)
    records = []
    for step in script.steps:
        state, rule = _step_apply(state, step)
        records.append((step, rule))
    return state, records


def _ensure_bindings(d: dg.Diagram, binding: dict, rng, cap2: int) -> bool:
    """Draw flag-respecting processes for unbound holes and payload-less
    boxes; skip any too large to represent.  True iff every one ends up
    bound."""
    ok = True
    for g in d.opaque_nodes:
        if g.label in binding:
            continue
        if rc.total_dim(g.in_ports + g.out_ports) <= cap2:
            binding[g.label] = sample_hole(g, rng)
        else:
            ok = False
    return ok


def rule_distance(rule: RewriteRule, binding: dict, rng, dims=None, cap2=math.inf, read=None):
    """Numeric check of a rule: bind its unbound holes, evaluate both
    sides and return the largest entry of their difference.

    Per binding_mode, "fresh" draws the lhs holes, then the rhs holes;
    "derive_lhs" draws the rhs holes and binds the lhs hole to the
    evaluated rhs, so the distance is 0 by construction; "derive_rhs"
    mirrors it.  A derived hole that was already bound is compared like
    any other.  New bindings are added to `binding`, so the steps of one
    script share their processes.  `read`, when given, holds the labels
    whose binding a later step reads: a derived hole outside it is left
    unbound, its source side drawn but not evaluated, and the distance
    is still 0.  Returns None when a side, or a hole that side needs,
    has more than cap2 carrier entries."""
    lhs, rhs = rule.lhs, rule.rhs
    if dims is not None:
        lhs, rhs = lhs.subst(dims), rhs.subst(dims)
    if rule.binding_mode == "fresh":
        _ensure_bindings(lhs, binding, rng, cap2)
        _ensure_bindings(rhs, binding, rng, cap2)
    else:
        src, dst = (rhs, lhs) if rule.binding_mode == "derive_lhs" else (lhs, rhs)
        (label,) = [g.label for g in dst.opaque_nodes]
        have = _ensure_bindings(src, binding, rng, cap2)
        if have and src.largest_carrier <= cap2 and label not in binding:
            if read is None or label in read:
                binding[label] = src.evaluate(binding)
            return 0.0
    tractable = max(lhs.largest_carrier, rhs.largest_carrier) <= cap2
    if not tractable or (_opaque_labels(lhs) | _opaque_labels(rhs)) - binding.keys():
        return None
    d = lhs.evaluate(binding).matrix - rhs.evaluate(binding).matrix
    return float(np.abs(d, out=d).real.max())


def derived_distance(rule: RewriteRule, dims=None) -> float:
    """rule_distance(rule, {}, rng, dims) of a derived rule, with no draw
    and no evaluation: under an empty binding the derived hole is bound
    to its source side's value, so the distance is 0 by construction
    once both sides type-check at dims.  Raises ValueError otherwise."""
    for side in (rule.lhs, rule.rhs):
        errs = (side if dims is None else side.subst(dims)).typecheck()
        if errs:
            raise ValueError(f"rule {rule.name}: ill-typed side: " + "; ".join(errs))
    return 0.0


def draws_fresh_holes(rule: RewriteRule) -> bool:
    """True iff another rng can make rule_distance(rule, {}, rng) return
    another value: the rule draws its holes "fresh" and has one.  A rule
    without a hole evaluates the same sides every time.  A derived
    rule's distance under an empty binding is 0 by construction, so
    `rules` settles it with derived_distance, drawing nothing."""
    return rule.binding_mode == "fresh" and bool(_opaque_labels(rule.lhs) | _opaque_labels(rule.rhs))


def verdict(rule: RewriteRule, dist, tol: float) -> tuple[str, bool]:
    """(status, ok) of a rule's distance from rule_distance: None is
    "skipped" and passes; an exact rule passes when the distance is at
    most tol; an axiom's distance is a probe that passes when it is
    finite.  NaN never passes."""
    if dist is None:
        return "skipped", True
    if rule.validation_mode == "exact":
        ok = dist <= tol
        return ("exact-ok" if ok else "exact-failed"), ok
    ok = math.isfinite(dist)
    return ("axiom" if ok else "axiom-failed"), ok


LAM_K_MAX = 30  # budget_eval sums a lam series over i = 0..LAM_K_MAX and bounds the rest
DIM_CAP = 2**7  # run_script checks a step numerically up to DIM_CAP**2 carrier entries
CHECK_FORMAT_VERSION = 2  # 2: step distances come from evaluate, whose summation order changed


def run_script(
    script: ProofScript,
    eps_fns=None,
    N: int = 1,
    dims=None,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Replay a proof script and report on it.

    Always performs the symbolic replay (checking that the accumulated
    budget matches the script's claim).  With `dims` (e.g. {"N": 1})
    each step is additionally validated numerically in isolation under
    a seeded random binding and judged by verdict: exact steps must
    agree to `tol`; axiom steps have their measured deviation recorded,
    and it must be finite; steps whose instantiated carriers exceed
    DIM_CAP**2 entries are skipped.  With `eps_fns` (a callable or a
    {name: callable} dict) the budget is also evaluated at base value N."""
    state, records = replay_script(script)
    cap2 = DIM_CAP * DIM_CAP
    rng = np.random.default_rng(seed)
    binding: dict = {}
    verified = True
    steps_out = []
    for (step, rule), read in zip(records, _later_reads(records)):
        entry = {
            "rule": step["rule"],
            "loc": list(step["loc"]),
            "cost": str(rule.cost),
            "status": "symbolic",
            "distance": None,
        }
        if dims is not None:
            # a label the step introduces names a new process; a binding
            # left by an earlier node of that label is stale
            for label in _new_labels(rule):
                binding.pop(label, None)
            entry["distance"] = rule_distance(rule, binding, rng, dims, cap2, read)
            entry["status"], ok = verdict(rule, entry["distance"], tol)
            verified = verified and ok
        steps_out.append(entry)
    claimed_matches = state.budget == script.claimed_total
    verified = verified and claimed_matches
    report = {
        "format_version": CHECK_FORMAT_VERSION,
        "script": script.name,
        "verified": verified,
        "claimed_total_matches": claimed_matches,
        "budget": str(state.budget),
        "budget_atoms": eps_expr_to_json(state.budget),
        "budget_numeric": None,
        "steps": steps_out,
        "final": dg.diagram_to_json(state.diagram),
    }
    if eps_fns is not None:
        report["budget_numeric"] = budget_eval(state.budget, eps_fns, N)
    return report
