"""Typed string-diagram IR, textual front end, typing, and evaluation.

A Diagram is an open acyclic port graph.  Nodes are generators (boxes,
spiders, uniforms, discards, scalars, holes); wires connect an output
port of one node (or a boundary input) to an input port of another node
(or a boundary output).  Identity and swap are not generator kinds:
they are wiring, made by `Diagram.id_wires` and `Diagram.swap`, so
diagrams that differ only by sliding wires around (planar isotopy,
interchange) share one representation; `canonical_form` additionally
fixes a deterministic node numbering so such diagrams compare equal
structurally.

Diagrams are read bottom to top: `a >> b` runs a first.  `a @ b` places
a to the left of b.  Holes are named placeholders; a diagram with holes
denotes the set of processes obtained by binding each hole to a process
of its declared type, and `evaluate` picks the member selected by a
HoleBinding.

Registers may carry symbolic widths (SymWidth); such diagrams support
everything structural but must be substituted to concrete dimensions
before evaluation.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import count, groupby
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import FORMAT_VERSION
from . import regcalc as rc
from .regcalc import Register, SymWidth, ProcessTensor

BOX = "box"
SPIDER = "spider"
UNIFORM = "uniform"
DISCARD = "discard"
SCALAR = "scalar"
HOLE = "hole"

GENERATOR_KINDS = {BOX, SPIDER, UNIFORM, DISCARD, SCALAR, HOLE}


@dataclass(frozen=True)
class Generator:
    """A diagram node: a concrete or opaque process with typed ports."""

    kind: str
    label: str | None = None
    in_ports: tuple[Register, ...] = ()
    out_ports: tuple[Register, ...] = ()
    payload: object = None  # ProcessTensor for boxes, float for scalars
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "in_ports", tuple(self.in_ports))
        object.__setattr__(self, "out_ports", tuple(self.out_ports))
        object.__setattr__(self, "flags", frozenset(self.flags))
        if self.kind in (SPIDER, UNIFORM):
            regs = set(self.in_ports) | set(self.out_ports)
            if len(regs) != 1:
                raise ValueError(f"{self.kind} ports must share one register type")
            if regs.pop().kind != rc.CLASSICAL:
                raise ValueError(f"{self.kind} needs a classical register")
        if self.kind == SCALAR:
            x = float(self.payload)
            if not (0.0 <= x <= 1.0):
                raise ValueError("scalar payload must lie in [0, 1]")

    @property
    def symbolic(self) -> bool:
        return any(r.symbolic for r in self.in_ports + self.out_ports)

    @property
    def opaque(self) -> bool:
        """Its process comes from a binding: a hole, or a box with no payload."""
        return self.kind == HOLE or (self.kind == BOX and not isinstance(self.payload, ProcessTensor))

    @property
    def causal(self) -> bool:
        """Discarding its outputs discards its inputs: uniforms, discards,
        the scalar 1, and holes and boxes flagged causal."""
        if self.kind == SCALAR:
            return float(self.payload) == 1.0
        return self.kind in (UNIFORM, DISCARD) or (self.kind in (HOLE, BOX) and "causal" in self.flags)

    @property
    def stochastic(self) -> bool:
        """Trace non-increasing: uniforms, discards, every scalar (all lie
        in [0, 1]), and holes and boxes flagged causal or stochastic."""
        if self.kind in (HOLE, BOX):
            return "causal" in self.flags or "stochastic" in self.flags
        return self.kind in (UNIFORM, DISCARD, SCALAR)

    def subst(self, values: Mapping[str, int]) -> "Generator":
        return replace(
            self,
            in_ports=tuple(r.subst(values) for r in self.in_ports),
            out_ports=tuple(r.subst(values) for r in self.out_ports),
        )

    def semantics(self, binding: Mapping[str, ProcessTensor] | None = None) -> ProcessTensor:
        """Concrete ProcessTensor of this generator (holes via binding)."""
        if self.opaque:
            if not binding or self.label not in binding:
                raise KeyError(f"unbound {self.kind} {self.label!r}")
            return binding[self.label]
        if self.kind == BOX:
            return self.payload
        if self.kind == SPIDER:
            reg = (self.in_ports + self.out_ports)[0]
            return rc.spider_map(reg, len(self.in_ports), len(self.out_ports))
        if self.kind == UNIFORM:
            reg = self.out_ports[0]
            return rc.uniform(reg, len(self.out_ports))
        if self.kind == DISCARD:
            return rc.discard(self.in_ports[0])
        return rc.number(float(self.payload))


def box(label, in_ports, out_ports, payload=None, flags=()):
    return Generator(BOX, label, tuple(in_ports), tuple(out_ports), payload, frozenset(flags))


def hole(label, in_ports, out_ports, flags=()):
    return Generator(HOLE, label, tuple(in_ports), tuple(out_ports), None, frozenset(flags))


def spider_gen(reg, legs_in, legs_out):
    return Generator(SPIDER, None, (reg,) * legs_in, (reg,) * legs_out)


def uniform_gen(reg, legs):
    return Generator(UNIFORM, None, (), (reg,) * legs)


def discard_gen(reg):
    return Generator(DISCARD, None, (reg,), ())


def scalar_gen(x):
    return Generator(SCALAR, None, (), (), float(x))


# endpoint encodings: ("in", k) / ("out", k) boundary; ("n", nid, port) node
Src = tuple
Dst = tuple


@dataclass(frozen=True)
class Diagram:
    """Open port graph.  Nodes keyed by integer ids; wires are
    (source endpoint, target endpoint) pairs.  Sources are boundary
    inputs ("in", k) or node output ports ("n", nid, i); targets are
    boundary outputs ("out", k) or node input ports ("n", nid, i).

    A diagram is an immutable value: `nodes` is a read-only mapping and
    `wires` a tuple, and code that changes a diagram builds a new one.
    So its type check, topological order and contraction plan, its
    opaque nodes and largest carrier, and each width substitution, are
    computed once per diagram object and kept on it, outside the fields
    that `==` and `repr` read."""

    nodes: Mapping[int, Generator] = field(default_factory=dict)
    wires: tuple[tuple[Src, Dst], ...] = ()
    in_types: tuple[Register, ...] = ()
    out_types: tuple[Register, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "in_types", tuple(self.in_types))
        object.__setattr__(self, "out_types", tuple(self.out_types))

    # -- construction ------------------------------------------------------
    @staticmethod
    def id_wires(types: Sequence[Register]) -> "Diagram":
        types = tuple(types)
        return Diagram(
            {},
            [(("in", k), ("out", k)) for k in range(len(types))],
            types,
            types,
        )

    @staticmethod
    def swap(a: Register, b: Register) -> "Diagram":
        """Two crossing wires: input 0 (type a) leaves as output 1."""
        return Diagram({}, [(("in", 0), ("out", 1)), (("in", 1), ("out", 0))], (a, b), (b, a))

    @staticmethod
    def from_generator(g: Generator) -> "Diagram":
        wires = [(("in", k), ("n", 0, k)) for k in range(len(g.in_ports))]
        wires += [(("n", 0, k), ("out", k)) for k in range(len(g.out_ports))]
        return Diagram({0: g}, wires, g.in_ports, g.out_ports)

    def _fresh(self) -> int:
        return max(self.nodes, default=-1) + 1

    def then(self, other: "Diagram") -> "Diagram":
        """Run self, then other.  A wire into self's output k continues
        in place to where other's input k goes, and other's remaining
        wires follow, so composition keeps wire order and `>>` is
        associative wire for wire."""
        if self.out_types != other.in_types:
            raise TypeError(
                f"sequential composition type mismatch: {list(self.out_types)} vs {list(other.in_types)}"
            )
        off = self._fresh()
        nodes = dict(self.nodes)
        for nid, g in other.nodes.items():
            nodes[nid + off] = g

        def shift(ep):
            return ("n", ep[1] + off, ep[2]) if ep[0] == "n" else ep

        consumed = {s[1]: shift(t) for s, t in other.wires if s[0] == "in"}
        wires = [(s, consumed[t[1]] if t[0] == "out" else t) for s, t in self.wires]
        wires += [(shift(s), shift(t)) for s, t in other.wires if s[0] != "in"]
        return Diagram(nodes, wires, self.in_types, other.out_types)

    def beside(self, other: "Diagram") -> "Diagram":
        off = self._fresh()
        n_in, n_out = len(self.in_types), len(self.out_types)
        nodes = dict(self.nodes)
        for nid, g in other.nodes.items():
            nodes[nid + off] = g

        def shift(ep):
            if ep[0] == "n":
                return ("n", ep[1] + off, ep[2])
            if ep[0] == "in":
                return ("in", ep[1] + n_in)
            return ("out", ep[1] + n_out)

        wires = list(self.wires)
        wires += [(shift(s), shift(t)) for s, t in other.wires]
        return Diagram(
            nodes, wires, self.in_types + other.in_types, self.out_types + other.out_types
        )

    def __rshift__(self, other):
        return self.then(other)

    def __matmul__(self, other):
        return self.beside(other)

    # -- structure accessors ----------------------------------------------
    @cached_property
    def symbolic(self) -> bool:
        return any(g.symbolic for g in self.nodes.values()) or any(
            r.symbolic for r in self.in_types + self.out_types
        )

    @cached_property
    def _substs(self) -> dict:
        return {}

    def subst(self, values: Mapping[str, int]) -> "Diagram":
        """The diagram with every symbolic width instantiated from
        `values`.  Built once per diagram and set of values; a later call
        with equal values returns the same diagram object."""
        key = tuple(sorted(values.items()))
        out = self._substs.get(key)
        if out is None:
            out = self._substs[key] = Diagram(
                {nid: g.subst(values) for nid, g in self.nodes.items()},
                self.wires,
                tuple(r.subst(values) for r in self.in_types),
                tuple(r.subst(values) for r in self.out_types),
            )
        return out

    @cached_property
    def opaque_nodes(self) -> tuple[Generator, ...]:
        """The nodes whose processes come from a binding, by node id."""
        return tuple(self.nodes[nid] for nid in sorted(self.nodes) if self.nodes[nid].opaque)

    @cached_property
    def largest_carrier(self) -> int:
        """The most carrier entries of any node or of the boundary.
        Needs concrete widths."""
        sizes = [rc.total_dim(g.in_ports + g.out_ports) for g in self.nodes.values()]
        return max(sizes + [rc.total_dim(self.in_types + self.out_types)])

    def wire_type(self, wire: tuple[Src, Dst]) -> Register:
        s, t = wire
        if s[0] == "n":
            return self.nodes[s[1]].out_ports[s[2]]
        return self.in_types[s[1]]

    def topo_order(self) -> list[int]:
        """Node ids, each after every node that feeds it, the least ready
        id first.  Needs well-formed wiring (see `typecheck`)."""
        return list(self._order)

    @cached_property
    def _order(self) -> tuple[int, ...]:
        succ = {nid: set() for nid in self.nodes}
        preds = dict.fromkeys(self.nodes, 0)
        for s, t in self.wires:
            # parallel wires between one node pair count once
            if s[0] == "n" and t[0] == "n" and t[1] not in succ[s[1]]:
                succ[s[1]].add(t[1])
                preds[t[1]] += 1
        ready = [nid for nid, c in preds.items() if c == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for m in succ[nid]:
                preds[m] -= 1
                if preds[m] == 0:
                    heapq.heappush(ready, m)
        if len(order) != len(self.nodes):
            raise ValueError("diagram contains a cycle")
        return tuple(order)

    # -- typing ------------------------------------------------------------
    def typecheck(self) -> list[str]:
        """Return all violations (empty list when well-typed)."""
        return list(self._checked[0])

    @cached_property
    def _checked(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """(violations, topological order).  A cycle is looked for once the
        wiring is otherwise well formed; the order is empty on a violation."""
        errors = []
        seen_src, seen_dst = {}, {}
        for w in self.wires:
            s, t = w
            if s[0] not in ("in", "n") or t[0] not in ("out", "n"):
                errors.append(f"malformed wire {w}")
                continue
            seen_src[s] = seen_src.get(s, 0) + 1
            seen_dst[t] = seen_dst.get(t, 0) + 1
            try:
                ts = self.in_types[s[1]] if s[0] == "in" else self.nodes[s[1]].out_ports[s[2]]
                tt = self.out_types[t[1]] if t[0] == "out" else self.nodes[t[1]].in_ports[t[2]]
            except (KeyError, IndexError):
                errors.append(f"wire {w} references a missing node or port")
                continue
            if ts != tt:
                errors.append(f"wire {w} connects {ts!r} to {tt!r}")
        for ep, c in list(seen_src.items()) + list(seen_dst.items()):
            if c > 1:
                errors.append(f"port {ep} used {c} times")
        for k in range(len(self.in_types)):
            if ("in", k) not in seen_src:
                errors.append(f"boundary input {k} not connected")
        for k in range(len(self.out_types)):
            if ("out", k) not in seen_dst:
                errors.append(f"boundary output {k} not connected")
        for nid, g in self.nodes.items():
            for i in range(len(g.in_ports)):
                if ("n", nid, i) not in seen_dst:
                    errors.append(f"node {nid} input port {i} dangling")
            for i in range(len(g.out_ports)):
                if ("n", nid, i) not in seen_src:
                    errors.append(f"node {nid} output port {i} dangling")
        if errors:
            return tuple(errors), ()
        try:
            return (), self._order
        except ValueError as e:
            return (str(e),), ()

    # -- evaluation ---------------------------------------------------------
    @cached_property
    def _plan(self):
        """evaluate's contraction, worked out from the wiring alone: per
        node in topological order its tensor shape and the (piece, axes)
        pairs it is contracted with, then the dimensions of the
        pass-through identities, the axis permutation of the outer
        product of the pieces left, and the matrix shape.  Wire i labels
        its axes; a pass-through wire's input end is labelled n + i."""
        n = len(self.wires)
        by_src = {s: i for i, (s, _) in enumerate(self.wires)}
        by_dst = {t: i for i, (_, t) in enumerate(self.wires)}
        steps = []
        pieces: dict[int, list[int]] = {}  # piece key -> axis labels
        piece_of: dict[int, int] = {}  # open wire -> key of the piece holding it
        for nid in self._checked[1]:
            g = self.nodes[nid]
            in_w = [by_dst[("n", nid, i)] for i in range(len(g.in_ports))]
            labels = [by_src[("n", nid, i)] for i in range(len(g.out_ports))] + in_w
            merges = []
            for key in dict.fromkeys(piece_of[w] for w in in_w if w in piece_of):
                p_labels = pieces.pop(key)
                shared = [w for w in in_w if piece_of.get(w) == key]
                merges.append((key, ([p_labels.index(w) for w in shared], [labels.index(w) for w in shared])))
                labels = [w for w in p_labels if w not in shared] + [w for w in labels if w not in shared]
            steps.append((nid, [r.total_dim for r in g.out_ports + g.in_ports], merges))
            pieces[nid] = labels
            piece_of.update(dict.fromkeys(labels, nid))
        through = [i for i, (s, t) in enumerate(self.wires) if s[0] == "in" and t[0] == "out"]
        terms = list(pieces.values()) + [[i, n + i] for i in through]
        pos = {w: k for k, w in enumerate(w for labels in terms for w in labels)}
        outs = [by_dst[("out", k)] for k in range(len(self.out_types))]
        ins = [by_src[("in", k)] for k in range(len(self.in_types))]
        perm = [pos[w] for w in outs] + [pos.get(n + i, pos[i]) for i in ins]
        eyes = [self.in_types[self.wires[i][0][1]].total_dim for i in through]
        return steps, eyes, perm, (rc.total_dim(self.out_types), rc.total_dim(self.in_types))

    def evaluate(self, binding: Mapping[str, ProcessTensor] | None = None) -> ProcessTensor:
        """Contract the diagram to a ProcessTensor.

        Nodes run in topological order; each is contracted into every
        connected piece that holds one of its input wires, and the result
        is one piece, so unconnected pieces meet only in the final outer
        product.  A boundary-to-boundary wire is an identity.  The type
        check and this contraction plan are worked out on the first call
        and reused by every later one; only the binding's and the
        generators' tensors are read per call.  The result's matrix is
        frozen, so its ProcessTensor keeps it without a copy."""
        errs, _ = self._checked
        if errs:
            raise ValueError("ill-typed diagram: " + "; ".join(errs))
        if self.symbolic:
            raise ValueError("symbolic diagram: substitute widths before evaluating")
        binding = binding or {}
        # check bindings up front for clearer errors
        for g in self.nodes.values():
            if g.opaque:
                b = g.semantics(binding)
                if tuple(b.in_regs) != g.in_ports or tuple(b.out_regs) != g.out_ports:
                    raise TypeError(
                        f"binding for {g.kind} {g.label!r} has type "
                        f"{list(b.in_regs)}->{list(b.out_regs)}, expected "
                        f"{list(g.in_ports)}->{list(g.out_ports)}"
                    )

        steps, eyes, perm, shape = self._plan
        pieces: dict[int, np.ndarray] = {}
        for nid, dims, merges in steps:
            t = self.nodes[nid].semantics(binding).matrix.reshape(dims)
            for key, axes in merges:
                t = np.tensordot(pieces.pop(key), t, axes)
            pieces[nid] = t
        tensor = reduce(np.multiply.outer, [*pieces.values(), *map(np.eye, eyes)] or [np.ones(())])
        m = np.transpose(tensor, perm).reshape(shape)
        # freeze what was made here; the first read-only array down the
        # chain is, or is a view of, a ProcessTensor's matrix
        a = m
        while isinstance(a, np.ndarray) and a.flags.writeable:
            a.setflags(write=False)
            a = a.base
        return ProcessTensor(self.in_types, self.out_types, m)

    def dagger(self) -> "Diagram":
        """Mirror the diagram top-to-bottom (adjoint of the denotation).

        Concrete generators become boxes carrying the adjoint payload;
        holes stay holes (a binding for the mirror should supply the
        adjoint processes).
        """
        nodes = {}
        for nid, g in self.nodes.items():
            if g.opaque:
                nodes[nid] = Generator(g.kind, g.label, g.out_ports, g.in_ports, None, g.flags)
            else:
                sem = g.semantics({})
                nodes[nid] = box(
                    g.label, g.out_ports, g.in_ports, rc.dagger_conjugate_transpose(sem)
                )

        def flip(ep):
            if ep[0] == "in":
                return ("out", ep[1])
            if ep[0] == "out":
                return ("in", ep[1])
            return ep

        wires = [(flip(t), flip(s)) for s, t in self.wires]
        return Diagram(nodes, wires, self.out_types, self.in_types)


# ---------------------------------------------------------------------------
# canonical form


def _payload_digest(g: Generator) -> str:
    if g.kind == BOX and isinstance(g.payload, ProcessTensor):
        h = hashlib.sha256()
        h.update(np.round(np.asarray(g.payload.matrix), 10).tobytes())
        return h.hexdigest()[:16]
    if g.kind == SCALAR:
        return repr(round(float(g.payload), 12))
    return ""


def _reg_key(r: Register):
    if r.symbolic:
        return (r.kind, "sym", r.base_dim.scale, r.base_dim.symbol)
    return (r.kind, "dim", r.base_dim)


def _node_key(g: Generator, anonymize_holes: bool) -> tuple:
    label = "" if (anonymize_holes and g.kind == HOLE) else (g.label or "")
    return (
        g.kind,
        label,
        tuple(sorted(g.flags)),
        tuple(_reg_key(r) for r in g.in_ports),
        tuple(_reg_key(r) for r in g.out_ports),
        _payload_digest(g),
    )


def canonical_form(d: Diagram, anonymize_holes: bool = False) -> Diagram:
    """Deterministic relabeling: nodes renumbered 0..n-1, wires sorted,
    so that equal diagrams compare equal with `==`.

    Ports are ordered and the boundary is labelled, so a breadth-first
    walk taking neighbours in port order (inputs, then outputs) from the
    nodes on boundary inputs, then outputs, numbers them without choice.
    Each closed component is walked from each of its least-key nodes and
    keeps the least certificate (node keys in walk order, renumbered
    wires); closed components follow in certificate order."""
    key = {nid: _node_key(g, anonymize_holes) for nid, g in d.nodes.items()}
    ports = {nid: [] for nid in d.nodes}  # (side, port, their port, neighbour)
    roots_in, roots_out = {}, {}
    for s, t in d.wires:
        if s[0] == "n" and t[0] == "n":
            ports[t[1]].append((0, t[2], s[2], s[1]))
            ports[s[1]].append((1, s[2], t[2], t[1]))
        elif t[0] == "n":
            roots_in[s[1]] = t[1]
        elif s[0] == "n":
            roots_out[t[1]] = s[1]
    for ps in ports.values():
        ps.sort()

    def walk(roots):
        order = list(dict.fromkeys(roots))
        seen = set(order)
        for nid in order:  # breadth first: the list grows as it is read
            for *_, other in ports[nid]:
                if other not in seen:
                    seen.add(other)
                    order.append(other)
        return order

    def certified(root):
        order = walk([root])
        renum = {nid: i for i, nid in enumerate(order)}
        wires = [(renum[n], p, renum[o], q) for n in order for side, p, q, o in ports[n] if side]
        return (tuple(key[n] for n in order), tuple(sorted(wires))), order

    order = walk([roots_in[k] for k in sorted(roots_in)] + [roots_out[k] for k in sorted(roots_out)])
    placed = set(order)
    closed = []
    for nid in sorted(d.nodes):
        if nid not in placed:
            comp = walk([nid])
            placed.update(comp)
            least = min(key[n] for n in comp)
            closed.append(min((certified(n) for n in comp if key[n] == least), key=lambda c: c[0]))
    for _, comp in sorted(closed, key=lambda c: c[0]):
        order += comp

    renum = {nid: i for i, nid in enumerate(order)}

    def rename(ep):
        return ("n", renum[ep[1]], ep[2]) if ep[0] == "n" else ep

    nodes = {i: d.nodes[nid] for i, nid in enumerate(order)}
    wires = sorted((rename(s), rename(t)) for s, t in d.wires)
    return Diagram(nodes, wires, d.in_types, d.out_types)


def diagrams_equal(a: Diagram, b: Diagram, anonymize_holes: bool = False) -> bool:
    if a.in_types != b.in_types or a.out_types != b.out_types:
        return False
    ca = canonical_form(a, anonymize_holes)
    cb = canonical_form(b, anonymize_holes)
    ka = {n: _node_key(g, anonymize_holes) for n, g in ca.nodes.items()}
    kb = {n: _node_key(g, anonymize_holes) for n, g in cb.nodes.items()}
    return ka == kb and ca.wires == cb.wires


# ---------------------------------------------------------------------------
# DSL front end


class DiagramParseError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{ln}:{col}: {msg}" for ln, col, msg in self.errors))


_NAME = r"[A-Za-z_][A-Za-z_0-9@]*"
_TOKEN = re.compile(rf"\s*(->|[;*():=]|{_NAME}|[0-9]+(?:\.[0-9]+)?|\S)")
_KEYWORDS = frozenset({"id", "swap", "spider", "uniform", "discard", "scalar", "reg", "box", "hole"})


def _tokenize(line: str, lineno: int):
    out, pos = [], 0
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if not m:
            break
        tok = m.group(1)
        out.append((tok, lineno, m.start(1) + 1))
        pos = m.end()
    return out


_AUTO_REG = re.compile(r"^([CQ])([0-9]+)$")


class _Env:
    def __init__(self):
        self.regs: dict[str, Register] = {}
        self.decls: dict[str, Generator] = {}

    def reg(self, name, lineno, col):
        if name in self.regs:
            return self.regs[name]
        m = _AUTO_REG.match(name)
        if m:
            kind = rc.CLASSICAL if m.group(1) == "C" else rc.QUANTUM
            r = Register(kind, int(m.group(2)))
            self.regs[name] = r
            return r
        raise DiagramParseError([(lineno, col, f"unknown register {name!r}")])


def _tok(tokens, i):
    """tokens[i]; a parse error at the last token when the input ends first."""
    if i >= len(tokens):
        _, ln, col = tokens[-1]
        raise DiagramParseError([(ln, col, "unexpected end of input")])
    return tokens[i]


def _parse_type(tokens, i, env):
    # 'I' or reg ('*' reg)*
    regs = []
    if _tok(tokens, i)[0] == "I":
        return (), i + 1
    while True:
        regs.append(env.reg(*_tok(tokens, i)))
        i += 1
        if i < len(tokens) and tokens[i][0] == "*":
            i += 1
            continue
        return tuple(regs), i


def _refuse_trailing(tokens, allowed):
    """A parse error at the first of a declaration's trailing tokens that
    is not one of the allowed words."""
    for tok, ln, col in tokens:
        if tok not in allowed:
            raise DiagramParseError([(ln, col, f"unexpected token {tok!r}")])


def parse_diagram(text: str) -> Diagram:
    """Parse the line-oriented DSL into a Diagram.

    Declarations: `reg NAME = classical N` / `reg NAME = quantum N`,
    `box NAME : T1*T2 -> T3`, `hole NAME : T -> T` (append `causal` or
    `stochastic` after the type to set flags).  Nothing else may follow
    a declaration: a trailing token is a parse error.  Every remaining
    non-comment line is part of one diagram expression over `;`
    (run first ; run second), `*` (side by side), `id R` (`id I` is
    the empty diagram), `swap R S`, `spider R k_in k_out`, `uniform R k`,
    `discard R`, `scalar X`.
    Names match `[A-Za-z_][A-Za-z_0-9@]*`; C<n> and Q<n> are implicitly
    declared registers.
    """
    env = _Env()
    expr_tokens = []
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = _tokenize(line, lineno)
        head = toks[0][0]
        try:
            if head == "reg":
                # reg NAME = classical N | quantum N
                if len(toks) < 5 or toks[2][0] != "=" or toks[3][0] not in ("classical", "quantum"):
                    raise DiagramParseError([(lineno, 1, "expected `reg NAME = classical N | quantum N`")])
                _refuse_trailing(toks[5:], ())
                name = toks[1][0]
                kind = toks[3][0]
                dim_tok = toks[4][0]
                if dim_tok.isdigit():
                    dim: int | SymWidth = int(dim_tok)
                else:
                    dim = SymWidth(1, dim_tok)
                env.regs[name] = Register(kind, dim)
            elif head in ("box", "hole"):
                name = _tok(toks, 1)[0]
                if _tok(toks, 2)[0] != ":":
                    raise DiagramParseError([(lineno, toks[2][2], "expected `:`")])
                tin, i = _parse_type(toks, 3, env)
                if _tok(toks, i)[0] != "->":
                    raise DiagramParseError([(lineno, toks[i][2], "expected `->`")])
                tout, i = _parse_type(toks, i + 1, env)
                _refuse_trailing(toks[i:], ("causal", "stochastic"))
                flags = frozenset(t[0] for t in toks[i:])
                env.decls[name] = (box if head == "box" else hole)(name, tin, tout, flags=flags)
            else:
                expr_tokens.extend(toks)
        except DiagramParseError as e:
            errors.extend(e.errors)
    if errors:
        raise DiagramParseError(errors)
    if not expr_tokens:
        raise DiagramParseError([(0, 0, "no diagram expression")])
    d, i = _parse_expr(expr_tokens, 0, env)
    if i != len(expr_tokens):
        tok, ln, col = expr_tokens[i]
        raise DiagramParseError([(ln, col, f"unexpected token {tok!r}")])
    return d


def _parse_expr(tokens, i, env):
    d, i = _parse_par(tokens, i, env)
    while i < len(tokens) and tokens[i][0] == ";":
        e, i = _parse_par(tokens, i + 1, env)
        try:
            d = d.then(e)
        except TypeError as err:
            tok, ln, col = tokens[i - 1] if i - 1 < len(tokens) else ("", 0, 0)
            raise DiagramParseError([(ln, col, str(err))])
    return d, i


def _parse_par(tokens, i, env):
    d, i = _parse_atom(tokens, i, env)
    while i < len(tokens) and tokens[i][0] == "*":
        e, i = _parse_atom(tokens, i + 1, env)
        d = d.beside(e)
    return d, i


def _expect_int(tokens, i):
    tok, ln, col = _tok(tokens, i)
    if not tok.isdigit():
        raise DiagramParseError([(ln, col, f"expected integer, got {tok!r}")])
    return int(tok), i + 1


def _parse_atom(tokens, i, env):
    tok, ln, col = _tok(tokens, i)
    if tok == "(":
        d, i = _parse_expr(tokens, i + 1, env)
        if i >= len(tokens) or tokens[i][0] != ")":
            raise DiagramParseError([(ln, col, "unbalanced parenthesis")])
        return d, i + 1
    if tok == "id":
        if _tok(tokens, i + 1)[0] == "I":
            return Diagram.id_wires(()), i + 2
        r = env.reg(*_tok(tokens, i + 1))
        return Diagram.id_wires([r]), i + 2
    if tok == "swap":
        r1 = env.reg(*_tok(tokens, i + 1))
        r2 = env.reg(*_tok(tokens, i + 2))
        return Diagram.swap(r1, r2), i + 3
    if tok == "spider":
        r = env.reg(*_tok(tokens, i + 1))
        k_in, j = _expect_int(tokens, i + 2)
        k_out, j = _expect_int(tokens, j)
        if k_in + k_out < 1:
            raise DiagramParseError([(ln, col, "spider needs at least one leg")])
        return Diagram.from_generator(spider_gen(r, k_in, k_out)), j
    if tok == "uniform":
        r = env.reg(*_tok(tokens, i + 1))
        k, j = _expect_int(tokens, i + 2)
        if k < 1:
            raise DiagramParseError([(ln, col, "uniform needs at least one leg")])
        return Diagram.from_generator(uniform_gen(r, k)), j
    if tok == "discard":
        r = env.reg(*_tok(tokens, i + 1))
        return Diagram.from_generator(discard_gen(r)), i + 2
    if tok == "scalar":
        val, j = _tok(tokens, i + 1)[0], i + 2
        try:
            x = float(val)
        except ValueError:
            raise DiagramParseError([(ln, col, f"bad scalar {val!r}")])
        return Diagram.from_generator(scalar_gen(x)), j
    if tok in env.decls:
        return Diagram.from_generator(env.decls[tok]), i + 1
    raise DiagramParseError([(ln, col, f"unknown name {tok!r}")])


# ---------------------------------------------------------------------------
# printing


def print_diagram(d: Diagram) -> str:
    """DSL source for d: layered canonical text whose parse is canonically
    equal to d, every scalar the same float.  Nodes are grouped by longest
    path from the inputs, and adjacent swaps bring each node's inputs side
    by side.  Unlabelled boxes and holes are named f0, f1, ..., skipping
    labels in use.  Raises ValueError on what the DSL cannot write: a
    scaled symbolic width, a box payload, a label or width symbol that is
    not a DSL name (`[A-Za-z_][A-Za-z_0-9@]*`, no keyword), one label on
    two different generators, or a flag other than a box's or a hole's
    `causal` and `stochastic`."""
    d = canonical_form(d)
    # registers in order of first appearance, so names do not follow string hashing
    regs, lines = {}, []
    ports = [p for g in d.nodes.values() for p in g.in_ports + g.out_ports]
    for r in dict.fromkeys([*d.in_types, *d.out_types, *ports]):
        if not r.symbolic:
            regs[r] = ("C" if r.kind == rc.CLASSICAL else "Q") + str(r.base_dim)
            continue
        if r.base_dim.scale != 1:
            raise ValueError("cannot print scaled symbolic widths as DSL")
        regs[r] = f"r{len(regs)}"
        lines.append(f"reg {regs[r]} = {r.kind} {r.base_dim.symbol}")

    # each node's text: a box or hole is its declared name
    atoms, decls = {}, {}
    taken = {g.label for g in d.nodes.values()}
    fresh = (f"f{k}" for k in count() if f"f{k}" not in taken)
    for nid, g in d.nodes.items():
        if g.flags - ({"causal", "stochastic"} if g.kind in (BOX, HOLE) else set()):
            raise ValueError(f"cannot print the flags {sorted(g.flags)} of a {g.kind} as DSL")
        if g.kind in (BOX, HOLE):
            if not g.opaque:
                raise ValueError(f"cannot print the payload of box {g.label!r} as DSL")
            name = atoms[nid] = next(fresh) if g.label is None else g.label
            if decls.setdefault(name, g) != g:
                raise ValueError(f"label {name!r} names two different generators")
        elif g.kind == SCALAR:  # the shortest digits that read back as the same float; -0.0 as 0
            atoms[nid] = f"scalar {np.format_float_positional(abs(float(g.payload)), trim='-')}"
        elif g.kind == SPIDER:
            atoms[nid] = f"spider {regs[(g.in_ports + g.out_ports)[0]]} {len(g.in_ports)} {len(g.out_ports)}"
        elif g.kind == UNIFORM:
            atoms[nid] = f"uniform {regs[g.out_ports[0]]} {len(g.out_ports)}"
        else:
            atoms[nid] = f"discard {regs[g.in_ports[0]]}"
    for name in [*decls, *(r.base_dim.symbol for r in regs if r.symbolic)]:
        if not isinstance(name, str) or not re.fullmatch(_NAME, name) or name in _KEYWORDS:
            raise ValueError(f"cannot print {name!r} as a DSL name")
    for name, g in sorted(decls.items()):
        tin = "*".join(regs[r] for r in g.in_ports) or "I"
        tout = "*".join(regs[r] for r in g.out_ports) or "I"
        flags = "".join(f" {f}" for f in ("causal", "stochastic") if f in g.flags)
        lines.append(f"{g.kind} {name} : {tin} -> {tout}{flags}")

    by_src = {s: i for i, (s, _) in enumerate(d.wires)}
    by_dst = {t: i for i, (_, t) in enumerate(d.wires)}
    names = [regs[d.wire_type(w)] for w in d.wires]
    ins = {nid: [by_dst[("n", nid, i)] for i in range(len(g.in_ports))] for nid, g in d.nodes.items()}
    layer = {}  # longest path from the boundary inputs
    for nid in d._order:
        layer[nid] = 1 + max((layer[d.wires[w][0][1]] for w in ins[nid] if d.wires[w][0][0] == "n"), default=0)
    terms = []

    def term(left, parts, right):
        terms.append(" * ".join([*(f"id {names[w]}" for w in left), *parts, *(f"id {names[w]}" for w in right)]))

    def route(cur, target):  # adjacent swaps, each time of the first pair out of order
        rank = {w: k for k, w in enumerate(target)}
        j = 0
        while j < len(cur) - 1:
            if rank[cur[j]] > rank[cur[j + 1]]:
                term(cur[:j], [f"swap {names[cur[j]]} {names[cur[j + 1]]}"], cur[j + 2 :])
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                j = max(j - 1, 0)  # the pairs before j - 1 are still in order
            else:
                j += 1

    cur = [by_src[("in", k)] for k in range(len(d.in_types))]
    for _, group in groupby(sorted(d.nodes, key=lambda n: (layer[n], n)), key=layer.get):
        nids = list(group)
        needed = [w for nid in nids for w in ins[nid]]
        rest = [w for w in cur if w not in needed]
        route(cur, needed + rest)
        term((), [atoms[nid] for nid in nids], rest)
        cur = [by_src[("n", nid, i)] for nid in nids for i in range(len(d.nodes[nid].out_ports))] + rest
    route(cur, [by_dst[("out", k)] for k in range(len(d.out_types))])
    if not terms:
        terms.append(" * ".join(f"id {regs[r]}" for r in d.in_types) or "id I")
    return "\n".join(lines + [" ;\n".join(terms)]) + "\n"


# ---------------------------------------------------------------------------
# JSON port-graph export


def diagram_to_json(d: Diagram) -> dict:
    nodes = []
    for nid, g in sorted(d.nodes.items()):
        nd = {
            "id": nid,
            "kind": g.kind,
            "label": g.label,
            "in_ports": [rc.register_to_json(r) for r in g.in_ports],
            "out_ports": [rc.register_to_json(r) for r in g.out_ports],
            "flags": sorted(g.flags),
        }
        if g.kind == SCALAR:
            nd["payload"] = float(g.payload)
        elif g.kind == BOX and isinstance(g.payload, ProcessTensor):
            nd["payload"] = rc.tensor_to_json(g.payload)
        nodes.append(nd)
    return {
        "format_version": FORMAT_VERSION,
        "nodes": nodes,
        "wires": [[list(s), list(t)] for s, t in d.wires],
        "in_types": [rc.register_to_json(r) for r in d.in_types],
        "out_types": [rc.register_to_json(r) for r in d.out_types],
    }


def diagram_from_json(j: dict) -> Diagram:
    """Inverse of diagram_to_json; raises ValueError on malformed JSON."""
    try:
        nodes = {}
        for nd in j["nodes"]:
            payload = nd.get("payload")
            if isinstance(payload, dict):
                payload = rc.tensor_from_json(payload)
            label = nd.get("label")
            if not (label is None or isinstance(label, str)):
                raise TypeError(f"node label {label!r} is not a string or null")
            nodes[int(nd["id"])] = Generator(
                nd["kind"],
                label,
                tuple(rc.register_from_json(r) for r in nd["in_ports"]),
                tuple(rc.register_from_json(r) for r in nd["out_ports"]),
                payload,
                frozenset(nd.get("flags", [])),
            )
        wires = [(tuple(s), tuple(t)) for s, t in j["wires"]]
        return Diagram(
            nodes,
            wires,
            tuple(rc.register_from_json(r) for r in j["in_types"]),
            tuple(rc.register_from_json(r) for r in j["out_types"]),
        )
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"malformed diagram JSON: {e!r}") from e
