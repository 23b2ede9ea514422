"""Finite-dimensional semantics for typed classical/quantum wires.

Registers are typed wires.  A classical register of base dimension n is
an n-dimensional space of (sub)probability vectors.  A quantum register
of base dimension n is represented in *doubled* form: density operators
on an n-dimensional space V are flattened to vectors in V (x) V, so
quantum channels become ordinary matrices acting on the doubled space.
The left tensor factor carries the "straight" index and the right factor
the conjugated one: vec(rho) = sum_ij rho_ij |i>|j>.

A ProcessTensor is a dense complex matrix between tensor products of
registers.  States have no inputs, effects no outputs, and numbers are
1x1 matrices.  Structural properties (causality, trace non-increase,
purity, complete positivity) are checkable predicates of the matrix, not
representation constraints.

All values are immutable after construction; every operation here is a
pure function, so independent calls are safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
ASCENT_ITERS = 60  # process_distance: ascent steps per restart
RESTARTS = 32  # process_distance: restarts per classical input symbol

CLASSICAL = "classical"
QUANTUM = "quantum"


class UnboundSymbolError(KeyError):
    """A symbolic width was instantiated without a value for its symbol."""

    def __init__(self, symbol: str):
        super().__init__(f"no value for symbol {symbol!r}")
        self.symbol = symbol


def positive_int(value, what: str) -> int:
    """value as an int; a bool, a float or a value below 1 is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SymWidth:
    """Symbolic bit width scale*symbol: dimension 2**(scale*value(symbol)).

    Used by rewrite-module proof scripts, whose seed registers have
    widths like N, 2N, 4N...; `subst` turns them into concrete
    dimensions.  Concrete numerics always require substitution first.
    """

    scale: int
    symbol: str

    def __post_init__(self):
        object.__setattr__(self, "scale", positive_int(self.scale, "SymWidth scale"))

    def value(self, values: dict) -> int:
        if self.symbol not in values:
            raise UnboundSymbolError(self.symbol)
        return 2 ** (self.scale * int(values[self.symbol]))

    def __repr__(self):
        return f"{self.scale}*{self.symbol}" if self.scale != 1 else self.symbol


@dataclass(frozen=True)
class Register:
    """A typed wire: classical dimension-n or quantum doubled space.

    ``total_dim`` is the dimension of the carrier space: n for classical
    registers, n**2 for quantum ones (doubled representation).
    base_dim may be a SymWidth for symbolic diagrams; such registers
    have no carrier dimension until substituted.
    """

    kind: str
    base_dim: int | SymWidth

    def __post_init__(self):
        if self.kind not in (CLASSICAL, QUANTUM):
            raise ValueError(f"unknown register kind {self.kind!r}")
        if not isinstance(self.base_dim, SymWidth):
            object.__setattr__(self, "base_dim", positive_int(self.base_dim, "base_dim"))

    @property
    def symbolic(self) -> bool:
        return isinstance(self.base_dim, SymWidth)

    @property
    def total_dim(self) -> int:
        if self.symbolic:
            raise ValueError(f"register {self!r} is symbolic; substitute first")
        return self.base_dim if self.kind == CLASSICAL else self.base_dim ** 2

    def subst(self, values: dict) -> "Register":
        if not self.symbolic:
            return self
        return Register(self.kind, self.base_dim.value(values))

    def __repr__(self):
        tag = "C" if self.kind == CLASSICAL else "Q"
        return f"{tag}[{self.base_dim!r}]" if self.symbolic else f"{tag}{self.base_dim}"


def C(n: int) -> Register:
    """Classical register of dimension n."""
    return Register(CLASSICAL, n)


def Q(n: int) -> Register:
    """Quantum register with base space of dimension n (carrier n**2)."""
    return Register(QUANTUM, n)


def total_dim(regs: Sequence[Register]) -> int:
    d = 1
    for r in regs:
        d *= r.total_dim
    return d


def base_dim(regs: Sequence[Register]) -> int:
    """Product of base dimensions (the 'lifted' operator-space dimension)."""
    d = 1
    for r in regs:
        d *= r.base_dim
    return d


def _kind_dim(regs: Sequence[Register], kind: str) -> int:
    """Product of the base dimensions of the registers of one kind."""
    return base_dim([r for r in regs if r.kind == kind])


def _frozen(a: np.ndarray) -> bool:
    """True when a and every array in its base chain are read-only, so
    that no one holds a writable handle on a's data."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@dataclass(frozen=True)
class ProcessTensor:
    """A concrete linear map between tensor products of registers.

    The matrix is read-only.  A complex matrix that is read-only down
    its whole base chain (a fresh array its maker froze, or a view of
    another ProcessTensor's matrix) is kept as given; anything else,
    including a read-only view of a writable array, is copied."""

    in_regs: tuple[Register, ...]
    out_regs: tuple[Register, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "in_regs", tuple(self.in_regs))
        object.__setattr__(self, "out_regs", tuple(self.out_regs))
        m = np.asarray(self.matrix, dtype=complex)
        want = (total_dim(self.out_regs), total_dim(self.in_regs))
        if m.shape != want:
            raise ValueError(f"matrix shape {m.shape} inconsistent with registers {want}")
        if not _frozen(m):
            m = m.copy()
            m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    # -- convenience views -------------------------------------------------
    @property
    def is_state(self) -> bool:
        return len(self.in_regs) == 0

    @property
    def is_effect(self) -> bool:
        return len(self.out_regs) == 0

    @property
    def is_number(self) -> bool:
        return self.is_state and self.is_effect

    def number(self) -> complex:
        if not self.is_number:
            raise ValueError("not a number (both register lists must be empty)")
        return complex(self.matrix[0, 0])

    def vector(self) -> np.ndarray:
        if not self.is_state:
            raise ValueError("not a state")
        return self.matrix[:, 0]

    def __repr__(self):
        return f"ProcessTensor({list(self.in_regs)} -> {list(self.out_regs)})"

    def __eq__(self, other):
        """Value equality: the same registers and np.array_equal
        matrices, so -0.0 equals 0.0 and a NaN equals nothing."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.in_regs, self.out_regs) == (other.in_regs, other.out_regs) and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self):
        # the registers fix the shape; the entries are left out, since
        # equal values need not have equal bytes (-0.0 and 0.0)
        return hash((self.in_regs, self.out_regs))


def state(regs: Sequence[Register], vec: np.ndarray) -> ProcessTensor:
    v = np.asarray(vec, dtype=complex).reshape(-1, 1)
    return ProcessTensor((), tuple(regs), v)


def effect(regs: Sequence[Register], row: np.ndarray) -> ProcessTensor:
    r = np.asarray(row, dtype=complex).reshape(1, -1)
    return ProcessTensor(tuple(regs), (), r)


def number(x: complex) -> ProcessTensor:
    return ProcessTensor((), (), np.array([[x]], dtype=complex))


def identity(regs: Sequence[Register]) -> ProcessTensor:
    d = total_dim(regs)
    return ProcessTensor(tuple(regs), tuple(regs), np.eye(d))


# ---------------------------------------------------------------------------
# composition


def compose_seq(f: ProcessTensor, g: ProcessTensor) -> ProcessTensor:
    """Run f first, then g (diagrams read bottom to top)."""
    if f.out_regs != g.in_regs:
        raise TypeError(
            f"sequential composition type mismatch: {list(f.out_regs)} vs {list(g.in_regs)}"
        )
    return ProcessTensor(f.in_regs, g.out_regs, g.matrix @ f.matrix)


def compose_par(f: ProcessTensor, g: ProcessTensor) -> ProcessTensor:
    """Place f beside g (left-factor-major Kronecker product)."""
    return ProcessTensor(
        f.in_regs + g.in_regs,
        f.out_regs + g.out_regs,
        np.kron(f.matrix, g.matrix),
    )


# ---------------------------------------------------------------------------
# generators


def _require_classical(reg: Register):
    # on a quantum register the carrier-basis spider is not a copy or a
    # mixing map: its uniform on Q2 would be |+><+|/2, not I/2
    if reg.kind != CLASSICAL:
        raise ValueError(f"spiders and uniforms need a classical register, got {reg!r}")


def spider(reg: Register, legs: int) -> ProcessTensor:
    """The state sum_i |i>^(x)legs over a classical register's basis."""
    return spider_map(reg, 0, legs)


@lru_cache(maxsize=None)
def spider_map(reg: Register, legs_in: int, legs_out: int) -> ProcessTensor:
    """Spider with legs split into inputs and outputs: sum_i |i..><..i|.
    Built once per register and leg counts."""
    _require_classical(reg)
    if legs_in < 0 or legs_out < 0 or legs_in + legs_out < 1:
        raise ValueError("spider needs at least one leg")
    d = reg.total_dim
    m = np.zeros((d ** legs_out, d ** legs_in), dtype=complex)
    for i in range(d):
        # multi-index |i,i,...,i> over L legs flattens to i*(d^L-1)/(d-1)
        row = i * ((d ** legs_out - 1) // (d - 1)) if d > 1 and legs_out else 0
        col = i * ((d ** legs_in - 1) // (d - 1)) if d > 1 and legs_in else 0
        m[row, col] += 1.0
        if d == 1:
            break
    return ProcessTensor((reg,) * legs_in, (reg,) * legs_out, m)


@lru_cache(maxsize=None)
def uniform(reg: Register, legs: int) -> ProcessTensor:
    """spider(reg, legs) scaled by 1/m where m is the register dimension.
    Built once per register and leg count."""
    s = spider(reg, legs)
    return ProcessTensor((), s.out_regs, s.matrix / reg.total_dim)


@lru_cache(maxsize=None)
def discard(reg: Register) -> ProcessTensor:
    """Trace effect: sum of diagonal (quantum) or plain sum (classical).
    Built once per register."""
    if reg.kind == CLASSICAL:
        row = np.ones(reg.base_dim, dtype=complex)
    else:
        n = reg.base_dim
        row = np.eye(n, dtype=complex).reshape(-1)
    return effect((reg,), row)


def discard_all(regs: Sequence[Register]) -> ProcessTensor:
    out = number(1.0)
    for r in regs:
        out = compose_par(out, discard(r))
    return out


def dagger_conjugate_transpose(p: ProcessTensor) -> ProcessTensor:
    """The adjoint: inputs and outputs swapped, matrix conjugate-transposed."""
    return ProcessTensor(p.out_regs, p.in_regs, np.conj(p.matrix.T))


# ---------------------------------------------------------------------------
# operator (density) form
#
# Internally we embed carrier vectors into operators on the product of
# *base* spaces.  The embedding groups all classical factors first and
# all quantum base factors second, each group in register order; this is
# a fixed unitary relabeling of the interleaved order and is used
# consistently on both arguments of every comparison, so distances and
# spectra are unaffected.  `_lift` is the one place that layout is
# written down; every conversion below is an index scatter or gather on it.


@lru_cache(maxsize=None)
def _lift(regs: tuple[Register, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """Operator-form (row, column) of every carrier index, and the lifted
    dimension.

    A classical index k sits on the diagonal block (k, k); a quantum pair
    (i, j) is the matrix entry (i, j).  The arrays are cached per register
    tuple and read-only.
    """
    k = i = j = np.zeros(1, dtype=np.intp)
    for r in regs:
        n = r.base_dim
        if r.kind == CLASSICAL:
            k, i, j = (k[:, None] * n + np.arange(n)).ravel(), np.repeat(i, n), np.repeat(j, n)
        else:
            a, b = np.divmod(np.arange(n * n), n)
            k, i, j = np.repeat(k, n * n), (i[:, None] * n + a).ravel(), (j[:, None] * n + b).ravel()
    q = _kind_dim(regs, QUANTUM)
    rows, cols = k * q + i, k * q + j
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, base_dim(regs)


def state_operator(vec: np.ndarray, regs: Sequence[Register]) -> np.ndarray:
    """Density-operator form of a carrier state vector.

    Classical indices are embedded diagonally; quantum doubled indices
    (i, j) become matrix entries.  Result is (K*I) x (K*I).
    """
    rows, cols, d = _lift(tuple(regs))
    op = np.zeros((d, d), dtype=complex)
    op[rows, cols] = np.asarray(vec).reshape(-1)
    return op


def operator_state(op: np.ndarray, regs: Sequence[Register]) -> np.ndarray:
    """Project an operator back to a carrier vector (drops classical
    off-diagonal blocks, i.e. composes with decoherence on classical wires)."""
    rows, cols, d = _lift(tuple(regs))
    return np.asarray(op).reshape(d, d)[rows, cols]


def effect_operator(row: np.ndarray, regs: Sequence[Register]) -> np.ndarray:
    """Operator form E of an effect row: value on rho is Tr[E rho]."""
    rows, cols, d = _lift(tuple(regs))
    op = np.zeros((d, d), dtype=complex)
    op[cols, rows] = np.asarray(row).reshape(-1)
    return op


def operator_effect(op: np.ndarray, regs: Sequence[Register]) -> np.ndarray:
    rows, cols, d = _lift(tuple(regs))
    return np.asarray(op).reshape(d, d)[cols, rows]


def choi_operator(p: ProcessTensor) -> np.ndarray:
    """Unnormalized process (Choi) operator on in_base (x) out_base.

    Classical registers are lifted diagonally (their decoherent Choi
    block structure), so complete positivity of the classical-quantum
    process is exactly positive semidefiniteness of this operator.
    """
    ri, ci, di = _lift(p.in_regs)
    ro, co, do = _lift(p.out_regs)
    choi = np.zeros((di * do, di * do), dtype=complex)
    choi[ri * do + ro[:, None], ci * do + co[:, None]] = p.matrix
    return choi


# ---------------------------------------------------------------------------
# predicates and distances


def hermitian_part(op: np.ndarray) -> np.ndarray:
    """Hermitian part of one matrix or of each matrix in a stack."""
    return 0.5 * (op + op.conj().swapaxes(-1, -2))


def structural_predicates(p: ProcessTensor, tol: float = DEFAULT_TOL) -> dict:
    """Flags: causal, stochastic, pure_state, pure_process, completely_positive, effect_valid."""
    d_out = discard_all(p.out_regs).matrix.reshape(1, -1)
    d_in = discard_all(p.in_regs).matrix.reshape(1, -1)
    traced = d_out @ p.matrix
    causal = bool(np.max(np.abs(traced - d_in)) <= tol)

    def effect_ok(row):
        """The effect operator of row is Hermitian with spectrum in [0, 1]."""
        E = effect_operator(row.reshape(-1), p.in_regs)
        ev = np.linalg.eigvalsh(hermitian_part(E))
        herm_ok = np.max(np.abs(E - np.conj(E.T))) <= max(1e3 * tol, 1e-6)
        return bool(herm_ok and ev.min() >= -tol and ev.max() <= 1 + tol)

    # dual of discard . p as an operator on the input space
    stochastic = effect_ok(traced)

    # complete positivity via the process operator: PSD Choi operator
    choi = choi_operator(p)
    H = hermitian_part(choi)
    ev = np.linalg.eigvalsh(H)  # ascending
    cp = bool(
        np.max(np.abs(choi - np.conj(choi.T))) <= max(1e3 * tol, 1e-6)
        and ev.min() >= -max(tol, 1e-9) * max(1, np.abs(choi).max())
    )

    # pure means of the form double(f), with no normalisation: a Choi
    # operator of PSD rank one (Kraus rank one).  Maps that genuinely
    # decohere a classical wire of dimension > 1 are not of this form.
    desc = ev[::-1]
    pure_process = not (
        np.max(np.abs(choi - H)) > max(1e3 * tol, 1e-6)
        or desc[0] < -tol
        or np.abs(desc[1:]).sum() > 1e2 * tol * max(1.0, desc[0])
    )
    return {
        "causal": causal,
        "stochastic": stochastic,
        "pure_state": p.is_state and pure_process,
        "pure_process": pure_process,
        "completely_positive": cp,
        "effect_valid": effect_ok(p.matrix) if p.is_effect else stochastic,
    }


def psd_part(op: np.ndarray) -> np.ndarray:
    """PSD part of the Hermitian part of one matrix or of each matrix in a stack."""
    w, v = np.linalg.eigh(hermitian_part(op))
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def trace_norm(op: np.ndarray) -> float:
    H = hermitian_part(op)
    if np.max(np.abs(op - H)) <= 1e-8 * max(1.0, np.abs(op).max()):
        return float(np.abs(np.linalg.eigvalsh(H)).sum())
    return float(np.linalg.svd(op, compute_uv=False).sum())


def trace_distance_half(s1: ProcessTensor, s2: ProcessTensor) -> float:
    """Half trace-norm distance between two states in operator form."""
    if s1.out_regs != s2.out_regs or s1.in_regs or s2.in_regs:
        raise TypeError("trace_distance_half expects two states on the same registers")
    r1 = state_operator(s1.vector(), s1.out_regs)
    r2 = state_operator(s2.vector(), s2.out_regs)
    return 0.5 * trace_norm(r1 - r2)


class CQState:
    """Classical-quantum state: branch operators M_i indexed by a
    classical symbol, each a PSD operator on the quantum base space.

    sum_i Tr(M_i) <= 1 (subnormalized); equality means normalized.
    The associated carrier state lives on registers [C(k), Q(d)].
    """

    def __init__(self, branch_ops: Sequence[np.ndarray], tol: float = DEFAULT_TOL):
        ops = [np.asarray(m, dtype=complex) for m in branch_ops]
        if not ops:
            raise ValueError("need at least one branch")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise ValueError("branch operators must share one square shape")
            # NaN passes every comparison below, so test for it first
            if not np.isfinite(m).all():
                raise ValueError("branch operator has an entry that is not finite")
            if np.max(np.abs(m - np.conj(m.T))) > max(1e3 * tol, 1e-7):
                raise ValueError("branch operator is not Hermitian")
            if np.linalg.eigvalsh(hermitian_part(m)).min() < -max(tol, 1e-8):
                raise ValueError("branch operator is not PSD within tolerance")
        tr = sum(float(np.trace(m).real) for m in ops)
        if tr > 1 + max(tol, 1e-8):
            raise ValueError(f"total trace {tr} exceeds 1")
        self.branch_ops = tuple(m.copy() for m in ops)
        for m in self.branch_ops:
            m.setflags(write=False)
        self.classical_dim = len(ops)
        self.base_dim = d
        self.total_trace = tr

    def registers(self) -> tuple[Register, Register]:
        return (C(self.classical_dim), Q(self.base_dim))

    def to_tensor(self) -> ProcessTensor:
        """Carrier state on [C(k), Q(d)]: entry (i,(a,b)) = M_i[a,b]."""
        k, d = self.classical_dim, self.base_dim
        v = np.zeros(k * d * d, dtype=complex)
        for i, m in enumerate(self.branch_ops):
            v[i * d * d : (i + 1) * d * d] = m.reshape(-1)
        return state(self.registers(), v)

    @staticmethod
    def from_tensor(t: ProcessTensor, tol: float = DEFAULT_TOL) -> "CQState":
        regs = t.out_regs
        if (
            len(regs) != 2
            or regs[0].kind != CLASSICAL
            or regs[1].kind != QUANTUM
            or t.in_regs
        ):
            raise TypeError("expected a state on [classical, quantum]")
        k, d = regs[0].base_dim, regs[1].base_dim
        v = t.vector().reshape(k, d, d)
        return CQState([v[i] for i in range(k)], tol=tol)


@dataclass(frozen=True)
class DistanceInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")


def process_distance(
    p1: ProcessTensor,
    p2: ProcessTensor,
    seed: int = 0,
) -> DistanceInterval:
    """Certified interval around half the diamond-norm distance.

    Classical inputs are decohered, so half the diamond distance is the
    largest, over classical input symbols k, of the distance between the
    two maps on symbol k's quantum input.  Lower bound: alternating
    ascent over pure inputs on the quantum input (x) an ancilla of the
    quantum input dimension, RESTARTS restarts per classical input
    symbol, each restart confined to its symbol's block of the lifted
    input; all restarts are stacked into one array, at most
    ASCENT_ITERS steps each, and a restart whose value stops rising is
    masked out.  Deterministic given the seed.  Upper bound: half the
    trace norm of the unnormalized process-operator difference; when
    both processes are completely positive, also the dual certificate
    of _dual_upper built from each symbol's best restart; when both are
    channels (causal too), also 1.  The upper bound is kept >= lower.
    """
    if p1.in_regs != p2.in_regs or p1.out_regs != p2.out_regs:
        raise TypeError("process_distance expects identically typed processes")
    if p1.is_state:
        t = trace_distance_half(p1, p2)
        return DistanceInterval(t, t)

    diff = ProcessTensor(p1.in_regs, p1.out_regs, p1.matrix - p2.matrix)
    choi = choi_operator(diff)
    upper = 0.5 * trace_norm(choi)
    flags = [structural_predicates(p) for p in (p1, p2)]

    kd, qd = _kind_dim(p1.in_regs, CLASSICAL), _kind_dim(p1.in_regs, QUANTUM)
    dext = compose_par(diff, identity((Q(qd),)))
    ri, ci, din = _lift(dext.in_regs)
    ro, co, dout = _lift(dext.out_regs)
    # the lifted input is classical-first, so symbol k's block is the
    # contiguous range [k*block, (k+1)*block); its carrier indices, in
    # carrier order (row k of own), reach the same block entries for every k
    block = din // kd
    own = np.argsort(ri // block, kind="stable").reshape(kd, -1)
    bi, bj = ri[own[0]] % block, ci[own[0]] % block
    m = np.ascontiguousarray(dext.matrix[:, own.ravel()])  # input carrier grouped by symbol

    # restarts run symbol-major, each a vector on its own symbol's block
    rng = np.random.default_rng(seed)
    symbol = np.repeat(np.arange(kd), RESTARTS)
    psi = np.empty((kd * RESTARTS, block), dtype=complex)
    for r in range(len(psi)):
        psi[r] = rng.normal(size=block) + 1j * rng.normal(size=block)
        psi[r] /= np.linalg.norm(psi[r])
    prev = np.full(len(psi), -1.0)
    active = np.arange(len(psi))
    for _ in range(ASCENT_ITERS):
        # output of each active input, with classical inputs decohered
        pure = np.zeros((len(active), kd, len(bi)), dtype=complex)
        pure[np.arange(len(active)), symbol[active]] = psi[active][:, bi] * psi[active][:, bj].conj()
        x = np.zeros((len(active), dout, dout), dtype=complex)
        x[:, ro, co] = pure.reshape(len(active), -1) @ m.T
        w, v = np.linalg.eigh(hermitian_part(x))
        val = 0.5 * np.abs(w).sum(axis=1)
        rising = val > prev[active] + 1e-13
        active, val, w, v = active[rising], val[rising], w[rising], v[rising]
        if not len(active):
            break
        prev[active] = val
        # pull each output's sign projector back onto the restart's own
        # symbol block, and take the input maximising it there
        sign = (v * np.sign(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        pulled = np.zeros((len(active), block, block), dtype=complex)
        back = (sign[:, co, ro] @ m).reshape(len(active), kd, -1)
        pulled[:, bj, bi] = back[np.arange(len(active)), symbol[active]]
        psi[active] = np.linalg.eigh(hermitian_part(pulled))[1][:, :, -1]
    lower = float(prev.max())
    if all(f["completely_positive"] for f in flags):
        best = prev.reshape(kd, RESTARTS).argmax(axis=1)
        amp = psi.reshape(kd, RESTARTS, qd, qd)[np.arange(kd), best]
        upper = min(upper, _dual_upper(choi, amp))
    if all(f["causal"] and f["completely_positive"] for f in flags):
        upper = min(upper, 1.0)
    lower = min(lower, upper)
    return DistanceInterval(lower, max(upper, lower))


DUAL_MIX = 1e-6  # weight of I/d mixed into each block of the dual certificate's input


def _dual_upper(choi: np.ndarray, amp: np.ndarray) -> float:
    """Upper bound on half the diamond norm of a Hermiticity-preserving
    map with Choi operator J on in (x) out, by weak duality: if Z >= 0
    and Z >= J, then for any density rho and any W with
    -rho (x) I <= W <= rho (x) I,
    <J, W> = <Z, W> - <Z - J, W> <= <2Z - J, rho (x) I>,
    so half the diamond norm is at most lambda_max(Tr_out(2Z - J)) / 2,
    and by strong duality the least such bound over Z equals it.

    J is block diagonal in the classical input symbol, and half the
    diamond norm is the largest over symbols k of that of block k, so
    the bound is taken per block and the largest is kept.  The input
    rho is built block by block: amp[k] is a pure input on symbol k's
    quantum input (x) ancilla, as a (quantum input, ancilla) matrix, and
    block k of rho is its marginal on the quantum input, normalised and
    mixed with DUAL_MIX of I.  With
    M = (sqrt(rho^T) (x) I) J (sqrt(rho^T) (x) I), the point
    Z = (rho^T^-1/2 (x) I) M_+ (rho^T^-1/2 (x) I) satisfies both
    constraints in exact arithmetic, because Z - J is the same
    congruence of M_- >= 0.  Z is shifted by the largest violation of
    either constraint that its eigenvalues show, so that the bound is
    sound in floating point too."""
    kd, qd = amp.shape[:2]
    di = kd * qd
    do = len(choi) // di
    rho = np.zeros((kd, qd, kd, qd), dtype=complex)
    for k, a in enumerate(amp):
        rho[k, :, k, :] = (1 - DUAL_MIX) * (a @ a.conj().T) / np.vdot(a, a).real + DUAL_MIX * (np.eye(qd) / qd)
    w, v = np.linalg.eigh(hermitian_part(rho.reshape(di, di).T))
    w = np.clip(w, DUAL_MIX / qd, None)
    root = np.kron((v * np.sqrt(w)) @ v.conj().T, np.eye(do))
    inv_root = np.kron((v / np.sqrt(w)) @ v.conj().T, np.eye(do))
    z = hermitian_part(inv_root @ psd_part(root @ choi @ root) @ inv_root)
    shift = max(0.0, -np.linalg.eigvalsh(hermitian_part(z - choi)).min(), -np.linalg.eigvalsh(z).min())
    z = z + shift * np.eye(len(z))
    diag = np.arange(kd)
    marginal = np.trace((2 * z - choi).reshape(di, do, di, do), axis1=1, axis2=3).reshape(kd, qd, kd, qd)[diag, :, diag]
    return 0.5 * float(np.linalg.eigvalsh(hermitian_part(marginal)).max())


# ---------------------------------------------------------------------------
# channel construction helpers


def channel_from_kraus(
    in_regs: Sequence[Register], out_regs: Sequence[Register], kraus: Iterable[np.ndarray]
) -> ProcessTensor:
    """Doubled-form matrix of rho -> sum_e K_e rho K_e^dag.

    Kraus operators act between the *lifted* base spaces (classical
    factors included as plain tensor factors); the result is projected
    back onto the classical-diagonal carrier, so classical coordinates
    of the Kraus operators should be basis-aligned for a faithful
    classical process.
    """
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    ri, ci, _ = _lift(in_regs)
    ro, co, _ = _lift(out_regs)
    m = np.zeros((total_dim(out_regs), total_dim(in_regs)), dtype=complex)
    for K in kraus:
        K = np.asarray(K)
        m += K[ro[:, None], ri] * np.conj(K[co[:, None], ci])
    return ProcessTensor(in_regs, out_regs, m)


@lru_cache(maxsize=None)
def _channel_layout(in_regs: tuple[Register, ...], out_regs: tuple[Register, ...]):
    """random_cq_channel's index layout, from the register types alone:
    (Ki, Ko, dqi, dqo, gather).  Ki and Ko are the classical and dqi
    and dqo the quantum dimensions of the two sides.  gather has the
    matrix's shape and holds, per carrier entry, its flat index in the
    grouped doubled action (classical in, classical out, bra, ket out,
    bra, ket in); every entry is read exactly once.  The array is
    cached per register tuples and read-only."""
    dqi, dqo = _kind_dim(in_regs, QUANTUM), _kind_dim(out_regs, QUANTUM)

    def grouped(regs, dq):
        # carrier index -> flat (classical, row, column) index
        rows, cols, _ = _lift(regs)
        return rows * dq + cols % dq

    Ki, Ko = _kind_dim(in_regs, CLASSICAL), _kind_dim(out_regs, CLASSICAL)
    # column -> (classical input, grouped in index); row -> grouped out index
    ci, cj = np.divmod(grouped(in_regs, dqi), dqi * dqi)
    gather = (ci * (Ko * dqo * dqo) + grouped(out_regs, dqo)[:, None]) * (dqi * dqi) + cj
    gather.setflags(write=False)
    return Ki, Ko, dqi, dqo, gather


def random_cq_channel(
    in_regs: Sequence[Register],
    out_regs: Sequence[Register],
    rng: np.random.Generator,
    causal: bool = True,
) -> ProcessTensor:
    """Random channel that treats classical wires classically.

    For every classical input symbol an independent instrument is drawn:
    a random distribution over classical output symbols and, per output
    symbol, a CP map on the quantum part; branches sum to a causal (or
    strictly stochastic) process.

    All symbols' instruments are built in one stacked kernel.  The draws
    come per symbol, in order: the real then the imaginary Gaussian
    block, then (non-causal only) the branch weights.
    """
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    Ki, Ko, dqi, dqo, gather = _channel_layout(in_regs, out_regs)
    env = max(1, dqi)
    R = Ko * dqo * env
    # per symbol an isometry V: for each classical output, Kraus ops on Q
    if causal:
        z = rng.normal(size=(Ki, 2, R, dqi))
    else:
        # weights follow each symbol's Gaussians in the stream
        z = np.empty((Ki, 2, R, dqi))
        w = np.empty((Ki, 1, dqi))
        for ci in range(Ki):
            z[ci] = rng.normal(size=(2, R, dqi))
            w[ci, 0] = rng.uniform(0.1, 1.0, size=dqi)
    V, _ = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    if not causal:
        V = V * np.sqrt(w)
    branches = V.reshape(Ki, Ko, dqo, env, dqi)
    # grouped doubled action summed over Kraus branches, gathered into
    # the carrier layout; + 0.0 maps a -0.0 entry to 0.0, so that no
    # sampled matrix holds a negative zero
    doubled = np.einsum("kcpea,kcqeb->kcpqab", branches, np.conj(branches))
    m = np.add(doubled.take(gather), 0.0)
    m.setflags(write=False)  # no one else holds m: the ProcessTensor keeps it
    return ProcessTensor(in_regs, out_regs, m)


# ---------------------------------------------------------------------------
# JSON dumps


def matrix_to_json(m) -> list:
    """A complex matrix as rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(j) -> np.ndarray:
    """Inverse of matrix_to_json; raises ValueError on an entry that is
    NaN or infinite, which no process or state has."""
    m = np.array([[complex(re, im) for re, im in row] for row in j], dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix has an entry that is not finite")
    return m


def register_to_json(r: Register) -> dict:
    if r.symbolic:
        return {"kind": r.kind, "sym": {"scale": r.base_dim.scale, "symbol": r.base_dim.symbol}}
    return {"kind": r.kind, "base_dim": r.base_dim}


def register_from_json(j) -> Register:
    """Inverse of register_to_json; a dimension must be a JSON integer."""
    if "sym" in j:
        return Register(j["kind"], SymWidth(j["sym"]["scale"], j["sym"]["symbol"]))
    return Register(j["kind"], j["base_dim"])


def tensor_to_json(p: ProcessTensor) -> dict:
    from . import FORMAT_VERSION

    return {
        "format_version": FORMAT_VERSION,
        "in_regs": [register_to_json(r) for r in p.in_regs],
        "out_regs": [register_to_json(r) for r in p.out_regs],
        "matrix": matrix_to_json(p.matrix),
    }


def tensor_from_json(d: dict) -> ProcessTensor:
    """Inverse of tensor_to_json; raises ValueError on malformed JSON."""
    try:
        return ProcessTensor(
            tuple(register_from_json(r) for r in d["in_regs"]),
            tuple(register_from_json(r) for r in d["out_regs"]),
            matrix_from_json(d["matrix"]),
        )
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"malformed tensor JSON: {e!r}") from e
