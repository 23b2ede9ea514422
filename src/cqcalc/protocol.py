"""Device-independent protocols at desk scale.

Covers the two-player CHSH game with exact value computation, the
biased test/generation input distribution for spot-checking, its
dyadic-rational approximation, a seeded spot-checking simulator,
conditional min-entropy certification for classical-quantum states,
and a small grammar of device-independent protocol steps with both a
diagram and a process-tensor representation.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import diagram as dg
from . import regcalc as rc
from .regcalc import CQState, ProcessTensor

BIT = rc.C(2)
QUBIT = rc.Q(2)


# ---------------------------------------------------------------------------
# games and strategies


@dataclass(frozen=True)
class Game:
    """Two-player nonlocal game with classical inputs and outputs.

    input_distribution is a joint probability vector over input pairs
    (x, y) in row-major order; predicate(x, y, a, b) scores a round."""

    input_regs: tuple
    output_regs: tuple
    input_distribution: np.ndarray
    predicate: object

    def __post_init__(self):
        p = np.asarray(self.input_distribution, dtype=float)
        if abs(p.sum() - 1.0) > 1e-12 or (p < -1e-15).any():
            raise ValueError("input distribution must be a probability vector")
        object.__setattr__(self, "input_distribution", p)


def chsh_game() -> Game:
    """Uniform inputs x, y; win iff a XOR b = x AND y."""
    return Game(
        (BIT, BIT),
        (BIT, BIT),
        np.full(4, 0.25),
        lambda x, y, a, b: (a ^ b) == (x & y),
    )


# the game spotcheck_run scores its test rounds with
_CHSH = chsh_game()


def _read_only(a: np.ndarray) -> np.ndarray:
    """a when it is read-only down its whole base chain (regcalc._frozen),
    else a read-only copy, the rule ProcessTensor keeps its matrix by."""
    if not rc._frozen(a):
        a = a.copy()
        a.setflags(write=False)
    return a


def _frozen_table(table):
    """A POVM table as nested tuples whose leaves are read-only arrays."""
    if isinstance(table, (list, tuple)):
        return tuple(map(_frozen_table, table))
    return _read_only(np.asarray(table))


def _tables_equal(a, b) -> bool:
    """Whether two _frozen_table results nest alike and hold
    np.array_equal leaves."""
    if isinstance(a, tuple) != isinstance(b, tuple):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_tables_equal, a, b))
    return np.array_equal(a, b)


def _table_shapes(table):
    """A _frozen_table's nesting with each leaf replaced by its shape."""
    return tuple(map(_table_shapes, table)) if isinstance(table, tuple) else table.shape


@dataclass(frozen=True)
class DeviceStrategy:
    """A bipartite quantum strategy: a shared state plus, per player and
    per input symbol, a POVM over that player's outputs.

    shared_state is a state ProcessTensor on two quantum registers;
    povms[player][input] holds PSD effects summing to identity.
    mode "iid" replays the same round behaviour every round; mode
    "scripted" uses povms[player] as a per-round list of input-indexed
    POVM tables (no post-measurement back-action is modelled).

    A strategy is an immutable value: the shared state is a read-only
    ProcessTensor and povms is kept as nested tuples of read-only
    effects.  So an "iid" strategy validates and tabulates itself once,
    on first use, and keeps the result (see outcome_cdf)."""

    shared_state: ProcessTensor
    povms: tuple
    mode: str = "iid"

    def __post_init__(self):
        object.__setattr__(self, "povms", _frozen_table(self.povms))

    def validate(self, tol: float = 1e-9):
        """Raise ValueError unless the shared state is a density matrix
        (Hermitian, PSD, unit trace) and each player's POVM table is a
        rectangular stack of square PSD effects summing to identity per
        input (per round and input in "scripted" mode)."""
        rho = self.density()
        if np.abs(rho - rho.conj().T).max() > tol:
            raise ValueError("shared state is not Hermitian")
        if abs(np.trace(rho) - 1.0) > tol:
            raise ValueError("shared state must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -tol:
            raise ValueError("shared state is not PSD")
        if len(self.povms) != 2:
            raise ValueError("a bipartite strategy needs POVMs for two players")
        for table in self.povms:
            e = np.asarray(table, dtype=complex)  # [round,] input, outcome, d, d
            if e.ndim != (4 if self.mode == "iid" else 5) or e.shape[-1] != e.shape[-2]:
                raise ValueError("POVM tables must stack square effects per input")
            if np.abs(e.sum(axis=-3) - np.eye(e.shape[-1])).max() > tol:
                raise ValueError("POVM effects must sum to identity")
            if np.linalg.eigvalsh((e + e.conj().swapaxes(-1, -2)) / 2).min() < -tol:
                raise ValueError("POVM effect is not PSD")

    def distribution(self, M: int = 1) -> np.ndarray:
        """validate() the strategy and return its outcome probabilities:
        p[x, y, a, b] in "iid" mode, computed on first use and kept
        read-only, and p[round, x, y, a, b] over the first M rounds in
        "scripted" mode, on every call (caching every round would check
        rounds that a run never reads)."""
        if self.mode == "iid":
            return self._iid_distribution
        self.validate()
        if any(len(rounds) < M for rounds in self.povms):
            raise ValueError(f"scripted strategy has fewer than {M} rounds")
        return np.array([conditional_distribution(self, r) for r in range(M)])

    def outcome_cdf(self, M: int = 1) -> np.ndarray:
        """distribution(M), checked to fit the CHSH alphabet, as the
        cumulative distribution of the outcome pair ab per input pair,
        indexed [x, y, ab] in "iid" mode and [round, x, y, ab] in
        "scripted" mode, with the checks of _cdf.  An "iid" strategy
        keeps it read-only after its first call; a failed check raises
        again on every call."""
        if self.mode == "iid":
            return self._iid_cdf
        return _outcome_cdf(self.distribution(M))

    @cached_property
    def _iid_distribution(self) -> np.ndarray:
        self.validate()
        return _read_only(conditional_distribution(self))

    @cached_property
    def _iid_cdf(self) -> np.ndarray:
        return _read_only(_outcome_cdf(self._iid_distribution))

    def __eq__(self, other):
        """Value equality: the same mode and shared state, and POVM
        tables of the same nesting whose effects are np.array_equal."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.mode == other.mode
            and self.shared_state == other.shared_state
            and _tables_equal(self.povms, other.povms)
        )

    def __hash__(self):
        return hash((self.mode, self.shared_state, _table_shapes(self.povms)))

    def round_povms(self, player: int, round_index: int):
        if self.mode == "iid":
            return self.povms[player]
        return self.povms[player][round_index]

    def density(self) -> np.ndarray:
        """Shared state as a density matrix on the joint base space."""
        return rc.state_operator(self.shared_state.vector(), self.shared_state.out_regs)


def bipartite_state(rho: np.ndarray, da: int, db: int) -> ProcessTensor:
    """Lift a joint density matrix into the doubled two-register form."""
    regs = (rc.Q(da), rc.Q(db))
    return rc.state(regs, rc.operator_state(rho, regs))


def optimal_chsh_strategy() -> DeviceStrategy:
    """Bell state with the standard optimal measurement angles."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alice = [z, x]
    bob = [(z + x) / math.sqrt(2), (z - x) / math.sqrt(2)]

    def povm(obs):
        return [(np.eye(2) + s * obs) / 2 for s in (1.0, -1.0)]

    return DeviceStrategy(
        bipartite_state(rho, 2, 2), [[povm(o) for o in alice], [povm(o) for o in bob]]
    )


def deterministic_strategy(fa, fb) -> DeviceStrategy:
    """Classical strategy answering a = fa(x), b = fb(y)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0

    def povm_for(bit):
        e = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
        e[bit] = np.eye(2, dtype=complex)
        return e

    return DeviceStrategy(
        bipartite_state(rho, 2, 2),
        [[povm_for(fa(x)) for x in range(2)], [povm_for(fb(y)) for y in range(2)]],
    )


def conditional_distribution(s: DeviceStrategy, round_index: int = 0) -> np.ndarray:
    """p[x, y, a, b] = Tr((A^x_a (x) B^y_b) rho), computed exactly.

    Every Kronecker product comes from one broadcast multiply and every
    trace from one stacked matmul; entry for entry this is the
    arithmetic of np.kron and np.trace, so the floats do not depend on
    the batching."""
    rho = s.density()
    pa = np.asarray(s.round_povms(0, round_index))
    pb = np.asarray(s.round_povms(1, round_index))
    nx, na, da, _ = pa.shape
    ny, nb, db, _ = pb.shape
    k = pa[:, None, :, None, :, None, :, None] * pb[None, :, None, :, None, :, None, :]
    k = k.reshape(nx, ny, na, nb, da * db, da * db)
    return np.trace(k @ rho, axis1=-2, axis2=-1).real


def game_value(g: Game, s: DeviceStrategy) -> float:
    """Exact expected winning probability by tensor contraction, on the
    validated s.distribution() (round 0 of a "scripted" strategy)."""
    p = s.distribution()
    p = p.reshape(p.shape[-4:])
    pin = g.input_distribution.reshape(p.shape[0], p.shape[1])
    value = 0.0
    for xx, yy, aa, bb in product(*map(range, p.shape)):
        if g.predicate(xx, yy, aa, bb):
            value += pin[xx, yy] * p[xx, yy, aa, bb]
    return float(value)


def classical_game_value(g: Game) -> float:
    """Best deterministic value by exhaustive strategy enumeration."""
    nx = g.input_regs[0].base_dim
    ny = g.input_regs[1].base_dim
    na = g.output_regs[0].base_dim
    nb = g.output_regs[1].base_dim
    pin = g.input_distribution.reshape(nx, ny)
    best = 0.0
    for fa in product(range(na), repeat=nx):
        for fb in product(range(nb), repeat=ny):
            v = sum(
                pin[xx, yy]
                for xx in range(nx)
                for yy in range(ny)
                if g.predicate(xx, yy, fa[xx], fb[yy])
            )
            best = max(best, v)
    return float(best)


def measurement_tensor(povms, d: int) -> ProcessTensor:
    """Input-conditioned measurement as a process (C_in, Q(d)) -> C_out:
    row a is the effect of the block-diagonal operator sum_x |x><x| (x) E^x_a."""
    e = np.asarray(povms, dtype=complex)  # input, outcome, d, d
    nx, na = e.shape[:2]
    regs = (rc.C(nx), rc.Q(d))
    blocks = np.einsum("xy,xaij->axiyj", np.eye(nx), e)
    return ProcessTensor(regs, (rc.C(na),), np.array([rc.operator_effect(b, regs) for b in blocks]))


def chsh_scoring_diagram():
    """The CHSH game as a scalar diagram plus its optimal binding.

    Copied uniform inputs feed the two measurement holes and the scoring
    effect; evaluating the diagram under the returned binding yields the
    optimal quantum value 1/2 + sqrt(2)/4."""
    score = np.zeros(16)
    g = chsh_game()
    for xx, aa, bb, yy in product(range(2), repeat=4):
        if g.predicate(xx, yy, aa, bb):
            score[xx * 8 + aa * 4 + bb * 2 + yy] = 1.0
    gen, wires, swap = dg.Diagram.from_generator, dg.Diagram.id_wires, dg.Diagram.swap
    copy_x = copy_y = gen(dg.uniform_gen(BIT, 2))
    pair = gen(dg.hole("shared_state", (), (QUBIT, QUBIT)))
    measure_a = gen(dg.hole("measure_A", (BIT, QUBIT), (BIT,)))
    measure_b = gen(dg.hole("measure_B", (BIT, QUBIT), (BIT,)))
    payload = ProcessTensor((BIT,) * 4, (), score.reshape(1, 16))
    # wires: x x y y -> x x q q y y -> x (x q) (y q) y -> x a b y -> score
    d = (
        (copy_x @ copy_y)
        >> (wires([BIT, BIT]) @ pair @ wires([BIT, BIT]))
        >> (wires([BIT, BIT, QUBIT, QUBIT]) @ swap(BIT, BIT))
        >> (wires([BIT, BIT, QUBIT]) @ swap(QUBIT, BIT) @ wires([BIT]))
        >> (wires([BIT]) @ measure_a @ measure_b @ wires([BIT]))
        >> gen(dg.box("chsh_score", (BIT,) * 4, (), payload=payload))
    )
    s = optimal_chsh_strategy()
    binding = {
        "shared_state": s.shared_state,
        "measure_A": measurement_tensor(s.povms[0], 2),
        "measure_B": measurement_tensor(s.povms[1], 2),
    }
    return d, binding


# ---------------------------------------------------------------------------
# the biased round-input distribution and its dyadic approximation


def b_q_distribution(q: float) -> np.ndarray:
    """Round-input distribution on (t, a1, a2): generation rounds
    (t=0, a1=a2=0) with mass 1-q, test rounds spread q over the four
    input pairs."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    p = np.zeros(8)
    p[0] = 1.0 - q
    p[4:] = q / 4.0
    return p


def rational_approx(q: float, M: int) -> dict:
    """Dyadic approximation of the M-round input distribution.

    Two steps: drop all sequences with more than 2qM test rounds, then
    floor the remaining masses to the 2^-t grid with
    t = ceil(qM + log2 |support|).  All retained masses depend only on
    the number k of test rounds, so the result is reported per level:
    exact Fraction masses, sequence counts, the truncation and grid
    bounds, and (for M <= 5) the enumerated exact distance."""
    if not 0.0 < q < 0.25:
        raise ValueError("q must lie in (0, 1/4)")
    if M < 1:
        raise ValueError("M must be >= 1")
    qf = Fraction(q)  # binary floats convert exactly
    k_max = math.floor(2 * q * M)
    support = sum(math.comb(M, k) * 4**k for k in range(k_max + 1))
    ell = math.ceil(q * M + math.log2(support))
    levels = {}
    kept_mass = Fraction(0)
    approx_mass = Fraction(0)
    for k in range(k_max + 1):
        pk = (qf / 4) ** k * (1 - qf) ** (M - k)
        ak = Fraction(math.floor(pk * 2**ell), 2**ell)
        count = math.comb(M, k) * 4**k
        levels[k] = {"count": count, "exact": pk, "approx": ak}
        kept_mass += count * pk
        approx_mass += count * ak
    truncation_mass = 1 - kept_mass
    grid_mass = kept_mass - approx_mass
    bound = float(truncation_mass) + 2.0 ** -(q * M)
    distance = float(truncation_mass + grid_mass)
    enumerated = None
    if M <= 5:
        approx_by_k = {k: levels[k]["approx"] for k in levels}
        total = Fraction(0)
        for seq in product(range(8), repeat=M):
            k = sum(1 for sym in seq if sym >= 4)
            ok = all(sym == 0 or sym >= 4 for sym in seq)
            p_exact = (qf / 4) ** k * (1 - qf) ** (M - k) if ok else Fraction(0)
            p_apx = approx_by_k.get(k, Fraction(0)) if ok and k <= k_max else Fraction(0)
            total += p_exact - p_apx  # approximation never exceeds the target
        enumerated = float(total)
    return {
        "ell": ell,
        "levels": levels,
        "k_max": k_max,
        "support": support,
        "truncation_mass": float(truncation_mass),
        "grid_mass": float(grid_mass),
        "distance": distance,
        "distance_enumerated": enumerated,
        "bound": bound,
    }


# ---------------------------------------------------------------------------
# spot-checking simulation


@dataclass
class RunReport:
    """One spot-check run.  classical_transcript is an (M, 5) integer
    array of per-round (t, a1, a2, a, b), and output_bits the (2M,)
    integer array of the outcome pairs (a, b) in round order.  The runs
    of one spotcheck_run call over several seeds hold rows of shared
    (S, M, 5) and (S, 2M) stacks."""

    aborted: bool
    classical_transcript: np.ndarray
    test_round_count: int
    pass_count: int
    output_bits: np.ndarray
    rng_seed: int

    def __post_init__(self):
        if self.pass_count > self.test_round_count:
            raise ValueError("pass_count cannot exceed test_round_count")

    def to_json(self) -> dict:
        """The report fields; the two arrays are passed as they are, so
        serialise with json.dumps(..., default=np.ndarray.tolist).
        cli._dumps gives the bytes of that call with sort_keys=True and
        separators=(",", ":"), the form of every CLI report."""
        return {
            "aborted": self.aborted,
            "classical_transcript": self.classical_transcript,
            "test_round_count": self.test_round_count,
            "pass_count": self.pass_count,
            "output_bits": self.output_bits,
            "rng_seed": self.rng_seed,
        }


def _cdf(p: np.ndarray) -> np.ndarray:
    """Normalised cumulative sums of the distributions p[..., :], with
    the checks Generator.choice(n, p=...) runs on p.  With the uniform
    double u, choice draws searchsorted(cdf, u, side="right"), where cdf
    is cumsum(p) / its last entry.  The checks leave each cdf
    non-decreasing and free of NaN, so that index is also the count of
    its entries <= u, ties included: spotcheck_run draws the round
    symbol by the searchsorted and the outcome pair by the count."""
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(p.sum(axis=-1) - 1.0) > math.sqrt(np.finfo(float).eps)).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _outcome_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf of the outcome pair ab per input pair (and round) of the
    outcome probabilities p[..., x, y, a, b], which must have two inputs
    and two outcomes per player."""
    if p.shape[-4:] != (2, 2, 2, 2):
        raise ValueError(
            f"CHSH needs two inputs and two outcomes per player, got (x, y, a, b) sizes {p.shape[-4:]}"
        )
    flat = p.reshape(*p.shape[:-2], 4)
    return _cdf(flat / flat.sum(axis=-1, keepdims=True))


def round_inputs(sym):
    """(t, a1, a2, x, y) of round symbols sym = 4t + 2a1 + a2, an int or
    an integer array: a test round (t = 1) plays the game on inputs
    (a1, a2), a generation round on (0, 0)."""
    t, a1, a2 = sym >> 2, (sym >> 1) & 1, sym & 1
    return t, a1, a2, a1 * t, a2 * t


def round_passes(t, x, y, a, b):
    """Whether a round is a test round that wins CHSH, per entry for
    arrays."""
    return _CHSH.predicate(x, y, a, b) & (t == 1)


def run_aborts(tests: int, passes: int, chi: float) -> bool:
    """A run aborts when no round was tested or its pass rate is below
    chi."""
    return tests == 0 or passes / tests < chi


def round_table(M: int, q: float, chi: float, s: DeviceStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Validate the spot-check parameters and tabulate the draws of
    spotcheck_run(M, q, chi, s, seed) for any seed: the cumulative
    distribution of the round symbol (t, a1, a2), and s.outcome_cdf(M),
    per input pair (x, y) that of the outcome pair (a, b), indexed
    [x, y, ab] in "iid" mode and [round, x, y, ab] in "scripted" mode.
    The parameters are checked first, then the strategy (its state and
    POVMs, a scripted strategy's length, the CHSH alphabet and the
    probability checks); an "iid" strategy runs its checks once and
    returns its cached, read-only table after that.  The symbol cdf is
    built once per q and is read-only too."""
    if M < 1 or not 0.0 < q < 1.0 or not 0.5 <= chi <= 1.0:
        raise ValueError("invalid spot-check parameters")
    return _symbol_cdf(q), s.outcome_cdf(M)


# the most values of q whose round-symbol cdf a process keeps
SYMBOL_CDF_CACHE_SIZE = 16


@lru_cache(maxsize=SYMBOL_CDF_CACHE_SIZE, typed=True)
def _symbol_cdf(q: float) -> np.ndarray:
    """The cdf of the round symbol at test probability q, built once per
    q and kept read-only."""
    return _read_only(_cdf(b_q_distribution(q)))


def _draw_outcomes(cdf: np.ndarray, xx: np.ndarray, yy: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome pairs ab that the uniform doubles u draw from the
    round_table cdf on inputs (xx, yy), all three of one shape whose last
    axis is the round.  The table is flattened to rows of four: round r
    on inputs (x, y) reads row 2x + y in "iid" mode and 4r + 2x + y in
    "scripted" mode.  ab is the count of that row's entries <= u, added
    up one column at a time, so no (..., 4) array is built."""
    row = 2 * xx + yy
    if cdf.ndim == 4:
        row += 4 * np.arange(cdf.shape[0])
    flat = cdf.reshape(-1, 4)
    return sum(flat[:, j].take(row) <= u for j in range(4))


def spotcheck_run(
    M: int, q: float, chi: float, s: DeviceStrategy, seed: int | Sequence[int]
) -> RunReport | list[RunReport]:
    """Seeded spot-checking loop: each round draws (t, a1, a2) from the
    biased input distribution; test rounds (t=1) play the game on inputs
    (a1, a2) and are scored, generation rounds use inputs (0, 0).  The
    run aborts when no round was tested or the pass rate falls below
    chi.  Bit-exact reproducible from (seed, parameters, strategy).

    seed is one seed, which returns one RunReport, or a sequence of
    seeds (a range, say), which returns one RunReport per seed in order;
    their arrays are rows of one (S, M, 5) and one (S, 2M) stack.  The
    draws are tabulated once by round_table, which validates and
    tabulates an "iid" strategy only on its first use, and all rounds of
    all seeds are drawn and scored at once; each seed's random
    stream and its use match one Generator.choice call for the round
    symbol and one for the outcome pair per round, so reports do not
    depend on the batching: the symbol is searchsorted into its cdf as
    choice does, and the outcome pair is _draw_outcomes' count of
    entries <= u, the same index on a non-decreasing cdf."""
    symbol_cdf, cdf = round_table(M, q, chi, s)
    one = isinstance(seed, numbers.Integral)
    seeds = [seed] if one else list(seed)
    if not seeds:
        raise ValueError("spotcheck_run needs at least one seed")
    u = np.empty((len(seeds), M, 2))
    for row, x in zip(u, seeds):
        np.random.Generator(np.random.Philox(x)).random(out=row)
    sym = np.searchsorted(symbol_cdf, u[..., 0], side="right")
    t, a1, a2, xx, yy = round_inputs(sym)
    ab = _draw_outcomes(cdf, xx, yy, u[..., 1])
    aa, bb = ab >> 1, ab & 1
    tests = t.sum(axis=1).tolist()
    passes = round_passes(t, xx, yy, aa, bb).sum(axis=1).tolist()
    transcripts = np.stack([t, a1, a2, aa, bb], axis=-1)
    outputs = np.stack([aa, bb], axis=-1).reshape(len(seeds), 2 * M)
    reports = [
        RunReport(run_aborts(n, k, chi), transcript, n, k, bits, int(x))
        for transcript, n, k, bits, x in zip(transcripts, tests, passes, outputs, seeds)
    ]
    return reports[0] if one else reports


# ---------------------------------------------------------------------------
# conditional min-entropy


PD_STEP = 0.95  # min_entropy_cq: share of the way to the cone's boundary that a step goes


def _inv_chol(x: np.ndarray):
    """L^-1 for the Cholesky factors x = L L^H of stacked matrices, or
    None when one of them is not positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(x))
    except np.linalg.LinAlgError:
        return None


def _step(linv: np.ndarray, dx: np.ndarray) -> float:
    """min(1, PD_STEP a) for the a at which some L_i L_i^H + a dx_i stops
    being positive definite: -1 / (least eigenvalue of L_i^-1 dx_i L_i^-H)."""
    low = float(np.linalg.eigvalsh(linv @ dx @ linv.conj().swapaxes(1, 2)).min())
    return 1.0 if low >= -PD_STEP else -PD_STEP / low


def _schur_solver(s: np.ndarray, e: np.ndarray):
    """The solver of sum_i herm(S_i X E_i) = Y for Hermitian X and Y.  On
    the coordinates R = Re X + Im X of a Hermitian X, so that
    X = ((R + R^T) + i (R - R^T)) / 2, the map is real symmetric; its
    d^2 x d^2 matrix there is inverted once."""
    k, d, _ = s.shape
    # p[a, c, f, b] = sum_i S_i[a, c] E_i[f, b]; the map's complex
    # row-major matrix is h[a, b, c, f] = (p + p^T)[a, c, f, b] / 2
    p = s.reshape(k, d * d).T @ e.reshape(k, d * d)
    h = (p + p.T).reshape(d, d, d, d).transpose(0, 3, 1, 2) / 2
    inv = np.linalg.inv((h.real + h.imag.transpose(0, 1, 3, 2)).reshape(d * d, d * d))

    def solve(y: np.ndarray) -> np.ndarray:
        r = (inv @ (y.real + y.imag).reshape(-1)).reshape(d, d)
        return ((r + r.T) + 1j * (r - r.T)) / 2

    return solve


def _povm_lower(e: np.ndarray, ms: np.ndarray) -> float:
    """sum_i Tr E'_i M_i for the sub-POVM E' made from positive definite
    E_i: normalised to F^-1/2 E_i F^-1/2 with F = sum_i E_i, negative
    rounding eigenvalues clipped, and divided by the top eigenvalue of
    sum_i E'_i where that exceeds 1.  A sub-POVM guesses no better than
    a POVM, so this is a lower bound on p_guess."""
    w, v = np.linalg.eigh(e.sum(axis=0))
    root = (v * w**-0.5) @ v.conj().T
    w, v = np.linalg.eigh(root @ e @ root)
    povm = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2)
    top = max(1.0, float(np.linalg.eigvalsh(povm.sum(axis=0))[-1]))
    return float(np.einsum("iab,iba->", povm, ms).real) / top


def _closed_form(ms: np.ndarray):
    """(sigma, p_guess) of the branches ms, stacked (k, d, d), when they
    have an exact solution: one branch, two branches (the Helstrom
    closed form) or commuting branches (simultaneously diagonalised, the
    largest branch weight per joint eigenvector); else None."""
    if len(ms) == 1:
        return ms[0], float(np.trace(ms[0]).real)
    if len(ms) == 2:
        diff = ms[1] - ms[0]
        # on the Hermitian part, trace_norm takes its eigenvalue branch
        tn = rc.trace_norm(rc.hermitian_part(diff))
        return ms[0] + rc.psd_part(diff), 0.5 * (float(np.trace(ms[0] + ms[1]).real) + tn)
    scale = max(float(np.abs(m).max()) for m in ms) or 1.0
    if not all(
        float(np.abs(a @ b - b @ a).max()) <= 1e-12 * scale * scale
        for i, a in enumerate(ms)
        for b in ms[i + 1 :]
    ):
        return None
    rng = np.random.default_rng(0)
    mix = sum(float(c) * m for c, m in zip(rng.uniform(1.0, 2.0, len(ms)), ms))
    _, v = np.linalg.eigh(rc.hermitian_part(mix))
    best = np.array([np.diag(v.conj().T @ m @ v).real for m in ms]).max(axis=0)
    return v @ np.diag(best) @ v.conj().T, float(best.sum())


def _primal_dual(ms: np.ndarray, tol: float, max_iter: int):
    """(sigma, p_lower, p_upper, iterations) of the primal-dual solve
    that min_entropy_cq describes."""
    k, d, _ = ms.shape
    # start strictly inside: sigma - M_i is the other branches plus a
    # positive multiple of I, which also covers the slightly negative
    # eigenvalues that CQState tolerates; E_i = I / k sum to I
    ms = rc.hermitian_part(ms)
    total = ms.sum(axis=0)
    negative = float(np.clip(-np.linalg.eigvalsh(ms)[:, 0], 0.0, None).sum())
    sigma = total + (float(np.trace(total).real) / d + negative) * np.eye(d)
    e = np.broadcast_to(np.eye(d, dtype=complex) / k, ms.shape)
    zinv, einv = _inv_chol(sigma - ms), _inv_chol(e)
    iterations = 0
    while True:
        z = sigma - ms
        gap = float(np.vdot(e, z).real)  # sum_i Tr E_i (sigma - M_i)
        p_upper = float(np.trace(sigma).real)
        if gap <= tol or iterations == max_iter:
            p_lower = _povm_lower(e, ms)
            if p_upper - p_lower <= tol or iterations == max_iter:
                break
        iterations += 1
        s = zinv.conj().swapaxes(1, 2) @ zinv  # S_i = (sigma - M_i)^-1
        solve = _schur_solver(s, e)

        def direction(mu, corr):
            ds = solve(mu * s.sum(axis=0) - np.eye(d) - corr.sum(axis=0))
            return ds, mu * s - e - rc.hermitian_part(s @ ds @ e) - corr

        ds, de = direction(0.0, np.zeros_like(s))  # predictor
        gap_aff = float(np.vdot(e + _step(einv, de) * de, z + _step(zinv, ds) * ds).real)
        ds, de = direction((gap_aff / gap) ** 3 * gap / (k * d), rc.hermitian_part(s @ ds @ de))
        sigma_next, e_next = sigma + _step(zinv, ds) * ds, e + _step(einv, de) * de
        zinv_next, einv_next = _inv_chol(sigma_next - ms), _inv_chol(e_next)
        # at the rounding floor a factorisation fails or the gap stops
        # shrinking; the bounds of the current iterate are certified
        if zinv_next is None or einv_next is None or not 0.0 < np.vdot(e_next, sigma_next - ms).real < gap:
            p_lower = _povm_lower(e, ms)
            break
        sigma, e, zinv, einv = sigma_next, e_next, zinv_next, einv_next
    if 0.0 <= p_upper - p_lower <= tol:
        assert np.linalg.eigvalsh(sigma - ms).min() >= -1e-8, "certificate must dominate every branch"
    return sigma, p_lower, p_upper, iterations


def min_entropy_cq(psi: CQState, tol: float = 1e-6, max_iter: int = 1000):
    """Min-entropy of the classical register given the quantum side.

    -log2 of the optimal guessing probability min_{sigma >= M_i} Tr
    sigma.  One branch, two branches (the Helstrom closed form) and
    commuting branches are solved exactly.  More branches run a
    feasible primal-dual interior-point method on sigma and a dual POVM
    E_i (max sum_i Tr E_i M_i s.t. sum_i E_i = I), started at
    E_i = I / k.  Each of at most max_iter iterations takes Mehrotra's
    predictor-corrector step along the HKM direction: with
    S_i = (sigma - M_i)^-1, Delta sigma solves
    sum_i herm(S_i Delta sigma E_i) = mu sum_i S_i - I - sum_i C_i, and
    Delta E_i = mu S_i - E_i - herm(S_i Delta sigma E_i) - C_i; the
    predictor has mu = 0 and C_i = 0, the corrector
    mu = (gap_aff / gap)^3 gap / (k d) and C_i = herm(S_i Delta sigma_aff
    Delta E_aff,i).  Each side steps PD_STEP of the way to its cone's
    boundary, or fully.  One Cholesky factorisation per iterate
    certifies sigma - M_i and E_i positive definite, and gives S_i and
    the step lengths.  So p_upper = Tr sigma is certified, and
    p_lower = sum_i Tr E'_i M_i from the sub-POVM E' of _povm_lower is
    computed once the gap sum_i Tr E_i (sigma - M_i) is <= tol.  The
    solve has converged when 0 <= p_upper - p_lower <= tol; then sigma's
    dominance of every branch is asserted.  At the rounding floor (a
    factorisation fails, or the gap stops shrinking) the solve stops
    with the bounds it has certified.  Returns (H_min, certificate dict
    with sigma, gap, p_guess bounds and the number of predictor-corrector
    iterations as iterations)."""
    ms = np.array(psi.branch_ops, dtype=complex)  # branches stacked (k, d, d)
    exact = _closed_form(ms)
    if exact is None:
        sigma, p_lower, p_upper, steps = _primal_dual(ms, tol, max_iter)
    else:
        sigma, p_lower = exact
        p_upper, steps = p_lower, 0
    gap = p_upper - p_lower
    cert = {
        "sigma": sigma,
        "gap": gap,
        "iterations": steps,
        "p_lower": p_lower,
        "p_upper": p_upper,
        "converged": exact is not None or 0.0 <= gap <= tol,
    }
    # 0.0 - log2, not -log2: at p_upper 1 that is -0.0
    return 0.0 - math.log2(p_upper), cert


# ---------------------------------------------------------------------------
# protocol grammar


def _in_register(j: int, dout: int) -> int:
    if not 0 <= j < dout:
        raise ValueError(f"function value {j} outside register of dimension {dout}")
    return j


def fn_matrix(f, din: int, dout: int) -> np.ndarray:
    t = np.zeros((dout, din))
    for i in range(din):
        t[_in_register(f(i), dout), i] = 1.0
    return t


def failure_filter_tensor(c_dim: int, subset) -> ProcessTensor:
    """Projector keeping only classical values in the subset; the lost
    mass is the abort probability (stochastic, not causal)."""
    keep = np.zeros(c_dim)
    for i in subset:
        keep[int(i)] = 1.0
    return ProcessTensor((rc.C(c_dim),), (rc.C(c_dim),), np.diag(keep))


@dataclass
class DIProtocol:
    """A device-independent protocol over wires [C, Q1, Q2]: the composed
    diagram, with one untrusted hole per device action; as_tensor(binding)
    gives the process-tensor representation once every device hole is
    bound."""

    diagram: dg.Diagram
    hole_specs: dict = field(default_factory=dict)

    def as_tensor(self, binding=None) -> ProcessTensor:
        return self.diagram.evaluate(binding or {})

    def then(self, other: "DIProtocol") -> "DIProtocol":
        if set(self.hole_specs) & set(other.hole_specs):
            raise ValueError("device hole labels collide; rebuild with distinct tags")
        return DIProtocol(self.diagram >> other.diagram, {**self.hole_specs, **other.hole_specs})


def build_di_protocol(steps, tag: str = "p") -> DIProtocol:
    """Compose a protocol from the five admissible step kinds:
    ("device_comm", i, j), ("classical_fn", f), ("failure_filter", S),
    ("give_input", g, j), ("receive_output", h, i) where f, g, h are
    deterministic functions on classical values, each writing one bit
    (any other value raises ValueError), and i, j name devices 1 or 2.
    Every step is one layer of generators joined by `>>` and `@`,
    written for device 1; a device-2 step is that layer between two
    swaps of the device wires.  With no steps the protocol is the
    identity."""
    gen, wires, swap = dg.Diagram.from_generator, dg.Diagram.id_wires, dg.Diagram.swap
    holes = {}

    def on_c(d):
        return d @ wires([QUBIT, QUBIT])

    def on_q1(d):
        return wires([BIT]) @ d @ wires([QUBIT])

    def hole(label, in_ports, out_ports):
        holes[label] = dg.hole(label, in_ports, out_ports, ("causal",))
        return gen(holes[label])

    def fn_box(label, in_ports, out_ports, f):
        m = fn_matrix(f, rc.total_dim(in_ports), rc.total_dim(out_ports))
        payload = ProcessTensor(in_ports, out_ports, m)
        return on_c(gen(dg.box(label, in_ports, out_ports, payload, ("causal", "stochastic"))))

    flip = wires([BIT]) @ swap(QUBIT, QUBIT)
    diagram = wires([BIT, QUBIT, QUBIT])
    for idx, step in enumerate(steps):
        kind, label, dev = step[0], f"{tag}{idx}", 1
        if kind == "device_comm":
            _, dev, j = step
            if {dev, j} != {1, 2}:
                raise ValueError("device_comm must name devices 1 and 2")
            layer = on_q1(hole(f"{label}_send_d{dev}", (QUBIT,), (QUBIT, QUBIT))) >> (
                wires([BIT, QUBIT]) @ hole(f"{label}_recv_d{j}", (QUBIT, QUBIT), (QUBIT,)))
        elif kind == "classical_fn":
            layer = fn_box(f"{label}_fn", (BIT,), (BIT,), step[1])
        elif kind == "failure_filter":
            keep = failure_filter_tensor(2, step[1])
            layer = on_c(gen(dg.box(f"{label}_filter", (BIT,), (BIT,), keep, ("stochastic",))))
        elif kind == "give_input":
            _, g, dev = step
            copy_g = fn_box(f"{label}_g", (BIT,), (BIT, BIT), lambda c: 2 * c + _in_register(g(c), 2))
            layer = copy_g >> on_q1(hole(f"{label}_dev{dev}", (BIT, QUBIT), (QUBIT,)))
        elif kind == "receive_output":
            _, h, dev = step
            layer = (on_q1(hole(f"{label}_dev{dev}", (QUBIT,), (QUBIT, BIT)))
                     >> on_q1(swap(QUBIT, BIT))
                     >> fn_box(f"{label}_h", (BIT, BIT), (BIT,), lambda cm: h(*divmod(cm, 2))))
        else:
            raise ValueError(f"inadmissible protocol step kind {kind!r}")
        if dev not in (1, 2):
            raise ValueError(f"{kind} must name device 1 or 2")
        diagram = diagram >> (flip >> layer >> flip if dev == 2 else layer)
    return DIProtocol(diagram, holes)


def honest_expansion_round() -> ProcessTensor:
    """A concrete honest single-round process (seed bit, qubit device)
    -> (two output bits, qubit device): the seed bit picks a measurement
    basis (Z or X), the outcome and the seed form the two output bits,
    and the device is re-prepared in the post-measurement basis state.
    Its Kraus operators are |2a + s><s| (x) |v><v| for seed s, outcome a
    and basis vector v."""
    bases = [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)]
    kraus = [
        np.kron(np.outer(np.eye(4)[2 * a + s], np.eye(2)[s]), np.outer(v, v.conj()))
        for s in range(2)
        for a, v in enumerate(bases[s].T)
    ]
    return rc.channel_from_kraus((rc.C(2), rc.Q(2)), (rc.C(4), rc.Q(2)), kraus)


# ---------------------------------------------------------------------------
# strategy (de)serialization


STRATEGY_FORMAT_VERSION = 1


def strategy_to_json(s: DeviceStrategy) -> dict:
    if s.mode != "iid":
        raise ValueError("only iid strategies serialize")
    return {
        "format_version": STRATEGY_FORMAT_VERSION,
        "state": rc.matrix_to_json(s.density()),
        "povms": [
            [[rc.matrix_to_json(e) for e in effects] for effects in player]
            for player in s.povms
        ],
    }


def strategy_from_json(j: dict) -> DeviceStrategy:
    """Inverse of strategy_to_json.  Raises ValueError on a format
    version other than the integer 1, on malformed JSON, and on a
    strategy that the sampler refuses (s.outcome_cdf(), whose result the
    strategy keeps for round_table)."""
    version = j.get("format_version") if isinstance(j, dict) else None
    if type(version) is not int or version != STRATEGY_FORMAT_VERSION:
        raise ValueError(f"unsupported strategy format {version!r}")
    try:
        rho = rc.matrix_from_json(j["state"])
        povms = [
            [[rc.matrix_from_json(e) for e in effects] for effects in player]
            for player in j["povms"]
        ]
        da = povms[0][0][0].shape[0]
        db = povms[1][0][0].shape[0]
        s = DeviceStrategy(bipartite_state(rho, da, db), povms)
        s.outcome_cdf()
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"malformed strategy JSON: {e}") from e
    return s
