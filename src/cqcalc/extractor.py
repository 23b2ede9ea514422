"""Seeded randomness extraction and the expansion pipeline.

A two-universal Toeplitz hash plays the extractor role: source bits
plus a short uniform seed map to near-uniform output bits, with the
seed preserved.  On top of it sit exact small-instance distance
computation, subnormalized-state handling with a certified bound, the
seed-doubling composed protocol, and the unbounded expansion pipeline
that chains doublings across alternating device pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import protocol as pr
from . import rewrite as rw
from .regcalc import CQState


@dataclass(frozen=True)
class ExtractorParams:
    """Sizes for one extraction call.

    n source bits hash down to m output bits using a seed of
    n + m - 1 bits; e sets the small-trace cutoff 2^-e of the
    subnormalized contract."""

    n: int
    m: int
    e: int = 10

    def __post_init__(self):
        check_hash_shape(self.n, self.m)

    @property
    def seed_len(self) -> int:
        return self.n + self.m - 1


def toeplitz_matrix(seed, m: int) -> np.ndarray:
    """Toeplitz matrix over GF(2): first column seed[0:m], first row
    seed[m-1:].  A stack of seeds (..., n + m - 1) gives a stack of
    matrices (..., m, n)."""
    seed = np.asarray(seed, dtype=np.uint8)
    n = seed.shape[-1] - m + 1
    if n < 1:
        raise ValueError("seed too short for requested output length")
    # diagonal-constant: entry (i, j) = seed[m - 1 + j - i]
    return seed[..., m - 1 + np.arange(n) - np.arange(m)[:, None]]


def check_hash_shape(n: int, m: int) -> None:
    """Raise ValueError unless a hash of n bits to m bits is defined."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")


def toeplitz_extract(source, seed, m: int) -> np.ndarray:
    """Hash n source bits to m output bits: T(seed) . source over GF(2)."""
    x = np.asarray(source, dtype=np.uint8)
    seed = np.asarray(seed, dtype=np.uint8)
    check_hash_shape(x.size, m)
    if seed.size != x.size + m - 1:
        raise ValueError(
            f"seed must have {x.size + m - 1} bits for n={x.size}, m={m}"
        )
    t = toeplitz_matrix(seed, m)
    return (t @ x) % 2


def leftover_hash_bound(h_min: float, m: int) -> float:
    """Two-universal hashing bound on the average distance to uniform."""
    return min(1.0, 0.5 * 2.0 ** (-(h_min - m) / 2))


def _bits(values, width: int) -> np.ndarray:
    """Rows of the width-bit binary expansions of values, most
    significant bit first."""
    return ((np.asarray(values)[:, None] >> np.arange(width)[::-1]) & 1).astype(np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Integers whose binary expansions, most significant bit first,
    are the rows along the last axis of bits; the inverse of _bits."""
    return bits @ (1 << np.arange(bits.shape[-1])[::-1])


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis, in
    place: a[..., w] becomes sum_x (-1)^popcount(w & x) a[..., x]."""
    size = a.shape[-1]
    h = 1
    while h < size:
        pairs = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def check_enumerable(n: int, m: int) -> None:
    """Raise ValueError unless an exact distance over all seeds is
    defined and within the enumeration cap n <= 12, m <= 4."""
    check_hash_shape(n, m)
    if n > 12 or m > 4:
        raise ValueError("enumeration cap: n <= 12, m <= 4")


def extractor_distance_exact(source_dist, m: int) -> float:
    """Average-over-seeds statistical distance of (seed, output) from
    (seed, uniform), exact over all seeds.  Capped at n <= 12, m <= 4.

    The output distribution of z = T x is a Fourier sum,
    P(z) = 2^-m sum_u (-1)^(u.z) p^(T^T u), with p^ the Walsh-Hadamard
    transform of the source.  The rows of every seed's T are packed
    into n-bit masks, so T^T u is an XOR of masks and one gather plus
    one 2^m-point transform per seed give its output distribution."""
    p = np.asarray(source_dist, dtype=float)
    n = p.size.bit_length() - 1
    if 2**n != p.size:
        raise ValueError("source distribution length must be a power of two")
    check_enumerable(n, m)
    p_hat = _walsh_hadamard(p.copy())
    seeds = _bits(np.arange(2 ** (n + m - 1)), n + m - 1)
    rows = _pack(toeplitz_matrix(seeds, m))
    # masks[:, u] = T^T u, where bit m-1-i of u selects row i
    masks = np.zeros((len(seeds), 1), dtype=rows.dtype)
    for i in reversed(range(m)):
        masks = np.concatenate([masks, masks ^ rows[:, i : i + 1]], axis=1)
    out = _walsh_hadamard(p_hat[masks]) * 2.0**-m
    return float(0.5 * np.abs(out - 2.0**-m).sum() / len(seeds))


def extract_subnormalized(y: CQState, params: ExtractorParams, seed=None):
    """Extraction from a subnormalized classical-quantum source.

    Below the trace cutoff 2^-e both sides of the extraction contract
    are negligible and the cutoff itself is the certified bound; above
    it the state is normalized, the hashing bound applies at the
    normalized min-entropy, and the bound scales back by the trace.
    Returns (output CQState hashed under the given or all-zero seed,
    report with both branch bounds and the certified one)."""
    if len(y.branch_ops) != 2**params.n:
        raise ValueError("classical part must index n-bit strings")
    trace = float(sum(np.trace(b).real for b in y.branch_ops))
    cutoff = 2.0**-params.e
    if seed is None:
        seed = np.zeros(params.seed_len, dtype=np.uint8)
    if np.size(seed) != params.seed_len:
        raise ValueError(f"seed must have {params.seed_len} bits for n={params.n}, m={params.m}")
    xs = _bits(np.arange(2**params.n), params.n)
    zs = _pack((xs @ toeplitz_matrix(seed, params.m).T) % 2)
    d = y.branch_ops[0].shape[0]
    branches = [np.zeros((d, d), dtype=complex) for _ in range(2**params.m)]
    for z, op in zip(zs, y.branch_ops):
        branches[z] += op
    out = CQState(branches)
    report = {
        "case": "small-trace",
        "trace": trace,
        "bound_small": cutoff,
        "bound_normalized": None,
        "bound": cutoff,
    }
    if trace >= cutoff:
        h_min, _ = pr.min_entropy_cq(
            CQState([b / trace for b in y.branch_ops if np.trace(b).real > 0])
        )
        bound = trace * leftover_hash_bound(h_min, params.m)
        report.update(
            case="normalized", h_min_normalized=h_min, bound_normalized=bound, bound=bound
        )
    return out, report


# ---------------------------------------------------------------------------
# the seed-doubling composed protocol

RATIO = 4  # a stage's protocol emits RATIO raw bits per protocol-key bit of a split seed


def bits_int(bits) -> int:
    """The integer that bits spell, most significant bit first (0 for
    no bits); exact at any width, where _pack stops at 63 bits."""
    return int("".join(map(str, bits)) or "0", 2)


@dataclass
class DoublingStage:
    """One seed-doubling stage: M seed bits in, 2M near-uniform bits out.

    The seed splits floor(M/2) + ceil(M/2); the second half drives the
    spot-checking protocol whose raw outputs feed a Toeplitz hash seeded
    from the first half; the input seed is copied alongside (first half
    and second half swapped back to original order)."""

    m_bits: int

    def __post_init__(self):
        if self.m_bits < 1:
            raise ValueError(f"a doubling stage needs M >= 1 seed bits, got {self.m_bits}")

    @property
    def raw_bits(self) -> int:
        return RATIO * math.ceil(self.m_bits / 2)

    @property
    def rounds(self) -> int:
        return self.raw_bits // 2

    @property
    def out_bits(self) -> int:
        return 2 * self.m_bits

    def split_seed(self, seed_bits):
        """(Toeplitz hash seed, protocol key) of a seed: the first half
        is stretched into the hash seed and the second half keys the
        protocol.  With M = 1 the one bit does both."""
        half = self.m_bits // 2
        hash_half, proto_half = seed_bits[:half], seed_bits[half:]
        rng = np.random.Generator(np.random.Philox(bits_int(hash_half or proto_half)))
        hash_seed = rng.integers(0, 2, size=self.raw_bits + self.out_bits - 1, dtype=np.uint8)
        return hash_seed, bits_int(proto_half)

    def run(self, strategy, seed_bits, q: float, chi: float, run_seed: int):
        """Execute the stage; returns a per-stage report dict."""
        seed_bits = list(map(int, seed_bits))
        if len(seed_bits) != self.m_bits:
            raise ValueError(f"expected {self.m_bits} seed bits")
        hash_seed, proto_key = self.split_seed(seed_bits)
        rep = pr.spotcheck_run(
            self.rounds, q, chi, strategy, seed=run_seed * 65537 + proto_key
        )
        raw = rep.output_bits.tolist()
        out = toeplitz_extract(raw, hash_seed, self.out_bits)
        return {
            "aborted": rep.aborted,
            "test_round_count": rep.test_round_count,
            "pass_count": rep.pass_count,
            "raw_bits": raw,
            "output_bits": [int(b) for b in out],
            "seed_copy": seed_bits,
        }


# ---------------------------------------------------------------------------
# unbounded expansion pipeline


@dataclass(frozen=True)
class ExpansionPlan:
    """k levels of two successive doublings each: level i consumes
    width 4^i * N and produces 4^(i+1) * N, alternating device pairs."""

    N: int
    k: int

    def __post_init__(self):
        if self.N < 1 or self.k < 1:
            raise ValueError("need N >= 1 and k >= 1")


def _exact_stage_distribution(stage: DoublingStage, strategy, q: float, chi: float):
    """Output distribution of one stage given each seed value, by exact
    enumeration over round symbols and device outcomes; runs whose pass
    rate falls below chi count as abort mass."""
    bq = pr.b_q_distribution(q)
    p_cond = pr.conditional_distribution(strategy)
    per_seed = {}
    round_options = []
    for sym in range(8):
        if bq[sym] == 0:
            continue
        t, _, _, xx, yy = pr.round_inputs(sym)
        for aa in range(2):
            for bb in range(2):
                w = bq[sym] * p_cond[xx, yy, aa, bb]
                if w > 0:
                    round_options.append((w, t, pr.round_passes(t, xx, yy, aa, bb), aa, bb))
    for seed_val, seed_bits in enumerate(_bits(np.arange(2**stage.m_bits), stage.m_bits).tolist()):
        hash_seed, _ = stage.split_seed(seed_bits)
        t_mat = toeplitz_matrix(hash_seed, stage.out_bits)
        dist = np.zeros(2**stage.out_bits)
        abort_mass = 0.0
        for combo in product(round_options, repeat=stage.rounds):
            wgt = 1.0
            raw = []
            tests = passes = 0
            for w, t, passed, aa, bb in combo:
                wgt *= w
                raw += [aa, bb]
                tests += t
                passes += passed
            if pr.run_aborts(tests, passes, chi):
                abort_mass += wgt
                continue
            dist[_pack((t_mat @ np.array(raw, dtype=np.uint8)) % 2)] += wgt
        per_seed[seed_val] = (dist, abort_mass)
    return per_seed


def unbounded_pipeline(plan: ExpansionPlan, strategies, seed: int, q: float = 0.2, chi: float = 0.85) -> dict:
    """Run the k-level expansion at toy widths.

    Each level performs two doublings on alternating device pairs,
    consuming the previous level's output as its seed.  The report
    carries per-level abort flags, widths, and the budget atoms of the
    level's two spot-check steps in the k-stage chain proof; when the
    first level is small enough, the exact distance of the final output
    distribution from uniform is enumerated."""
    if len(strategies) != 2:
        raise ValueError("supply exactly two device-pair strategies")
    for s in strategies:  # both device pairs, before any stage runs
        s.outcome_cdf
    chain = rw.script_chain(plan.k)
    _, records = rw.replay_script(chain)
    costs = [str(rule.cost) for _, rule in records if rule.cost]
    rng = np.random.Generator(np.random.Philox(seed))
    current = [int(b) for b in rng.integers(0, 2, size=plan.N)]
    stages = [
        (DoublingStage(w), DoublingStage(2 * w))
        for w in (plan.N * 4**level for level in range(plan.k))
    ]
    levels = []
    aborted = False
    for level, level_stages in enumerate(stages):
        rec = {
            "level": level,
            "input_width": level_stages[0].m_bits,
            "output_width": level_stages[1].out_bits,
            "device_pair": level % 2,
            "budget_atoms": costs[2 * level : 2 * level + 2],
            "aborted": None,  # never reached
        }
        if not aborted:
            for j, stage in enumerate(level_stages):
                r = stage.run(
                    strategies[level % 2], current, q, chi, run_seed=seed * 1000 + 2 * level + j
                )
                aborted = r["aborted"]
                if aborted:
                    break
                current = r["output_bits"]
            rec["aborted"] = aborted
        levels.append(rec)
    report = {
        "format_version": 1,
        "plan": {"N": plan.N, "k": plan.k, "ratio": RATIO},
        "seed": seed,
        "aborted": aborted,
        "levels": levels,
        "output_width": plan.N * 4**plan.k,
        "output_bits": None if aborted else [int(b) for b in current],
        "budget": str(chain.claimed_total),
        "budget_atoms": [str(rw.EpsExpr((a,))) for a in chain.claimed_total.terms],
    }
    # enumeration costs (round outcomes)^rounds per seed: only N = 1 has two-round stages
    first, second = stages[0]
    if plan.k == 1 and second.rounds <= 2:
        report["uniform_distance_exact"] = _pipeline_exact_distance(
            first, second, strategies[0], q, chi
        )
    return report


def _pipeline_exact_distance(
    first: DoublingStage, second: DoublingStage, pair, q: float, chi: float
) -> float:
    """Exact distance of the k=1 final output from uniform, averaged
    over the initial seed and enumerated over all protocol randomness."""
    d1 = _exact_stage_distribution(first, pair, q, chi)
    d2 = _exact_stage_distribution(second, pair, q, chi)
    w_out = 2**second.out_bits
    final = np.zeros(w_out)
    for dist1, _ in d1.values():
        for mid, w1 in enumerate(dist1):
            if w1 == 0:
                continue
            dist2, _ = d2[mid]
            final += w1 * dist2 / 2**first.m_bits
    mass = final.sum()
    if mass == 0:
        return 1.0
    final /= mass
    return float(0.5 * np.abs(final - 1.0 / w_out).sum())
