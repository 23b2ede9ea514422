"""Independent references for the benchmark's output checks.

Nothing here imports cqcalc: every expected value is computed from the
mathematics the program is supposed to implement, so a defect in the
program cannot also move the reference.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# carrier layout of single-register processes (the tensor JSON format)
#
# A classical register C(n) has carrier index c; a quantum register Q(d)
# has carrier index i*d + j for the density-matrix entry rho[i, j].  A
# process matrix maps input carriers (columns) to output carriers (rows).


def tensor_json(in_regs, out_regs, matrix) -> dict:
    """Tensor JSON for registers given as (kind, dim) pairs."""

    def reg(r):
        kind, dim = r
        return {"kind": {"C": "classical", "Q": "quantum"}[kind], "base_dim": int(dim)}

    m = np.asarray(matrix, dtype=complex)
    return {
        "format_version": 1,
        "in_regs": [reg(r) for r in in_regs],
        "out_regs": [reg(r) for r in out_regs],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng: np.random.Generator, d_in: int, d_out: int, env: int) -> list:
    """Kraus operators of a random trace-preserving map: blocks of an
    isometry from C^d_in into C^d_out (x) C^env."""
    g = rng.normal(size=(d_out * env, d_in)) + 1j * rng.normal(size=(d_out * env, d_in))
    v, _ = np.linalg.qr(g)
    return [v[e * d_out:(e + 1) * d_out, :] for e in range(env)]


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def stochastic_matrix(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """C(n_in) -> C(n_out): columns are probability vectors."""
    m = rng.uniform(0.1, 1.0, size=(n_out, n_in))
    return m / m.sum(axis=0, keepdims=True)


def preparation_matrix(states) -> np.ndarray:
    """C(n) -> Q(d): column c is vec(rho_c)."""
    return np.stack([np.asarray(rho).reshape(-1) for rho in states], axis=1)


def state_matrix(rho) -> np.ndarray:
    """I -> Q(d): a single column vec(rho)."""
    return np.asarray(rho).reshape(-1, 1)


def quantum_channel_matrix(kraus) -> np.ndarray:
    """Q(d_in) -> Q(d_out): sum_e K_e (x) conj(K_e) in the doubled layout."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def measurement_matrix(effects) -> np.ndarray:
    """Q(d) -> C(n): row b holds E_b transposed, so that row . vec(rho)
    equals Tr(E_b rho)."""
    return np.stack([np.asarray(e).T.reshape(-1) for e in effects], axis=0)


def random_povm(rng: np.random.Generator, d: int, n: int) -> list:
    kraus = random_kraus(rng, d, d, n)
    return [k.conj().T @ k for k in kraus]


def cq_channel_matrix(kraus_per_symbol) -> np.ndarray:
    """C(n) (x) Q(d_in) -> Q(d_out): classical symbol c selects a channel.
    Input carrier index is c*d_in^2 + k*d_in + l."""
    blocks = [quantum_channel_matrix(kraus) for kraus in kraus_per_symbol]
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# Toeplitz extractor distance by bit-mask enumeration


def extractor_distance(n: int, m: int, k: int) -> float:
    """Average over all Toeplitz seeds of the distance of the m-bit output
    from uniform, for the flat source on x = 0 .. 2^k - 1.

    Seed bits are read most significant first; row i of the matrix is
    then the n-bit window (seed >> i), and output bit i is the parity of
    row_i & x.  Output bit 0 is the most significant bit of the output
    symbol."""
    chunk = 256  # seeds per vectorised step
    n_seeds = 1 << (n + m - 1)
    xs = np.arange(1 << k, dtype=np.int64)
    mask = (1 << n) - 1
    total = 0.0
    for lo in range(0, n_seeds, chunk):
        seeds = np.arange(lo, min(lo + chunk, n_seeds), dtype=np.int64)
        z = np.zeros((seeds.size, xs.size), dtype=np.int64)
        for i in range(m):
            rows = (seeds >> i) & mask
            bit = np.bitwise_count(rows[:, None] & xs[None, :]) & 1
            z |= bit.astype(np.int64) << (m - 1 - i)
        flat = z + (np.arange(seeds.size, dtype=np.int64) << m)[:, None]
        counts = np.bincount(flat.ravel(), minlength=seeds.size << m)
        prob = counts.reshape(seeds.size, 1 << m) * 2.0**-k
        total += 0.5 * np.abs(prob - 2.0**-m).sum()
    return total / n_seeds


# ---------------------------------------------------------------------------
# spot-check protocol: winning and abort probabilities


PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def bell_state(visibility: float) -> np.ndarray:
    """Werner mixture v |Phi+><Phi+| + (1 - v) I/4."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return visibility * np.outer(phi, phi.conj()) + (1 - visibility) * np.eye(4) / 4


def chsh_observables():
    """Optimal CHSH observables: Alice Z, X; Bob (Z +- X)/sqrt 2."""
    alice = [PAULI_Z, PAULI_X]
    bob = [(PAULI_Z + PAULI_X) / math.sqrt(2), (PAULI_Z - PAULI_X) / math.sqrt(2)]
    return alice, bob


def projective_povm(obs) -> list:
    return [(np.eye(2) + s * obs) / 2 for s in (1.0, -1.0)]


def strategy_json(rho: np.ndarray, alice_povms, bob_povms) -> dict:
    def mat(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]

    return {
        "format_version": 1,
        "state": mat(rho),
        "povms": [
            [[mat(e) for e in effects] for effects in alice_povms],
            [[mat(e) for e in effects] for effects in bob_povms],
        ],
    }


def chsh_win_probability(rho, alice_povms, bob_povms) -> float:
    """Winning probability on uniformly drawn test inputs: a xor b = x and y."""
    win = 0.0
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        op = np.kron(alice_povms[x][a], bob_povms[y][b])
                        win += 0.25 * float(np.trace(op @ rho).real)
    return win


def _binomial_pmf(n: int, p: float, log_fact: np.ndarray) -> np.ndarray:
    if p <= 0.0 or p >= 1.0:
        out = np.zeros(n + 1)
        out[n if p >= 1.0 else 0] = 1.0
        return out
    ks = np.arange(n + 1)
    logc = log_fact[n] - log_fact[ks] - log_fact[n - ks]
    return np.exp(logc + ks * math.log(p) + (n - ks) * math.log1p(-p))


# One-sided tail of the normal distribution beyond 5 sigma.
FIVE_SIGMA_TAIL = 2.866515718791939e-07


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Bin(n, p)."""
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    pmf = _binomial_pmf(n, p, log_fact)
    return float(pmf[:k + 1].sum()), float(pmf[k:].sum())


def abort_probability(rounds: int, q: float, chi: float, win: float) -> float:
    """Exact abort probability of one spot-check run: the number of test
    rounds is Bin(rounds, q), passes given t tests are Bin(t, win), and
    the run aborts when t = 0 or passes / t < chi."""
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, rounds + 1)))])
    tests = _binomial_pmf(rounds, q, log_fact)
    total = float(tests[0])
    for t in range(1, rounds + 1):
        if tests[t] < 1e-300:
            continue
        passes = _binomial_pmf(t, win, log_fact)
        failing = np.array([p / t < chi for p in range(t + 1)])
        total += float(tests[t] * passes[failing].sum())
    return total
