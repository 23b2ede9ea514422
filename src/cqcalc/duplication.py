"""Duplication of classical-quantum states.

The canonical duplicate of a CQ state sum_i |i><i| (x) M_i copies the
classical symbol and purifies each quantum branch through a second
quantum register: the duplicate is supported on |i> (x) psi_i (x) |i>
with psi_i = vec(sqrt(M_i)) a pure (subnormalized) vector on V (x) V.
Discarding the right quantum-classical half recovers the source.

Beyond construction this module verifies the two workhorse facts used
downstream: any extension of the source can be produced from the
duplicate by a causal channel acting on the right half (universality,
built branch-wise from purification-relating isometries), and the
construction is stable: sources at half-trace-distance eps have
duplicates within sqrt(2*eps) (reported alongside the looser
sqrt(2*(2*eps)) reading in raw trace-norm units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regcalc as rc
from .regcalc import CQState, ProcessTensor

CLAMP_WINDOW = 1e-10


def _psd_sqrt(m: np.ndarray, tol: float = CLAMP_WINDOW) -> np.ndarray:
    w, v = np.linalg.eigh(rc.hermitian_part(m))
    if w.min() < -tol:
        raise ValueError(f"matrix is not PSD within tolerance (min eigenvalue {w.min()})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ np.conj(v.T)


@dataclass(frozen=True)
class DuplicateState:
    """Source plus a duplicate carrier state on [C(k), Q(d), Q(d), C(k)]."""

    source: CQState
    state: ProcessTensor


def _branch_vector(root: np.ndarray) -> np.ndarray:
    """Doubled carrier of the pure state vec(root)vec(root)* on Q(d) x Q(d).

    Carrier index ((a1,b1),(a2,b2)) holds root[a1,a2] * conj(root[b1,b2]):
    the first register keeps the source copy, the second purifies it."""
    d = root.shape[0]
    out = np.einsum("ac,bd->abcd", root, np.conj(root))
    return out.reshape(d * d, d * d)


def _duplicate_from_roots(psi: CQState, roots) -> DuplicateState:
    k, d = psi.classical_dim, psi.base_dim
    regs = (rc.C(k), rc.Q(d), rc.Q(d), rc.C(k))
    v = np.zeros((k, d * d, d * d, k), dtype=complex)
    for i, root in enumerate(roots):
        v[i, :, :, i] = _branch_vector(root)
    return DuplicateState(psi, rc.state(regs, v.reshape(-1)))


def canonical_duplicate(psi: CQState, tol: float = CLAMP_WINDOW) -> DuplicateState:
    roots = [_psd_sqrt(m, tol) for m in psi.branch_ops]
    return _duplicate_from_roots(psi, roots)


def rotate_duplicate(dup: DuplicateState, unitaries) -> DuplicateState:
    """Apply a classically controlled unitary to the purifying register.

    Replaces each branch purification vec(A_i) by vec(A_i U_i^T); every
    valid duplicate of the same source arises this way, since branch
    purifications are unique up to a unitary on the purifier."""
    psi = dup.source
    roots = [_psd_sqrt(m) @ u.T for m, u in zip(psi.branch_ops, unitaries)]
    return _duplicate_from_roots(psi, roots)


def verify_marginal(d: DuplicateState) -> float:
    """Half trace distance between the left CQ marginal and the source."""
    regs = d.state.out_regs
    keep = rc.identity(regs[:2])
    drop = rc.compose_par(rc.discard(regs[2]), rc.discard(regs[3]))
    marg = rc.compose_seq(d.state, rc.compose_par(keep, drop))
    return rc.trace_distance_half(marg, d.source.to_tensor())


def cq_marginal(phi: ProcessTensor) -> CQState:
    """CQ marginal of an extension state on [C, Q, R, D]."""
    regs = phi.out_regs
    keep = rc.identity(regs[:2])
    drop = rc.discard_all(regs[2:])
    marg = rc.compose_seq(phi, rc.compose_par(keep, drop))
    return CQState.from_tensor(marg, tol=1e-6)


def _branch_operator(phi: ProcessTensor, i: int) -> np.ndarray:
    """Branch i of an extension state on [C, Q, R, D] as an operator on
    V_Q (x) (V_R lifted with the classical D readout): block-diagonal in
    D, rows/cols indexed by (q, d*dr + r)."""
    c, q, r, dd = phi.out_regs
    k, dq, dr, kd = c.base_dim, q.base_dim, r.base_dim, dd.base_dim
    v = phi.vector().reshape(k, dq, dq, dr, dr, kd)
    n = dq * kd * dr
    tau = np.zeros((n, n), dtype=complex)
    tv = tau.reshape(dq, kd, dr, dq, kd, dr)
    for dcl in range(kd):
        tv[:, dcl, :, :, dcl, :] = v[i, :, :, :, :, dcl].transpose(0, 2, 1, 3)
    return tau


def _purification_rows(tau: np.ndarray, dq: int, env: int, aux: int) -> np.ndarray:
    """Matrix B (dq x env*aux) whose rows give a purification of tau:
    the vector sum_m |m> (x) B[m,:] on Q (x) (env, aux) reduces to tau
    on (Q, env) after tracing aux.  Built from the eigendecomposition of
    tau, one aux slot per eigenvalue."""
    w, vecs = np.linalg.eigh(rc.hermitian_part(tau))
    w = np.clip(w, 0.0, None)
    B = np.zeros((dq, env * aux), dtype=complex)
    bv = B.reshape(dq, env, aux)
    for idx in range(len(w)):
        if w[idx] <= 1e-14:
            continue
        bv[:, :, idx] += np.sqrt(w[idx]) * vecs[:, idx].reshape(dq, env)
    return B


def _relating_isometry(A: np.ndarray, B: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Full isometry J (h x dq, h = B.shape[1] >= dq) with A @ J.T = B.

    A (dq x dq) and B (dq x h) share the Gram operator A A^dag = B B^dag;
    with the polar forms A = sqrt(M) U_A, B = sqrt(M) U_B the map
    J^T = U_A^dag U_B works on the support of M and is completed to an
    isometry by routing the kernel of A into directions orthogonal to
    the range."""
    dq, h = A.shape[0], B.shape[1]
    Pa, Sa, Vah = np.linalg.svd(A)
    Pb, Sb, Vbh = np.linalg.svd(B, full_matrices=False)
    ra = int((Sa > tol).sum())
    rb = int((Sb > tol).sum())
    Ua = Pa[:, :ra] @ Vah[:ra]
    Ub = Pb[:, :rb] @ Vbh[:rb]
    J = (np.conj(Ua.T) @ Ub).T  # h x dq, isometric on the support of A
    if ra < dq:
        # kernel directions of A (rows of Vah past the rank)
        kernel = np.conj(Vah[ra:]).T  # dq x (dq - ra)
        # output directions orthogonal to range(J)
        Qfull, _ = np.linalg.qr(np.concatenate([J, np.eye(h, dtype=complex)], axis=1))
        extra = Qfull[:, ra:dq]
        J = J + extra @ np.conj(kernel.T)
    return J


def universality_alpha(
    phi: ProcessTensor, dup: DuplicateState, tol: float = 1e-6
) -> ProcessTensor:
    """Causal channel alpha on the right QC half with (id (x) alpha)(dup) = phi.

    phi is an extension state on [C, Q, R, D] (C, D classical) whose CQ
    marginal matches dup.source.  Per classical branch i an isometry
    relates the duplicate's purification vec(sqrt(M_i)) to a
    purification of phi's branch over (D, R, aux); tracing out aux and
    reading D classically gives the branch channel.  The isometry is
    completed on the kernel of sqrt(M_i), so alpha is a channel on every
    input, not just the duplicate."""
    c, q, r, dd = phi.out_regs
    k, dq, dr, kd = c.base_dim, q.base_dim, r.base_dim, dd.base_dim
    if dup.source.classical_dim != k or dup.source.base_dim != dq:
        raise ValueError("duplicate shape does not match the extension")
    marg = cq_marginal(phi)
    eps = rc.trace_distance_half(marg.to_tensor(), dup.source.to_tensor())
    if eps > tol:
        raise ValueError(f"CQ marginal differs from the duplicate source by {eps}")

    env = kd * dr
    aux = dq * env  # one slot per possible eigenvalue of a branch
    in_regs = (rc.Q(dq), rc.C(k))
    out_regs = (rc.Q(dr), rc.C(kd))
    m = np.zeros((rc.total_dim(out_regs), rc.total_dim(in_regs)), dtype=complex)
    mv = m.reshape(dr * dr, kd, dq * dq, k)
    for i in range(k):
        tau = _branch_operator(phi, i)
        B = _purification_rows(tau, dq, env, aux)
        A = _psd_sqrt(dup.source.branch_ops[i])
        J = _relating_isometry(A, B)  # (env*aux) x dq
        Jv = J.reshape(kd, dr, aux, dq)
        # Kraus ops V -> R indexed by (classical readout dcl, aux slot a);
        # keeping only matching dcl on both sides decoheres D.
        for dcl in range(kd):
            for a in range(aux):
                K = Jv[dcl, :, a, :]  # dr x dq
                mv[:, dcl, :, i] += np.einsum("rv,sw->rsvw", K, np.conj(K)).reshape(
                    dr * dr, dq * dq
                )
    return ProcessTensor(in_regs, out_regs, m)


def apply_alpha(dup: DuplicateState, alpha: ProcessTensor) -> ProcessTensor:
    """(identity on the left CQ half (x) alpha) applied to the duplicate."""
    regs = dup.state.out_regs
    left = rc.identity(regs[:2])
    return rc.compose_seq(dup.state, rc.compose_par(left, alpha))


def check_duplicate_stability(psi: CQState, phi: CQState) -> dict:
    """Stability report for a pair of same-shape sources.

    eps is the half trace distance between the sources.  The duplicate
    distance is asserted against sqrt(2 * (2*eps)) (raw trace-norm
    units); the tighter sqrt(2*eps) (half-distance units) is reported as
    well so both conventions are visible in the output."""
    if psi.classical_dim != phi.classical_dim or psi.base_dim != phi.base_dim:
        raise ValueError("shape mismatch")
    eps = rc.trace_distance_half(psi.to_tensor(), phi.to_tensor())
    dup_eps = rc.trace_distance_half(
        canonical_duplicate(psi).state, canonical_duplicate(phi).state
    )
    bound_raw = float(np.sqrt(2.0 * (2.0 * eps)))
    bound_half = float(np.sqrt(2.0 * eps))
    report = {
        "eps": float(eps),
        "raw_trace_norm": float(2 * eps),
        "dup_eps": float(dup_eps),
        "dup_raw_trace_norm": float(2 * dup_eps),
        "bound_raw_units": bound_raw,
        "bound_half_units": bound_half,
        "holds_raw_units": bool(dup_eps <= bound_raw + 1e-12),
        "holds_half_units": bool(dup_eps <= bound_half + 1e-12),
        "margin": float(bound_raw - dup_eps),
    }
    if not report["holds_raw_units"]:
        raise AssertionError(
            f"duplicate distance {dup_eps} exceeds sqrt(4*eps) = {bound_raw}"
        )
    return report


def corollary_alpha(phi: ProcessTensor, dup_psi: DuplicateState, tol: float = 1e-6):
    """Causal alpha carrying dup_psi close to phi, where phi extends a
    source eps-close to dup_psi.source.  alpha is built for phi's own
    marginal; the reconstruction error is asserted against
    sqrt(2*eps) + tol and returned alongside alpha."""
    phi_src = cq_marginal(phi)
    eps = rc.trace_distance_half(phi_src.to_tensor(), dup_psi.source.to_tensor())
    alpha = universality_alpha(phi, canonical_duplicate(phi_src), tol=tol)
    measured = rc.trace_distance_half(apply_alpha(dup_psi, alpha), phi)
    bound = float(np.sqrt(2.0 * eps)) + tol
    if measured > bound:
        raise AssertionError(
            f"reconstruction distance {measured} exceeds sqrt(2*eps)+tol = {bound}"
        )
    return alpha, float(measured)


def random_cq_state(rng, classical_dim: int, base_dim: int) -> CQState:
    ops = []
    for _ in range(classical_dim):
        g = rng.normal(size=(base_dim, base_dim)) + 1j * rng.normal(size=(base_dim, base_dim))
        ops.append(g @ np.conj(g.T))
    tr = sum(np.trace(m).real for m in ops)
    return CQState([m / tr for m in ops])


def perturbed_pair(rng, classical_dim: int, base_dim: int, mix: float):
    """A pair of same-shape normalized sources: the second mixes the first
    with an independent draw at weight mix."""
    psi = random_cq_state(rng, classical_dim, base_dim)
    chi = random_cq_state(rng, classical_dim, base_dim)
    phi = CQState(
        [(1 - mix) * a + mix * b for a, b in zip(psi.branch_ops, chi.branch_ops)]
    )
    return psi, phi
