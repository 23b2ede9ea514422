"""Tests for the finite-dimensional wire semantics."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cqcalc import regcalc as rc


C2 = rc.C(2)
C3 = rc.C(3)
Q2 = rc.Q(2)
Q3 = rc.Q(3)


def random_tensor(rng, in_regs, out_regs):
    m = rng.normal(size=(rc.total_dim(out_regs), rc.total_dim(in_regs)))
    m = m + 1j * rng.normal(size=m.shape)
    return rc.ProcessTensor(tuple(in_regs), tuple(out_regs), m)


class TestComposition:
    def test_identity_compose(self):
        idc = rc.identity([C2])
        out = rc.compose_seq(idc, idc)
        assert np.allclose(out.matrix, np.eye(2))

    def test_state_then_discard_is_trace(self):
        s = rc.state([C2], [1.0, 0.0])
        assert rc.compose_seq(s, rc.discard(C2)).number() == pytest.approx(1.0)

    def test_seq_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_tensor(rng, [C2], [C2])
            g = random_tensor(rng, [C2], [C2])
            assert np.allclose(rc.compose_seq(f, g).matrix, g.matrix @ f.matrix)

    def test_seq_type_mismatch(self):
        f = rc.identity([C2])
        g = rc.identity([C3])
        with pytest.raises(TypeError):
            rc.compose_seq(f, g)

    def test_par_is_kronecker(self):
        rng = np.random.default_rng(12)
        f = random_tensor(rng, [C2], [C3])
        g = random_tensor(rng, [Q2], [C2])
        fg = rc.compose_par(f, g)
        assert fg.in_regs == (C2, Q2)
        assert fg.out_regs == (C3, C2)
        assert np.allclose(fg.matrix, np.kron(f.matrix, g.matrix))

    def test_par_unit(self):
        rng = np.random.default_rng(13)
        f = random_tensor(rng, [C2], [Q2])
        assert np.allclose(rc.compose_par(rc.number(1.0), f).matrix, f.matrix)

    def test_par_of_states(self):
        s0 = rc.state([C2], [1, 0])
        s1 = rc.state([C2], [0, 1])
        assert np.allclose(rc.compose_par(s0, s1).vector(), [0, 1, 0, 0])

    def test_associativity(self):
        rng = np.random.default_rng(14)
        f = random_tensor(rng, [C2], [C3])
        g = random_tensor(rng, [C3], [Q2])
        h = random_tensor(rng, [Q2], [C2])
        a = rc.compose_seq(rc.compose_seq(f, g), h)
        b = rc.compose_seq(f, rc.compose_seq(g, h))
        assert np.allclose(a.matrix, b.matrix)


class TestGenerators:
    def test_spider_one_leg(self):
        assert np.allclose(rc.spider(C2, 1).vector(), [1, 1])

    def test_spider_two_legs(self):
        assert np.allclose(rc.spider(C2, 2).vector(), [1, 0, 0, 1])

    def test_spider_three_legs_dim3(self):
        v = rc.spider(C3, 3).vector()
        expect = np.zeros(27)
        for i in range(3):
            expect[i * 9 + i * 3 + i] = 1
        assert np.allclose(v, expect)

    def test_spider_rejects_zero_legs(self):
        with pytest.raises(ValueError):
            rc.spider(C2, 0)

    def test_uniform_values(self):
        assert np.allclose(rc.uniform(C2, 1).vector(), [0.5, 0.5])
        assert np.allclose(rc.uniform(C2, 2).vector(), [0.5, 0, 0, 0.5])
        assert np.allclose(rc.uniform(rc.C(4), 1).vector(), [0.25] * 4)

    def test_uniform_absorbs_discard(self):
        # One discarded leg drops the leg exactly.  This is a classical-wire
        # identity: on quantum wires the trace effect is not the all-ones
        # carrier effect that the carrier-basis spider family absorbs.
        for reg in (C2, C3, rc.C(4)):
            for k in (2, 3):
                u = rc.uniform(reg, k)
                dis = rc.compose_par(rc.identity([reg] * (k - 1)), rc.discard(reg))
                lhs = rc.compose_seq(u, dis)
                rhs = rc.uniform(reg, k - 1)
                assert np.allclose(lhs.matrix, rhs.matrix)

    def test_discard_values(self):
        assert rc.compose_seq(rc.state([Q2], [1, 0, 0, 0]), rc.discard(Q2)).number() == pytest.approx(1)
        half_i = rc.state([Q2], [0.5, 0, 0, 0.5])
        assert rc.compose_seq(half_i, rc.discard(Q2)).number() == pytest.approx(1)
        sub = rc.state([Q2], [0, 0, 0, 0.3])
        assert rc.compose_seq(sub, rc.discard(Q2)).number() == pytest.approx(0.3)

    def test_quantum_spiders_rejected(self):
        for make in (lambda: rc.spider(Q2, 1), lambda: rc.spider_map(Q2, 1, 1), lambda: rc.uniform(Q2, 1)):
            with pytest.raises(ValueError):
                make()

    def test_spider_map_matches_spider(self):
        # all-legs-out spider map equals the spider state
        sm = rc.spider_map(C3, 0, 2)
        assert np.allclose(sm.matrix.reshape(-1), rc.spider(C3, 2).vector())


class TestAdoption:
    """A ProcessTensor keeps a matrix that no one can write and copies
    any other."""

    def test_copies_writable_array(self):
        m = np.eye(2, dtype=complex)
        p = rc.ProcessTensor((C2,), (C2,), m)
        m[0, 0] = 5
        assert p.matrix[0, 0] == 1 and not p.matrix.flags.writeable

    def test_copies_broadcast_view_of_writable_base(self):
        base = np.ones(2, dtype=complex)
        view = np.broadcast_to(base, (2, 2))
        assert not view.flags.writeable
        p = rc.ProcessTensor((C2,), (C2,), view)
        base[0] = 7
        assert np.array_equal(p.matrix, np.ones((2, 2)))

    def test_copies_read_only_view_of_writable_base(self):
        base = np.eye(2, dtype=complex)
        view = base.view()
        view.setflags(write=False)
        p = rc.ProcessTensor((C2,), (C2,), view)
        base[1, 0] = 3
        assert np.array_equal(p.matrix, np.eye(2))

    def test_copies_read_only_array_over_a_writable_buffer(self):
        buf = bytearray(np.eye(2, dtype=complex).tobytes())
        flat = np.frombuffer(buf, dtype=complex)
        flat.setflags(write=False)
        p = rc.ProcessTensor((C2,), (C2,), flat.reshape(2, 2))
        buf[:16] = bytes(16)
        assert np.array_equal(p.matrix, np.eye(2))

    def test_adopts_fresh_read_only_array(self):
        m = np.eye(2, dtype=complex)
        m.setflags(write=False)
        assert np.shares_memory(rc.ProcessTensor((C2,), (C2,), m).matrix, m)

    def test_generators_built_once(self):
        assert rc.spider_map(C3, 1, 2) is rc.spider_map(C3, 1, 2)
        assert rc.uniform(C2, 2) is rc.uniform(C2, 2)
        assert rc.discard(Q2) is rc.discard(Q2)
        assert not rc.uniform(C2, 2).matrix.flags.writeable

    def test_value_equality_and_hash(self):
        m = np.array([[0.5, -0.0], [0.0, 0.5]], dtype=complex)
        p, q = rc.ProcessTensor((C2,), (C2,), m), rc.ProcessTensor((C2,), (C2,), np.abs(m))
        assert p.matrix.tobytes() != q.matrix.tobytes()
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != rc.ProcessTensor((C2,), (C2,), 2 * m)
        assert p != rc.ProcessTensor((), (C2, C2), m.reshape(4, 1))
        assert p != rc.ProcessTensor((Q2,), (), m.reshape(1, 4))
        assert p.__eq__(m) is NotImplemented


class TestDagger:
    def test_involution(self):
        rng = np.random.default_rng(15)
        p = random_tensor(rng, [C2], [Q2])
        q = rc.dagger_conjugate_transpose(rc.dagger_conjugate_transpose(p))
        assert q.in_regs == p.in_regs and np.allclose(q.matrix, p.matrix)

    def test_adjoint_of_state_is_effect(self):
        s = rc.state([C2], [1, 0])
        e = rc.dagger_conjugate_transpose(s)
        assert e.is_effect and np.allclose(e.matrix, [[1, 0]])


def reference_structural_predicates(p, tol):
    """structural_predicates as it was written with the Choi operator
    built and diagonalised once for complete positivity and once more
    for purity, as the reference the one-spectrum version must match."""
    d_out = rc.discard_all(p.out_regs).matrix.reshape(1, -1)
    d_in = rc.discard_all(p.in_regs).matrix.reshape(1, -1)
    traced = d_out @ p.matrix
    causal = bool(np.max(np.abs(traced - d_in)) <= tol)
    E = rc.effect_operator(traced.reshape(-1), p.in_regs)
    evals = np.linalg.eigvalsh(rc.hermitian_part(E))
    herm_ok = np.max(np.abs(E - np.conj(E.T))) <= max(1e3 * tol, 1e-6)
    stochastic = bool(herm_ok and evals.min() >= -tol and evals.max() <= 1 + tol)
    choi = rc.choi_operator(p)
    cp = bool(
        np.max(np.abs(choi - np.conj(choi.T))) <= max(1e3 * tol, 1e-6)
        and np.linalg.eigvalsh(rc.hermitian_part(choi)).min() >= -max(tol, 1e-9) * max(1, np.abs(choi).max())
    )

    def pure_process():
        choi = rc.choi_operator(p)
        H = rc.hermitian_part(choi)
        if np.max(np.abs(choi - H)) > max(1e3 * tol, 1e-6):
            return False
        ev = np.sort(np.linalg.eigvalsh(H))[::-1]
        if ev[0] < -tol:
            return False
        rest = np.abs(ev[1:]).sum() if len(ev) > 1 else 0.0
        return not rest > 1e2 * tol * max(1.0, ev[0])

    pure = pure_process()
    if p.is_effect:
        Eo = rc.effect_operator(p.matrix.reshape(-1), p.in_regs)
        ev = np.linalg.eigvalsh(rc.hermitian_part(Eo))
        effect_valid = bool(
            np.max(np.abs(Eo - np.conj(Eo.T))) <= max(1e3 * tol, 1e-6) and ev.min() >= -tol and ev.max() <= 1 + tol
        )
    else:
        effect_valid = stochastic
    return {
        "causal": causal,
        "stochastic": stochastic,
        "pure_state": p.is_state and pure,
        "pure_process": pure,
        "completely_positive": cp,
        "effect_valid": effect_valid,
    }


def transpose_map(regs):
    """rho -> rho^T on the carrier of regs: positive, not completely
    positive."""
    d = rc.total_dim(regs)
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[:, k] = rc.operator_state(rc.state_operator(np.eye(d)[k], regs).T, regs)
    return rc.ProcessTensor(tuple(regs), tuple(regs), m)


def predicate_pool():
    rng = np.random.default_rng(31)
    causal = rc.random_cq_channel([C2, Q2], [Q2], rng, causal=True)
    return {
        "subnormalised_pure_state": rc.state([Q2], [0.5, 0, 0, 0]),
        "identity_Q2": rc.identity([Q2]),
        "identity_C2_Q2": rc.identity([C2, Q2]),
        "spider_map_C3": rc.spider_map(C3, 1, 2),
        "uniform_C2": rc.uniform(C2, 2),
        "discard_Q2": rc.discard(Q2),
        "causal_channel": causal,
        "noncausal_channel": rc.random_cq_channel([Q2], [C2, Q2], rng, causal=False),
        "half_channel": rc.ProcessTensor(causal.in_regs, causal.out_regs, 0.5 * causal.matrix),
        "transpose_Q2": transpose_map([Q2]),
        "non_hermitian_choi": random_tensor(rng, [Q2], [Q2]),
    }


class TestPredicates:
    def test_identity_flags(self):
        flags = rc.structural_predicates(rc.identity([Q2]))
        assert flags["causal"] and flags["stochastic"] and flags["completely_positive"]

    def test_filter_stochastic_not_causal(self):
        filt = rc.ProcessTensor((C2,), (C2,), np.diag([1.0, 0.0]))
        flags = rc.structural_predicates(filt)
        assert not flags["causal"]
        assert flags["stochastic"]

    def test_scaled_identity_neither(self):
        p = rc.ProcessTensor((C2,), (C2,), 1.5 * np.eye(2))
        flags = rc.structural_predicates(p)
        assert not flags["causal"] and not flags["stochastic"]

    def test_causal_implies_stochastic_random(self):
        rng = np.random.default_rng(16)
        for regs in ([Q2], [C2, Q2], [C3]):
            for _ in range(10):
                ch = rc.random_cq_channel(regs, regs, rng, causal=True)
                flags = rc.structural_predicates(ch)
                assert flags["causal"]
                assert flags["stochastic"]
                assert flags["completely_positive"]

    def test_pure_state_flags(self):
        pure = rc.state([Q2], [1, 0, 0, 0])
        assert rc.structural_predicates(pure)["pure_state"]
        mixed = rc.state([Q2], [0.5, 0, 0, 0.5])
        assert not rc.structural_predicates(mixed)["pure_state"]

    def test_subnormalised_pure_state_flags_agree(self):
        # pure means of the form double(f), whatever the norm of f
        for s in (rc.state([Q2], [0.5, 0, 0, 0]), rc.state([C2], [0.5, 0])):
            flags = rc.structural_predicates(s)
            assert flags["pure_state"] and flags["pure_process"]

    def test_pure_process_preserves_rank_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(g)
            ch = rc.channel_from_kraus([Q2], [Q2], [u])
            assert rc.structural_predicates(ch)["pure_process"]
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            inp = rc.state([Q2], np.kron(v, np.conj(v)))
            out = rc.compose_seq(inp, ch)
            assert rc.structural_predicates(out)["pure_state"]

    def test_mixing_channel_not_pure(self):
        Z = np.diag([1.0, -1.0])
        dep = rc.channel_from_kraus([Q2], [Q2], [np.eye(2) / np.sqrt(2), Z / np.sqrt(2)])
        assert not rc.structural_predicates(dep)["pure_process"]

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("name", sorted(predicate_pool()))
    def test_flags_match_two_spectrum_reference(self, name, tol):
        p = predicate_pool()[name]
        assert rc.structural_predicates(p, tol) == reference_structural_predicates(p, tol)

    def test_pool_covers_every_flag_both_ways(self):
        seen = {}
        for p in predicate_pool().values():
            for k, v in rc.structural_predicates(p).items():
                seen.setdefault(k, set()).add(v)
        assert all(values == {False, True} for values in seen.values()), seen


class TestDistances:
    def test_zero_distance(self):
        rng = np.random.default_rng(18)
        s = random_tensor(rng, [], [Q2])
        assert rc.trace_distance_half(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        s0 = rc.state([Q2], [1, 0, 0, 0])
        s1 = rc.state([Q2], [0, 0, 0, 1])
        assert rc.trace_distance_half(s0, s1) == pytest.approx(1.0)

    def test_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho1 = a @ np.conj(a.T)
            rho1 /= np.trace(rho1).real
            rho2 = b @ np.conj(b.T)
            rho2 /= np.trace(rho2).real
            s1 = rc.state([Q2], rho1.reshape(-1))
            s2 = rc.state([Q2], rho2.reshape(-1))
            oracle = 0.5 * np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum()
            assert rc.trace_distance_half(s1, s2) == pytest.approx(oracle, abs=1e-12)

    def test_triangle_inequality_and_monotonicity(self):
        rng = np.random.default_rng(20)
        regs = [C2, Q2]
        for _ in range(10):
            states = []
            for _ in range(3):
                ch = rc.random_cq_channel([], regs, rng)
                states.append(ch if ch.is_state else rc.state(regs, ch.matrix[:, 0]))
            a, b, c = states
            dab = rc.trace_distance_half(a, b)
            dbc = rc.trace_distance_half(b, c)
            dac = rc.trace_distance_half(a, c)
            assert dac <= dab + dbc + 1e-10
            post = rc.random_cq_channel(regs, [C2], rng)
            da = rc.compose_seq(a, post)
            db = rc.compose_seq(b, post)
            assert rc.trace_distance_half(da, db) <= dab + 1e-10

    def test_process_distance_same(self):
        p = rc.identity([Q2])
        d = rc.process_distance(p, p, seed=0)
        assert d.lower == pytest.approx(0, abs=1e-9)
        assert d.upper == pytest.approx(0, abs=1e-9)

    def test_process_distance_states_collapse(self):
        rng = np.random.default_rng(21)
        a = rc.random_cq_channel([], [Q2], rng)
        b = rc.random_cq_channel([], [Q2], rng)
        t = rc.trace_distance_half(a, b)
        d = rc.process_distance(a, b)
        assert d.lower == pytest.approx(t, abs=1e-9)
        assert d.upper == pytest.approx(t, abs=1e-9)

    def test_identity_vs_z_conjugation(self):
        Z = np.diag([1.0, -1.0])
        zch = rc.channel_from_kraus([Q2], [Q2], [Z])
        d = rc.process_distance(rc.identity([Q2]), zch, seed=3)
        assert d.lower == pytest.approx(1.0, abs=1e-6)
        assert d.lower <= d.upper + 1e-12

    def test_channel_pair_upper_at_most_one(self):
        # half the diamond distance between two channels is at most 1
        zch = rc.channel_from_kraus([Q2], [Q2], [np.diag([1.0, -1.0])])
        d = rc.process_distance(rc.identity([Q2]), zch, seed=3)
        assert d.upper == 1.0
        assert d.lower <= d.upper

    def test_non_channel_pair_keeps_choi_bound(self):
        # 3 id is not a channel, so the cap of 1 does not apply; both maps
        # are completely positive, and the dual bound gives the exact 1
        three = rc.ProcessTensor((Q2,), (Q2,), 3 * np.eye(4))
        d = rc.process_distance(three, rc.identity([Q2]), seed=0)
        assert d.lower == pytest.approx(1.0, abs=1e-12)
        assert d.upper == pytest.approx(1.0, abs=1e-12)

    def test_lower_at_most_upper_random(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            p1 = rc.random_cq_channel([Q2], [Q2], rng)
            p2 = rc.random_cq_channel([Q2], [Q2], rng)
            d = rc.process_distance(p1, p2, seed=5)
            assert d.lower <= d.upper + 1e-12


LAYOUT_REGS = [(), (C2,), (Q2,), (C2, Q3), (Q2, C3, Q2), (C3, C2)]


def reference_lift(regs):
    """(row, col) in operator form of every carrier index, by walking the
    carrier multi-index: a classical register gives one index k, a
    quantum one a (row, column) pair; the operator row is the classical
    indices then the quantum row indices, each in register order, and the
    column the same with the quantum column indices."""
    shape = []
    for r in regs:
        shape += [r.base_dim] if r.kind == rc.CLASSICAL else [r.base_dim] * 2
    kd = [r.base_dim for r in regs if r.kind == rc.CLASSICAL]
    qd = [r.base_dim for r in regs if r.kind == rc.QUANTUM]

    def flat(idx, dims):
        out = 0
        for i, d in zip(idx, dims):
            out = out * d + i
        return out

    rows, cols = [], []
    for multi in np.ndindex(*shape):
        k, i, j, pos = [], [], [], 0
        for r in regs:
            if r.kind == rc.CLASSICAL:
                k.append(multi[pos])
                pos += 1
            else:
                i.append(multi[pos])
                j.append(multi[pos + 1])
                pos += 2
        rows.append(flat(k + i, kd + qd))
        cols.append(flat(k + j, kd + qd))
    return rows, cols, rc.base_dim(regs)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestLayout:
    @pytest.mark.parametrize("regs", LAYOUT_REGS, ids=repr)
    def test_state_and_effect_operators(self, regs):
        rng = np.random.default_rng(41)
        rows, cols, d = reference_lift(regs)
        vec = random_complex(rng, rc.total_dim(regs))
        want = np.zeros((d, d), dtype=complex)
        for c, (r, k) in enumerate(zip(rows, cols)):
            want[r, k] = vec[c]
        assert np.array_equal(rc.state_operator(vec, regs), want)
        assert np.array_equal(rc.effect_operator(vec, regs), want.T)

        op = random_complex(rng, d, d)
        assert np.array_equal(rc.operator_state(op, regs), op[rows, cols])
        assert np.array_equal(rc.operator_effect(op, regs), op[cols, rows])

    @pytest.mark.parametrize(
        "in_regs,out_regs",
        [(a, b) for a in LAYOUT_REGS for b in LAYOUT_REGS if rc.base_dim(a) * rc.base_dim(b) <= 72],
        ids=repr,
    )
    def test_choi_operator(self, in_regs, out_regs):
        rng = np.random.default_rng(42)
        p = random_tensor(rng, in_regs, out_regs)
        ri, ci, di = reference_lift(in_regs)
        ro, co, do = reference_lift(out_regs)
        want = np.zeros((di * do, di * do), dtype=complex)
        for a in range(len(ro)):
            for b in range(len(ri)):
                want[ri[b] * do + ro[a], ci[b] * do + co[a]] = p.matrix[a, b]
        assert np.array_equal(rc.choi_operator(p), want)


class TestCQState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)], ids=repr)
    def test_non_finite_entry_rejected(self, bad):
        # NaN passes every comparison-based check, so it is tested first
        m = np.diag([0.25, 0.25]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            rc.CQState([m, np.diag([0.25, 0.25])])


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        p = random_tensor(rng, [C2, Q2], [C3])
        d = rc.tensor_to_json(p)
        q = rc.tensor_from_json(d)
        assert q.in_regs == p.in_regs and q.out_regs == p.out_regs
        assert np.allclose(q.matrix, p.matrix)

    def test_malformed_tensor_json(self):
        d = rc.tensor_to_json(rc.identity([C2]))
        del d["matrix"]
        with pytest.raises(ValueError, match="malformed"):
            rc.tensor_from_json(d)

    @pytest.mark.parametrize("scale", [True, 1.5, 2.0, "2", 0, -1], ids=repr)
    def test_symbolic_scale_is_a_positive_integer(self, scale):
        # True loaded as a scale equal to 1 that was written back as true,
        # and 1.5 failed only at substitution
        with pytest.raises(ValueError, match="positive integer"):
            rc.SymWidth(scale, "N")
        with pytest.raises(ValueError, match="positive integer"):
            rc.register_from_json({"kind": rc.CLASSICAL, "sym": {"scale": scale, "symbol": "N"}})

    @pytest.mark.parametrize("dim", [2.0, "2", True, 2.5], ids=repr)
    def test_dimension_is_a_json_integer(self, dim):
        # int() used to turn 2.0, "2" and 2.5 into 2, and True into 1
        with pytest.raises(ValueError, match="positive integer"):
            rc.Register(rc.CLASSICAL, dim)
        with pytest.raises(ValueError, match="positive integer"):
            rc.register_from_json({"kind": rc.CLASSICAL, "base_dim": dim})
        d = rc.tensor_to_json(rc.identity([rc.C(1 if dim is True else 2)]))
        d["in_regs"][0]["base_dim"] = d["out_regs"][0]["base_dim"] = dim
        with pytest.raises(ValueError, match="malformed"):
            rc.tensor_from_json(d)


def _ascent_reference(p1, p2, seed=0):
    """The per-restart ascent that process_distance runs on stacked
    restarts: each restart draws its start vector, then alternates the
    output sign projector and the best pure input until its value stops
    rising, at most ASCENT_ITERS times.  Returns the best value."""
    diff = rc.ProcessTensor(p1.in_regs, p1.out_regs, p1.matrix - p2.matrix)
    dext = rc.compose_par(diff, rc.identity((rc.Q(rc.base_dim(p1.in_regs)),)))
    din = rc.base_dim(dext.in_regs)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(rc.RESTARTS):
        psi = rng.normal(size=din) + 1j * rng.normal(size=din)
        psi /= np.linalg.norm(psi)
        prev = -1.0
        for _ in range(rc.ASCENT_ITERS):
            rho = rc.state_operator(rc.operator_state(np.outer(psi, psi.conj()), dext.in_regs),
                                    dext.in_regs)
            X = rc.state_operator(dext.matrix @ rc.operator_state(rho, dext.in_regs), dext.out_regs)
            w, V = np.linalg.eigh(0.5 * (X + X.conj().T))
            val = 0.5 * float(np.abs(w).sum())
            if val <= prev + 1e-13:
                break
            prev = val
            row = rc.operator_effect((V * np.sign(w)) @ V.conj().T, dext.out_regs)
            T = rc.effect_operator(row @ dext.matrix, dext.in_regs)
            T = 0.5 * (T + T.conj().T)
            T = rc.state_operator(rc.operator_state(T, dext.in_regs), dext.in_regs)
            psi = np.linalg.eigh(T)[1][:, -1]
        best = max(best, prev)
    return best


def _choi_upper(p1, p2):
    """Half the trace norm of the Choi difference, clamped to 1 for two
    channels: the upper end process_distance reported before it had a
    dual certificate."""
    diff = rc.ProcessTensor(p1.in_regs, p1.out_regs, p1.matrix - p2.matrix)
    upper = 0.5 * rc.trace_norm(rc.choi_operator(diff))
    flags = [rc.structural_predicates(p) for p in (p1, p2)]
    if all(f["causal"] and f["completely_positive"] for f in flags):
        upper = min(upper, 1.0)
    return upper


def _seeded_pair(case):
    """Two processes of one type: channels (causal) or trace-decreasing
    CP maps, drawn from the seeded cq channel sampler."""
    in_regs, out_regs, causal, seed = case
    rng = np.random.default_rng(seed)
    return tuple(rc.random_cq_channel(in_regs, out_regs, rng, causal=causal) for _ in range(2))


DISTANCE_CASES = [
    ((Q2,), (Q2,), True, 0), ((Q2,), (Q2,), True, 1), ((C2, Q2), (Q2,), True, 2),
    ((C2, Q2), (Q2,), True, 3), ((Q2,), (C2, Q2), True, 4), ((C2,), (C3,), True, 5),
    ((Q2,), (Q2,), False, 6), ((C2, Q2), (Q2,), False, 7),
]


def _golden_pair():
    """The causal C2 (x) Q2 -> Q2 pair of test_golden.test_process_distance_bytes."""
    rng = np.random.default_rng(45)
    p1 = rc.random_cq_channel((C2, Q2), (Q2,), rng)
    p3 = rc.random_cq_channel((C2, Q2), (Q2,), rng)
    return p1, rc.ProcessTensor(p1.in_regs, p1.out_regs, 0.8 * p1.matrix + 0.2 * p3.matrix)


def _interval_digest(d):
    return hashlib.sha256(np.array([d.lower, d.upper]).tobytes()).hexdigest()


# sha256 of the [lower, upper] bytes of the DISTANCE_CASES whose input has
# no classical register
QUANTUM_INPUT_DIGESTS = {
    ((Q2,), (Q2,), True, 0): "db9e6b41ca77dcfcbf97d67baa3ce6add1c34351d0a7ed25f907bcda69d616b3",
    ((Q2,), (Q2,), True, 1): "79b5a2adf11ef5621269f83970d4dcd98f76cd491dc6e50964960a6b29e9ac42",
    ((Q2,), (C2, Q2), True, 4): "c3e89e01f606d6e08b04665667a8bdeba9437de101f43cd799eb3637d7a8144c",
    ((Q2,), (Q2,), False, 6): "ddcd369056ebdd279ead5dd0d0b413234599a90ccb2f14a12e2e9b9b76d2dd6a",
}

# the intervals that an ascent over the whole lifted input, with an ancilla
# of the lifted input dimension, certified on the classical-input cases
LIFTED_ASCENT_INTERVALS = {
    ((C2, Q2), (Q2,), True, 2): (0.8234964821687122, 0.8234964824257986),
    ((C2, Q2), (Q2,), True, 3): (0.9383990791084634, 0.9383990798295394),
    ((C2,), (C3,), True, 5): (0.4473181468563059, 0.4473181468563059),
    ((C2, Q2), (Q2,), False, 7): (0.5752851084171211, 1.0610637060065193),
    "golden": (0.177277163842918, 0.17976638206749834),
}


class TestPinnedIntervals:
    @pytest.mark.parametrize("case", list(QUANTUM_INPUT_DIGESTS), ids=repr)
    def test_quantum_input_bytes(self, case):
        p1, p2 = _seeded_pair(case)
        assert _interval_digest(rc.process_distance(p1, p2, seed=case[3])) == QUANTUM_INPUT_DIGESTS[case]

    @pytest.mark.parametrize("case", list(LIFTED_ASCENT_INTERVALS), ids=repr)
    def test_classical_input_inside_lifted_interval(self, case):
        p1, p2 = _golden_pair() if case == "golden" else _seeded_pair(case)
        d = rc.process_distance(p1, p2, seed=7 if case == "golden" else case[3])
        lower, upper = LIFTED_ASCENT_INTERVALS[case]
        assert d.lower >= lower - 1e-12
        assert d.upper <= upper + 1e-12


class TestAscentMatchesReference:
    @pytest.mark.parametrize("case", DISTANCE_CASES, ids=repr)
    def test_lower_bound_and_upper_no_looser(self, case):
        p1, p2 = _seeded_pair(case)
        got = rc.process_distance(p1, p2, seed=case[3])
        old_upper = _choi_upper(p1, p2)
        want = min(_ascent_reference(p1, p2, seed=case[3]), old_upper)
        assert abs(got.lower - want) <= 1e-12
        assert got.upper <= max(old_upper, want)

    def test_golden_pair(self):
        p1, p2 = _golden_pair()
        got = rc.process_distance(p1, p2, seed=7)
        want = _ascent_reference(p1, p2, seed=7)
        assert abs(got.lower - want) <= 1e-12
        assert got.upper <= _choi_upper(p1, p2)


def _sampled_values(p1, p2, rng, n=64):
    """Half the trace norm of the output difference on n random pure
    inputs on input (x) ancilla: each is a lower bound on half the
    diamond distance, found without the ascent."""
    diff = rc.ProcessTensor(p1.in_regs, p1.out_regs, p1.matrix - p2.matrix)
    dext = rc.compose_par(diff, rc.identity((rc.Q(rc.base_dim(p1.in_regs)),)))
    din = rc.base_dim(dext.in_regs)
    values = []
    for _ in range(n):
        psi = random_complex(rng, din)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        out = rc.state_operator(dext.matrix @ rc.operator_state(rho, dext.in_regs), dext.out_regs)
        values.append(0.5 * rc.trace_norm(out))
    return values


class TestDualCertificate:
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.0, 3.0])
    def test_unitary_pair_closed_form(self, theta):
        # half the diamond distance of the identity and diag(1, e^{i theta})
        # conjugation is sin(theta / 2)
        phase = rc.channel_from_kraus([Q2], [Q2], [np.diag([1.0, np.exp(1j * theta)])])
        d = rc.process_distance(rc.identity([Q2]), phase, seed=1)
        assert d.lower - 1e-12 <= np.sin(theta / 2) <= d.upper + 1e-12
        assert d.upper - d.lower <= 1e-9

    @pytest.mark.parametrize("case", [c for c in DISTANCE_CASES if c[2]], ids=repr)
    def test_channel_pairs_close(self, case):
        p1, p2 = _seeded_pair(case)
        d = rc.process_distance(p1, p2, seed=case[3])
        assert d.upper - d.lower <= 1e-6
        assert max(_sampled_values(p1, p2, np.random.default_rng(case[3]))) <= d.upper

    @pytest.mark.parametrize("case", [c for c in DISTANCE_CASES if not c[2]], ids=repr)
    def test_trace_decreasing_pairs_sound(self, case):
        # the dual bound holds for every Hermiticity-preserving map, so it
        # stays above every sampled value and closes on the ascent's value
        p1, p2 = _seeded_pair(case)
        d = rc.process_distance(p1, p2, seed=case[3])
        assert d.upper - d.lower <= 1e-9
        assert d.upper < _choi_upper(p1, p2)
        assert max(_sampled_values(p1, p2, np.random.default_rng(case[3]))) <= d.upper

    def test_golden_pair_upper_below_choi_bound(self):
        p1, p2 = _golden_pair()
        d = rc.process_distance(p1, p2, seed=7)
        assert d.lower <= d.upper <= 0.18 < _choi_upper(p1, p2)

    def test_trace_leak_term(self):
        # 0.4 id - id is negative, so Z = 0 is dual-feasible and the bound
        # is half the largest eigenvalue of Tr_out(-J): half of 0.6
        shrunk = rc.ProcessTensor((Q2,), (Q2,), 0.4 * np.eye(4))
        d = rc.process_distance(shrunk, rc.identity([Q2]), seed=0)
        assert d.lower == pytest.approx(0.3, abs=1e-12)
        assert d.upper == pytest.approx(0.3, abs=1e-12)

    def test_trace_leak_term_per_symbol(self):
        # symbol 0 compares the identity with Z conjugation (distance 1, no
        # leak), symbol 1 0.4 id with the identity (distance 0.3, all leak):
        # each symbol's dual bound is taken on its own block, so the bound
        # is 1, not 1 + 0.3
        zch = rc.channel_from_kraus([Q2], [Q2], [np.diag([1.0, -1.0])])
        p1 = _from_symbol_maps([rc.identity([Q2]), rc.ProcessTensor((Q2,), (Q2,), 0.4 * np.eye(4))])
        p2 = _from_symbol_maps([zch, rc.identity([Q2])])
        d = rc.process_distance(p1, p2, seed=0)
        assert d.lower == pytest.approx(1.0, abs=1e-9)
        assert d.upper == pytest.approx(1.0, abs=1e-9)


def _symbol_maps(p):
    """The map of each classical input symbol of p, in symbol order, on
    Q(quantum input dimension); p has at most one quantum input register."""
    axes = [r.total_dim for r in p.in_regs]
    kinds = [r.kind for r in p.in_regs]
    order = [i for i, k in enumerate(kinds) if k == rc.CLASSICAL] + [i for i, k in enumerate(kinds) if k == rc.QUANTUM]
    qd = rc._kind_dim(p.in_regs, rc.QUANTUM)
    cols = np.arange(rc.total_dim(p.in_regs)).reshape(axes).transpose(order).reshape(-1, qd * qd)
    return [rc.ProcessTensor((rc.Q(qd),), p.out_regs, p.matrix[:, c]) for c in cols]


def _from_symbol_maps(maps):
    """The C(len(maps)) (x) Q process whose symbol k runs maps[k]."""
    q = maps[0].in_regs[0]
    return rc.ProcessTensor((rc.C(len(maps)), q), maps[0].out_regs, np.hstack([m.matrix for m in maps]))


def _equal_symbol_0_pair():
    """A causal C2 (x) Q2 -> Q2 pair whose two symbol-0 maps are one map."""
    p1, p2 = _seeded_pair(((C2, Q2), (Q2,), True, 11))
    (a0, a1), (_, b1) = _symbol_maps(p1), _symbol_maps(p2)
    return _from_symbol_maps([a0, a1]), _from_symbol_maps([a0, b1])


SYMBOL_CASES = {
    "two classical registers": lambda: _seeded_pair(((C2, Q2, C2), (C2, Q2), True, 8)),
    "classical after quantum": lambda: _seeded_pair(((Q2, C3), (Q2,), True, 9)),
    "equal symbol-0 maps": _equal_symbol_0_pair,
}


class TestPerSymbol:
    """Half the diamond distance with a classical input is the largest
    over its symbols of the distance of that symbol's quantum map."""

    @pytest.mark.parametrize("name", list(SYMBOL_CASES))
    def test_interval_is_largest_symbol_interval(self, name):
        p1, p2 = SYMBOL_CASES[name]()
        d = rc.process_distance(p1, p2, seed=3)
        each = [rc.process_distance(a, b, seed=3) for a, b in zip(_symbol_maps(p1), _symbol_maps(p2))]
        assert abs(d.lower - max(e.lower for e in each)) <= 1e-9
        # an upper end lies above the distance by the dual's slack, which
        # depends on the restarts' inputs: about 1e-7 on a pair with a
        # classical output, below 1e-9 on the others
        assert abs(d.upper - max(e.upper for e in each)) <= 1e-6
        assert d.upper - d.lower <= 1e-6

    def test_equal_symbol_maps_are_at_distance_0(self):
        p1, p2 = _equal_symbol_0_pair()
        a, b = _symbol_maps(p1)[0], _symbol_maps(p2)[0]
        assert rc.process_distance(a, b, seed=3).upper <= 1e-12

    @pytest.mark.parametrize("case", [c for c in DISTANCE_CASES if c[2]] + ["golden"], ids=repr)
    def test_causal_pairs_tight(self, case):
        p1, p2 = _golden_pair() if case == "golden" else _seeded_pair(case)
        d = rc.process_distance(p1, p2, seed=7 if case == "golden" else case[3])
        assert d.upper - d.lower <= 1e-6


# the intervals certified when the dual bound was Watrous's for
# trace-annihilating maps plus a per-symbol trace-leak term: a tighter
# dual bound may only narrow them
PINNED_INTERVALS = {
    ((Q2,), (Q2,), True, 0): (0.7673287937055671, 0.7673287937813343),
    ((Q2,), (Q2,), True, 1): (0.7012355742368935, 0.7012355744448111),
    ((C2, Q2), (Q2,), True, 2): (0.8234964821687125, 0.823496482181075),
    ((C2, Q2), (Q2,), True, 3): (0.9383990791084622, 0.9383990791634162),
    ((Q2,), (C2, Q2), True, 4): (0.7343773593610191, 0.7343774380704117),
    ((C2,), (C3,), True, 5): (0.4473181468563059, 0.4473181468563059),
    ((Q2,), (Q2,), False, 6): (0.6390175832306355, 0.6447641288250329),
    ((C2, Q2), (Q2,), False, 7): (0.5752851084171212, 0.8340203916885234),
    "two classical registers": (0.7852738915416996, 0.7852740011958863),
    "classical after quantum": (0.9419200267501552, 0.9419200270512543),
    "equal symbol-0 maps": (0.5479403808943297, 0.547940380900574),
    "golden": (0.17727716384291758, 0.17727716384828096),
    "3 id vs id": (1.000000000000001, 2.0),
}


def _pinned_pair(case):
    """The pair and seed of a PINNED_INTERVALS case."""
    if case in SYMBOL_CASES:
        return SYMBOL_CASES[case](), 3
    if case == "golden":
        return _golden_pair(), 7
    if case == "3 id vs id":
        return (rc.ProcessTensor((Q2,), (Q2,), 3 * np.eye(4)), rc.identity([Q2])), 0
    return _seeded_pair(case), case[3]


@pytest.mark.parametrize("case", list(PINNED_INTERVALS), ids=repr)
def test_interval_inside_pinned_interval(case):
    (p1, p2), seed = _pinned_pair(case)
    d = rc.process_distance(p1, p2, seed=seed)
    lower, upper = PINNED_INTERVALS[case]
    assert lower - 1e-12 <= d.lower <= d.upper <= upper + 1e-12


def _random_cq_channel_loop(in_regs, out_regs, rng, causal=True):
    """The sampler as one instrument per classical input symbol: the
    reference for the stacked kernel, which must draw the same stream
    and give the same bytes."""
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    Ki = rc._kind_dim(in_regs, rc.CLASSICAL)
    Ko = rc._kind_dim(out_regs, rc.CLASSICAL)
    dqi, dqo = rc._kind_dim(in_regs, rc.QUANTUM), rc._kind_dim(out_regs, rc.QUANTUM)

    def grouped(regs, dq):
        rows, cols, _ = rc._lift(regs)
        return rows * dq + cols % dq

    m = np.zeros((rc.total_dim(out_regs), rc.total_dim(in_regs)), dtype=complex)
    order = np.argsort(grouped(in_regs, dqi)).reshape(Ki, dqi * dqi)
    rows_out = grouped(out_regs, dqo)
    env = max(1, dqi)
    for ci in range(Ki):
        g = rng.normal(size=(Ko * dqo * env, dqi)) + 1j * rng.normal(size=(Ko * dqo * env, dqi))
        V, _ = np.linalg.qr(g)
        V = V[:, :dqi]
        if not causal:
            V = V @ np.diag(np.sqrt(rng.uniform(0.1, 1.0, size=dqi)))
        branches = V.reshape(Ko, dqo, env, dqi)
        doubled = np.einsum("cpea,cqeb->cpqab", branches, np.conj(branches))
        m[:, order[ci]] += doubled.reshape(Ko * dqo * dqo, dqi * dqi)[rows_out]
    return rc.ProcessTensor(in_regs, out_regs, m)


def _random_cq_channel_scatter(in_regs, out_regs, rng, causal=True):
    """The stacked sampler as it was before its gather: one layout of
    column order and grouped rows, and a scatter-add of the gathered
    blocks onto a matrix of zeros.  The reference for the gather, which
    must give the same bytes, signed zeros included."""
    in_regs, out_regs = tuple(in_regs), tuple(out_regs)
    Ki = rc._kind_dim(in_regs, rc.CLASSICAL)
    Ko = rc._kind_dim(out_regs, rc.CLASSICAL)
    dqi, dqo = rc._kind_dim(in_regs, rc.QUANTUM), rc._kind_dim(out_regs, rc.QUANTUM)

    def grouped(regs, dq):
        rows, cols, _ = rc._lift(regs)
        return rows * dq + cols % dq

    order, rows_out = np.argsort(grouped(in_regs, dqi)), grouped(out_regs, dqo)
    m = np.zeros((rc.total_dim(out_regs), rc.total_dim(in_regs)), dtype=complex)
    env = max(1, dqi)
    R = Ko * dqo * env
    if causal:
        z = rng.normal(size=(Ki, 2, R, dqi))
    else:
        z = np.empty((Ki, 2, R, dqi))
        w = np.empty((Ki, 1, dqi))
        for ci in range(Ki):
            z[ci] = rng.normal(size=(2, R, dqi))
            w[ci, 0] = rng.uniform(0.1, 1.0, size=dqi)
    V, _ = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    if not causal:
        V = V * np.sqrt(w)
    branches = V.reshape(Ki, Ko, dqo, env, dqi)
    doubled = np.einsum("kcpea,kcqeb->kcpqab", branches, np.conj(branches))
    blocks = doubled.reshape(Ki, Ko * dqo * dqo, dqi * dqi)[:, rows_out]
    m[:, order] += blocks.transpose(1, 0, 2).reshape(m.shape[0], Ki * dqi * dqi)
    return rc.ProcessTensor(in_regs, out_regs, m)


# classical-only, quantum-only, mixed and empty-input register tuples
SCATTER_SHAPES = [
    ((C2,), (rc.C(3),)),
    ((rc.C(4), C2), (C2, rc.C(3))),
    ((Q2,), (rc.Q(3),)),
    ((Q2, rc.Q(3)), (Q2,)),
    ((C2, Q2), (rc.C(4), Q2)),
    ((Q2, rc.C(3)), (C2, Q2, rc.C(3))),
    ((), (Q2,)),
    ((), (C2, Q2)),
    ((), ()),
]


_registers = st.lists(
    st.one_of(st.builds(rc.C, st.integers(1, 6)), st.builds(rc.Q, st.integers(1, 3))),
    max_size=3,
)


class TestStackedSamplerMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(_registers, _registers, st.booleans(), st.integers(0, 2**32 - 1))
    def test_bytes_and_stream(self, in_regs, out_regs, causal, seed):
        assume(rc.total_dim(in_regs) * rc.total_dim(out_regs) <= 4096)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = rc.random_cq_channel(in_regs, out_regs, rng, causal=causal)
        want = _random_cq_channel_loop(in_regs, out_regs, ref_rng, causal=causal)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_layout_is_cached_and_read_only(self):
        # the layout comes from the register types alone, so it is built
        # once per pair of register tuples and no draw may write it
        layout = rc._channel_layout((C2, Q2), (rc.C(4), Q2))
        assert rc._channel_layout((C2, Q2), (rc.C(4), Q2)) is layout
        gather = layout[4]
        assert not gather.flags.writeable
        with pytest.raises(ValueError):
            gather[0, 0] = 0
        assert layout[:4] == (2, 4, 2, 2) and gather.shape == (16, 8)
        # each entry of the 2 x 4 x 2 x 2 x 2 x 2 doubled action is read once
        assert sorted(gather.ravel()) == list(range(128))

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "stochastic"])
    @pytest.mark.parametrize("in_regs, out_regs", SCATTER_SHAPES, ids=str)
    def test_gather_matches_scatter(self, in_regs, out_regs, causal):
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rc.random_cq_channel(in_regs, out_regs, rng, causal=causal)
            want = _random_cq_channel_scatter(in_regs, out_regs, ref_rng, causal=causal)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
