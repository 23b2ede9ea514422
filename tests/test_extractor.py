"""Tests for Toeplitz extraction and the expansion pipeline."""

import json
import math

import numpy as np
import pytest

from cqcalc import extractor as ex
from cqcalc import protocol as pr
from cqcalc import rewrite as rw
from cqcalc.regcalc import CQState


class TestToeplitz:
    def test_all_zero_seed_gives_zero(self):
        out = ex.toeplitz_extract([1, 0, 1, 1], np.zeros(6, dtype=int), 3)
        assert np.array_equal(out, [0, 0, 0])

    def test_hand_fixture_m1(self):
        # T = [seed[0], seed[1]] = [1 0]; output = 1*1 + 0*1 = 1
        assert np.array_equal(ex.toeplitz_extract([1, 1], [1, 0], 1), [1])

    def test_hand_fixture_m2(self):
        # seed (s0,s1,s2,s3) -> T = [[s1, s2, s3], [s0, s1, s2]]
        seed = [1, 0, 1, 1]
        x = [1, 1, 0]
        # row0 = [0,1,1] -> 0*1+1*1+1*0 = 1; row1 = [1,0,1] -> 1
        assert np.array_equal(ex.toeplitz_extract(x, seed, 2), [1, 1])

    def test_gf2_linearity_in_source(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = 7, 3
            seed = rng.integers(0, 2, n + m - 1)
            x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
            lhs = ex.toeplitz_extract(x ^ y, seed, m)
            rhs = ex.toeplitz_extract(x, seed, m) ^ ex.toeplitz_extract(y, seed, m)
            assert np.array_equal(lhs, rhs)

    def test_gf2_linearity_in_seed(self):
        rng = np.random.default_rng(1)
        n, m = 5, 2
        x = rng.integers(0, 2, n)
        s, t = rng.integers(0, 2, n + m - 1), rng.integers(0, 2, n + m - 1)
        lhs = ex.toeplitz_extract(x, s ^ t, m)
        rhs = ex.toeplitz_extract(x, s, m) ^ ex.toeplitz_extract(x, t, m)
        assert np.array_equal(lhs, rhs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ex.toeplitz_extract([1, 0], [1, 0], 2)

    @pytest.mark.parametrize("n,m", [(4, 0), (4, -1), (0, 1)])
    def test_no_output_bits_or_no_source_bits(self, n, m):
        with pytest.raises(ValueError, match="need 1 <= m <= n"):
            ex.toeplitz_extract([1] * n, [0] * max(n + m - 1, 0), m)

    @pytest.mark.parametrize("n,m", [(1, 1), (5, 2), (7, 3), (12, 4)])
    def test_stacked_seeds_match_single_seed(self, n, m):
        seeds = np.random.default_rng([n, m]).integers(0, 2, (3, 4, n + m - 1))
        stacked = ex.toeplitz_matrix(seeds, m)
        assert stacked.shape == (3, 4, m, n)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(stacked[idx], ex.toeplitz_matrix(seeds[idx], m))


class TestDistance:
    def test_uniform_source_distance_is_rank_defect_only(self):
        # with m=1 the only non-surjective hash seed is all-zero, which
        # maps everything to 0 at distance 1/2
        n, m = 3, 1
        p = np.full(2**n, 2.0**-n)
        d = ex.extractor_distance_exact(p, m)
        assert d == pytest.approx(2.0 ** -(n + m - 1) * 0.5, abs=1e-15)

    def test_point_mass_below_bound(self):
        p = np.zeros(2**4)
        p[3] = 1.0
        d = ex.extractor_distance_exact(p, 1)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert d <= ex.leftover_hash_bound(0, 1) + 1e-12

    @pytest.mark.parametrize("n,m,k", [(5, 2, 3), (6, 3, 4), (4, 1, 2), (6, 2, 2)])
    def test_flat_source_distance_below_hash_bound(self, n, m, k):
        p = np.zeros(2**n)
        p[: 2**k] = 2.0**-k
        d = ex.extractor_distance_exact(p, m)
        assert d <= ex.leftover_hash_bound(k, m) + 1e-12

    @pytest.mark.parametrize("n,m", [(3, 0), (2, 3)])
    def test_output_width_outside_one_to_n(self, n, m):
        with pytest.raises(ValueError, match="need 1 <= m <= n"):
            ex.extractor_distance_exact(np.full(2**n, 2.0**-n), m)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            ex.extractor_distance_exact(np.full(2**13, 2.0**-13), 1)


def _enumerated_distance(p, m):
    """Reference: for each of the 2^(n+m-1) seeds, hash every source
    string in the support of p through its own Toeplitz matrix."""
    n = p.size.bit_length() - 1
    xs = ((np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1).astype(np.uint8)
    support = p > 0
    xs, weights = xs[support], p[support]
    pow2 = 1 << np.arange(m)[::-1]
    total = 0.0
    n_seeds = 2 ** (n + m - 1)
    for s in range(n_seeds):
        seed = np.array([(s >> k) & 1 for k in range(n + m - 1)][::-1], dtype=np.uint8)
        t = ex.toeplitz_matrix(seed, m)
        z = ((xs @ t.T) % 2) @ pow2
        out = np.bincount(z, weights=weights, minlength=2**m)
        total += 0.5 * np.abs(out - 2.0**-m).sum()
    return total / n_seeds


class TestDistanceReference:
    @pytest.mark.parametrize(
        "n,m,k",
        [(1, 1, 0), (3, 1, 3), (5, 2, 0), (6, 3, 4), (8, 3, 5), (10, 3, 7), (10, 3, 10), (12, 4, 8)],
    )
    def test_flat_source_exact(self, n, m, k):
        # flat sources are dyadic, so every sum is exact
        p = np.zeros(2**n)
        p[: 2**k] = 2.0**-k
        assert ex.extractor_distance_exact(p, m) == _enumerated_distance(p, m)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 2), (7, 3), (8, 4), (10, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dirichlet_source(self, n, m, seed):
        p = np.random.default_rng([n, m, seed]).dirichlet(np.ones(2**n))
        want = _enumerated_distance(p, m)
        assert ex.extractor_distance_exact(p, m) == pytest.approx(want, rel=1e-12, abs=0)


class TestSubnormalized:
    def params(self):
        return ex.ExtractorParams(n=2, m=1, e=10)

    def test_zero_state(self):
        y = CQState([np.zeros((2, 2), dtype=complex)] * 4)
        out, rep = ex.extract_subnormalized(y, self.params())
        assert rep["case"] == "small-trace"
        assert rep["bound"] == 2.0**-10
        assert all(np.allclose(b, 0) for b in out.branch_ops)

    def test_normalized_reduces_to_plain_contract(self):
        y = CQState([0.25 * np.eye(2, dtype=complex) / 2 for _ in range(4)])
        out, rep = ex.extract_subnormalized(y, self.params())
        assert rep["case"] == "normalized"
        assert rep["trace"] == pytest.approx(1.0, abs=1e-12)
        assert rep["bound"] == pytest.approx(
            ex.leftover_hash_bound(rep["h_min_normalized"], 1), abs=1e-12
        )

    def test_half_trace_branch_bounds(self):
        y = CQState(
            [0.2 * np.eye(2, dtype=complex) / 2] * 2
            + [0.05 * np.eye(2, dtype=complex) / 2] * 2
        )
        out, rep = ex.extract_subnormalized(y, self.params())
        assert rep["case"] == "normalized"
        assert rep["trace"] == pytest.approx(0.5, abs=1e-12)
        # both branch bounds computed; the applicable one is certified
        assert rep["bound_small"] == 2.0**-10
        assert rep["bound"] == rep["bound_normalized"]
        assert rep["bound"] == pytest.approx(
            0.5 * ex.leftover_hash_bound(rep["h_min_normalized"], 1), abs=1e-12
        )

    def test_output_preserves_trace(self):
        y = CQState(
            [0.2 * np.eye(2, dtype=complex) / 2] * 2
            + [0.05 * np.eye(2, dtype=complex) / 2] * 2
        )
        out, _ = ex.extract_subnormalized(y, self.params())
        total = sum(np.trace(b).real for b in out.branch_ops)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_hash_matches_per_string_loop(self):
        rng = np.random.default_rng(3)
        params = ex.ExtractorParams(n=3, m=2, e=10)
        ops = []
        for _ in range(8):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ops.append(g @ g.conj().T)
        total = sum(np.trace(o).real for o in ops)
        ops = [0.9 * o / total for o in ops]
        seed = rng.integers(0, 2, params.seed_len)
        out, _ = ex.extract_subnormalized(CQState(ops), params, seed)
        want = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for x, op in enumerate(ops):
            z = ex.toeplitz_extract([(x >> k) & 1 for k in (2, 1, 0)], seed, 2)
            want[2 * z[0] + z[1]] += op
        assert all(a.tobytes() == b.tobytes() for a, b in zip(out.branch_ops, want))


class TestDoublingStage:
    def test_width_accounting(self):
        for m in (2, 3, 4, 6):
            st = ex.DoublingStage(m)
            assert st.out_bits == 2 * m

    def test_zero_bits_refused_one_bit_accepted(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="M >= 1"):
                ex.DoublingStage(m)
        # with M = 1 the one seed bit both seeds the hash and keys the protocol
        assert ex.DoublingStage(1).out_bits == 2

    def test_end_to_end_toy_run(self):
        st = ex.DoublingStage(4)
        rep = st.run(pr.optimal_chsh_strategy(), [0, 1, 1, 0], 0.2, 0.85, 7)
        assert len(rep["output_bits"]) == 8
        assert rep["seed_copy"] == [0, 1, 1, 0]

    def test_run_is_deterministic(self):
        st = ex.DoublingStage(4)
        s = pr.optimal_chsh_strategy()
        r1 = st.run(s, [1, 0, 0, 1], 0.2, 0.85, 3)
        r2 = st.run(s, [1, 0, 0, 1], 0.2, 0.85, 3)
        assert r1 == r2


class TestPipeline:
    honest = pr.optimal_chsh_strategy()

    @pytest.mark.parametrize("N,k", [(1, 1), (1, 2), (2, 2)])
    def test_output_width_on_success(self, N, k):
        plan = ex.ExpansionPlan(N, k)
        succeeded = False
        for seed in range(40):
            rep = ex.unbounded_pipeline(
                plan, [self.honest, self.honest], seed, q=0.9, chi=0.75
            )
            assert rep["output_width"] == N * 4**k
            if not rep["aborted"]:
                succeeded = True
                assert len(rep["output_bits"]) == N * 4**k
                break
        assert succeeded

    @pytest.mark.parametrize("N,k", [(1, 1), (1, 2), (2, 2)])
    def test_budget_atoms_match_chain_scripts(self, N, k):
        rep = ex.unbounded_pipeline(
            ex.ExpansionPlan(N, k), [self.honest, self.honest], seed=0
        )
        assert rep["budget"] == str(rw.script_chain(k).claimed_total)
        for i, level in enumerate(rep["levels"]):
            assert level["budget_atoms"] == [
                str(rw.eps(4**i, "N")),
                str(rw.eps(2 * 4**i, "N")),
            ]

    def test_levels_alternate_device_pairs(self):
        rep = ex.unbounded_pipeline(
            ex.ExpansionPlan(1, 3), [self.honest, self.honest], seed=0
        )
        assert [lv["device_pair"] for lv in rep["levels"]] == [0, 1, 0]

    def test_exact_distance_reported_at_smallest_size(self):
        rep = ex.unbounded_pipeline(
            ex.ExpansionPlan(1, 1), [self.honest, self.honest], seed=0, q=0.9, chi=0.75
        )
        assert 0.0 <= rep["uniform_distance_exact"] <= 1.0

    @pytest.mark.parametrize("chi", [0.5, 0.85])
    def test_exact_stage_abort_mass_uses_chi(self, chi):
        # two rounds with per-round test probability q and honest win
        # rate w: abort on no test, and on a pass rate below chi, which
        # at chi = 0.5 spares one pass in two tests
        q, w = 0.4, math.cos(math.pi / 8) ** 2
        fail_two = (1 - w) ** 2 if chi <= 0.5 else 1 - w**2
        want = (1 - q) ** 2 + 2 * q * (1 - q) * (1 - w) + q**2 * fail_two
        stage = ex.DoublingStage(1)
        assert stage.rounds == 2
        per_seed = ex._exact_stage_distribution(stage, self.honest, q, chi)
        for dist, abort_mass in per_seed.values():
            assert abort_mass == pytest.approx(want, abs=1e-12)
            assert dist.sum() == pytest.approx(1 - want, abs=1e-12)

    def test_cheating_devices_abort(self):
        zero = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        aborts = sum(
            ex.unbounded_pipeline(ex.ExpansionPlan(1, 1), [zero, zero], s)["aborted"]
            for s in range(30)
        )
        assert aborts >= 25

    def test_strategy_validated_once(self, monkeypatch):
        # both device pairs are one strategy, checked before the first
        # stage and read from its cached table by both stages
        s = pr.optimal_chsh_strategy()
        calls, validate = [], pr.DeviceStrategy.validate
        monkeypatch.setattr(pr.DeviceStrategy, "validate", lambda self, *a: calls.append(self) or validate(self, *a))
        ex.unbounded_pipeline(ex.ExpansionPlan(1, 1), [s, s], 3)
        assert len(calls) == 1 and calls[0] is s

    def test_report_deterministic_json(self):
        r1 = ex.unbounded_pipeline(ex.ExpansionPlan(1, 2), [self.honest, self.honest], 9)
        r2 = ex.unbounded_pipeline(ex.ExpansionPlan(1, 2), [self.honest, self.honest], 9)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
