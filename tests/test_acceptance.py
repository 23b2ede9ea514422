"""Acceptance suite: the contract-level checks, at their stated
tolerances and runtime budgets."""

import json
import math
import time

import numpy as np
import pytest

from cqcalc import cli
from cqcalc import diagram as dg
from cqcalc import duplication as dup
from cqcalc import extractor as ex
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw
from cqcalc.regcalc import CQState


def test_1_chsh_values():
    start = time.monotonic()
    game = pr.chsh_game()
    assert pr.classical_game_value(game) == 0.75
    quantum = pr.game_value(game, pr.optimal_chsh_strategy())
    assert quantum == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-9)
    assert quantum > 0.85
    assert time.monotonic() - start < 1.0


def test_2_exact_rules_50_seeds():
    start = time.monotonic()
    for dim in (2, 3):
        for rule in rw.builtin_rules(dim):
            for seed in range(50):
                rng = np.random.default_rng(1000 * dim + seed)
                assert rw.rule_distance(rule, {}, rng) <= 1e-12, (rule.name, dim, seed)
    assert time.monotonic() - start < 10.0


class Test3BudgetAlgebra:
    def test_single_stage_total(self):
        want = rw.eps(1, "M") + rw.eps(2, "M")
        assert rw.SHIPPED_SCRIPTS["single_stage"]().claimed_total == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chain_totals(self, k):
        want = rw.EpsExpr.zero()
        for i in range(2 * k):
            want = want + rw.eps(2**i, "N")
        assert rw.script_chain(k).claimed_total == want

    def test_k2_terminates_in_uniform_tensor_residual(self):
        final = rw.replay_script(rw.script_soundness_k2())[0].diagram
        assert dg.diagrams_equal(final, rw.ure_final_form(), anonymize_holes=True)

    def test_numeric_budget_exact(self):
        rep = rw.run_script(
            rw.script_soundness_k2(), eps_fns=lambda n: 2.0**-n, N=1
        )
        assert rep["budget_numeric"]["value"] == 0.81640625


class Test4Duplication:
    def test_marginal_stability_universality(self):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        psi = dup.random_cq_state(rng, 2, 2)
        assert dup.verify_marginal(dup.canonical_duplicate(psi)) <= 1e-9
        for k, d in [(1, 2), (2, 2), (2, 3)]:
            trial_rng = np.random.default_rng(17 * k + d)
            for _ in range(100):
                pair = dup.perturbed_pair(
                    trial_rng, k, d, float(trial_rng.uniform(0.0, 0.3))
                )
                assert dup.check_duplicate_stability(*pair)["holds_raw_units"]
        from tests.test_duplication import random_extension

        phi = random_extension(rng, 2, 2, 2, 1)
        dstate = dup.canonical_duplicate(dup.cq_marginal(phi))
        alpha = dup.universality_alpha(phi, dstate)
        assert rc.trace_distance_half(dup.apply_alpha(dstate, alpha), phi) <= 1e-6
        assert time.monotonic() - start < 30.0


class Test5MinEntropy:
    def test_diagonal_oracle_100_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 5))
            rows = rng.random((n, d))
            rows /= rows.sum()
            psi = CQState([np.diag(r).astype(complex) for r in rows])
            oracle = -math.log2(rows.max(axis=0).sum())
            h, _ = pr.min_entropy_cq(psi, tol=1e-10)
            assert h == pytest.approx(oracle, abs=1e-9)

    def test_helstrom_binary(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = []
            for _ in range(2):
                a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                raw.append(a @ a.conj().T)
            tr = sum(np.trace(m).real for m in raw)
            m0, m1 = raw[0] / tr, raw[1] / tr
            h, _ = pr.min_entropy_cq(CQState([m0, m1]))
            p = 0.5 * (
                np.trace(m0 + m1).real + np.abs(np.linalg.eigvalsh(m0 - m1)).sum()
            )
            assert h == pytest.approx(-math.log2(p), abs=1e-9)

    @pytest.mark.parametrize("n_branches,dim", [(3, 3), (4, 4), (3, 2), (4, 2)])
    def test_iterative_gap(self, n_branches, dim):
        rng = np.random.default_rng(10 * n_branches + dim)
        raw = []
        for _ in range(n_branches):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            raw.append(a @ a.conj().T)
        tr = sum(np.trace(m).real for m in raw)
        _, cert = pr.min_entropy_cq(CQState([m / tr for m in raw]), tol=1e-6)
        assert cert["converged"] and cert["gap"] <= 1e-6


class Test6RationalApprox:
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
    def test_bit_exact_dyadic(self, M):
        rep = pr.rational_approx(0.2, M)
        for level in rep["levels"].values():
            assert (level["approx"] * 2 ** rep["ell"]).denominator == 1

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_enumerated_distance_below_proof_bound(self, q, M):
        rep = pr.rational_approx(q, M)
        assert rep["distance_enumerated"] is not None
        bound = rep["truncation_mass"] + 2.0 ** -(q * M)
        assert rep["distance_enumerated"] <= bound + 1e-15


class Test7SpotCheck:
    def test_honest_abort_rate_below_5pct(self):
        # KNOWN RED. With the abort rule "pass/tests < chi", chi = 0.85
        # and honest per-round value cos^2(pi/8) ~ 0.85355, the margin is
        # 0.00355 while ~100 test rounds give the pass rate a standard
        # deviation of ~0.0354.  The exact abort probability (tests ~
        # Bin(500, 0.2), passes ~ Bin(tests, 0.85355)) is 0.4443, and
        # the empirical frequency over these 200 seeds is 0.425.  A <5%
        # honest abort rate at this margin would need ~26k test rounds
        # per run; no faithful reading of the abort rule attains it at
        # M=500.  The assertion is kept as stated rather than weakened.
        honest = pr.optimal_chsh_strategy()
        aborts = sum(
            pr.spotcheck_run(500, 0.2, 0.85, honest, seed).aborted
            for seed in range(200)
        )
        assert aborts / 200 < 0.05

    def test_all_zero_abort_rate_above_95pct(self):
        zero = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        aborts = sum(
            pr.spotcheck_run(500, 0.2, 0.85, zero, seed).aborted
            for seed in range(200)
        )
        assert aborts / 200 > 0.95


class Test8Extractor:
    def test_hand_fixtures(self):
        assert np.array_equal(ex.toeplitz_extract([1, 1], [1, 0], 1), [1])
        # seed (s0..s3), m=2, n=3: rows [s1 s2 s3], [s0 s1 s2]
        assert np.array_equal(ex.toeplitz_extract([1, 1, 0], [1, 0, 1, 1], 2), [1, 1])
        assert np.array_equal(
            ex.toeplitz_extract([1, 0, 1, 1], [0, 0, 0, 0, 0, 0], 3), [0, 0, 0]
        )

    @pytest.mark.parametrize(
        "n,m,k",
        [(4, 1, 2), (5, 2, 3), (6, 3, 4), (8, 2, 5), (10, 3, 6), (10, 1, 4)],
    )
    def test_distance_below_leftover_hash_bound(self, n, m, k):
        p = np.zeros(2**n)
        p[: 2**k] = 2.0**-k
        d = ex.extractor_distance_exact(p, m)
        assert d <= 0.5 * 2.0 ** (-(k - m) / 2) + 1e-12


class Test9PipelineWidths:
    @pytest.mark.parametrize("N,k", [(1, 1), (1, 2), (2, 2)])
    def test_output_width_and_budget_atoms(self, N, k):
        honest = pr.optimal_chsh_strategy()
        plan = ex.ExpansionPlan(N, k)
        success = None
        for seed in range(40):
            rep = ex.unbounded_pipeline(plan, [honest, honest], seed, q=0.9, chi=0.75)
            assert rep["output_width"] == N * 4**k
            assert rep["budget"] == str(rw.script_chain(k).claimed_total)
            for i, level in enumerate(rep["levels"]):
                assert level["budget_atoms"] == [
                    str(rw.eps(4**i, "N")),
                    str(rw.eps(2 * 4**i, "N")),
                ]
            if not rep["aborted"]:
                success = rep
                break
        assert success is not None
        assert len(success["output_bits"]) == N * 4**k


class Test10CliDeterminism:
    def run_twice(self, tmp_path, argv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(a)]) == cli.main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_eval(self, tmp_path):
        src = tmp_path / "d.dg"
        src.write_text("uniform C2 1")
        self.run_twice(tmp_path, ["eval", str(src)])

    def test_check(self, tmp_path):
        self.run_twice(
            tmp_path, ["check", "single_stage", "--eps-fn", "1,1", "--seed", "4"]
        )

    def test_simulate(self, tmp_path):
        self.run_twice(tmp_path, ["simulate", "--rounds", "80", "--seed", "4"])

    def test_entropy(self, tmp_path):
        self.run_twice(tmp_path, ["entropy", "--example", "diagonal"])

    def test_extract(self, tmp_path):
        self.run_twice(
            tmp_path, ["extract", "--n", "6", "--m", "2", "--hmin", "3", "--seed", "4"]
        )

    def test_rules(self, tmp_path):
        self.run_twice(tmp_path, ["rules", "--trials", "3", "--seed", "4"])
