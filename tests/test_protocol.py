"""Tests for games, spot-checking, min-entropy, and the protocol grammar."""

import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cqcalc import cli
from cqcalc import diagram as dg
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw
from cqcalc.regcalc import CQState


class TestChsh:
    def test_classical_value_exact(self):
        assert pr.classical_game_value(pr.chsh_game()) == 0.75

    def test_optimal_quantum_value(self):
        v = pr.game_value(pr.chsh_game(), pr.optimal_chsh_strategy())
        assert v == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-9)

    def test_all_zero_strategy_scores_classically(self):
        z = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        assert pr.game_value(pr.chsh_game(), z) == pytest.approx(0.75, abs=1e-12)

    def test_deterministic_strategies_never_beat_classical(self):
        g = pr.chsh_game()
        from itertools import product

        for fa in product(range(2), repeat=2):
            for fb in product(range(2), repeat=2):
                s = pr.deterministic_strategy(lambda x: fa[x], lambda y: fb[y])
                assert pr.game_value(g, s) <= 0.75 + 1e-12

    def test_scoring_diagram_matches_direct_value(self):
        d, binding = pr.chsh_scoring_diagram()
        assert d.typecheck() == []
        v = d.evaluate(binding).number().real
        assert v == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-9)

    def test_input_distribution_must_normalize(self):
        with pytest.raises(ValueError):
            pr.Game((pr.BIT, pr.BIT), (pr.BIT, pr.BIT), np.full(4, 0.3), lambda *a: True)

    @pytest.mark.parametrize("version", [7, 2, "1", True, 1.0, None, "missing"])
    def test_strategy_json_refuses_other_versions(self, version):
        j = pr.strategy_to_json(pr.optimal_chsh_strategy())
        if version == "missing":
            del j["format_version"]
        else:
            j["format_version"] = version
        named = None if version == "missing" else version
        with pytest.raises(ValueError) as e:
            pr.strategy_from_json(j)
        assert str(e.value) == f"unsupported strategy format {named!r}"

    def test_strategy_json_round_trip(self):
        s = pr.optimal_chsh_strategy()
        s2 = pr.strategy_from_json(pr.strategy_to_json(s))
        v = pr.game_value(pr.chsh_game(), s2)
        assert v == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-9)


class TestBiasedInputs:
    def test_b_q_entries(self):
        p = pr.b_q_distribution(0.2)
        assert p[0] == pytest.approx(0.8)
        assert np.allclose(p[4:], 0.05)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_b_q_range_check(self):
        with pytest.raises(ValueError):
            pr.b_q_distribution(1.5)

    def test_rational_approx_entries_are_dyadic(self):
        for M in (1, 2, 3, 4, 7):
            rep = pr.rational_approx(0.2, M)
            for level in rep["levels"].values():
                assert (level["approx"] * 2 ** rep["ell"]).denominator == 1

    def test_m1_truncates_test_rounds(self):
        rep = pr.rational_approx(0.2, 1)
        # only the all-generation sequence survives; the dropped test
        # rounds carry exactly mass q
        assert rep["k_max"] == 0
        assert rep["support"] == 1
        assert rep["truncation_mass"] == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_enumerated_distance_below_bound(self, M):
        rep = pr.rational_approx(0.2, M)
        assert rep["distance_enumerated"] is not None
        assert rep["distance_enumerated"] == pytest.approx(rep["distance"], abs=1e-15)
        assert rep["distance_enumerated"] <= rep["bound"] + 1e-15

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            pr.rational_approx(0.3, 4)
        with pytest.raises(ValueError):
            pr.rational_approx(0.1, 0)


def reference_conditional_distribution(s):
    """The per-entry kron/trace loop that conditional_distribution batches."""
    rho = s.density()
    pa, pb = s.povms
    p = np.zeros((len(pa), len(pb), len(pa[0]), len(pb[0])))
    for x, y, a, b in np.ndindex(p.shape):
        p[x, y, a, b] = np.trace(np.kron(pa[x][a], pb[y][b]) @ rho).real
    return p


def dumps(report) -> str:
    """A run report's JSON text; its transcript and output bits are arrays."""
    return json.dumps(report, default=np.ndarray.tolist)


def reference_spotcheck(M, q, chi, s, seed):
    """The scalar loop spotcheck_run batches: one Generator.choice call
    for each round symbol and one for each outcome pair."""
    g = pr.chsh_game()
    rng = np.random.Generator(np.random.Philox(seed))
    p = reference_conditional_distribution(s)
    transcript, outputs, tests, passes = [], [], 0, 0
    for r in range(M):
        sym = int(rng.choice(8, p=pr.b_q_distribution(q)))
        t, a1, a2 = sym >> 2, (sym >> 1) & 1, sym & 1
        xx, yy = (a1, a2) if t else (0, 0)
        flat = p[xx, yy].reshape(-1)
        aa, bb = divmod(int(rng.choice(4, p=flat / flat.sum())), 2)
        tests += t
        passes += bool(t and g.predicate(xx, yy, aa, bb))
        transcript.append((t, a1, a2, aa, bb))
        outputs += [aa, bb]
    return pr.RunReport(tests == 0 or passes / tests < chi, transcript, tests, passes, outputs, seed)


def per_seed_spotcheck(M, q, chi, s, seed):
    """One seed's run drawn and scored on its own: the kernel spotcheck_run
    stacks over seeds.  s is a strategy or its round_table."""
    symbol_cdf, cdf = s if isinstance(s, tuple) else pr.round_table(M, q, chi, s)
    u = np.random.Generator(np.random.Philox(seed)).random((M, 2))
    sym = (symbol_cdf <= u[:, :1]).sum(axis=-1)
    t, a1, a2 = sym >> 2, (sym >> 1) & 1, sym & 1
    xx, yy = a1 * t, a2 * t
    ab = (cdf[xx, yy] <= u[:, 1:]).sum(axis=-1)
    aa, bb = ab >> 1, ab & 1
    tests = int(t.sum())
    passes = int(pr.chsh_game().predicate(xx, yy, aa, bb)[t == 1].sum())
    transcript = np.stack([t, a1, a2, aa, bb], axis=1)
    outputs = np.stack([aa, bb], axis=1).reshape(-1)
    aborted = tests == 0 or passes / tests < chi
    return pr.RunReport(aborted, transcript, tests, passes, outputs, seed)


def assert_same_report(got, want):
    """Equal fields with equal types: arrays of one dtype and shape,
    plain int counts and seed, a bool abort."""
    assert type(got) is pr.RunReport
    for name in ("classical_transcript", "output_bits"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.array_equal(a, b)
    assert type(got.aborted) is bool and got.aborted == want.aborted
    for name in ("test_round_count", "pass_count", "rng_seed"):
        assert type(getattr(got, name)) is int
        assert getattr(got, name) == getattr(want, name)


def random_strategy(seed, da=3, db=2):
    """Random full-rank complex state with random projective measurements."""
    rng = np.random.default_rng(seed)

    def table(d):
        out = []
        for _ in range(2):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            v = np.linalg.qr(z)[0][:, 0]
            proj = np.outer(v, v.conj())
            out.append([proj, np.eye(d) - proj])
        return out

    g = rng.normal(size=(da * db,) * 2) + 1j * rng.normal(size=(da * db,) * 2)
    rho = g @ g.conj().T
    state = pr.bipartite_state(rho / np.trace(rho), da, db)
    return pr.DeviceStrategy(state, [table(da), table(db)])


def deterministic_strategies():
    """The 16 deterministic strategies a = fa[x], b = fb[y], keyed by
    fa + fb: each outcome row holds one 1 and three exact zeros, so its
    cdf repeats values."""
    return {
        "".join(map(str, fa + fb)): pr.deterministic_strategy(lambda x, fa=fa: fa[x], lambda y, fb=fb: fb[y])
        for fa in product(range(2), repeat=2)
        for fb in product(range(2), repeat=2)
    }


DETERMINISTIC_STRATEGIES = deterministic_strategies()


def test_density_round_trip_2x3():
    rng = np.random.default_rng(43)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    state = pr.bipartite_state(rho, 2, 3)
    assert state.out_regs == (rc.Q(2), rc.Q(3))
    # entry ((a, b), (a', b')) of rho sits at carrier index (a, a', b, b')
    want = rho.reshape(2, 3, 2, 3)
    v = state.vector().reshape(2, 2, 3, 3)
    for a, b, a2, b2 in np.ndindex(2, 3, 2, 3):
        assert v[a, a2, b, b2] == want[a, b, a2, b2]
    assert np.array_equal(pr.DeviceStrategy(state, []).density(), rho)


def negative_row_strategy():
    """Z measurements on diag(1 + eps, -eps, 0, 0): validate() accepts the
    state within its tolerance, but every outcome row gives (a, b) =
    (0, 1) the probability -eps."""
    z = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    rho = np.diag([1.0 + 1e-10, -1e-10, 0.0, 0.0]).astype(complex)
    return pr.DeviceStrategy(pr.bipartite_state(rho, 2, 2), [[z, z], [z, z]])


def invalid_spotcheck_inputs():
    """(M, q, chi, strategy, message) for each input the sampler refuses."""
    s = pr.optimal_chsh_strategy()
    rho = s.density()
    return {
        "M=0": (0, 0.2, 0.85, s, "invalid spot-check parameters"),
        "q=1": (10, 1.0, 0.85, s, "invalid spot-check parameters"),
        "chi=0.4": (10, 0.2, 0.4, s, "invalid spot-check parameters"),
        "trace_2": (10, 0.2, 0.85, pr.DeviceStrategy(pr.bipartite_state(2 * rho, 2, 2), s.povms),
                    "shared state must have unit trace"),
        "not_psd": (10, 0.2, 0.85, pr.DeviceStrategy(
            pr.bipartite_state(rho + 0.1 * np.diag([1.0, -1.0, 1.0, -1.0]), 2, 2), s.povms),
                    "shared state is not PSD"),
        "one_input": (10, 0.2, 0.85, pr.DeviceStrategy(s.shared_state, [t[:1] for t in s.povms]),
                      "CHSH needs two inputs and two outcomes per player, got (x, y, a, b) sizes (1, 1, 2, 2)"),
        "negative_row": (10, 0.2, 0.85, negative_row_strategy(), "probabilities are not non-negative"),
    }


INVALID_SPOTCHECK_INPUTS = invalid_spotcheck_inputs()


class TestSpotcheck:
    @pytest.mark.parametrize(
        "s",
        [pr.optimal_chsh_strategy(), random_strategy(1), random_strategy(2, 2, 2)],
        ids=["optimal", "random3x2", "random2x2"],
    )
    def test_matches_scalar_choice_loop(self, s):
        assert pr.conditional_distribution(s).tobytes() == reference_conditional_distribution(s).tobytes()
        for M, q in ((40, 0.1), (40, 0.6), (1, 0.6)):
            for seed in range(3):
                want = reference_spotcheck(M, q, 0.75, s, seed).to_json()
                got = pr.spotcheck_run(M, q, 0.75, s, seed).to_json()
                # the list-built reference serialises to the same bytes
                assert dumps(got) == dumps(want)
                # to_json passes the values through: the sampler gives
                # integer arrays (a bool array would write true/false)
                assert got["classical_transcript"].dtype.kind == "i"
                assert got["classical_transcript"].shape == (M, 5)
                assert got["output_bits"].dtype.kind == "i"
                assert got["output_bits"].shape == (2 * M,)

    @pytest.mark.parametrize(
        "s",
        [
            pr.optimal_chsh_strategy(),
            random_strategy(1),
            random_strategy(2, 2, 2),
            *DETERMINISTIC_STRATEGIES.values(),
        ],
        ids=[
            "optimal",
            "random3x2",
            "random2x2",
            *(f"deterministic{k}" for k in DETERMINISTIC_STRATEGIES),
        ],
    )
    @pytest.mark.parametrize("M", [1, 7, 100])
    @pytest.mark.parametrize(
        "seeds", [range(5), range(95, 103), [41, 3, 1000, 7, 3], [12]], ids=["range", "range95", "list", "one"]
    )
    def test_stack_matches_per_seed_runs(self, s, M, seeds):
        table = pr.round_table(M, 0.3, 0.75, s)
        want = [per_seed_spotcheck(M, 0.3, 0.75, table, seed) for seed in seeds]
        got = pr.spotcheck_run(M, 0.3, 0.75, s, seeds)
        assert type(got) is list and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)
        # the runs' arrays are rows of one stack per field
        assert all(g.classical_transcript.base is got[0].classical_transcript.base for g in got)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), M=st.integers(1, 6), seeds=st.integers(1, 3))
    def test_lookups_count_entries_at_or_below_u(self, data, M, seeds):
        # exact zeros in a table repeat its cdf entries, and doubles u
        # drawn from those entries tie with them: both lookups must still
        # count the entries <= u, as the broadcast compare-and-sum does
        entries = st.just(0.0) | st.floats(1e-3, 1.0)
        p = data.draw(hnp.arrays(np.float64, (2, 2, 4), elements=entries))
        p[..., 3] += p.sum(axis=-1) == 0
        cdf = pr._cdf(p / p.sum(axis=-1, keepdims=True))
        w = data.draw(hnp.arrays(np.float64, 8, elements=entries))
        w[7] += w.sum() == 0
        symbol_cdf = pr._cdf(w / w.sum())
        ties = np.unique(np.concatenate([cdf.ravel(), symbol_cdf, [0.0, np.nextafter(1.0, 0.0)]]))
        u = data.draw(hnp.arrays(np.float64, (seeds, M, 2), elements=st.sampled_from(ties.tolist())))
        sym = np.searchsorted(symbol_cdf, u[..., 0], side="right")
        assert np.array_equal(sym, (symbol_cdf <= u[..., :1]).sum(axis=-1))
        xx, yy = data.draw(hnp.arrays(np.int64, (2, seeds, M), elements=st.integers(0, 1)))
        want = (cdf[xx, yy] <= u[..., 1:]).sum(axis=-1)
        got = pr._draw_outcomes(cdf, xx, yy, u[..., 1])
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_int_seed_returns_one_report(self):
        s = pr.optimal_chsh_strategy()
        for seed in (0, 17):
            assert_same_report(pr.spotcheck_run(7, 0.3, 0.75, s, seed), per_seed_spotcheck(7, 0.3, 0.75, s, seed))
        # a numpy integer is one seed too, not a sequence of them
        got = pr.spotcheck_run(7, 0.3, 0.75, s, np.int64(17))
        assert type(got) is pr.RunReport
        assert np.array_equal(got.output_bits, per_seed_spotcheck(7, 0.3, 0.75, s, 17).output_bits)

    def test_numpy_integer_seeds_report_as_ints(self):
        s = pr.optimal_chsh_strategy()
        want = [pr.spotcheck_run(7, 0.3, 0.75, s, x) for x in (17, 18, 19)]
        got = [pr.spotcheck_run(7, 0.3, 0.75, s, np.int64(17))]
        got += pr.spotcheck_run(7, 0.3, 0.75, s, np.arange(18, 20))
        for g, w in zip(got, want):
            assert_same_report(g, w)
        assert cli._dumps([g.to_json() for g in got]) == cli._dumps([w.to_json() for w in want])

    @pytest.mark.parametrize("seeds", [[], range(0), range(5, 5), ()], ids=repr)
    def test_empty_seed_sequence_refused(self, seeds):
        with pytest.raises(ValueError, match="at least one seed"):
            pr.spotcheck_run(7, 0.3, 0.75, pr.optimal_chsh_strategy(), seeds)

    def test_reproducible_bit_exact(self):
        s = pr.optimal_chsh_strategy()
        r1 = pr.spotcheck_run(60, 0.2, 0.85, s, seed=11)
        r2 = pr.spotcheck_run(60, 0.2, 0.85, s, seed=11)
        assert dumps(r1.to_json()) == dumps(r2.to_json())

    def test_report_shape(self):
        s = pr.optimal_chsh_strategy()
        r = pr.spotcheck_run(40, 0.2, 0.85, s, seed=3)
        assert len(r.classical_transcript) == 40
        assert len(r.output_bits) == 80
        assert r.pass_count <= r.test_round_count

    def test_q_one_makes_every_round_a_test(self):
        s = pr.optimal_chsh_strategy()
        r = pr.spotcheck_run(25, 0.999999, 0.85, s, seed=0)
        assert r.test_round_count == 25

    def test_pass_count_cannot_exceed_tests(self):
        with pytest.raises(ValueError):
            pr.RunReport(False, [], 3, 5, [], 0)

    def test_strategies_outside_chsh_rejected(self):
        s = pr.optimal_chsh_strategy()
        one_input = pr.DeviceStrategy(s.shared_state, [t[:1] for t in s.povms])
        with pytest.raises(ValueError, match="CHSH"):
            pr.spotcheck_run(10, 0.2, 0.85, one_input, seed=0)

    def test_unnormalised_state_rejected(self):
        # twice the Bell state: game_value would read 1.7071 and the
        # sampler would silently renormalise each outcome row
        s = pr.optimal_chsh_strategy()
        doubled = pr.DeviceStrategy(pr.bipartite_state(2 * s.density(), 2, 2), s.povms)
        with pytest.raises(ValueError, match="trace"):
            pr.game_value(pr.chsh_game(), doubled)
        with pytest.raises(ValueError, match="trace"):
            pr.spotcheck_run(10, 0.2, 0.85, doubled, seed=0)

    @pytest.mark.parametrize("case", sorted(INVALID_SPOTCHECK_INPUTS))
    def test_invalid_input_messages(self, case):
        M, q, chi, s, message = INVALID_SPOTCHECK_INPUTS[case]
        with pytest.raises(ValueError) as e:
            pr.spotcheck_run(M, q, chi, s, seed=0)
        assert str(e.value) == message
        with pytest.raises(ValueError) as e:
            pr.round_table(M, q, chi, s)
        assert str(e.value) == message

    def test_cached_table_cannot_go_stale(self):
        s = pr.optimal_chsh_strategy()
        before = [dumps(r.to_json()) for r in pr.spotcheck_run(50, 0.2, 0.85, s, range(3))]
        _, cdf = pr.round_table(50, 0.2, 0.85, s)
        in_place = {
            "effect": s.povms[0][0][0],
            "state": s.shared_state.matrix,
            "distribution": s.distribution,
            "outcome_cdf": cdf,
        }
        for name, a in in_place.items():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            s.povms[0][0] = s.povms[0][1]
        with pytest.raises(TypeError):
            s.povms[0] = s.povms[1]
        for name, value in [("shared_state", s.shared_state), ("povms", s.povms)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        assert [dumps(r.to_json()) for r in pr.spotcheck_run(50, 0.2, 0.85, s, range(3))] == before

    def test_strategy_keeps_its_own_effects(self):
        # a writable effect is copied, so its maker cannot edit the
        # strategy; a read-only one is shared
        s = pr.optimal_chsh_strategy()
        effects = [[[np.array(e) for e in povm] for povm in player] for player in s.povms]
        mine = pr.DeviceStrategy(s.shared_state, effects)
        effects[0][0][0][:] = 0.0
        assert np.array_equal(mine.povms[0][0][0], s.povms[0][0][0])
        assert pr.round_table(10, 0.2, 0.85, mine)[1].tobytes() == pr.round_table(10, 0.2, 0.85, s)[1].tobytes()
        assert pr.DeviceStrategy(s.shared_state, s.povms).povms[0] is s.povms[0]

    def test_povms_are_one_read_only_array_per_player(self):
        s = pr.optimal_chsh_strategy()
        assert type(s.povms) is tuple and len(s.povms) == 2
        for t in s.povms:
            assert type(t) is np.ndarray and t.dtype == complex and t.shape == (2, 2, 2, 2)
            assert not t.flags.writeable

    def test_read_only_player_array_adopted_and_writable_one_copied(self):
        s = pr.optimal_chsh_strategy()
        frozen = [np.array(t) for t in s.povms]
        for t in frozen:
            t.setflags(write=False)
        assert all(a is t for a, t in zip(pr.DeviceStrategy(s.shared_state, frozen).povms, frozen))
        writable = [np.array(t) for t in s.povms]
        copied = pr.DeviceStrategy(s.shared_state, writable)
        assert not any(np.shares_memory(a, t) for a, t in zip(copied.povms, writable))
        writable[0][:] = 0.0
        assert copied == s

    def test_ragged_povm_table_refused_when_built(self):
        s = pr.optimal_chsh_strategy()
        alice, bob = ([list(povm) for povm in t] for t in s.povms)
        bob[0] = bob[0][:1]
        with pytest.raises(ValueError):
            pr.DeviceStrategy(s.shared_state, [alice, bob])

    def test_symbol_cdf_matches_the_checked_cdf(self):
        # round_table computes the cdf without _cdf's checks, which every
        # q it accepts passes; each call returns a fresh array
        s = pr.optimal_chsh_strategy()
        for q in (1e-300, 1e-3, 0.2, 0.5, 1 - 1e-16):
            want = pr._cdf(pr.b_q_distribution(q)).tobytes()
            symbol_cdf, _ = pr.round_table(50, q, 0.85, s)
            assert symbol_cdf.tobytes() == want
            symbol_cdf[:] = 0.5
            assert pr.round_table(50, q, 0.85, s)[0].tobytes() == want

    def test_equal_strategies_compare_and_hash_equal(self):
        # dataclass equality over array fields raised ValueError, and hash() TypeError
        a, b = pr.optimal_chsh_strategy(), pr.optimal_chsh_strategy()
        assert a is not b and a == b and hash(a) == hash(b) and not a != b
        assert len({a, b}) == 1
        zero = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        assert a != zero and zero == pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        # one effect moved by one ulp, or nested one level deeper
        effects = [[[np.array(e) for e in povm] for povm in player] for player in a.povms]
        effects[1][1][0][0, 0] = np.nextafter(effects[1][1][0][0, 0].real, 2)
        assert pr.DeviceStrategy(a.shared_state, effects) != a
        assert pr.DeviceStrategy(a.shared_state, [a.povms]) != a
        assert a != a.shared_state and a.__eq__(a.povms) is NotImplemented

    def test_all_zero_devices_mostly_abort(self):
        z = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
        aborts = sum(
            pr.spotcheck_run(200, 0.2, 0.85, z, seed=s).aborted for s in range(20)
        )
        assert aborts >= 18


class TestMinEntropy:
    def test_diagonal_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 5))
            diags = rng.random((n, d))
            diags /= diags.sum()
            psi = CQState([np.diag(row).astype(complex) for row in diags])
            oracle = -math.log2(diags.max(axis=0).sum())
            h, cert = pr.min_entropy_cq(psi, tol=1e-10)
            assert h == pytest.approx(oracle, abs=1e-9)

    def test_helstrom_binary_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = 3
            raw = []
            for _ in range(2):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                raw.append(a @ a.conj().T)
            tr = sum(np.trace(m).real for m in raw)
            m0, m1 = raw[0] / tr, raw[1] / tr
            h, cert = pr.min_entropy_cq(CQState([m0, m1]))
            p = 0.5 * (
                np.trace(m0 + m1).real + np.abs(np.linalg.eigvalsh(m0 - m1)).sum()
            )
            assert h == pytest.approx(-math.log2(p), abs=1e-9)
            assert cert["gap"] == 0.0

    def test_dimension_cap_spares_the_closed_forms(self):
        # above PD_DIM_MAX only the primal-dual solve is refused, before it
        # builds its Schur matrix; the closed forms take any dimension
        d = pr.PD_DIM_MAX + 1
        rng = np.random.default_rng(5)
        diags = rng.random((3, d))
        diags /= diags.sum()
        h, cert = pr.min_entropy_cq(CQState([np.diag(row).astype(complex) for row in diags]))
        assert h == pytest.approx(-math.log2(diags.max(axis=0).sum()), abs=1e-12) and cert["iterations"] == 0
        g = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        pos = g @ g.conj().swapaxes(1, 2)
        _, cert = pr.min_entropy_cq(CQState(list(pos / np.trace(pos.sum(axis=0)).real)))
        assert cert["converged"] and cert["iterations"] == 0
        g = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        pos = g @ g.conj().swapaxes(1, 2)
        with pytest.raises(ValueError, match=f"dimension {d} have no closed form"):
            pr.min_entropy_cq(CQState(list(pos / np.trace(pos.sum(axis=0)).real)))

    def test_iterative_gap_and_certificate(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = 4
            raw = []
            for _ in range(4):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                raw.append(a @ a.conj().T)
            tr = sum(np.trace(m).real for m in raw)
            psi = CQState([m / tr for m in raw])
            h, cert = pr.min_entropy_cq(psi, tol=1e-6)
            assert cert["converged"]
            assert cert["gap"] <= 1e-6
            for m in psi.branch_ops:
                assert np.linalg.eigvalsh(cert["sigma"] - m).min() >= -1e-8
            assert -math.log2(cert["p_upper"]) <= -math.log2(cert["p_lower"]) + 1e-6

    @staticmethod
    def haar(rng, d):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def test_zero_padding_leaves_h_min_unchanged(self):
        # a singular branch sum used to overflow the iteration and end
        # in LinAlgError
        rng = np.random.default_rng(5)
        raw = []
        for _ in range(3):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            raw.append(a @ a.conj().T)
        tr = sum(np.trace(m).real for m in raw)
        base = [m / tr for m in raw]
        u = self.haar(rng, 4)
        padded = []
        for m in base:
            p = np.zeros((4, 4), dtype=complex)
            p[:2, :2] = m
            padded.append(u @ p @ u.conj().T)
        h0, _ = pr.min_entropy_cq(CQState(base))
        h1, cert = pr.min_entropy_cq(CQState(padded))
        assert h1 == pytest.approx(h0, abs=1e-6)
        assert cert["converged"]
        for m in padded:
            assert np.linalg.eigvalsh(cert["sigma"] - m).min() >= -1e-8

    def test_rank_one_branches_certified(self):
        rng = np.random.default_rng(3)
        vs = [self.haar(rng, 4)[:, 0] for _ in range(3)]
        psi = CQState([w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), vs)])
        h, cert = pr.min_entropy_cq(psi)
        assert cert["converged"]
        assert cert["p_lower"] <= cert["p_upper"] <= cert["p_lower"] + 1e-6
        assert h == pytest.approx(-math.log2(cert["p_upper"]))
        for m in psi.branch_ops:
            assert np.linalg.eigvalsh(cert["sigma"] - m).min() >= -1e-8

    def test_pure_single_branch(self):
        psi = CQState([np.diag([0.5, 0.5]).astype(complex)])
        h, _ = pr.min_entropy_cq(psi)
        assert h == pytest.approx(0.0, abs=1e-12)


def _fixed_point_reference(ms, tol, max_iter):
    """The per-branch loop that min_entropy_cq runs on stacked branches:
    every product, eigensolve and sum over branches is one Python step
    per branch.  A singular branch sum is solved on its support, lifted
    back and shifted until it dominates every branch, as min_entropy_cq
    does.  Returns the certificate dict."""
    ms = [np.asarray(m, dtype=complex) for m in ms]
    d = ms[0].shape[0]
    total = sum(ms)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    support = w > 1e-12 * w.max()
    if not support.all():
        u = v[:, support]
        cert = _fixed_point_reference([u.conj().T @ m @ u for m in ms], tol, max_iter)
        sigma = u @ cert["sigma"] @ u.conj().T
        shift = max(0.0, max(np.linalg.eigvalsh((m - sigma + (m - sigma).conj().T) / 2).max()
                             for m in ms))
        sigma = sigma + shift * np.eye(d)
        p_upper = float(np.trace(sigma).real)
        gap = p_upper - cert["p_lower"]
        cert.update(sigma=sigma, p_upper=p_upper, gap=gap, converged=gap <= tol)
        return cert

    povm = [np.eye(d, dtype=complex) / len(ms) for _ in ms]
    p_lower = p_upper = 0.0
    gap = math.inf
    it = 0
    sigma_feas = sum(ms)
    for it in range(1, max_iter + 1):
        lam = sum(m @ e @ m for m, e in zip(ms, povm))
        w, v = np.linalg.eigh((lam + lam.conj().T) / 2)
        inv_sqrt = (v * (np.clip(w, 1e-300, None) ** -0.5)) @ v.conj().T
        povm = [inv_sqrt @ m @ e @ m @ inv_sqrt for m, e in zip(ms, povm)]
        total = sum(povm)
        wt, vt = np.linalg.eigh((total + total.conj().T) / 2)
        fix = (vt * (np.clip(wt, 1e-300, None) ** -0.5)) @ vt.conj().T
        povm = [fix @ e @ fix for e in povm]
        povm_eval = []
        for e in povm:
            we, ve = np.linalg.eigh((e + e.conj().T) / 2)
            povm_eval.append((ve * np.clip(we, 0.0, None)) @ ve.conj().T)
        tot = sum(povm_eval)
        lam = np.linalg.eigvalsh((tot + tot.conj().T) / 2).max()
        if lam > 1.0:
            povm_eval = [e / lam for e in povm_eval]
        p_lower = sum(float(np.trace(e @ m).real) for e, m in zip(povm_eval, ms))
        cand = sum(m @ e for m, e in zip(ms, povm))
        cand = (cand + cand.conj().T) / 2
        shift = max(
            0.0, max(np.linalg.eigvalsh((m - cand + (m - cand).conj().T) / 2).max() for m in ms)
        )
        sigma_feas = cand + (shift + 1e-12) * np.eye(d)
        p_upper = float(np.trace(sigma_feas).real)
        gap = p_upper - p_lower
        if gap <= tol:
            break
    return {
        "sigma": sigma_feas,
        "gap": float(gap),
        "iterations": it,
        "p_lower": float(p_lower),
        "p_upper": float(p_upper),
        "converged": gap <= tol,
    }


def _wishart_branches(k, d, rank, rng):
    """k complex Wishart branches of the given rank, all on one random
    rank-dimensional subspace of C^d, normalised to total trace one."""
    iso = TestMinEntropy.haar(rng, d)[:, :rank]
    ops = []
    for _ in range(k):
        g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        ops.append(iso @ g @ g.conj().T @ iso.conj().T)
    total = sum(np.trace(o).real for o in ops)
    return [o / total for o in ops]


# every (k, d) pair with k = 3..6 and d = 2..8 at full rank (seed s gives
# k = 3 + s % 4, d = 2 + s % 7), then singular branch sums of rank < d
FIXED_POINT_CASES = [(3 + s % 4, 2 + s % 7, 2 + s % 7) for s in range(28)] + [
    (3, 3, 2), (4, 5, 3), (5, 6, 2), (6, 7, 5), (3, 8, 6), (6, 8, 4),
]


class TestFixedPointMatchesReference:
    # The test ids are kept from when the solver was the stacked fixed
    # point; the fixed point is now the reference, run until it converges.
    @pytest.mark.parametrize("seed", range(len(FIXED_POINT_CASES)))
    def test_same_bytes_as_per_branch_loop(self, seed):
        """The solver's interval meets the converged fixed-point interval,
        its gap is within tol, and sigma dominates every branch."""
        k, d, rank = FIXED_POINT_CASES[seed]
        ms = _wishart_branches(k, d, rank, np.random.default_rng([k, d, rank, seed]))
        want = _fixed_point_reference(ms, 1e-6, 10**4)
        assert want["converged"]
        h, got = pr.min_entropy_cq(CQState(ms), tol=1e-9)
        assert got["converged"] and 0.0 <= got["gap"] <= 1e-9
        assert got["p_lower"] <= want["p_upper"] and want["p_lower"] <= got["p_upper"]
        for m in ms:
            assert np.linalg.eigvalsh(got["sigma"] - m).min() >= -1e-8
        assert h == -math.log2(got["p_upper"])


# (branches, dimension, base seed) of the entropy states of the certify
# benchmark (bench/jobs.py ENTROPY_BASES)
ENTROPY_BASES = ((3, 8, 2), (4, 8, 3), (5, 7, 1), (6, 8, 0), (6, 8, 1))
# predictor-corrector iterations that every rotation of every base
# converges within; the solver takes 10 or 11 on these (the log-barrier
# solver took 34 to 43 Newton steps, under a cap of 60)
ITERATION_CAP = 15


def _entropy_base(branches, dim, base_seed):
    """Full-rank Wishart branches normalised to total trace one, drawn
    as the certify benchmark draws them."""
    rng = np.random.default_rng([branches, dim, base_seed])
    ops = []
    for _ in range(branches):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(g @ g.conj().T)
    total = sum(np.trace(o).real for o in ops)
    return [o / total for o in ops]


def _rotated_bases(blocks):
    """Each base turned by a Haar unitary and its branches permuted, with
    the random stream of the certify benchmark's entropy jobs at seed 1
    (blocks 0..blocks-1, after the block's three extract draws)."""
    out = {base: [] for base in ENTROPY_BASES}
    for index in range(blocks):
        rng = np.random.default_rng([1, index + 1])
        for n in (9, 10, 10):
            rng.integers(3, n + 1)
        for base in ENTROPY_BASES:
            u = TestMinEntropy.haar(rng, base[1])
            ops = [u @ o @ u.conj().T for o in _entropy_base(*base)]
            out[base].append([ops[i] for i in rng.permutation(len(ops))])
    return out


def _barrier_reference(ms, tol, max_iter=1000):
    """The log-barrier solve that min_entropy_cq ran before its
    primal-dual method: damped Newton steps on
    t Tr sigma - sum_i log det(sigma - M_i), each centring ended when
    the squared Newton decrement is <= 1e-6 (at most 50 steps, each
    backtracked by at most 60 halvings), then t raised 16-fold, for at
    most 40 centrings and max_iter Newton steps in total.  The bounds
    are p_upper = Tr sigma and p_lower from the POVM F^-1/2 S_i F^-1/2,
    S_i = (sigma - M_i)^-1, F = sum_i S_i.  Returns
    (sigma, p_lower, p_upper, Newton steps)."""
    ms = rc.hermitian_part(np.array(ms, dtype=complex))
    k, d, _ = ms.shape

    def logdet(sigma):
        try:
            chol = np.linalg.cholesky(sigma - ms)
        except np.linalg.LinAlgError:
            return None
        return 2.0 * float(np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum())

    def newton(s, t):
        grad = t * np.eye(d) - s.sum(axis=0)
        hess = (s.reshape(k, d * d).T @ s.swapaxes(1, 2).reshape(k, d * d)).reshape(d, d, d, d)
        hess = hess.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        delta = rc.hermitian_part(np.linalg.solve(hess, -grad.reshape(-1)).reshape(d, d))
        return delta, -float(np.vdot(grad, delta).real)

    total = ms.sum(axis=0)
    negative = float(np.clip(-np.linalg.eigvalsh(ms)[:, 0], 0.0, None).sum())
    sigma = total + (float(np.trace(total).real) / d + negative) * np.eye(d)
    ld = logdet(sigma)
    s = rc.hermitian_part(np.linalg.inv(sigma - ms))
    t = float(np.trace(s.sum(axis=0)).real) / d
    steps = 0
    for _ in range(40):
        for _ in range(50):
            delta, lam2 = newton(s, t)
            if lam2 <= 1e-6 or steps >= max_iter:
                break
            steps += 1
            tr_delta, step = float(np.trace(delta).real), 1.0
            for _ in range(60):
                trial = logdet(sigma + step * delta)
                if trial is not None and t * step * tr_delta - (trial - ld) <= -0.25 * step * lam2:
                    break
                step /= 2
            else:
                break
            try:
                s_next = rc.hermitian_part(np.linalg.inv(sigma + step * delta - ms))
            except np.linalg.LinAlgError:
                break
            sigma, ld, s = sigma + step * delta, trial, s_next
        p_upper = float(np.trace(sigma).real)
        w, v = np.linalg.eigh(rc.hermitian_part(s.sum(axis=0)))
        root = (v * w ** -0.5) @ v.conj().T
        p_lower = float(np.einsum("iab,iba->", root @ s @ root, ms).real)
        if p_upper - p_lower <= tol or steps >= max_iter:
            break
        t *= 16.0
    return sigma, p_lower, p_upper, steps


class TestMatchesBarrierReference:
    """The solver's certified interval meets the log-barrier reference's,
    its gap is in [0, tol] and sigma - M_i passes Cholesky for every
    branch."""

    TOL = 1e-9

    def check(self, ms):
        _, lo, hi, _ = _barrier_reference(ms, self.TOL)
        assert hi - lo <= self.TOL
        _, cert = pr.min_entropy_cq(CQState(ms), tol=self.TOL)
        assert cert["converged"] and 0.0 <= cert["gap"] <= self.TOL
        assert cert["p_lower"] <= hi and lo <= cert["p_upper"]
        for m in ms:
            np.linalg.cholesky(cert["sigma"] - rc.hermitian_part(np.asarray(m)))

    @pytest.mark.parametrize("seed", range(len(FIXED_POINT_CASES)))
    def test_fixed_point_cases(self, seed):
        k, d, rank = FIXED_POINT_CASES[seed]
        self.check(_wishart_branches(k, d, rank, np.random.default_rng([k, d, rank, seed])))

    @pytest.mark.parametrize("base", ENTROPY_BASES, ids=repr)
    def test_entropy_base_rotations(self, base):
        for ms in _rotated_bases(40)[base]:
            self.check(ms)


class TestBarrierSolver:
    # The test ids are kept from when the solver was the log-barrier
    # method; that method is now _barrier_reference.
    @pytest.mark.parametrize("base", ENTROPY_BASES, ids=repr)
    def test_rotations_converge_within_step_cap(self, base):
        p_guess = None
        for ms in _rotated_bases(40)[base]:
            _, cert = pr.min_entropy_cq(CQState(ms), tol=1e-9, max_iter=ITERATION_CAP)
            assert cert["converged"] and 0.0 <= cert["gap"] <= 1e-9
            assert 0 < cert["iterations"] <= ITERATION_CAP
            # the guessing probability is unitarily invariant
            p_guess = cert["p_upper"] if p_guess is None else p_guess
            assert abs(cert["p_upper"] - p_guess) <= 2e-9

    def test_sigma_strictly_feasible(self):
        for ms in _rotated_bases(1).values():
            _, cert = pr.min_entropy_cq(CQState(ms[0]), tol=1e-9)
            np.linalg.cholesky(cert["sigma"] - np.array(ms[0]))  # raises unless positive definite
            assert cert["p_upper"] == pytest.approx(np.trace(cert["sigma"]).real, abs=1e-15)

    def test_tolerated_negative_eigenvalues(self):
        # CQState accepts eigenvalues down to -1e-8; the start point must
        # still be strictly feasible
        ms = [np.diag([-1e-8, 0.0]), np.array([[0.0, 5e-9], [5e-9, 0.0]]), np.diag([0.0, 3e-8])]
        _, cert = pr.min_entropy_cq(CQState(ms), tol=1e-12)
        assert cert["converged"] and 0.0 <= cert["gap"] <= 1e-12
        for m in ms:
            assert np.linalg.eigvalsh(cert["sigma"] - m).min() >= -1e-8

    def test_step_cap_reported_as_not_converged(self):
        ms = _entropy_base(*ENTROPY_BASES[0])
        _, cert = pr.min_entropy_cq(CQState(ms), tol=1e-9, max_iter=5)
        assert cert["iterations"] == 5
        assert not cert["converged"] and cert["gap"] > 1e-9
        assert cert["p_lower"] <= cert["p_upper"]


class TestProtocolGrammar:
    def test_empty_protocol_is_identity(self):
        p = pr.build_di_protocol([])
        ident = rc.identity((rc.C(2), rc.Q(2), rc.Q(2)))
        assert np.allclose(p.as_tensor().matrix, ident.matrix)

    def full_steps(self):
        return [
            ("give_input", lambda c: c, 1),
            ("device_comm", 1, 2),
            ("receive_output", lambda c, m: c ^ m, 2),
            ("classical_fn", lambda c: 1 - c),
            ("failure_filter", {0}),
        ]

    def test_all_step_kinds_typecheck(self):
        p = pr.build_di_protocol(self.full_steps())
        assert p.diagram.typecheck() == []
        assert len(p.hole_specs) == 4

    def test_bound_protocol_is_a_channel_up_to_filtering(self):
        rng = np.random.default_rng(5)
        p = pr.build_di_protocol(self.full_steps())
        binding = {
            lbl: rc.random_cq_channel(g.in_ports, g.out_ports, rng, causal=True)
            for lbl, g in p.hole_specs.items()
        }
        preds = rc.structural_predicates(p.as_tensor(binding))
        assert preds["stochastic"] and preds["completely_positive"]
        assert not preds["causal"]  # the filter drops mass

    def test_failure_filter_is_stochastic_not_causal(self):
        t = pr.failure_filter_tensor(3, {0, 2})
        preds = rc.structural_predicates(t)
        assert preds["stochastic"] and not preds["causal"]

    def test_filterless_protocol_is_causal(self):
        rng = np.random.default_rng(9)
        p = pr.build_di_protocol(self.full_steps()[:4])
        binding = {
            lbl: rc.random_cq_channel(g.in_ports, g.out_ports, rng, causal=True)
            for lbl, g in p.hole_specs.items()
        }
        assert rc.structural_predicates(p.as_tensor(binding))["causal"]

    def test_composition_reuses_device_wires(self):
        rng = np.random.default_rng(4)
        p1 = pr.build_di_protocol([("give_input", lambda c: c, 1)], tag="x")
        p2 = pr.build_di_protocol([("receive_output", lambda c, m: m, 1)], tag="y")
        pc = p1.then(p2)
        binding = {
            lbl: rc.random_cq_channel(g.in_ports, g.out_ports, rng, causal=True)
            for lbl, g in pc.hole_specs.items()
        }
        seq = rc.compose_seq(
            p1.as_tensor({k: binding[k] for k in p1.hole_specs}),
            p2.as_tensor({k: binding[k] for k in p2.hole_specs}),
        )
        assert np.allclose(pc.as_tensor(binding).matrix, seq.matrix, atol=1e-12)

    def test_bad_step_kind_rejected(self):
        with pytest.raises(ValueError):
            pr.build_di_protocol([("teleport", 1, 2)])

    @pytest.mark.parametrize("value", [2, 3, -1])
    @pytest.mark.parametrize("dev", [1, 2])
    def test_values_outside_the_bit_rejected(self, value, dev):
        # every classical map writes one bit; none is reduced modulo 2
        msg = f"function value {value} outside register of dimension 2"
        for step in (
            ("classical_fn", lambda c: value * c),
            ("give_input", lambda c: value * c, dev),
            ("receive_output", lambda c, m: value * m, dev),
        ):
            with pytest.raises(ValueError, match=msg):
                pr.build_di_protocol([step])


def _hand_wired_protocol(steps, tag="p"):
    """The protocol grammar with every layer's node ids and port wires
    listed by hand, one list per step kind and device.  Returns the
    diagram and the hole specs that build_di_protocol must reproduce."""
    c_dim = q_dim = msg_dim = 2
    C, Q, Msg = rc.C(c_dim), rc.Q(q_dim), rc.C(msg_dim)
    holes = {}
    diagram = dg.Diagram.id_wires([C, Q, Q])
    for idx, step in enumerate(steps):
        kind = step[0]
        label = f"{tag}{idx}"
        if kind == "device_comm":
            _, i, j = step
            send = dg.hole(f"{label}_send_d{i}", (Q,), (Q, rc.Q(msg_dim)), ("causal",))
            recv = dg.hole(f"{label}_recv_d{j}", (rc.Q(msg_dim), Q), (Q,), ("causal",))
            wires = [
                (("in", 0), ("out", 0)),
                (("in", i), ("n", 0, 0)),
                (("n", 0, 0), ("out", i)),
                (("n", 0, 1), ("n", 1, 0)),
                (("in", j), ("n", 1, 1)),
                (("n", 1, 0), ("out", j)),
            ]
            layer = dg.Diagram({0: send, 1: recv}, wires, (C, Q, Q), (C, Q, Q))
            holes[send.label] = send
            holes[recv.label] = recv
        elif kind in ("classical_fn", "failure_filter"):
            if kind == "classical_fn":
                payload = rc.ProcessTensor((C,), (C,), pr.fn_matrix(step[1], c_dim, c_dim))
                box = dg.box(f"{label}_fn", (C,), (C,), payload, ("causal", "stochastic"))
            else:
                payload = pr.failure_filter_tensor(c_dim, step[1])
                box = dg.box(f"{label}_filter", (C,), (C,), payload, ("stochastic",))
            wires = [
                (("in", 0), ("n", 0, 0)),
                (("n", 0, 0), ("out", 0)),
                (("in", 1), ("out", 1)),
                (("in", 2), ("out", 2)),
            ]
            layer = dg.Diagram({0: box}, wires, (C, Q, Q), (C, Q, Q))
        elif kind == "give_input":
            _, g, j = step
            copy = np.zeros((c_dim * msg_dim, c_dim))
            for i in range(c_dim):
                copy[i * msg_dim + (g(i) % msg_dim), i] = 1.0
            gbox = dg.box(
                f"{label}_g", (C,), (C, Msg), rc.ProcessTensor((C,), (C, Msg), copy),
                ("causal", "stochastic"),
            )
            dev = dg.hole(f"{label}_dev{j}", (Msg, Q), (Q,), ("causal",))
            wires = [
                (("in", 0), ("n", 0, 0)),
                (("n", 0, 0), ("out", 0)),
                (("n", 0, 1), ("n", 1, 0)),
                (("in", j), ("n", 1, 1)),
                (("n", 1, 0), ("out", j)),
                (("in", 3 - j), ("out", 3 - j)),
            ]
            layer = dg.Diagram({0: gbox, 1: dev}, wires, (C, Q, Q), (C, Q, Q))
            holes[dev.label] = dev
        else:
            _, h, i = step
            dev = dg.hole(f"{label}_dev{i}", (Q,), (Q, Msg), ("causal",))
            hm = np.zeros((c_dim, c_dim * msg_dim))
            for c in range(c_dim):
                for m in range(msg_dim):
                    hm[h(c, m) % c_dim, c * msg_dim + m] = 1.0
            hbox = dg.box(
                f"{label}_h", (C, Msg), (C,), rc.ProcessTensor((C, Msg), (C,), hm),
                ("causal", "stochastic"),
            )
            wires = [
                (("in", 0), ("n", 1, 0)),
                (("in", i), ("n", 0, 0)),
                (("n", 0, 0), ("out", i)),
                (("n", 0, 1), ("n", 1, 1)),
                (("n", 1, 0), ("out", 0)),
                (("in", 3 - i), ("out", 3 - i)),
            ]
            layer = dg.Diagram({0: dev, 1: hbox}, wires, (C, Q, Q), (C, Q, Q))
            holes[dev.label] = dev
        diagram = diagram >> layer
    return diagram, holes


def _random_step(rng):
    """One admissible step on a random device; the classical maps are
    random tables into the bit."""
    kind = int(rng.integers(5))
    dev = int(rng.integers(1, 3))
    if kind == 0:
        return ("device_comm", dev, 3 - dev)
    if kind == 1:
        t = rng.integers(0, 2, 2).tolist()
        return ("classical_fn", lambda c: t[c])
    if kind == 2:
        return ("failure_filter", set(np.flatnonzero(rng.integers(0, 2, 2)).tolist()))
    if kind == 3:
        t = rng.integers(0, 2, 2).tolist()
        return ("give_input", lambda c: t[c], dev)
    t = rng.integers(0, 2, (2, 2)).tolist()
    return ("receive_output", lambda c, m: t[c][m], dev)


def _assert_matches_hand_wired(steps, rng, tag="p"):
    p = pr.build_di_protocol(steps, tag=tag)
    want, holes = _hand_wired_protocol(steps, tag=tag)
    assert list(p.hole_specs.items()) == list(holes.items())
    binding = {
        lbl: rc.random_cq_channel(g.in_ports, g.out_ports, rng, causal=True)
        for lbl, g in holes.items()
    }
    assert p.as_tensor(binding).matrix.tobytes() == want.evaluate(binding).matrix.tobytes()


class TestGrammarMatchesHandWiring:
    @pytest.mark.parametrize(
        "step",
        [
            ("device_comm", 1, 2),
            ("device_comm", 2, 1),
            ("classical_fn", lambda c: 1 - c),
            ("failure_filter", {1}),
            ("give_input", lambda c: 1 - c, 1),
            ("give_input", lambda c: 1, 2),
            ("receive_output", lambda c, m: c ^ m, 1),
            ("receive_output", lambda c, m: 1 - (c & m), 2),
        ],
        ids=["comm12", "comm21", "fn", "filter", "input1", "input2", "output1", "output2"],
    )
    def test_each_step_kind_on_each_device(self, step):
        rng = np.random.default_rng(17)
        _assert_matches_hand_wired([step], rng)
        # the same step between steps on the other device, under another tag
        mirror = ("give_input", lambda c: c, 1), ("receive_output", lambda c, m: m, 2)
        _assert_matches_hand_wired([mirror[0], step, mirror[1]], rng, tag="q")

    def test_random_step_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            steps = [_random_step(rng) for _ in range(int(rng.integers(0, 6)))]
            _assert_matches_hand_wired(steps, rng)


def reference_honest_round():
    """The doubled matrix of the honest round written entry by entry:
    m[out_bits, q_out (i', j'), seed, q_in (i, j)] for the Kraus
    operator |v><v| of basis vector v = bases[seed][outcome]."""
    z = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    x = [np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
         np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)]
    bases = [z, x]
    m = np.zeros((4, 2, 2, 2, 2, 2), dtype=complex)
    for s in range(2):
        for a in range(2):
            vec = bases[s][a]
            for i2, j2, i1, j1 in np.ndindex(2, 2, 2, 2):
                m[a * 2 + s, i2, j2, s, i1, j1] = (
                    vec[i2] * vec[i1].conjugate() * vec[j2].conjugate() * vec[j1]
                )
    return m.reshape(16, 8)


def test_measurement_tensor_transposes_each_effect_into_its_row():
    s = random_strategy(6, da=3)
    for table, d in zip(s.povms, (3, 2)):
        t = pr.measurement_tensor(table, d)
        assert t.in_regs == (rc.C(2), rc.Q(d)) and t.out_regs == (rc.C(2),)
        m = t.matrix.reshape(2, 2, d, d)
        for xx, aa in np.ndindex(2, 2):
            assert m[aa, xx].tobytes() == np.asarray(table[xx][aa], dtype=complex).T.tobytes()


class TestHonestDevices:
    def test_honest_round_matches_entrywise_reference(self):
        t = pr.honest_expansion_round()
        assert t.in_regs == (rc.C(2), rc.Q(2)) and t.out_regs == (rc.C(4), rc.Q(2))
        assert np.abs(t.matrix - reference_honest_round()).max() <= 1e-15

    def test_honest_round_is_a_channel(self):
        t = pr.honest_expansion_round()
        preds = rc.structural_predicates(t)
        assert preds["causal"] and preds["completely_positive"]

    def test_spot_check_axiom_distance_recorded(self):
        # instantiating the axiom's round hole with the honest device
        # gives a finite measured deviation; it is recorded, not asserted
        rule = rw.rule_spot_check(1, "N")
        rng = np.random.default_rng(0)
        honest = pr.honest_expansion_round()
        sub = rule.lhs.subst({"N": 1})
        binding = {}
        for g in sub.nodes.values():
            if g.kind == dg.HOLE:
                binding[g.label] = honest if g.label == "R@1" else rw.sample_hole(g, rng)
        lhs_val = sub.evaluate(binding)
        rhs = rule.rhs.subst({"N": 1})
        for g in rhs.nodes.values():
            if g.kind == dg.HOLE and g.label not in binding:
                binding[g.label] = rw.sample_hole(g, rng)
        rhs_val = rhs.evaluate(binding)
        dist = np.abs(lhs_val.matrix - rhs_val.matrix).max()
        assert np.isfinite(dist)
