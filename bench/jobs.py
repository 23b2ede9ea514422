"""Job streams of the three workloads.

A workload turns the benchmark seed into blocks of jobs.  Every block
holds each job class of the workload exactly once (parameters drawn
from the seed, order shuffled), so the mix of classes in a run does not
depend on the seed or on where the time budget ends.  A job is either a
`cqcalc` command line, run in-process through `cqcalc.cli.main`, or a
call of a public library function.  Its check compares the output with
an independent reference from `reference.py` and returns counters that
the runner adds up; it raises `CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    """One unit of work.  CLI jobs set `argv` (the runner appends
    `--out FILE`) and their check receives (exit code, report bytes).
    Library jobs set `call`, which returns (value, bytes for the
    digest), and their check receives the value."""

    kind: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None


@dataclass
class Workload:
    seed: int
    workdir: Path
    nproc: int
    cq: dict = field(default_factory=dict)  # imported cqcalc modules

    name = ""

    def __post_init__(self):
        """Write the workload's fixed input files."""

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2**63, *key])

    def block(self, index: int) -> list:
        """Jobs of block `index` (-1 is the warm-up block), shuffled."""
        jobs = self.jobs(index, self.rng(index + 1))
        order = self.rng(index + 1, 99).permutation(len(jobs))
        return [jobs[i] for i in order]

    def jobs(self, index: int, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def first_job(self) -> Job:
        """The job a fresh interpreter runs to measure set-up time."""
        raise NotImplementedError

    def reference_jobs(self) -> list:
        """Extra jobs run once before timing to check fixed references."""
        return []

    def finish(self, counters: dict) -> list:
        """Checks over the whole run; returns (kind, message) failures."""
        return []

    def write(self, name: str, text: str) -> str:
        """Write an input file; returns the name that job argv use.
        Jobs run with the work directory as current directory, so
        reports that echo an input path are the same in every run."""
        (self.workdir / name).write_text(text)
        return name

    def write_json(self, name: str, obj) -> str:
        return self.write(name, json.dumps(obj))


def cli_report(result) -> dict:
    code, data = result
    require(code == 0, f"exit code {code}")
    return json.loads(data)


# ---------------------------------------------------------------------------
# sweep: spot-check protocol sweeps through `cqcalc simulate --sweep`

Q_TEST = 0.2
CHI = 0.85
SWEEP_SHAPES = ((1000, 4), (500, 8), (200, 20), (100, 40))  # rounds x seeds
SEED_STRIDE = 64  # consecutive --seed ranges of two jobs never overlap


class Sweep(Workload):
    name = "sweep"

    def __post_init__(self):
        alice, bob = ref.chsh_observables()
        a_opt = [ref.projective_povm(o) for o in alice]
        b_opt = [ref.projective_povm(o) for o in bob]
        zero = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        visibility = float(self.rng(0).uniform(0.90, 0.98))
        noisy_rho = ref.bell_state(visibility)
        self.strategies = {
            "optimal": ([], ref.chsh_win_probability(ref.bell_state(1.0), a_opt, b_opt)),
            "all-zero": (
                ["--strategy", "all-zero"],
                ref.chsh_win_probability(ref.bell_state(1.0), [zero, zero], [zero, zero]),
            ),
            "noisy": (
                ["--strategy", self.write_json("noisy.json", ref.strategy_json(noisy_rho, a_opt, b_opt))],
                ref.chsh_win_probability(noisy_rho, a_opt, b_opt),
            ),
        }
        self.seed_base = (self.seed % 100_000) * 10**7

    def _job(self, strategy, rounds, sweep, jobs, first_seed) -> Job:
        flag, _ = self.strategies[strategy]
        argv = [
            "simulate", "--rounds", str(rounds), "--sweep", str(sweep),
            "--q", str(Q_TEST), "--chi", str(CHI), "--seed", str(first_seed),
            "--jobs", str(jobs), *flag,
        ]

        def check(result):
            rep = cli_report(result)
            runs = rep["runs"]
            require(len(runs) == sweep, f"{len(runs)} runs, expected {sweep}")
            aborts = 0
            for offset, run in enumerate(runs):
                transcript = run["classical_transcript"]
                require(run["rng_seed"] == first_seed + offset, "run seeds out of order")
                require(len(transcript) == rounds, "transcript length")
                require(len(run["output_bits"]) == 2 * rounds, "output bits != 2M")
                require(set(run["output_bits"]) <= {0, 1}, "output bits not binary")
                tests = [r for r in transcript if r[0] == 1]
                passes = sum((a ^ b) == (x & y) for _, x, y, a, b in tests)
                require(run["test_round_count"] == len(tests), "test count")
                require(run["pass_count"] == passes, "pass count")
                require(passes <= len(tests), "passes exceed tests")
                abort = len(tests) == 0 or passes / len(tests) < CHI
                require(run["aborted"] == abort, "abort rule")
                aborts += abort
            require(rep["abort_count"] == aborts, "abort_count")
            return {f"pool:{strategy}:{rounds}:aborts": aborts, f"pool:{strategy}:{rounds}:runs": sweep}

        return Job(f"simulate:{strategy}:{rounds}x{sweep}:jobs{jobs}", check, argv=argv)

    def jobs(self, index, rng):
        out = []
        first = self.seed_base + (index + 1) * 10**5
        for rounds, sweep in SWEEP_SHAPES:
            for strategy in self.strategies:
                for jobs in (1, 2):
                    out.append(self._job(strategy, rounds, sweep, min(jobs, self.nproc), first))
                    first += SEED_STRIDE
        return out

    def first_job(self):
        return self._job("optimal", 1000, 4, 1, self.seed_base)

    def finish(self, counters):
        """Pooled abort count per (strategy, rounds) within 5 sigma of the
        exact Bin(M, q) x Bin(tests, win) prediction.  The test uses the
        exact binomial tails of the pooled count, because the normal
        approximation fails when the abort probability is near 0 or 1."""
        failures = []
        for strategy, (_, win) in self.strategies.items():
            for rounds, _ in SWEEP_SHAPES:
                n = counters.get(f"pool:{strategy}:{rounds}:runs", 0)
                if not n:
                    continue
                aborts = counters[f"pool:{strategy}:{rounds}:aborts"]
                p = ref.abort_probability(rounds, Q_TEST, CHI, win)
                if min(ref.binomial_tails(aborts, n, p)) < ref.FIVE_SIGMA_TAIL:
                    failures.append(
                        (f"simulate:{strategy}:{rounds}",
                         f"{aborts}/{n} aborts, predicted {n * p:.1f} +- {math.sqrt(n * p * (1 - p)):.1f}")
                    )
        return failures


# ---------------------------------------------------------------------------
# proofs: proof replay, rule self-tests, diagram evaluation, DSL round trips

SCRIPTS = {  # shipped script -> its base width symbol
    "single_stage": "M",
    "soundness_k2": "N",
    "spot_check_lemma": "N",
    "chain_k1": "N",
    "chain_k2": "N",
    "chain_k3": "N",
}
LAYERS = (7, 8, 9)
LANES = (4, 5, 6)
SCALAR_TOL = 1e-9


class Proofs(Workload):
    name = "proofs"

    def __post_init__(self):
        self.layered = {}
        for n in LAYERS:
            text = " * ".join(["uniform C4 1"] * n) + " ;\n" + " * ".join(["discard C4"] * n) + "\n"
            self.layered[n] = self.write(f"layered{n}.dg", text)

    def _check_job(self, script, seed) -> Job:
        def check(result):
            rep = cli_report(result)
            require(rep["script"] == script, "script name")
            require(rep["verified"] is True, "not verified")
            require(rep["claimed_total_matches"] is True, "claimed total differs")
            steps = rep["steps"]
            checked = sum(s["status"] not in ("skipped", "symbolic") for s in steps)
            return {"steps": len(steps), "steps_checked": checked}

        argv = ["check", script, "--dims", f"{SCRIPTS[script]}=1", "--seed", str(seed)]
        return Job(f"check:{script}", check, argv=argv)

    def _rules_job(self, dim, seed) -> Job:
        def check(result):
            rep = cli_report(result)
            require(rep["all_ok"] is True and rep["dim"] == dim, "rule self-test failed")
            for r in rep["rules"]:
                if r["mode"] == "exact":
                    require(r["max_deviation"] <= SCALAR_TOL, f"rule {r['name']} deviates")
                else:
                    require(math.isfinite(r["measured_distance"]) and r["measured_distance"] >= 0,
                            f"axiom {r['name']} distance")
            return {}

        return Job(f"rules:{dim}", check, argv=["rules", "--dim", str(dim), "--seed", str(seed)])

    @staticmethod
    def _scalar_one(result):
        rep = cli_report(result)
        require(rep["in_dims"] == [] and rep["out_dims"] == [], "not a scalar")
        require(abs(rep["scalar_re"] - 1.0) <= SCALAR_TOL and abs(rep["scalar_im"]) <= SCALAR_TOL,
                f"scalar {rep['scalar_re']}+{rep['scalar_im']}i, expected 1")
        return {}

    def _hole_chain(self, tag, rng) -> Job:
        """uniform C_a ; prepare Q_d ; channel Q_d -> Q_e ; measure C_b ;
        discard: a causal chain, so the scalar is 1."""
        a, b, d, e = (int(x) for x in rng.integers(2, 4, size=4))
        prep = ref.preparation_matrix([ref.random_density(rng, d) for _ in range(a)])
        chan = ref.quantum_channel_matrix(ref.random_kraus(rng, d, e, 2))
        meas = ref.measurement_matrix(ref.random_povm(rng, e, b))
        src = (
            f"hole f : C{a} -> Q{d} causal\n"
            f"hole g : Q{d} -> Q{e} causal\n"
            f"hole h : Q{e} -> C{b} causal\n"
            f"uniform C{a} 1 ; f ; g ; h ; discard C{b}\n"
        )
        bindings = {
            "f": ref.tensor_json([("C", a)], [("Q", d)], prep),
            "g": ref.tensor_json([("Q", d)], [("Q", e)], chan),
            "h": ref.tensor_json([("Q", e)], [("C", b)], meas),
        }
        return self._hole_job("chain", tag, src, bindings)

    def _hole_parallel(self, tag, rng) -> Job:
        """(state Q_d * uniform C_a) ; (channel * stochastic map) ; discard both."""
        a, b, d, e = (int(x) for x in rng.integers(2, 4, size=4))
        src = (
            f"hole p : I -> Q{d} causal\n"
            f"hole f : C{a} -> C{b} causal\n"
            f"hole g : Q{d} -> Q{e} causal\n"
            f"(p * uniform C{a} 1) ; (g * f) ; (discard Q{e} * discard C{b})\n"
        )
        bindings = {
            "p": ref.tensor_json([], [("Q", d)], ref.state_matrix(ref.random_density(rng, d))),
            "f": ref.tensor_json([("C", a)], [("C", b)], ref.stochastic_matrix(rng, a, b)),
            "g": ref.tensor_json([("Q", d)], [("Q", e)],
                                 ref.quantum_channel_matrix(ref.random_kraus(rng, d, e, 3))),
        }
        return self._hole_job("parallel", tag, src, bindings)

    def _hole_job(self, shape, tag, src, bindings) -> Job:
        dg_path = self.write(f"holes-{shape}-{tag}.dg", src)
        bind_path = self.write_json(f"holes-{shape}-{tag}.json", bindings)
        return Job(f"eval:holes-{shape}", self._scalar_one,
                   argv=["eval", dg_path, "--bindings", bind_path])

    def _roundtrip_job(self, lanes, reg) -> Job:
        dg = self.cq["diagram"]
        src = " * ".join([f"(uniform {reg} 1 ; discard {reg})"] * lanes)

        def call():
            d = dg.parse_diagram(src)
            text = dg.print_diagram(d)
            again = dg.parse_diagram(text)
            return (dg.diagrams_equal(d, again), len(again.nodes)), text.encode()

        def check(value):
            equal, nodes = value
            require(equal is True, "round trip not equal")
            require(nodes == 2 * lanes, f"{nodes} nodes after round trip, expected {2 * lanes}")
            return {}

        return Job(f"roundtrip:{lanes}", check, call=call)

    def jobs(self, index, rng):
        out = [self._check_job(s, int(rng.integers(1 << 20))) for s in SCRIPTS]
        out += [self._rules_job(dim, int(rng.integers(1 << 20))) for dim in (2, 3)]
        out += [Job(f"eval:layered{n}", self._scalar_one, argv=["eval", self.layered[n]]) for n in LAYERS]
        out.append(self._hole_chain(index, rng))
        out.append(self._hole_parallel(index, rng))
        out += [self._roundtrip_job(lanes, f"C{int(rng.integers(2, 5))}") for lanes in LANES]
        return out

    def first_job(self):
        return self._check_job("soundness_k2", int(self.rng(0).integers(1 << 20)))


# ---------------------------------------------------------------------------
# certify: extractor distances, min-entropy certificates, process distances

# n of the extract jobs in a block.  n = 10 appears twice so that the
# 90th percentile falls inside that class, not on its edge.
EXTRACT_N = (9, 10, 10)
EXTRACT_M = 3
# (branches, dimension, base seed) of the cq states given to `entropy`.
# Each run conjugates a fixed base ensemble by a seeded Haar unitary and
# permutes its branches.  The guessing probability and the solver's
# iteration count are invariant under both, so the work per job does not
# depend on the seed (random ensembles need 20 to 5,000+ iterations).
# The bases were picked once at 130-300 fixed-point iterations.  Four of
# them cost about the same, so the median job falls inside that group.
ENTROPY_BASES = ((3, 8, 2), (4, 8, 3), (5, 7, 1), (6, 8, 0), (6, 8, 1))
ENTROPY_TOL = 1e-9
DIAGONAL_P_GUESS = 0.30 + 0.20 + 0.15  # column maxima of the shipped example


def entropy_base(branches: int, dim: int, base_seed: int) -> list:
    """Full-rank Wishart branches normalised to total trace one."""
    rng = np.random.default_rng([branches, dim, base_seed])
    ops = []
    for _ in range(branches):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(g @ g.conj().T)
    total = sum(np.trace(o).real for o in ops)
    return [o / total for o in ops]


# (classical input symbols, Kraus rank, base seed) of the causal pairs
# given to process_distance: Q2 -> Q2 and C2 (x) Q2 -> Q2.
DISTANCE_BASES = ((1, 2, 0), (2, 2, 0))


def distance_base(symbols: int, rank: int, base_seed: int) -> list:
    """Two random channels, each a list of Kraus sets, one per symbol."""
    rng = np.random.default_rng([symbols, rank, base_seed])
    return [[ref.random_kraus(rng, 2, 2, rank) for _ in range(symbols)] for _ in range(2)]


class Certify(Workload):
    name = "certify"

    def __post_init__(self):
        self.bases = {b: entropy_base(*b) for b in ENTROPY_BASES}
        self.distance_bases = {b: distance_base(*b) for b in DISTANCE_BASES}
        self.h_seen = {}
        self.extract_ref = {}

    def _extract_job(self, n, k) -> Job:
        def check(result):
            rep = cli_report(result)
            require(rep["n"] == n and rep["m"] == EXTRACT_M and rep["h_min"] == k, "echoed parameters")
            bound = min(1.0, 0.5 * 2.0 ** (-(k - EXTRACT_M) / 2))
            require(abs(rep["leftover_hash_bound"] - bound) <= 1e-15, "leftover hash bound")
            require(rep["distance"] <= bound + 1e-15, f"distance {rep['distance']} above the bound")
            key = (n, k)
            if key not in self.extract_ref:
                self.extract_ref[key] = ref.extractor_distance(n, EXTRACT_M, k)
            require(abs(rep["distance"] - self.extract_ref[key]) <= 1e-12,
                    f"distance {rep['distance']}, brute force {self.extract_ref[key]}")
            return {}

        argv = ["extract", "--n", str(n), "--m", str(EXTRACT_M), "--hmin", str(k)]
        return Job(f"extract:{n}", check, argv=argv)

    def _entropy_job(self, base, tag, rng) -> Job:
        u = ref.haar_unitary(rng, base[1])
        ops = [u @ o @ u.conj().T for o in self.bases[base]]
        ops = [ops[i] for i in rng.permutation(len(ops))]
        state = {"branches": [{"re": o.real.tolist(), "im": o.imag.tolist()} for o in ops]}
        path = self.write_json("state-{}x{}s{}-{}.json".format(*base, tag), state)

        def check(result):
            rep = cli_report(result)
            require(rep["converged"] is True, "solver did not converge")
            require(rep["p_guess_lower"] <= rep["p_guess_upper"], "p_lower > p_upper")
            require(0 <= rep["gap"] <= ENTROPY_TOL, f"gap {rep['gap']}")
            # the guessing probability is invariant under the unitary and
            # the branch permutation, so every instance of a base agrees
            first = self.h_seen.setdefault(base, rep["h_min"])
            require(abs(rep["h_min"] - first) <= 1e-6, "h_min not unitarily invariant")
            return {}

        return Job("entropy:{}x{}s{}".format(*base), check, argv=["entropy", "--state", path])

    def _distance_job(self, base, rng) -> Job:
        """A base pair turned by seeded Haar unitaries U on the quantum
        input and V on the output (K -> V K U for every Kraus operator)
        with its classical input symbols permuted.  The diamond distance
        and the Choi bound are invariant, so the work per job depends
        on the seed only through the solver's random restarts."""
        rc = self.cq["regcalc"]
        symbols = base[0]
        u, v = ref.haar_unitary(rng, 2), ref.haar_unitary(rng, 2)
        order = rng.permutation(symbols)
        pair = []
        for channel in self.distance_bases[base]:
            turned = [[v @ k @ u for k in channel[c]] for c in order]
            if symbols == 1:
                pair.append(ref.quantum_channel_matrix(turned[0]))
            else:
                pair.append(ref.cq_channel_matrix(turned))
        ins = [("C", symbols), ("Q", 2)] if symbols > 1 else [("Q", 2)]
        p1, p2 = (rc.tensor_from_json(ref.tensor_json(ins, [("Q", 2)], m)) for m in pair)
        seed = int(rng.integers(1 << 20))

        def call():
            iv = rc.process_distance(p1, p2, seed=seed)
            return iv, json.dumps([iv.lower, iv.upper]).encode()

        def check(iv):
            require(0.0 <= iv.lower <= iv.upper, f"interval [{iv.lower}, {iv.upper}]")
            require(iv.lower <= 1.0 + 1e-9, f"lower bound {iv.lower} above 1")
            return {}

        return Job("process_distance:" + ("C2Q2" if symbols > 1 else "Q2"), check, call=call)

    def jobs(self, index, rng):
        out = [self._extract_job(n, int(rng.integers(EXTRACT_M, n + 1))) for n in EXTRACT_N]
        out += [self._entropy_job(b, index, rng) for b in ENTROPY_BASES]
        out += [self._distance_job(b, rng) for b in DISTANCE_BASES]
        return out

    def first_job(self):
        # k fixed, so that the set-up work does not depend on the seed
        return self._extract_job(max(EXTRACT_N), max(EXTRACT_N))

    def reference_jobs(self):
        def diagonal(result):
            rep = cli_report(result)
            require(abs(rep["p_guess_lower"] - DIAGONAL_P_GUESS) <= 1e-12
                    and abs(rep["p_guess_upper"] - DIAGONAL_P_GUESS) <= 1e-12,
                    f"diagonal example p_guess {rep['p_guess_lower']}, expected 0.65")
            return {}

        # The largest instance, n = k = 10, sets the memory peak; it runs
        # here so that peak_rss_mb does not depend on whether the seed
        # draws k = 10 in the timed blocks.
        sizes = ((6, 4), (7, 7), (8, 5), (max(EXTRACT_N), max(EXTRACT_N)))
        extracts = [self._extract_job(n, k) for n, k in sizes]
        return [Job("entropy:diagonal", diagonal, argv=["entropy", "--example", "diagonal"]), *extracts]


WORKLOADS = {w.name: w for w in (Sweep, Proofs, Certify)}
