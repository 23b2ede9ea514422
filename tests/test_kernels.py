"""Timings of the kernels under the benchmark's workloads: the proofs
workload's hole draws (among them its most drawn shape,
`(C2, Q2) -> (C4, Q2)`), rule checks, `rules --dim 3`,
`check soundness_k2 --dims N=1` and rule-side evaluation, the sweep
workload's spot-check sampler, the cold build of its noisy class's
strategy, a whole `simulate --strategy FILE` job of that class (with
the file's strategy built anew, and cached) and its report emitter,
and the certify workload's
process_distance and min_entropy_cq solves.

    PYTHONPATH=src python -m pytest tests/test_kernels.py

pytest-benchmark prints a table of the timings.  Each case runs a few
fixed rounds, so the module adds well under a second to the suite; the
end-to-end figures come from bench/run.py, not from here.
"""

import json

import numpy as np
import pytest

from cqcalc import cli
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw
from test_golden import wishart_state
from test_protocol import assert_same_report, per_seed_spotcheck

pytest.importorskip("pytest_benchmark")

ROUNDS = 5

C2, C4, C9, C16, C81, Q2 = rc.C(2), rc.C(4), rc.C(9), rc.C(16), rc.C(81), rc.Q(2)

# the hottest hole shapes of the proofs benchmark; the last is the one
# that a block of its check and rules jobs draws most (15 of 69 draws)
CHANNEL_SHAPES = [
    ((C16, C4, Q2), (Q2,), True),
    ((C9, Q2), (C81, Q2), False),
    ((C16, Q2), (C16, Q2), False),
    ((C2, Q2), (C4, Q2), False),
]


@pytest.mark.parametrize("in_regs,out_regs,causal", CHANNEL_SHAPES, ids=repr)
def test_random_cq_channel(benchmark, in_regs, out_regs, causal):
    rng = np.random.default_rng(0)
    p = benchmark.pedantic(
        rc.random_cq_channel,
        args=(in_regs, out_regs, rng),
        kwargs={"causal": causal},
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    assert p.matrix.shape == (rc.total_dim(out_regs), rc.total_dim(in_regs))


def test_rule_distance_expand_S(benchmark):
    rule = rw.rule_expand_S(1, 3)
    rng = np.random.default_rng(0)
    # a fresh binding per round, so every round derives the stage hole
    dist = benchmark.pedantic(lambda: rw.rule_distance(rule, {}, rng), rounds=ROUNDS, warmup_rounds=1)
    assert dist <= 1e-12


def test_rules_dim_3(benchmark, tmp_path):
    # the proofs workload's widest rules class: six self-tests and four
    # axiom probes, with only causality's trials redrawn
    out = tmp_path / "rules.json"
    argv = ["rules", "--dim", "3", "--out", str(out)]
    code = benchmark.pedantic(cli.main, args=(argv,), rounds=ROUNDS, warmup_rounds=1)
    assert code == 0 and json.loads(out.read_text())["all_ok"]


def test_check_soundness_k2(benchmark, tmp_path):
    # the proofs workload's set-up job: after the warm-up round has built
    # the script, each round replays and checks its twelve steps
    out = tmp_path / "check.json"
    argv = ["check", "soundness_k2", "--dims", "N=1", "--out", str(out)]
    code = benchmark.pedantic(cli.main, args=(argv,), rounds=ROUNDS, warmup_rounds=1)
    assert code == 0 and json.loads(out.read_text())["verified"]


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_evaluate_spider_fusion(benchmark, side):
    # a small rule side: its plan is reused, so a round reads the cached
    # generator tensors and runs the contractions alone
    d = getattr(rw.rule_spider_fusion(C2), side)
    p = benchmark.pedantic(d.evaluate, rounds=ROUNDS, warmup_rounds=1)
    assert np.array_equal(p.matrix, rc.spider(C2, 4).matrix)


# the sweep workload's rounds x seeds; at 100 x 40 the per-seed fixed
# cost outweighs the per-round work
SWEEP_SHAPES = [(1000, 4), (500, 8), (200, 20), (100, 40)]


@pytest.mark.parametrize("rounds,sweep", SWEEP_SHAPES)
def test_spotcheck_sweep(benchmark, rounds, sweep):
    # one stacked call per sweep job
    s = pr.optimal_chsh_strategy()
    runs = benchmark.pedantic(
        pr.spotcheck_run, args=(rounds, 0.2, 0.85, s, range(sweep)), rounds=ROUNDS, warmup_rounds=1
    )
    table = pr.round_table(rounds, 0.2, 0.85, s)
    for seed, run in enumerate(runs):
        assert_same_report(run, per_seed_spotcheck(rounds, 0.2, 0.85, table, seed))


def noisy_strategy() -> pr.DeviceStrategy:
    """The sweep workload's noisy class: a Bell state at visibility 0.94
    with the optimal CHSH measurements."""
    s = pr.optimal_chsh_strategy()
    rho = 0.94 * s.density() + 0.06 * np.eye(4) / 4
    return pr.DeviceStrategy(pr.bipartite_state(rho, 2, 2), s.povms)


def test_strategy_from_json(benchmark):
    # the cold strategy build of a noisy-class job: parse the matrices,
    # freeze the POVM arrays, validate, and tabulate the outcome cdf
    j = json.loads(json.dumps(pr.strategy_to_json(noisy_strategy())))
    s = benchmark.pedantic(pr.strategy_from_json, args=(j,), rounds=ROUNDS, warmup_rounds=1)
    assert [t.shape for t in s.povms] == [(2, 2, 2, 2)] * 2
    assert np.allclose(s.outcome_cdf, pr.round_table(200, 0.2, 0.85, noisy_strategy())[1], rtol=0, atol=1e-15)


def strategy_file_job(benchmark, monkeypatch, tmp_path, setup):
    """Time a whole `simulate --strategy FILE --rounds 200 --sweep 20`
    job of the noisy class, running setup before each round, and check
    each run against the per-seed reference."""
    sfile = tmp_path / "noisy.json"
    sfile.write_text(json.dumps(pr.strategy_to_json(noisy_strategy())))
    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: reports.append(report) or emit(report, out))
    argv = ["simulate", "--strategy", str(sfile), "--rounds", "200", "--sweep", "20", "--seed", "5"]
    code = benchmark.pedantic(
        cli.main, args=(argv + ["--out", str(tmp_path / "out.json")],), setup=setup, rounds=ROUNDS, warmup_rounds=1
    )
    assert code == 0
    runs = reports[-1]["runs"]
    assert len(runs) == 20
    noisy = pr.strategy_from_json(json.loads(sfile.read_text()))
    for seed, run in enumerate(runs, start=5):
        assert_same_report(pr.RunReport(**run), per_seed_spotcheck(200, 0.2, 0.85, noisy, seed))


def test_spotcheck_sweep_strategy_file(benchmark, monkeypatch, tmp_path):
    # the sweep workload's noisy class: one whole job, which reads,
    # parses and checks the strategy file (its cache is emptied before
    # every round), samples the seeds and emits the report
    strategy_file_job(benchmark, monkeypatch, tmp_path, cli._strategy.cache_clear)


def test_spotcheck_sweep_strategy_file_warm(benchmark, monkeypatch, tmp_path):
    # the same job as a process runs it after its first: the file is
    # read, and its content finds the checked strategy in the cache
    strategy_file_job(benchmark, monkeypatch, tmp_path, None)


def test_emit_sweep_report(benchmark, monkeypatch, tmp_path):
    # the sweep workload's largest report (4 seeds x 1000 rounds) and
    # its longest runs list (40 seeds x 100 rounds), each to its file
    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: reports.append(report))
    shapes = [(1000, 4), (100, 40)]
    for rounds, sweep in shapes:
        assert cli.main(["simulate", "--rounds", str(rounds), "--sweep", str(sweep), "--seed", "5"]) == 0
    outs = [tmp_path / f"{rounds}x{sweep}.json" for rounds, sweep in shapes]

    def emit_both():
        for report, out in zip(reports, outs):
            emit(report, str(out))

    benchmark.pedantic(emit_both, rounds=ROUNDS, warmup_rounds=1)
    for report, out in zip(reports, outs):
        want = json.dumps(report, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist) + "\n"
        assert out.read_bytes() == want.encode()


# the certify benchmark's distance pairs: causal Q2 -> Q2 and
# C2 (x) Q2 -> Q2 channels of Kraus rank 2
DISTANCE_SHAPES = [((Q2,), (Q2,)), ((C2, Q2), (Q2,))]


@pytest.mark.parametrize("in_regs,out_regs", DISTANCE_SHAPES, ids=repr)
def test_process_distance(benchmark, in_regs, out_regs):
    rng = np.random.default_rng(0)
    p1, p2 = (rc.random_cq_channel(in_regs, out_regs, rng) for _ in range(2))
    d = benchmark.pedantic(rc.process_distance, args=(p1, p2), kwargs={"seed": 1}, rounds=ROUNDS, warmup_rounds=1)
    assert 0 <= d.lower <= d.upper <= d.lower + 1e-6


def test_min_entropy_cq(benchmark):
    # the largest of the certify benchmark's entropy shapes: six branches
    # of dimension 8, solved to the benchmark's tolerance
    branches = wishart_state(6, 8, 0)["branches"]
    psi = rc.CQState([np.array(b["re"]) + 1j * np.array(b["im"]) for b in branches])
    _, cert = benchmark.pedantic(pr.min_entropy_cq, args=(psi,), kwargs={"tol": 1e-9}, rounds=ROUNDS, warmup_rounds=1)
    assert cert["converged"] and 0 <= cert["gap"] <= 1e-9
