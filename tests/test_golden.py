"""Golden digests: the report bytes must not move across versions.

Each case pins the SHA-256 of a deterministic report.  A change to how
the spot-check sampler consumes its random stream, or to the report
layout, moves a digest; such a change must bump `format_version`
instead of passing silently.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from cqcalc import cli
from cqcalc import extractor as ex
from cqcalc import protocol as pr


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def noisy_bell_json(visibility: float) -> dict:
    """Werner state v|Phi+><Phi+| + (1-v) I/4 with the optimal CHSH
    measurements."""
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = visibility * np.outer(bell, bell) + (1 - visibility) * np.eye(4) / 4
    s = pr.optimal_chsh_strategy()
    s = pr.DeviceStrategy(pr.bipartite_state(rho.astype(complex), 2, 2), s.povms)
    return pr.strategy_to_json(s)


SIMULATE_DIGESTS = {
    ("optimal", 1000, 4): "1e3663fa229a4f4c6dc62fe0e7c3851553e7f6c3db92741fd037d5bdd48bf035",
    ("optimal", 100, 40): "9bf457e3a8f96e0b103cebb5bd2f72295f345cf4ed47058027b7b00084349fb7",
    ("optimal", 1, 8): "74e016cb326502ac3ceadf88ba5e498805dcccba8752774868cd0e621e1c5e9d",
    ("all-zero", 1000, 4): "127003f94309580965fe1e81c0fa2e0c21c7e4831d7a82219039fa409f9b0daa",
    ("all-zero", 100, 40): "de86df7ac81d6564f4e6696ca171933f8195bd629310350a00758c5b48540972",
    ("all-zero", 1, 8): "7c02d1910175f307745a515963d53243a72d22031545a7dbc1cc57d2b1c4153b",
    ("noisy.json", 1000, 4): "ce55b613a956955234d3aa3e20f3e7fd0bd39ec5514467820d9d65d1ecdee0a8",
    ("noisy.json", 100, 40): "e9cd7f79d7812b180066c9aadb059a0a39b2df39e57d5b4fe4ede524b77cc75b",
    ("noisy.json", 1, 8): "dcfa539f87289fe3d8987c8521e167e6a3f593df34ddb2c09934bd26c6be4e30",
}


@pytest.mark.parametrize("strategy,rounds,sweep", sorted(SIMULATE_DIGESTS))
def test_simulate_sweep_bytes(tmp_path, monkeypatch, strategy, rounds, sweep):
    # run from tmp_path so the strategy path echoed in the report is relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "noisy.json").write_text(json.dumps(noisy_bell_json(0.93)))
    argv = ["simulate", "--rounds", str(rounds), "--sweep", str(sweep), "--seed", "5"]
    if strategy != "optimal":
        argv += ["--strategy", strategy]
    assert cli.main(argv + ["--out", "out.json"]) == 0
    digest = sha256((tmp_path / "out.json").read_bytes())
    assert digest == SIMULATE_DIGESTS[(strategy, rounds, sweep)]


def scripted_strategy(rounds: int) -> pr.DeviceStrategy:
    """Per-round POVM tables cycling through the optimal measurements,
    the all-zero answers and the optimal measurements with Bob's
    outcomes swapped."""
    honest = pr.optimal_chsh_strategy()
    zero = pr.deterministic_strategy(lambda x: 0, lambda y: 0)
    swapped = [list(reversed(effects)) for effects in honest.povms[1]]
    cycle = [
        (honest.povms[0], honest.povms[1]),
        (zero.povms[0], zero.povms[1]),
        (honest.povms[0], swapped),
    ]
    alice = [cycle[r % 3][0] for r in range(rounds)]
    bob = [cycle[r % 3][1] for r in range(rounds)]
    return pr.DeviceStrategy(honest.shared_state, [alice, bob], mode="scripted")


def test_scripted_run_bytes():
    run = pr.spotcheck_run(90, 0.3, 0.6, scripted_strategy(90), seed=12)
    text = json.dumps(run.to_json(), sort_keys=True)
    assert sha256(text.encode()) == "2cf528af1746ebc7b3e6aa03fa94fbea058b57194bd3de2b944df9868c3fbe89"


def test_pipeline_report_bytes():
    honest = pr.optimal_chsh_strategy()
    rep = ex.unbounded_pipeline(ex.ExpansionPlan(1, 1), [honest, honest], 4, q=0.9, chi=0.75)
    assert "uniform_distance_exact" in rep
    text = json.dumps(rep, sort_keys=True)
    assert sha256(text.encode()) == "b0ba80c4abf94ee537963771338a5d617722c97691ff9f15daf300d519960dfd"
