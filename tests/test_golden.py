"""Golden digests: the report bytes must not move across versions.

Each case pins the SHA-256 of a deterministic report or saved proof
script.  A change to how the spot-check sampler consumes its random
stream, to how a proof step rewrites its diagram, or to the report or
script layout, moves a digest; such a change must bump `format_version`
instead of passing silently.

A CLI report is hashed over its canonical indented form, json.dumps of
its parsed value with sorted keys and indent 2, so the digest pins the
report's value; test_reports_are_one_compact_line pins the bytes the
CLI writes for that value.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from cqcalc import cli
from cqcalc import extractor as ex
from cqcalc import protocol as pr
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_sha256(data: bytes) -> str:
    """The digest of a CLI report's canonical indented form."""
    return sha256((json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode())


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
    # a one-record runs list and the smallest stack of records
    ("optimal", 100, 1): "f82ec9c3a770c600cb0bd7f1bb256aaebe001c1dbdc7c9db9715013997e29c2d",
    ("optimal", 100, 2): "c57fa65215bb1c60dc921c72ce54bfd29bc6097fd125f3174f1514d14cbcb1ef",
    ("all-zero", 100, 1): "19ab69045fb9459feac74d3e1d4ecced7f9a03f5d5209aebb16ef0bbe3830cd2",
    ("all-zero", 100, 2): "1a3cefbf67fcee21be6aef040b3b5c918c4cdee7e9385ead0bbf14f33011d7ff",
    ("noisy.json", 100, 1): "904a80a2ddeab5bac80dd812680a9508f800cf902ab468742b09eb499c74583e",
    ("noisy.json", 100, 2): "d09126033dde863d1673adaf59a763b4951267b1c7bb46f60ec116b8f2045493",
}


# simulate without --sweep: one run's report under "report"
SIMULATE_RUN_DIGESTS = {
    ("optimal", 1): "95f9efc8056f2ff0151272679df77838cf84e98202058768591bd699c9c43f5f",
    ("optimal", 1000): "85ce522c0c54261da4671374c0c563bccd4b50d0e815957ce482a4eb6be5fa25",
    ("all-zero", 1): "f63a68a81958b41d1e945acbd7bdd62e80de867d489e1de18930c706ac27ddde",
    ("all-zero", 1000): "eb819f34c07e0c844f9866c33d0e5d93580619c1143c5f2e22e51da22ed6577f",
    ("noisy.json", 1): "04ccd34fb69fd15102e64725f280bee7c166994306e89224580ee969468a80df",
    ("noisy.json", 1000): "4b925192214f1c1e32fe4dedc0de429030de3c7329fbf2e34eb01346ceb6201a",
}


def simulate_digest(tmp_path, monkeypatch, strategy, argv) -> str:
    # run from tmp_path so the strategy path echoed in the report is relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "noisy.json").write_text(json.dumps(noisy_bell_json(0.93)))
    argv = ["simulate", *argv, "--seed", "5"]
    if strategy != "optimal":
        argv += ["--strategy", strategy]
    assert cli.main(argv + ["--out", "out.json"]) == 0
    return report_sha256((tmp_path / "out.json").read_bytes())


@pytest.mark.parametrize("strategy,rounds,sweep", sorted(SIMULATE_DIGESTS))
def test_simulate_sweep_bytes(tmp_path, monkeypatch, strategy, rounds, sweep):
    digest = simulate_digest(tmp_path, monkeypatch, strategy, ["--rounds", str(rounds), "--sweep", str(sweep)])
    assert digest == SIMULATE_DIGESTS[(strategy, rounds, sweep)]


@pytest.mark.parametrize("strategy,rounds", sorted(SIMULATE_RUN_DIGESTS))
def test_simulate_run_bytes(tmp_path, monkeypatch, strategy, rounds):
    digest = simulate_digest(tmp_path, monkeypatch, strategy, ["--rounds", str(rounds)])
    assert digest == SIMULATE_RUN_DIGESTS[(strategy, rounds)]


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
    text = json.dumps(run.to_json(), sort_keys=True, default=np.ndarray.tolist)
    assert sha256(text.encode()) == "2cf528af1746ebc7b3e6aa03fa94fbea058b57194bd3de2b944df9868c3fbe89"


# seeds 95-105 at 40 rounds: rng_seed goes from 2 to 3 digits and
# pass_count from 1 to 2 digits; the scripted table has a round axis
SPOTCHECK_SEEDS_DIGESTS = {
    "optimal": "5f6a9e6b0d1058954a5996ae4986b54bb294f95e26c42d16c7a125780f22e88d",
    "all-zero": "ab9e4b81d813daa9c7c929436ad79c48a18463ec5a32558d508284d68c238cc9",
    "scripted": "fe4e7e5bfd22b9b719dcbf39dd9216d87aead73dc6634a5daa7356b57ee429b1",
}


def spotcheck_strategy(name: str) -> pr.DeviceStrategy:
    if name == "optimal":
        return pr.optimal_chsh_strategy()
    if name == "all-zero":
        return pr.deterministic_strategy(lambda x: 0, lambda y: 0)
    return scripted_strategy(90)


@pytest.mark.parametrize("strategy", sorted(SPOTCHECK_SEEDS_DIGESTS))
def test_spotcheck_seeds_bytes(strategy):
    s = spotcheck_strategy(strategy)
    one_by_one = [pr.spotcheck_run(40, 0.3, 0.6, s, seed) for seed in range(95, 106)]
    for runs in (one_by_one, pr.spotcheck_run(40, 0.3, 0.6, s, range(95, 106))):
        text = json.dumps([r.to_json() for r in runs], sort_keys=True, default=np.ndarray.tolist)
        assert sha256(text.encode()) == SPOTCHECK_SEEDS_DIGESTS[strategy]


def test_pipeline_report_bytes():
    honest = pr.optimal_chsh_strategy()
    rep = ex.unbounded_pipeline(ex.ExpansionPlan(1, 1), [honest, honest], 4, q=0.9, chi=0.75)
    assert "uniform_distance_exact" in rep
    text = json.dumps(rep, sort_keys=True)
    assert sha256(text.encode()) == "b0ba80c4abf94ee537963771338a5d617722c97691ff9f15daf300d519960dfd"


PIPELINE_DIGESTS = {
    # seeds 0-3 at q=0.9, chi=0.75; each mix has a level that is never
    # reached ("aborted": null) and, for the honest pair, a full run
    (1, 2, "honest"): "6897e7d10705ae7c30b25391b2f5f35ce5f073345fe90c6eb6126df7767da71c",
    (1, 2, "all-zero"): "c95c50df3fee885d61ea5100c76420d4114a697f526a81b5d11a849c05def728",
    (2, 2, "honest"): "944d994da4b7d842f3db06e6c1015bd03a11b47091294de5662f635ab5984734",
    (2, 2, "all-zero"): "bd95fbb499b95ddb385c6309df6f45bf106940381cb15d9edd613a7943b84b78",
    (1, 3, "honest"): "80439049184113b54b5bdd093206d643375272697e9556debe531e0d78e2a1a1",
    (1, 3, "all-zero"): "a25952fbabede8a6a2da4a9f7430de40b961a382162bdaa681091333201387e5",
}


def pipeline_strategy(name: str) -> pr.DeviceStrategy:
    if name == "honest":
        return pr.optimal_chsh_strategy()
    return pr.deterministic_strategy(lambda x: 0, lambda y: 0)


@pytest.mark.parametrize("N,k,strategy", sorted(PIPELINE_DIGESTS))
def test_pipeline_plan_bytes(N, k, strategy):
    s = pipeline_strategy(strategy)
    reps = [ex.unbounded_pipeline(ex.ExpansionPlan(N, k), [s, s], seed, q=0.9, chi=0.75) for seed in range(4)]
    assert any(lv["aborted"] is None for rep in reps for lv in rep["levels"])
    text = json.dumps(reps, sort_keys=True)
    assert sha256(text.encode()) == PIPELINE_DIGESTS[(N, k, strategy)]


@pytest.mark.parametrize(
    "m,seed_bits,digest",
    [
        (4, [0, 1, 1, 0], "a682c72c97129901a5dd41665399e8bd4b9e6fd216d3a5d4a62a42d2aaaa6b43"),
        (1, [1], "278f6f6e2fc6fe4f46e6e3c598d7b7abd940c28d5f69c23030faf8fe3d5481c2"),
    ],
)
def test_doubling_stage_run_bytes(m, seed_bits, digest):
    stage = ex.DoublingStage(m)
    rep = stage.run(pr.optimal_chsh_strategy(), seed_bits, 0.2, 0.85, 7)
    assert sha256(json.dumps(rep, sort_keys=True).encode()) == digest


@pytest.mark.parametrize(
    "m,digest",
    [
        (1, "bc4a19c8073a9c7d8dec9173d89dc68e5388e2af3f85aee90d4add00b871bf66"),
        (2, "6a395819dace7dac5e0afd20b16ec270cc65dff08c94a5980ef87cf00dedaecb"),
    ],
)
def test_exact_stage_distribution_bytes(m, digest):
    stage = ex.DoublingStage(m)
    per_seed = ex._exact_stage_distribution(stage, pr.optimal_chsh_strategy(), 0.9, 0.75)
    assert sorted(per_seed) == list(range(2**m))
    data = b"".join(
        np.int64(s).tobytes() + per_seed[s][0].tobytes() + np.float64(per_seed[s][1]).tobytes()
        for s in sorted(per_seed)
    )
    assert sha256(data) == digest


CHECK_DIGESTS = {
    ("chain_k1", "N=1"): "13156e8420a5c201f4a181e9ef95921ac7e29300b74ccb8d36aefe061df738ad",
    ("chain_k2", "N=1"): "1a2bc3fded72280545f45f7cb55b0589d3f111fc5d6d2735a30e3924724ddc45",
    ("chain_k3", "N=1"): "46bc37948dec800f70929c5e66d075ec3dea9450c6f17107c17c8b980ed6fab3",
    ("single_stage", "M=1"): "ca69419fc82cebd463fba3126c0d2a177a94854c7451f7861285d079c184f13b",
    ("soundness_k2", "N=1"): "3df081e12cac448b51b5f5cc273bff44c30ebba88643e93f70f5eb05259fc0ce",
    ("spot_check_lemma", "N=1"): "05a7860472fc84d8af17940d2db9a759447f85e49a98f2d011e1a7f8ae770244",
}


def cli_report_digest(tmp_path, argv) -> str:
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return report_sha256(out.read_bytes())


@pytest.mark.parametrize("name,dims", sorted(CHECK_DIGESTS))
def test_check_report_bytes(tmp_path, name, dims):
    digest = cli_report_digest(tmp_path, ["check", name, "--dims", dims, "--seed", "5"])
    assert digest == CHECK_DIGESTS[(name, dims)]


# every shipped script with no --dims and with its base symbol set to 0, 1
# and 2, at two seeds: the proof diagrams are built by composition, and
# a change in node numbering or wire order moves these bytes
CHECK_GRID_DIGESTS = {
    ("chain_k1", None, 0): "e4abd5a0226eb9e8f874c531cba9795edcceef3505763fc7f2a8a3d8f184a6fe",
    ("chain_k1", None, 7): "e4abd5a0226eb9e8f874c531cba9795edcceef3505763fc7f2a8a3d8f184a6fe",
    ("chain_k1", 0, 0): "0b4593f6a26450ff9fde651830422ab7725a6b3687abb874f8345326e2b6afa1",
    ("chain_k1", 0, 7): "798c9f19c9fb6de6da2abc38b5015d89a4b116ee3be44f53ea960681d3ae8454",
    ("chain_k1", 1, 0): "c94dda8232143de548069203a00a22dd6bfa11d9580e812e74711a277516618a",
    ("chain_k1", 1, 7): "64bc975afbf9c14b1d48fc926a571a29de1fb39b5f276f0de1e93b1da4aff6e8",
    ("chain_k1", 2, 0): "1625507febcbc7238623ee12c9368567186f9c703059e9503359365710b10d41",
    ("chain_k1", 2, 7): "e82fa326af4fb857b17ae283f19ab89e6d9bdd43a34f3be9cd3c48eb8a523f22",
    ("chain_k2", None, 0): "b64e923861235f33685a83b98a4e4e68b9a448381a00b6db89e3d626e2dd2700",
    ("chain_k2", None, 7): "b64e923861235f33685a83b98a4e4e68b9a448381a00b6db89e3d626e2dd2700",
    ("chain_k2", 0, 0): "64b267dfdf8adca7b0cb892be18aab7332f913f32629c65a5cb69316d18c2e64",
    ("chain_k2", 0, 7): "f1b1094941aac3ef30bda64eedcaae13f59bf1c36fe70bf9c96c979aceb262a9",
    ("chain_k2", 1, 0): "4a8962c22c9f1c0c41e86ac742d3b1724a364c1684a252395263be1db6fbaa7a",
    ("chain_k2", 1, 7): "df2c97d9ba54d59360f6909da8ca69fe41a8f7ebea6fb75eb7cddd5604255008",
    ("chain_k2", 2, 0): "00feeab00c3cc36780bc9ab8db6966d921cc323e6eb9307bc92c7ded4d868941",
    ("chain_k2", 2, 7): "5d4c1681511540f57261d0575f70246fa5b282ba0e75dd9f95ac6884b9470ad0",
    ("chain_k3", None, 0): "f6475cdc7b5f4e2095991e79917a6dc18558fcdac16573194cb4e60551c2cd71",
    ("chain_k3", None, 7): "f6475cdc7b5f4e2095991e79917a6dc18558fcdac16573194cb4e60551c2cd71",
    ("chain_k3", 0, 0): "3dd48aea44382e52aa239bb341f2d61a03fe4ac58efaf51b46a59a6646291c8f",
    ("chain_k3", 0, 7): "5d3acd43211c7051cd9a3e1d9a6d7e43af07f77d9f04bb8f317356dd46e42a33",
    ("chain_k3", 1, 0): "0141fc800066567f0c593602aac0f5ce3231128aec4332a3051576741924838c",
    ("chain_k3", 1, 7): "0345e683977cd936a316fdc9a7048f36169e11f0a5065d3eae646092d65ee671",
    ("chain_k3", 2, 0): "5fed5d0d6a46962f14359e14390c18f3271435854dae98eb84730d265415cc6c",
    ("chain_k3", 2, 7): "423575c2f412a746e8e861eb59c1a93c529e503224e848035a384d2dafee857e",
    ("single_stage", None, 0): "085e4ad8357c9c36c5cd7141fb368b901f9de59c21b959c283d29b3676a0b6a3",
    ("single_stage", None, 7): "085e4ad8357c9c36c5cd7141fb368b901f9de59c21b959c283d29b3676a0b6a3",
    ("single_stage", 0, 0): "cbd626cd5d030a3629f30e2bf34caedec9c47c2345bbfc1920d59330679e36a3",
    ("single_stage", 0, 7): "37244d787704f06f6763d42fde9406776e14c48e761cbd3803eb0b90addb8923",
    ("single_stage", 1, 0): "28753e439f8ba8dd61cf3d0289e74868068f14c102880534a527369cbeebff38",
    ("single_stage", 1, 7): "be2895188585f81d426a1f7b215a84dc476744245c5707790de6511bfa31243d",
    ("single_stage", 2, 0): "95f41ea2a8f614237f4cf1127937ee1ba305ceb3b8f9cd56d954d432a7b6a9ae",
    ("single_stage", 2, 7): "020e871e133c98e5b26b343da2f5b02f2d7c45737e21377cf760f9b58dcb8a11",
    ("soundness_k2", None, 0): "592fe43a7c182a032c690b82caadba0610cdc8d442f29f67943284b0ebd54d77",
    ("soundness_k2", None, 7): "592fe43a7c182a032c690b82caadba0610cdc8d442f29f67943284b0ebd54d77",
    ("soundness_k2", 0, 0): "8ec24b7d725fbfe73c002b0c73d4a9aeced5e3320010bfba26aeb38c8026730f",
    ("soundness_k2", 0, 7): "2b1358623ef4d5ce7de31cd4b6db6a0ae61d3e9cccf81ef813f947c9142105d0",
    ("soundness_k2", 1, 0): "6940677073e89e9e6943a19618f91f7819692313a8f7ca3aa6a976717826ca00",
    ("soundness_k2", 1, 7): "6b43d468a521db12b48d39dd605e2fc398e8be787f9f2e0a155eb37928a6e713",
    ("soundness_k2", 2, 0): "6837eb85d415c42fd49ac405726148851a3fd615ab2d436b3e40e6f09b18224c",
    ("soundness_k2", 2, 7): "7cfb22aac6b54ba449237ec445bdd72f506a82defcaf0d903f651b2dce03920d",
    ("spot_check_lemma", None, 0): "ab7be682e9f1633a3c0fa26123ee4d6f31745567fdd19d818f6b5e7f96cfe00b",
    ("spot_check_lemma", None, 7): "ab7be682e9f1633a3c0fa26123ee4d6f31745567fdd19d818f6b5e7f96cfe00b",
    ("spot_check_lemma", 0, 0): "97030065a60644b4ca2fbfe709d06391e0db1db4d0b582dfde903ef5bdb669c6",
    ("spot_check_lemma", 0, 7): "1fecab6d4ece9bd5c5007b5a82cbcfc47c7bee28842ed1e17ac7c64fd54a90b8",
    ("spot_check_lemma", 1, 0): "c03087e98bf7809e779cda87b9d6f4989c516286f230a7a8899250446180e850",
    ("spot_check_lemma", 1, 7): "859f011f56887d7e26532d46c99adc10bd5aa9a073109da9a87913250a07ccae",
    ("spot_check_lemma", 2, 0): "e5a657d0419cb161488db7a59f8fd217fed6c71f9fe92b6ce76864460830a90e",
    ("spot_check_lemma", 2, 7): "02ba001aaee34ce8131b1afc79921979dc2bbc4cc0318249f60d3794922617da",
}


@pytest.mark.parametrize("name,base,seed", sorted(CHECK_GRID_DIGESTS, key=repr), ids=repr)
def test_check_report_grid_bytes(tmp_path, name, base, seed):
    argv = ["check", name, "--seed", str(seed)]
    if base is not None:
        argv += ["--dims", f"{'M' if name == 'single_stage' else 'N'}={base}"]
    assert cli_report_digest(tmp_path, argv) == CHECK_GRID_DIGESTS[(name, base, seed)]


def test_proof_reports_repeat_in_one_process(tmp_path):
    """Every rules and check pin, twice in one process: a diagram's type
    check, order and width substitutions are kept on it, and the rule
    sides of the library are built once, so the second pass reuses what
    the first computed."""
    for _ in range(2):
        for dim in sorted(RULES_DIGESTS):
            assert cli_report_digest(tmp_path, ["rules", "--dim", str(dim)]) == RULES_DIGESTS[dim]
        for name, dims in sorted(CHECK_DIGESTS):
            argv = ["check", name, "--dims", dims, "--seed", "5"]
            assert cli_report_digest(tmp_path, argv) == CHECK_DIGESTS[(name, dims)]


def test_check_report_across_widths_in_one_process(tmp_path):
    """N=1, then N=2, then N=1 again: each width's substitution of the
    shared rule sides stays its own."""
    for base in (1, 2, 1):
        argv = ["check", "soundness_k2", "--dims", f"N={base}", "--seed", "7"]
        assert cli_report_digest(tmp_path, argv) == CHECK_GRID_DIGESTS[("soundness_k2", base, 7)]


def test_chsh_scoring_evaluate_bytes():
    d, binding = pr.chsh_scoring_diagram()
    digest = sha256(d.evaluate(binding).matrix.tobytes())
    assert digest == "406f7e0809cf610364ed000c29f828343a4247ec827f2d7faed565544a5c60fd"


def test_check_budget_report_bytes(tmp_path):
    digest = cli_report_digest(tmp_path, ["check", "soundness_k2", "--eps-fn", "1,1"])
    assert digest == "2de849004923a1dfc79cf0151c6bee0e6012f5b72f620030f7af5f9139afe139"


def spot_check_first_script() -> dict:
    """A saved script whose one step is the spot-check axiom on the
    copied-seed diagram: both sides carry holes that no earlier step
    bound, so the report depends on the order in which they are drawn."""
    rule = rw.rule_spot_check(1, "N")
    state, loc = rw.apply_rule(rw.RewriteState(rule.lhs), rule)
    step = {"rule": "spot_check", "loc": loc, "params": {"scale": 1, "base": "N"}}
    return rw.script_to_json(rw.ProofScript("spot_check_first", rule.lhs, [step], state.budget))


SPOT_CHECK_FIRST_DIGESTS = {
    0: "c54d2f479f7148192fabc27a7819f28ff23c599a8370d08f6c8cd9002ec44202",
    5: "7038bbaa0ce3b62b1b8068caa0754432f3b06e5b4abd9652e04f90f11306f12a",
}


@pytest.mark.parametrize("seed", sorted(SPOT_CHECK_FIRST_DIGESTS))
def test_check_saved_script_bytes(tmp_path, seed):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(spot_check_first_script()))
    argv = ["check", str(path), "--dims", "N=1", "--seed", str(seed)]
    assert cli_report_digest(tmp_path, argv) == SPOT_CHECK_FIRST_DIGESTS[seed]


EXTRACT_DIGESTS = {
    (10, 3, 7): "c0164e6c69fb49b3bf69631199b509b7a77acccb996aad480dfd735261d21870",
    (10, 3, 10): "26fcec8d19babb8ca5fecf36eadcb7a4d92e80b41f5d928d9e8ac2dd9e64e90b",
    (12, 4, 8): "a31a32d24a30b634834f62150347159b893c23f41ae81a03fa2807c3bb1103b0",
}


@pytest.mark.parametrize("n,m,k", sorted(EXTRACT_DIGESTS))
def test_extract_hmin_report_bytes(tmp_path, n, m, k):
    argv = ["extract", "--n", str(n), "--m", str(m), "--hmin", str(k)]
    assert cli_report_digest(tmp_path, argv) == EXTRACT_DIGESTS[(n, m, k)]


# rules at widths 1-4, seeds 0, 1 and 7, and 1, 2 and 5 trials
RULES_GRID_DIGESTS = {
    (1, 0, 1): "813b26a0c626b754d67d1d6f5611dda4d964e346f0c09956209fd0c51349221c",
    (1, 0, 2): "813b26a0c626b754d67d1d6f5611dda4d964e346f0c09956209fd0c51349221c",
    (1, 0, 5): "8082317a69161e48be51202f1466f61f6cb22ad86a48d6e38168a6379238df22",
    (1, 1, 1): "42208571be36e88c110a24fe21d5567251a0ec8e06c973a7d4bed8c239ef0e48",
    (1, 1, 2): "42208571be36e88c110a24fe21d5567251a0ec8e06c973a7d4bed8c239ef0e48",
    (1, 1, 5): "0948ad2b06fa49a3f3afe9150e47844e3388793bd2d215343730dd7af8b5ccc5",
    (1, 7, 1): "276c96bc84c101d003a4077b14e6090d1aabe7c69cf10ed6442c1fea99f058f9",
    (1, 7, 2): "ab63eb1fdb1e0e11b9f12216acc2dca7a8fb0931e6cf6a1aa1f70d1e20570c29",
    (1, 7, 5): "ab63eb1fdb1e0e11b9f12216acc2dca7a8fb0931e6cf6a1aa1f70d1e20570c29",
    (2, 0, 1): "c36a4709322cee9472dfc938656d2a4ec1f3666a48bddae7363ac57aafdf7a74",
    (2, 0, 2): "8c76a6ca673280259b8437e306777fd89e22a359b9d169133486a0cf4c113968",
    (2, 0, 5): "8c76a6ca673280259b8437e306777fd89e22a359b9d169133486a0cf4c113968",
    (2, 1, 1): "5d6aa028c41ff129f8775bd0999661a76248b3c02c89727c333b49a355b70172",
    (2, 1, 2): "5d6aa028c41ff129f8775bd0999661a76248b3c02c89727c333b49a355b70172",
    (2, 1, 5): "52e784f12e6bc070fb9051497642dc803c0c9d8ece0e402bdee85e17e87afd75",
    (2, 7, 1): "da838ce199257c6fea353c3a8fe9c86de3dafdb3e2f238a9246596056a6d7ca7",
    (2, 7, 2): "da838ce199257c6fea353c3a8fe9c86de3dafdb3e2f238a9246596056a6d7ca7",
    (2, 7, 5): "da838ce199257c6fea353c3a8fe9c86de3dafdb3e2f238a9246596056a6d7ca7",
    (3, 0, 1): "3bf4c62d266832596492f93b51a3ff7d2fe943116bbbef34df2bba82a5f8cc7b",
    (3, 0, 2): "3bf4c62d266832596492f93b51a3ff7d2fe943116bbbef34df2bba82a5f8cc7b",
    (3, 0, 5): "86776019c1e3d5707e6db52565cc63627bf542ed115038c8b12e8abac75fbe1d",
    (3, 1, 1): "6fd4377cc2b14c6a54aca5de09e3448d8a347044cfef8310b5aec446723d75ba",
    (3, 1, 2): "6fd4377cc2b14c6a54aca5de09e3448d8a347044cfef8310b5aec446723d75ba",
    (3, 1, 5): "00cf98b705a93d188930397f61b3992e84e1c4f99c64a03cf39d4e4e9c496d00",
    (3, 7, 1): "2313733b1b2ed89fb8a2e0113bf96ca12cd96986f2e6f72d5528b3cd74a9ee3f",
    (3, 7, 2): "2313733b1b2ed89fb8a2e0113bf96ca12cd96986f2e6f72d5528b3cd74a9ee3f",
    (3, 7, 5): "2313733b1b2ed89fb8a2e0113bf96ca12cd96986f2e6f72d5528b3cd74a9ee3f",
    (4, 0, 1): "0e8a84a7f2061547ed765ce21566e3ba6043368e0c2b9ec691038c8b5c67ae97",
    (4, 0, 2): "0e8a84a7f2061547ed765ce21566e3ba6043368e0c2b9ec691038c8b5c67ae97",
    (4, 0, 5): "c1068023614b1b98fac2670de0121224d98b72ed87917692416b5f5786163a50",
    (4, 1, 1): "b1e785e5b9c08e23127da189ce63cc9fdb3eab71095dc2387af9e3f51190d5df",
    (4, 1, 2): "05d67747175ca7754c7e64981387545f0270a76298a0e38592256565b9b456dd",
    (4, 1, 5): "05d67747175ca7754c7e64981387545f0270a76298a0e38592256565b9b456dd",
    (4, 7, 1): "98f51415bb40da3b8a9382ce4e4f710024acc29700c556c760ff187a086c9943",
    (4, 7, 2): "98f51415bb40da3b8a9382ce4e4f710024acc29700c556c760ff187a086c9943",
    (4, 7, 5): "882ac5ed1b2df017d34e37df798759bd198fd143aa2a6f190d5c77d8f8d57328",
}


@pytest.mark.parametrize("dim,seed,trials", sorted(RULES_GRID_DIGESTS))
def test_rules_report_grid_bytes(tmp_path, dim, seed, trials):
    argv = ["rules", "--dim", str(dim), "--seed", str(seed), "--trials", str(trials)]
    assert cli_report_digest(tmp_path, argv) == RULES_GRID_DIGESTS[(dim, seed, trials)]


# the default seed and trial count at widths 2 and 3
RULES_DIGESTS = {dim: RULES_GRID_DIGESTS[(dim, 0, 5)] for dim in (2, 3)}


@pytest.mark.parametrize("dim", sorted(RULES_DIGESTS))
def test_rules_report_bytes(tmp_path, dim):
    assert cli_report_digest(tmp_path, ["rules", "--dim", str(dim)]) == RULES_DIGESTS[dim]


# three full-rank qubit branches that do not commute, so that
# min_entropy_cq runs its primal-dual solver
ENTROPY_STATE = {
    "branches": [
        {"re": [[0.3, 0.1], [0.1, 0.1]]},
        {"re": [[0.1, -0.05], [-0.05, 0.25]]},
        {"re": [[0.125, 0.0], [0.0, 0.125]], "im": [[0.0, 0.05], [-0.05, 0.0]]},
    ]
}


def test_entropy_diagonal_report_bytes(tmp_path):
    digest = cli_report_digest(tmp_path, ["entropy", "--example", "diagonal"])
    assert digest == "155f2774c9a9c39126cb6ab20886d6dd8275e6dd6ed9006dc2c2cba69e94290e"


def test_entropy_state_report_bytes(tmp_path):
    sfile = tmp_path / "state.json"
    sfile.write_text(json.dumps(ENTROPY_STATE))
    digest = cli_report_digest(tmp_path, ["entropy", "--state", str(sfile)])
    assert digest == "761df15f7e748ec28b492fa5e64f81fe458b78feed59881ef6ea4e9ca3afad16"


def wishart_state(branches: int, dim: int, seed: int, rank=None) -> dict:
    """Complex Wishart branches normalised to total trace one, turned by
    a seeded Haar unitary; with `rank`, every branch lives on the same
    rank-dimensional subspace, so the branch sum is singular."""
    rng = np.random.default_rng([branches, dim, seed])
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    iso = (q * (np.diag(r) / np.abs(np.diag(r))))[:, : rank or dim]
    ops = []
    for _ in range(branches):
        g = rng.normal(size=(iso.shape[1],) * 2) + 1j * rng.normal(size=(iso.shape[1],) * 2)
        ops.append(iso @ g @ g.conj().T @ iso.conj().T)
    total = sum(np.trace(o).real for o in ops)
    ops = [o / total for o in ops]
    return {"branches": [{"re": o.real.tolist(), "im": o.imag.tolist()} for o in ops]}


# (branches, dim, seed[, rank]): the five branch/dimension shapes the
# certify benchmark solves, and one state whose branch sum has rank 3
WISHART_ENTROPY_DIGESTS = {
    (3, 8, 2): "e6d332bb848be6f465b5c4b7f556742cabcfdadabef4b81896db5f7578c82ce3",
    (4, 8, 3): "cf82b81d4650f4e0e3bfcfedb1685f51f57c6882023a8094809fb8feffa4144e",
    (5, 7, 1): "ad262df7e722b4a97de220ef8b9b506667992231c29c1d3414fcee8d29b41a3f",
    (6, 8, 0): "a0d4d332a86a075db037214cd022c9e18d146c70810bf59aa61d5469c724dfa8",
    (6, 8, 1): "ac20b83ada90f2c787e448015f309aa7971557ebb9a616d86d98a5f7623310f6",
    (4, 6, 0, 3): "1d117d2f8f645ec8f51cb76a9a39fe9f54e82231c9d8de9bc1770d203fdb1225",
}


@pytest.mark.parametrize("case", sorted(WISHART_ENTROPY_DIGESTS), ids=repr)
def test_entropy_wishart_report_bytes(tmp_path, case):
    sfile = tmp_path / "state.json"
    sfile.write_text(json.dumps(wishart_state(*case)))
    digest = cli_report_digest(tmp_path, ["entropy", "--state", str(sfile)])
    assert digest == WISHART_ENTROPY_DIGESTS[case]


def test_eval_bindings_report_bytes(tmp_path):
    # a bound hole with an open C2 (x) Q2 output, so the report carries a matrix
    src = tmp_path / "d.dg"
    src.write_text("hole f : C2 -> C2 * Q2\nuniform C2 1 ; f")
    f = rc.random_cq_channel((rc.C(2),), (rc.C(2), rc.Q(2)), np.random.default_rng(46))
    bfile = tmp_path / "bind.json"
    bfile.write_text(json.dumps({"f": rc.tensor_to_json(f)}))
    digest = cli_report_digest(tmp_path, ["eval", str(src), "--bindings", str(bfile)])
    assert digest == "f4465f28afa362b4bd052fc2b93cbaf01b54efef3ac8d45e15e765c810123311"


SCRIPT_JSON_DIGESTS = {
    "chain_k1": "4e2557f424602d881c3fc298e0b480dcfab8b78973256dd2ad8f31a5f47eebf0",
    "chain_k2": "d4cdbc6dc26d5b4eac0dd60713ff045b1f6f3933ee82042dfce2383041118e6e",
    "chain_k3": "2f5a39a2166a214c179fa7e113077fa74475fa393b5b517b2fd6f8b3bf6f0f52",
    "single_stage": "9caf67ccc9c73b46555f9e2d2804b420d28414ec33b08a8d05d098582d62e62c",
    "soundness_k2": "0ec4334fdbbc61761cbbf91ebfd9a240764aa3cce3596fa377265f5c4ffe2b63",
    "spot_check_lemma": "1405c08d0e5ca2b952a14da8cb58c6378f74199f169187eab14a1f7fee45862a",
}


@pytest.mark.parametrize("name", sorted(SCRIPT_JSON_DIGESTS))
def test_script_format_bytes(name):
    # a script saved by an earlier version must replay unchanged
    text = json.dumps(rw.script_to_json(rw.SHIPPED_SCRIPTS[name]()), sort_keys=True)
    assert sha256(text.encode()) == SCRIPT_JSON_DIGESTS[name]


C2, C3, Q2, Q3 = rc.C(2), rc.C(3), rc.Q(2), rc.Q(3)
C4, C9, C16, C81 = rc.C(4), rc.C(9), rc.C(16), rc.C(81)

# (in_regs, out_regs, causal) -> (matrix digest, digest of the generator
# state after the call); the state pins how many draws the call made
CHANNEL_DIGESTS = {
    ((C2, Q2), (Q2,), True): (
        "2735d88e3b8beebde6c62df3bc7a1a3603b7169faa7789ed109d37242ae62767",
        "9599e1be92c929899d9b1e8397c5ccf6ea4f8b585df705653be5e70caef4895c",
    ),
    ((Q2,), (C3, Q2), True): (
        "027c5bc7268ed639af2bee26c0cbfb24d88e04afb8821d1e794db9d3158d2506",
        "60f00ec00f3d5efdbcf0b73655b77050e0ec102d5e96d78f29f98debff0d0be2",
    ),
    ((Q2, C2), (C2, Q3), False): (
        "1cfab26cc6c766767524ad2379baf5d0a25929d3275f60805437851d3e8e1823",
        "772f1e8e188f6dc60e9a4d636528516524cd74c046279afbed0f6cbb982c7e3a",
    ),
    # the hot shapes of the proofs benchmark's rule checks
    ((C16, C4, Q2), (Q2,), True): (
        "9cdcf92c9f2b2a571271e8134e1d884e53d4fb17aab6e1adbc461037d43f02b9",
        "5a22ac9242f2ecff04df10c831b7c4f03956744c74685c86e0056ae1481cde34",
    ),
    ((C9, Q2), (C81, Q2), False): (
        "df8045e57432b512edac3c42621f17663108b433980cc634de7dce2d187665ed",
        "11a90e6926f90bb9f194b273760acf232fe57a8719a26226b6e39f877265cbe6",
    ),
    ((C16, Q2), (C16, Q2), False): (
        "66c98a932d1ad8700b08aa7c0fe6bd2cab881e5d94ac8a52120ca86ecc501896",
        "c02a03a9755435176a2b1578e042338d842705f886e9ccc828fdba2c06ac30f6",
    ),
    ((C4, C2, Q2), (Q2,), True): (
        "84ea539ed4875573794a0dd2b897c3ff68a3f5897d0cd9d091538944aeb3f233",
        "4d6d42fba9137e2ec63b40169f429c99cb18e47433821dcf2e71a3b462bf3a97",
    ),
    # one classical input symbol, and no input at all
    ((Q2,), (Q3,), False): (
        "48f39941359fd07ac288133ccb20ccdd1a6c3ec91e30e86541a4228c354444e0",
        "ee55705fc33999b160617fc49fdac5aab564e13df6911b00496dde5dae85c76a",
    ),
    ((), (C2, Q2), True): (
        "11b1fcf17a151a2caca5011d95c0136b0c074c4ed120a5fbbab5f0eb0f82b3ab",
        "22498c794c34e96660dd28d701b7a42b0d07f3f262c1ebc83ab2782b22b8885d",
    ),
}


@pytest.mark.parametrize("in_regs,out_regs,causal", list(CHANNEL_DIGESTS), ids=repr)
def test_random_cq_channel_bytes(in_regs, out_regs, causal):
    # proof replay samples its holes with this sampler
    rng = np.random.default_rng(44)
    p = rc.random_cq_channel(in_regs, out_regs, rng, causal=causal)
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    digests = (sha256(p.matrix.tobytes()), sha256(state.encode()))
    assert digests == CHANNEL_DIGESTS[(in_regs, out_regs, causal)]


def test_process_distance_bytes():
    # a causal C2 (x) Q2 -> Q2 pair whose Choi bound lies below 1; its
    # upper end is the dual certificate
    rng = np.random.default_rng(45)
    p1 = rc.random_cq_channel((C2, Q2), (Q2,), rng)
    p3 = rc.random_cq_channel((C2, Q2), (Q2,), rng)
    p2 = rc.ProcessTensor(p1.in_regs, p1.out_regs, 0.8 * p1.matrix + 0.2 * p3.matrix)
    iv = rc.process_distance(p1, p2, seed=7)
    assert iv.upper < 1.0
    digest = sha256(np.array([iv.lower, iv.upper]).tobytes())
    assert digest == "c94b80c736965e6a1c0be5f88c5d6779273bd5c3aa1f981f4ae33ebfbcb464bd"


def closed_form_state(case: str) -> rc.CQState:
    """States that min_entropy_cq solves in closed form: one branch
    (subnormalised), two branches that do not commute (Helstrom), and
    three branches diagonal in one Haar basis (commuting)."""
    if case in ("one", "two"):
        scale = 0.7 if case == "one" else 1.0
        branches = wishart_state(1 if case == "one" else 2, 3, 0)["branches"]
        return rc.CQState([scale * (np.array(b["re"]) + 1j * np.array(b["im"])) for b in branches])
    rng = np.random.default_rng(9)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    w = rng.random((3, 3))
    w /= w.sum()
    return rc.CQState([(u * row) @ u.conj().T for row in w])


# case -> (SHA-256 of sigma's bytes, repr of h, p_lower, p_upper)
CLOSED_FORM_ENTROPY = {
    "one": (
        "19500199e66291437f169e7eb6251ea3c6db11dc388b5fc96e93332a917c9a97",
        "0.5145731728297583", "0.7", "0.7",
    ),
    "two": (
        "66c72af14aac456eca0dc321c66e9f38f15f409ab6bc1eb47df9aae954a4b92c",
        "0.3522925874599302", "0.7833383049950288", "0.7833383049950288",
    ),
    "three": (
        "7791da69449b93e17d0ca79b0316fd68700f132b880c23f311a7375270f48174",
        "1.2036941438821611", "0.43416214785498597", "0.43416214785498597",
    ),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_ENTROPY))
def test_min_entropy_closed_form_certificates(case):
    h, cert = pr.min_entropy_cq(closed_form_state(case))
    got = (sha256(cert["sigma"].tobytes()), repr(h), repr(cert["p_lower"]), repr(cert["p_upper"]))
    assert got == CLOSED_FORM_ENTROPY[case]
    assert (cert["gap"], cert["iterations"], cert["converged"]) == (0.0, 0, True)


def golden_argvs(tmp_path) -> list:
    """Commands whose reports this file pins, with their input files
    written to tmp_path."""
    (tmp_path / "noisy.json").write_text(json.dumps(noisy_bell_json(0.93)))
    (tmp_path / "state.json").write_text(json.dumps(ENTROPY_STATE))
    (tmp_path / "d.dg").write_text("hole f : C2 -> C2 * Q2\nuniform C2 1 ; f")
    f = rc.random_cq_channel((rc.C(2),), (rc.C(2), rc.Q(2)), np.random.default_rng(46))
    (tmp_path / "bind.json").write_text(json.dumps({"f": rc.tensor_to_json(f)}))
    strategies = ([], ["--strategy", "all-zero"], ["--strategy", str(tmp_path / "noisy.json")])
    argvs = [
        ["simulate", "--rounds", str(rounds), "--sweep", str(sweep), "--seed", "5"] + strategy
        for strategy in strategies
        for rounds, sweep in ((1000, 4), (100, 40), (1, 8), (100, 1), (100, 2))
    ]
    argvs.append(["simulate", "--rounds", "1000", "--seed", "5"])
    argvs += [["check", name, "--dims", dims, "--seed", "5"] for name, dims in (
        ("chain_k1", "N=1"), ("chain_k2", "N=1"), ("chain_k3", "N=1"),
        ("single_stage", "M=1"), ("soundness_k2", "N=1"), ("spot_check_lemma", "N=1"),
    )]
    argvs.append(["check", "soundness_k2", "--eps-fn", "1,1"])
    argvs += [
        ["extract", "--n", n, "--m", m, "--hmin", k]
        for n, m, k in (("10", "3", "7"), ("10", "3", "10"), ("12", "4", "8"))
    ]
    argvs += [["rules", "--dim", "2"], ["rules", "--dim", "3"]]
    argvs += [
        ["entropy", "--example", "diagonal"],
        ["entropy", "--state", str(tmp_path / "state.json")],
        ["eval", str(tmp_path / "d.dg"), "--bindings", str(tmp_path / "bind.json")],
    ]
    return argvs


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_reports_are_one_compact_line(tmp_path, capsys):
    """Every pinned report, to a file and to stdout, is one line and a
    newline: the compact form json.dumps(..., sort_keys=True,
    separators=(",", ":")) of its own value, which a strict parser reads
    (no NaN or Infinity).  With the digests over the indented form, this
    pins the bytes the CLI writes."""
    out = tmp_path / "out.json"
    for argv in golden_argvs(tmp_path):
        out.unlink(missing_ok=True)
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        data = out.read_bytes()
        value = json.loads(data, parse_constant=_refuse_constant)
        assert data == (json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n").encode(), argv
        assert data.count(b"\n") == 1, argv
        capsys.readouterr()
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.encode() == data, argv
