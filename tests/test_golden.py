"""Golden digests: the report bytes must not move across versions.

Each case pins the SHA-256 of a deterministic report or saved proof
script.  A change to how the spot-check sampler consumes its random
stream, to how a proof step rewrites its diagram, or to the report or
script layout, moves a digest; such a change must bump `format_version`
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
from cqcalc import regcalc as rc
from cqcalc import rewrite as rw


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


CHECK_DIGESTS = {
    ("chain_k1", "N=1"): "7504dd04e7d323c19f6148067d12bed91b1a5b56a712ce8f4e1d1cc8ef3bbf73",
    ("chain_k2", "N=1"): "da01cc9e4bafa575ec59d30b2cab480b3a9dcdf1cb132143ec7f7f1cad3efff9",
    ("chain_k3", "N=1"): "bb85033cbbb319dd47920751e8681b050dcd38170d92fd5e9b9b8be8ba8952cc",
    ("single_stage", "M=1"): "2f30efbac3ddcf630cdfd108137076563f1a87508484521da0d89a516a6e90a8",
    ("soundness_k2", "N=1"): "6b3a869ae06a2eb97cfcd9590717699f52788685877236d650f27c74d6d93967",
    ("spot_check_lemma", "N=1"): "6d10773c026790956a75f13f9c814ac16cf89e44904f1e94b3490e55dcd9898e",
}


def cli_report_digest(tmp_path, argv) -> str:
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return sha256(out.read_bytes())


@pytest.mark.parametrize("name,dims", sorted(CHECK_DIGESTS))
def test_check_report_bytes(tmp_path, name, dims):
    digest = cli_report_digest(tmp_path, ["check", name, "--dims", dims, "--seed", "5"])
    assert digest == CHECK_DIGESTS[(name, dims)]


# every shipped script with no --dims and with its base symbol set to 0, 1
# and 2, at two seeds: the proof diagrams are built by composition, and
# a change in node numbering or wire order moves these bytes
CHECK_GRID_DIGESTS = {
    ("chain_k1", None, 0): "b49b53cbcc56df8360d919653b9ada6cee821998770587bdeeab77a586b09166",
    ("chain_k1", None, 7): "b49b53cbcc56df8360d919653b9ada6cee821998770587bdeeab77a586b09166",
    ("chain_k1", 0, 0): "98294e19b82324aa59b88a01b7a40bcea4c5090be0bfe7b3b2a0224c891b46cd",
    ("chain_k1", 0, 7): "7f4d55012c20bbfca0c1eb8cb6b0ba91a38e6659f92faa4f7d305fdfc8c59539",
    ("chain_k1", 1, 0): "1776f1f693581d1646f7de2491dfaeeac99e3385814754c6a83793654d6eafc5",
    ("chain_k1", 1, 7): "b1a9b701018a6594e20275766c76a3a91131219f71aa6b1e937a1e8679f9a465",
    ("chain_k1", 2, 0): "0f1c5a4e0f7e9cc3a119f43e03661a3ec53dc184c0342fe6754cc92f7249b8b9",
    ("chain_k1", 2, 7): "348a57f6b58e115ccce1c66d2f1c65b9b348c5b17a5758128b9b8f8f0ac1cc96",
    ("chain_k2", None, 0): "73e68868a22d5eab54c8154f5a5c7d8f6e192e81d783e5c21f2beb62b1f723b7",
    ("chain_k2", None, 7): "73e68868a22d5eab54c8154f5a5c7d8f6e192e81d783e5c21f2beb62b1f723b7",
    ("chain_k2", 0, 0): "1bac92f2420d3968c06996a4dc9f38490985402ac8a04f64c9c22653be8713ae",
    ("chain_k2", 0, 7): "25aeb95b6df866bdf6ad57d3aa29ec3c1e37e976ac3b2e4bbd5cccc6a8cf52c9",
    ("chain_k2", 1, 0): "89ed4fcadcc9f7a8da49324484cc036d6bcb3b0141a47f7c05915df7e3e11c17",
    ("chain_k2", 1, 7): "194fb10b05068e011a8213031b26dd6cd11c72ea650873dc9ba4a4b28df4192b",
    ("chain_k2", 2, 0): "64ffdbc379f36d91bd833cdee23fb48ed511ce52a09148697aebabfc340ed455",
    ("chain_k2", 2, 7): "524003e033c87a41ef099afbb82f5c1fb6c7589dc881d432ddbb1a73e4244746",
    ("chain_k3", None, 0): "debf900276197bd76af9b1773fb0c46bcf449826c5e7e287a74da83d34bd58f0",
    ("chain_k3", None, 7): "debf900276197bd76af9b1773fb0c46bcf449826c5e7e287a74da83d34bd58f0",
    ("chain_k3", 0, 0): "fc9a74513d3f0e669afee99794e31ea8c58297de6614560fb2a436f939970739",
    ("chain_k3", 0, 7): "61d20839d232d9ce12e39f076200e4cb96ac4fad49a8381a1c9cb1078c4d0334",
    ("chain_k3", 1, 0): "a9dc4fe5f0e08803addb7db9ef8811b0031f03ec6c2ee46e511ff8570699e486",
    ("chain_k3", 1, 7): "8a59e0ddc04a4ff3913804ef89b6f02d81d386880c50f2fd0f334960e6aebbb2",
    ("chain_k3", 2, 0): "9af1b5a88a3c8b8be7ada122d06eb1be62f9510bd46d21dce67269a5f6256646",
    ("chain_k3", 2, 7): "008d349b19422b373f191f3ecaf891889710dc57bdce6b7de18986ef29257caa",
    ("single_stage", None, 0): "308cb15942fdb7c6d6a83598b1a36dcb4860b0fdbf16d6b5d32abc1d244992e0",
    ("single_stage", None, 7): "308cb15942fdb7c6d6a83598b1a36dcb4860b0fdbf16d6b5d32abc1d244992e0",
    ("single_stage", 0, 0): "f41b248166ac272d0f169ddec19213e1b45e944c8aff573700fce75bcb77906c",
    ("single_stage", 0, 7): "19b3c1cc84976f88a2a642767f06c8ee9ddcdc84f6fb91ece6ba4889762a19c5",
    ("single_stage", 1, 0): "7c34a698fa73189cdd5f8bfe5fef1109636dd1ddba8ed6583bf675caeb12234c",
    ("single_stage", 1, 7): "c00219c51918b5dfb122152c09766540463cfa3ae8f807ad08ea3abeb4f7c13a",
    ("single_stage", 2, 0): "b96fe07e1711041edd0781b083a1d4c44ad25d8b0c06f01df6d202845744b0b0",
    ("single_stage", 2, 7): "d9de38a72bab39d6faf931ac0b1ce821bb1d13c2ea51ba5b20c4c4f91021678b",
    ("soundness_k2", None, 0): "b3ff85e508fa6c40d671e883d1a8d77b2786098f53faa350fdc6628679c2e663",
    ("soundness_k2", None, 7): "b3ff85e508fa6c40d671e883d1a8d77b2786098f53faa350fdc6628679c2e663",
    ("soundness_k2", 0, 0): "7a56fa135529268fefd98540afb89040f507c45b5e3416b4333b98628417c9ce",
    ("soundness_k2", 0, 7): "c59de26a21d2632e2a3262fcc09cbf8072dc59e6513584c6c911e25215e169ea",
    ("soundness_k2", 1, 0): "8d0e9fe358e9ad9982a4fbf650b15752adc86f5a933d530229a7dd78d201f4cd",
    ("soundness_k2", 1, 7): "7bcedbddf0ec766d5882902052a31976586316bffb17696f185f04f5fb239267",
    ("soundness_k2", 2, 0): "2b3b56c2c9d4745b070bc2ab2271ad272a36319c6d309b916af71d63042b3849",
    ("soundness_k2", 2, 7): "1b98e3a91d13429b50e985a5d78792dbf680f108ddab0abfd529d1ef077336fa",
    ("spot_check_lemma", None, 0): "7727db88c532eaf732320793227f446f4ce58dd8f6b8c53e768e3ed8cc851ceb",
    ("spot_check_lemma", None, 7): "7727db88c532eaf732320793227f446f4ce58dd8f6b8c53e768e3ed8cc851ceb",
    ("spot_check_lemma", 0, 0): "211e406b5946cab4811e603138e8ce1a54bdd7f728d2b5d028112cf3b511c2d7",
    ("spot_check_lemma", 0, 7): "1821fe4ac81c0cc4ac298a9b9db0a99397adade2bd464ade08e1ec57abb58fcd",
    ("spot_check_lemma", 1, 0): "70c167d9281f97440be3597c49b4c183748160c6c8130164b648af33a0aaec85",
    ("spot_check_lemma", 1, 7): "d277b4d577f980fa9a4e8d3f10a4e97186eb5921bd33bb95587f5da3b20c6a6c",
    ("spot_check_lemma", 2, 0): "5f8c3f0fdd12bc8817af8e85303f918a07efbdb82a281b32678313f7f05e7474",
    ("spot_check_lemma", 2, 7): "6affd871c3315d7768b22afcd4ab06516808ae8ce47a263ad17c32dc0d495a36",
}


@pytest.mark.parametrize("name,base,seed", sorted(CHECK_GRID_DIGESTS, key=repr), ids=repr)
def test_check_report_grid_bytes(tmp_path, name, base, seed):
    argv = ["check", name, "--seed", str(seed)]
    if base is not None:
        argv += ["--dims", f"{'M' if name == 'single_stage' else 'N'}={base}"]
    assert cli_report_digest(tmp_path, argv) == CHECK_GRID_DIGESTS[(name, base, seed)]


def test_chsh_scoring_evaluate_bytes():
    d, binding = pr.chsh_scoring_diagram()
    digest = sha256(d.evaluate(binding).matrix.tobytes())
    assert digest == "406f7e0809cf610364ed000c29f828343a4247ec827f2d7faed565544a5c60fd"


def test_check_budget_report_bytes(tmp_path):
    digest = cli_report_digest(tmp_path, ["check", "soundness_k2", "--eps-fn", "1,1"])
    assert digest == "2a01237ee4c99aa4a5197029b3a68f88b779295ab8edd7df6b517f2f2fb338d9"


EXTRACT_DIGESTS = {
    (10, 3, 7): "c0164e6c69fb49b3bf69631199b509b7a77acccb996aad480dfd735261d21870",
    (10, 3, 10): "26fcec8d19babb8ca5fecf36eadcb7a4d92e80b41f5d928d9e8ac2dd9e64e90b",
    (12, 4, 8): "a31a32d24a30b634834f62150347159b893c23f41ae81a03fa2807c3bb1103b0",
}


@pytest.mark.parametrize("n,m,k", sorted(EXTRACT_DIGESTS))
def test_extract_hmin_report_bytes(tmp_path, n, m, k):
    argv = ["extract", "--n", str(n), "--m", str(m), "--hmin", str(k)]
    assert cli_report_digest(tmp_path, argv) == EXTRACT_DIGESTS[(n, m, k)]


RULES_DIGESTS = {
    2: "5b9a6b9c68ca009ffc3c5b592beecf4cfeb88d8165476656b1e37c4bb6e3217a",
    3: "69d87551bdd80031a8ad05ce024303f6da3414be69e677bf9ba3a2a0d5ab1964",
}


@pytest.mark.parametrize("dim", sorted(RULES_DIGESTS))
def test_rules_report_bytes(tmp_path, dim):
    assert cli_report_digest(tmp_path, ["rules", "--dim", str(dim)]) == RULES_DIGESTS[dim]


# three full-rank qubit branches that do not commute, so that
# min_entropy_cq runs its barrier solver
ENTROPY_STATE = {
    "branches": [
        {"re": [[0.3, 0.1], [0.1, 0.1]]},
        {"re": [[0.1, -0.05], [-0.05, 0.25]]},
        {"re": [[0.125, 0.0], [0.0, 0.125]], "im": [[0.0, 0.05], [-0.05, 0.0]]},
    ]
}


def test_entropy_diagonal_report_bytes(tmp_path):
    digest = cli_report_digest(tmp_path, ["entropy", "--example", "diagonal"])
    assert digest == "f79d71bbd0e97cafab579dfb1e196e93f41ba325560b3f6f6292d947494b719b"


def test_entropy_state_report_bytes(tmp_path):
    sfile = tmp_path / "state.json"
    sfile.write_text(json.dumps(ENTROPY_STATE))
    digest = cli_report_digest(tmp_path, ["entropy", "--state", str(sfile)])
    assert digest == "afef5a59cbf38eef409965a2c341a6eb41ae80b58158f8df8cc70c6f5fa17ef6"


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
    (3, 8, 2): "a2d9465fcc68b43ddc378fc663ac732c3f95f2223989a5e27aee4c30c6bce401",
    (4, 8, 3): "ac781aef1e59424346355300ef071695b9617d2d9769f1d29403f26a4b4a3c8e",
    (5, 7, 1): "cb6d1c89188b1af84d8dc07a641ca41a7fb5446cd04f13c753ca82e402d86db3",
    (6, 8, 0): "ba9e4e455dcf44cd2c347664b6f9a630aba7c5fd58cd112ef2230a5702f4f7a2",
    (6, 8, 1): "876cdb74e884fdba9e6862b17d02c976d85368af3267e58495cb042eba5419fc",
    (4, 6, 0, 3): "e57d3f5fbef7fcc524f749f72dbb1a533db84b962a13ae890a6557a40396f9cd",
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
    assert digest == "161700bba38fbce7422ae64cfe0c060c3af7e34137b111271b9c2e0d9b9beec2"


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
    text = json.dumps(rw.script_to_json(rw.shipped_scripts()[name]), sort_keys=True)
    assert sha256(text.encode()) == SCRIPT_JSON_DIGESTS[name]


C2, C3, Q2, Q3 = rc.C(2), rc.C(3), rc.Q(2), rc.Q(3)

CHANNEL_DIGESTS = {
    ((C2, Q2), (Q2,), True): "2735d88e3b8beebde6c62df3bc7a1a3603b7169faa7789ed109d37242ae62767",
    ((Q2,), (C3, Q2), True): "027c5bc7268ed639af2bee26c0cbfb24d88e04afb8821d1e794db9d3158d2506",
    ((Q2, C2), (C2, Q3), False): "1cfab26cc6c766767524ad2379baf5d0a25929d3275f60805437851d3e8e1823",
}


@pytest.mark.parametrize("in_regs,out_regs,causal", list(CHANNEL_DIGESTS), ids=repr)
def test_random_cq_channel_bytes(in_regs, out_regs, causal):
    # proof replay samples its holes with this sampler
    p = rc.random_cq_channel(in_regs, out_regs, np.random.default_rng(44), causal=causal)
    assert sha256(p.matrix.tobytes()) == CHANNEL_DIGESTS[(in_regs, out_regs, causal)]


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
    assert digest == "b50a7b89a34acd3d9eadac06d5702fed78505f990cba41eb1a7e1c02c977e9c5"
