"""Command-line front end for batch evaluation, proof checking,
simulation, entropy certification, and extraction.

All commands emit deterministic JSON (sorted keys, format-versioned)
so repeated runs with the same inputs are byte-identical; the simulate,
extract and rules reports echo the seed.  A report is written in the
compact form, one line and a newline: pipe it through
`python -m json.tool` to read it indented.
Exit codes: 0 success/verified, 1 verification failure, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import FORMAT_VERSION
from . import diagram as dg
from . import extractor as ex
from . import protocol as pr
from . import regcalc as rc
from . import rewrite as rw
from .regcalc import CQState


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


# the most array shapes whose digit templates a process keeps
DIGIT_TEMPLATE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=DIGIT_TEMPLATE_CACHE_SIZE)
def _digit_template(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The text of an integer array of the given shape (ndim 1 or 2, no
    empty axis) with a "0" in each digit's place, as read-only uint8
    codes, and the positions of those zeros."""
    entry = "[" + ",".join("0" * shape[1]) + "]" if len(shape) == 2 else "0"
    template = np.frombuffer(("[" + ",".join([entry] * shape[0]) + "]").encode(), dtype=np.uint8)
    digits = np.flatnonzero(template == 48)
    digits.setflags(write=False)
    return template, digits


def _digit_texts(arrays: list) -> list:
    """The JSON texts of integer arrays of ndim 1 or 2 with no empty
    axis.  The arrays of one shape are stacked, and when every entry of
    the stack is a digit 0..9 they are written in one fill: the text of
    one array with a "0" in each digit's place (_digit_template, built
    once per shape) is tiled once per array, and the digits are written
    over the zeros in one assignment.  A stack with any other entry is
    written array by array from tolist()."""
    texts, by_shape = [None] * len(arrays), {}
    for i, a in enumerate(arrays):
        by_shape.setdefault(a.shape, []).append(i)
    for shape, index in by_shape.items():
        stack = np.stack([arrays[i] for i in index])
        if stack.min() < 0 or stack.max() > 9:
            for i in index:
                texts[i] = json.dumps(arrays[i].tolist(), separators=(",", ":"))
            continue
        template, digits = _digit_template(shape)
        fill = np.tile(template, (len(index), 1))
        fill[:, digits] = stack.reshape(len(index), -1).astype(np.uint8) + 48
        text, size = fill.tobytes().decode(), len(template)
        for j, i in enumerate(index):
            texts[i] = text[j * size : (j + 1) * size]
    return texts


def _dumps(x) -> str:
    """The text of json.dumps(x, sort_keys=True, separators=(",", ":"),
    default=np.ndarray.tolist), the compact form every report is written
    in.  The C encoder writes all of it but the integer arrays of ndim 1
    or 2 with no empty axis (a run's transcript and output bits): each
    of those is written as a placeholder string, and the placeholders
    are replaced by the _digit_texts of the arrays.  The placeholder is
    a run of NULs, one longer each time a string of x also encodes to it
    (a string equal to it, or ending in a quote and it).  Any other
    array is written as its tolist(); numpy scalars raise TypeError, as
    in json.dumps."""
    arrays, mark = [], "\x00"

    def default(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if o.dtype.kind not in "iu" or o.ndim not in (1, 2) or not o.size:
            return o.tolist()
        arrays.append(o)
        return mark

    while True:
        parts = json.dumps(x, sort_keys=True, separators=(",", ":"), default=default).split(json.dumps(mark))
        if len(parts) == len(arrays) + 1:
            break
        arrays.clear()
        mark += "\x00"
    out = [parts[0]]
    for text, part in zip(_digit_texts(arrays), parts[1:]):
        out += (text, part)
    return "".join(out)


def _emit(report: dict, out_path):
    """Write _dumps(report) and a newline to out_path, or to stdout when
    out_path is empty; nothing is written until all of it is built."""
    data = _dumps(report) + "\n"
    if out_path:
        try:
            with open(out_path, "wb") as f:
                f.write(data.encode())
        except OSError as e:
            raise CliError(f"cannot write report file {out_path}: {e}") from e
    else:
        sys.stdout.write(data)


def _check_seed(args):
    """numpy's generators take only a non-negative seed."""
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")


def _tol(args) -> float:
    """--tol, which bounds a deviation, so it must be finite and >= 0."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be finite and >= 0, got {args.tol}")
    return args.tol


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read JSON file {path}: {e}") from e


def _load_diagram(path) -> dg.Diagram:
    try:
        if str(path).endswith(".json"):
            return dg.diagram_from_json(_load_json(path))
        with open(path) as f:
            return dg.parse_diagram(f.read())
    except OSError as e:
        raise CliError(f"cannot read diagram file {path}: {e}") from e
    except (dg.DiagramParseError, ValueError) as e:
        raise CliError(f"parse error in {path}: {e}") from e


def cmd_eval(args) -> int:
    d = _load_diagram(args.diagram)
    binding = {}
    if args.bindings:
        raw = _load_json(args.bindings)
        try:
            if not isinstance(raw, dict):
                raise ValueError("expected an object mapping hole labels to tensors")
            binding = {label: rc.tensor_from_json(t) for label, t in raw.items()}
        except ValueError as e:
            raise CliError(f"bad bindings file {args.bindings}: {e}") from e
    missing = sorted({f"{g.kind} {g.label}" for g in d.nodes.values() if g.opaque and g.label not in binding})
    if missing:
        raise CliError("missing bindings for " + ", ".join(missing))
    try:
        result = d.evaluate(binding)
    except (TypeError, ValueError) as e:  # a binding typed unlike its node; ill-typed or symbolic
        raise CliError(str(e)) from e
    report = {
        # 2: evaluate's summation order changed, which moves last digits
        "format_version": 2,
        "command": "eval",
        "in_dims": [r.total_dim for r in result.in_regs],
        "out_dims": [r.total_dim for r in result.out_regs],
        "matrix_re": np.real(result.matrix).tolist(),
        "matrix_im": np.imag(result.matrix).tolist(),
    }
    if not result.in_regs and not result.out_regs:
        report["scalar_re"] = float(result.number().real)
        report["scalar_im"] = float(result.number().imag)
    _emit(report, args.out)
    return 0


def _eps_fns_from_spec(spec: str):
    """Parse an error-rate spec: either "c,a" for c*2^(-a*n), or a JSON
    object mapping rate names (eps/delta) to "c,a" strings."""
    if spec.strip().startswith("{"):
        try:
            table = json.loads(spec)
        except json.JSONDecodeError as e:
            raise CliError(f"bad eps-fn spec: {e}") from e
        return {name: _parse_decay(v) for name, v in table.items()}
    return _parse_decay(spec)


def _parse_decay(text) -> rw.ExpDecay:
    """c * 2^(-a n) from "c,a": an error bound that does not grow with
    n, so c and a must be finite and >= 0."""
    try:
        c, a = (float(p) for p in text.split(","))
    except (AttributeError, ValueError) as e:
        raise CliError(f"bad decay spec {text!r}; expected 'c,a'") from e
    if not (math.isfinite(c) and c >= 0 and math.isfinite(a) and a >= 0):
        raise CliError(f"bad decay spec {text!r}; c and a must be finite and >= 0")
    return rw.ExpDecay(c, a)


def cmd_check(args) -> int:
    if args.n_value < 0:
        raise CliError("--n-value must be >= 0: it is a bit width")
    _check_seed(args)
    tol = _tol(args)
    if args.script in rw.SHIPPED_SCRIPTS:
        script = rw.SHIPPED_SCRIPTS[args.script]()
    else:
        try:
            script = rw.script_from_json(_load_json(args.script))
        except ValueError as e:
            raise CliError(str(e)) from e
    eps_fns = _eps_fns_from_spec(args.eps_fn) if args.eps_fn else None
    dims = {}
    for item in args.dims or []:
        try:
            sym, val = item.split("=")
            val = int(val)
        except ValueError as e:
            raise CliError(f"bad --dims entry {item!r}; expected SYM=INT") from e
        if sym in dims:
            raise CliError(f"bad --dims entry {item!r}; {sym} is given twice")
        if val < 0:
            raise CliError(f"bad --dims entry {item!r}; a bit width must be >= 0")
        dims[sym] = val
    try:
        report = rw.run_script(
            script,
            eps_fns=eps_fns,
            N=args.n_value,
            dims=None if args.dims is None else dims,
            seed=args.seed,
            tol=tol,
        )
    except rc.UnboundSymbolError as e:
        raise CliError(f"--dims gives no value for symbol {e.symbol!r}") from e
    except rw.UnknownSymbolError as e:
        item = next(i for i in args.dims if i.split("=")[0] == e.symbol)
        raise CliError(f"bad --dims entry {item!r}; {script.name} has no symbol {e.symbol}") from e
    except rw.UnboundRateError as e:
        raise CliError(f"--eps-fn gives no function for rate {e.rate!r}") from e
    except rw.RewriteError as e:
        report = {
            "format_version": rw.CHECK_FORMAT_VERSION,
            "script": script.name,
            "verified": False,
            "error": str(e),
        }
    report["command"] = "check"
    _emit(report, args.out)
    return 0 if report["verified"] else 1


# the most strategies a process keeps: the two named ones and the
# contents of the strategy files read last
STRATEGY_CACHE_SIZE = 8


@functools.lru_cache(maxsize=STRATEGY_CACHE_SIZE)
def _strategy(key: str | bytes | None) -> pr.DeviceStrategy:
    """The strategy of a key, built and checked once while it stays in
    the cache: None is the optimal strategy, "all-zero" the
    deterministic one, and bytes the content of a strategy file, decoded
    as a file opened in text mode is.  A strategy is immutable, so every
    call shares its checked outcome table; a key whose build raises
    keeps nothing and raises again."""
    if key is None:
        return pr.optimal_chsh_strategy()
    if key == "all-zero":
        return pr.deterministic_strategy(lambda x: 0, lambda y: 0)
    return pr.strategy_from_json(json.loads(io.TextIOWrapper(io.BytesIO(key)).read()))


def _load_strategy(path) -> pr.DeviceStrategy:
    """The strategy --strategy names.  A file is read on every call,
    since it may change, and its bytes are the key of _strategy, so
    each distinct content is parsed and checked once."""
    if path in (None, "all-zero"):
        return _strategy(path)
    try:
        with open(path, "rb") as f:
            return _strategy(f.read())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read JSON file {path}: {e}") from e


def cmd_simulate(args) -> int:
    if args.sweep < 0:
        raise CliError("--sweep must be >= 0")
    _check_seed(args)
    config = {
        "rounds": args.rounds,
        "q": args.q,
        "chi": args.chi,
        "seed": args.seed,
        "strategy": args.strategy or "optimal",
        "sweep": args.sweep,
    }
    seeds = range(args.seed, args.seed + max(args.sweep, 1))
    try:
        strategy = _load_strategy(args.strategy)
        runs = pr.spotcheck_run(args.rounds, args.q, args.chi, strategy, seeds)
    except ValueError as e:
        raise CliError(str(e)) from e
    except MemoryError as e:
        raise CliError(f"{len(seeds)} seeds x {args.rounds} rounds do not fit in memory") from e
    report = {"format_version": FORMAT_VERSION, "command": "simulate", "config": config}
    if args.sweep:
        aborts = sum(r.aborted for r in runs)
        report |= {"abort_count": aborts, "abort_frequency": aborts / len(runs), "runs": [r.to_json() for r in runs]}
    else:
        report["report"] = runs[0].to_json()
    _emit(report, args.out)
    return 0


def _diagonal_example() -> CQState:
    """Shipped diagonal instance with a closed-form guessing value."""
    rows = np.array(
        [
            [0.30, 0.05, 0.05],
            [0.10, 0.20, 0.05],
            [0.05, 0.05, 0.15],
        ]
    )
    return CQState([np.diag(r).astype(complex) for r in rows])


def cmd_entropy(args) -> int:
    tol = _tol(args)
    if args.example == "diagonal":
        psi = _diagonal_example()
    elif args.state:
        raw = _load_json(args.state)
        try:
            branches = [
                np.array(b["re"]) + 1j * np.array(b.get("im", np.zeros_like(b["re"])))
                for b in raw["branches"]
            ]
            psi = CQState(branches)
        except (IndexError, KeyError, TypeError, ValueError) as e:
            raise CliError(f"bad state file: {e}") from e
        if psi.total_trace <= 0:
            raise CliError("bad state file: total trace must be positive")
    else:
        raise CliError("provide --state FILE or --example diagonal")
    try:
        h, cert = pr.min_entropy_cq(psi, tol=tol)
    except ValueError as e:
        raise CliError(str(e)) from e
    report = {
        # 3: the solver is the primal-dual method, iterations counts its
        # predictor-corrector iterations, and the seed, which the
        # command never reads, is no longer echoed
        "format_version": 3,
        "command": "entropy",
        "h_min": h,
        "p_guess_lower": cert["p_lower"],
        "p_guess_upper": cert["p_upper"],
        "gap": cert["gap"],
        "iterations": cert["iterations"],
        "converged": cert["converged"],
    }
    _emit(report, args.out)
    return 0


def _bits_from_hex(text: str, nbits: int):
    """The nbits bits, most significant first, of a string of hex digits
    (no sign, prefix, separator or space)."""
    if not re.fullmatch("[0-9a-fA-F]+", text):
        raise CliError(f"bad hex string {text!r}; expected hex digits 0-9, a-f")
    value = int(text, 16)
    if value >= 1 << nbits:
        raise CliError(f"hex value {text!r} does not fit in {nbits} bits")
    return [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)]


def _bits_to_hex(bits) -> str:
    return f"{ex.bits_int(bits):0{(len(bits) + 3) // 4}x}"


def cmd_extract(args) -> int:
    report = {
        "format_version": FORMAT_VERSION,
        "command": "extract",
        "seed": args.seed,
        "n": args.n,
        "m": args.m,
    }
    _check_seed(args)
    if args.source is not None:
        try:
            ex.check_hash_shape(args.n, args.m)
        except ValueError as e:
            raise CliError(str(e)) from e
        source = _bits_from_hex(args.source, args.n)
        if args.hash_seed is not None:
            hash_seed = _bits_from_hex(args.hash_seed, args.n + args.m - 1)
        else:
            rng = np.random.Generator(np.random.Philox(args.seed))
            hash_seed = rng.integers(0, 2, size=args.n + args.m - 1).tolist()
        out = ex.toeplitz_extract(source, hash_seed, args.m)
        report["source_hex"] = args.source
        report["hash_seed_hex"] = _bits_to_hex(hash_seed)
        report["output_hex"] = _bits_to_hex(out)
    else:
        k = args.hmin if args.hmin is not None else args.n
        if not 0 <= k <= args.n:
            raise CliError("--hmin must lie in [0, n]")
        try:
            ex.check_enumerable(args.n, args.m)
            p = np.zeros(2**args.n)
            p[: 2**k] = 2.0**-k
            distance = ex.extractor_distance_exact(p, args.m)
        except ValueError as e:
            raise CliError(str(e)) from e
        report["h_min"] = k
        report["distance"] = distance
        report["leftover_hash_bound"] = ex.leftover_hash_bound(k, args.m)
    _emit(report, args.out)
    return 0


# rules settles expand_S@1, a derived rule, without drawing its 4d^4 x 4d^2
# R@2; one run's traced peak is then 1.2 MB at each d from 1 to 5 (the
# first call's setup), and a second call in the process peaks at 0.03 MB
RULES_DIM_MAX = 5


def cmd_rules(args) -> int:
    if not 1 <= args.dim <= RULES_DIM_MAX:
        raise CliError(f"--dim must be between 1 and {RULES_DIM_MAX}")
    if args.trials < 1:
        raise CliError("--trials must be >= 1: a rule is ok only once it is checked")
    _check_seed(args)
    tol = _tol(args)
    records = []
    for rule in rw.builtin_rules(args.dim) + rw.axiom_rules():
        exact = rule.validation_mode == "exact"
        dims = {"N": 1} if rule.lhs.symbolic else None
        if rule.binding_mode == "fresh":
            trials = args.trials if exact and rw.draws_fresh_holes(rule) else 1
            dists = [rw.rule_distance(rule, {}, np.random.default_rng(args.seed + t), dims) for t in range(trials)]
        else:
            dists = [rw.derived_distance(rule, dims)]
        worst = float(np.max(dists))  # np.max keeps a NaN; the builtin max can drop one
        records.append(
            {
                "name": rule.name,
                "mode": rule.validation_mode,
                "cost": str(rule.cost),
                "max_deviation" if exact else "measured_distance": worst,
                "ok": rw.verdict(rule, worst, tol)[1],
            }
        )
    report = {
        # 2: as for eval, the self-test deviations come from evaluate;
        # 3: rule_distance draws the lhs holes of a fresh rule first
        "format_version": 3,
        "command": "rules",
        "seed": args.seed,
        "dim": args.dim,
        "rules": records,
        "all_ok": all(r["ok"] for r in records),
    }
    _emit(report, args.out)
    return 0 if report["all_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcalc",
        description="string-diagram calculus, proof replay, and protocol simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": {"type": int, "default": 0},
        "--tol": {"type": float, "default": 1e-9, "help": "numeric tolerance, finite and >= 0"},
    }

    def common(p, *options):
        """--out, and those of --seed and --tol that the command reads."""
        p.add_argument("--out", default=None)
        for option in options:
            p.add_argument(option, **shared[option])

    p = sub.add_parser("eval", help="evaluate a diagram file to a tensor")
    p.add_argument("diagram")
    p.add_argument("--bindings", default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="replay and verify a proof script")
    p.add_argument("script", help="script JSON file or shipped script name")
    p.add_argument("--eps-fn", default=None, help="'c,a' for c*2^(-a*n), or JSON table")
    p.add_argument("--n-value", type=int, default=1)
    p.add_argument("--dims", nargs="*", action="extend", default=None, metavar="SYM=INT", help="each symbol once")
    common(p, "--seed", "--tol")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the spot-checking protocol")
    p.add_argument("--rounds", type=int, default=500)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--chi", type=float, default=0.85)
    p.add_argument("--strategy", default=None, help="JSON file or 'all-zero'")
    p.add_argument("--sweep", type=int, default=0, help="run this many consecutive seeds")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    common(p, "--seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entropy", help="certify min-entropy of a cq state")
    p.add_argument("--state", default=None)
    p.add_argument("--example", choices=["diagonal"], default=None)
    common(p, "--tol")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("extract", help="Toeplitz hashing and exact distances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--source", default=None, help="hex-encoded source bits")
    p.add_argument("--hash-seed", default=None, help="hex-encoded hash seed bits")
    p.add_argument("--hmin", type=int, default=None, help="flat-source min-entropy")
    common(p, "--seed")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rules", help="list the rule library with self-test results")
    p.add_argument("--dim", type=int, default=2, help=f"width of the concrete rules, 1 to {RULES_DIM_MAX}")
    p.add_argument(
        "--trials",
        type=int,
        default=5,
        help="trials per exact rule that draws fresh holes; every other rule is checked once",
    )
    common(p, "--seed", "--tol")
    p.set_defaults(func=cmd_rules)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parse_args leaves it unchanged,
    so every main call in a process shares one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
