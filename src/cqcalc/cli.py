"""Command-line front end for batch evaluation, proof checking,
simulation, entropy certification, and extraction.

All commands emit deterministic JSON (sorted keys, format-versioned)
so repeated runs with the same inputs are byte-identical; the simulate,
extract and rules reports echo the seed.
Exit codes: 0 success/verified, 1 verification failure, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import functools
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


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _list_text(items, ind: str) -> str:
    """A JSON list at indent ind whose entries are the texts items."""
    inner = ind + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "]"


def _digit_fill(stack: np.ndarray, ind: str):
    """The texts at indent ind of the arrays stack[0], stack[1], ...,
    as the rows of an (S, L) uint8 array, when they are integer arrays
    of ndim 1 or 2 with no empty axis and every entry a digit 0..9;
    else None.  The text of one array with a "0" in each digit's place
    is tiled once per array, and the digits are written over the zeros
    in one assignment."""
    if stack.dtype.kind not in "iu" or stack.ndim not in (2, 3) or not stack.size:
        return None
    if stack.min() < 0 or stack.max() > 9:
        return None
    inner = ind + "  "
    entry = _list_text("0" * stack.shape[2], inner) if stack.ndim == 3 else "0"
    template = np.frombuffer(_list_text([entry] * stack.shape[1], ind).encode(), dtype=np.uint8)
    fill = np.tile(template, (len(stack), 1))
    fill[:, np.flatnonzero(template == 48)] = stack.reshape(len(stack), -1) + 48
    return fill


def _dumps(x, ind="") -> str:
    """The bytes of json.dumps(x, sort_keys=True, indent=2,
    default=np.ndarray.tolist), whose indent forces the pure-Python
    encoder.  An integer array of ndim 1 or 2 with all entries in 0..9
    (a run's transcript and output bits) is written by _digit_fill as
    a stack of one, any other array as its tolist(); a list of ints is
    written in one pass; everything else recurses.  Numpy integer and
    bool scalars raise TypeError, as in json.dumps."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None or x is True or x is False:
        return _LITERALS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    if isinstance(x, np.ndarray):
        fill = _digit_fill(x[None], ind)
        return _dumps(x.tolist(), ind) if fill is None else fill.tobytes().decode()
    inner = ind + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            return _list_text(map(int.__repr__, x), ind)
        return _list_text([_dumps(v, inner) for v in x], ind)
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = sorted(x.items())
        body = (",\n" + inner).join([_encode_str(_key(k)) + ": " + _dumps(v, inner) for k, v in items])
        return "{\n" + inner + body + "\n" + ind + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _record_fills(x, ind: str) -> dict:
    """For a list of two or more dicts with the same str keys, records
    at indent ind: per key whose values are all digit arrays of one shape
    and dtype, the _digit_fill of their stack.  Empty otherwise."""
    if not isinstance(x, list) or len(x) < 2 or not isinstance(x[0], dict):
        return {}
    keys = x[0].keys()
    candidates = [k for k, v in x[0].items() if isinstance(v, np.ndarray)]
    if not candidates or not all(type(k) is str for k in keys):
        return {}
    if not all(isinstance(r, dict) and r.keys() == keys for r in x):
        return {}
    fills = {}
    for k in candidates:
        arrays = [r[k] for r in x]
        a = arrays[0]
        if all(isinstance(b, np.ndarray) and b.dtype == a.dtype and b.shape == a.shape for b in arrays):
            fill = _digit_fill(np.stack(arrays), ind)
            if fill is not None:
                fills[k] = fill
    return fills


def _chunks(x, ind: str, text: list, out: list):
    """Append the text of _dumps(x, ind) to out, as bytes and memoryview
    pieces; text holds the str pieces not yet encoded.  Dicts are walked
    entry by entry, and a record list that _record_fills fills is written
    with memoryview slices of the fills; every other subtree is one
    _dumps call."""
    inner = ind + "  "
    if isinstance(x, dict) and x:
        text.append("{\n" + inner)
        for i, (k, v) in enumerate(sorted(x.items())):
            text.append(("" if not i else ",\n" + inner) + _encode_str(_key(k)) + ": ")
            _chunks(v, inner, text, out)
        text.append("\n" + ind + "}")
        return
    fills = _record_fills(x, inner + "  ")
    if not fills:
        text.append(_dumps(x, ind))
        return
    ii = inner + "  "
    heads = [(k, _encode_str(k) + ": ") for k in sorted(x[0])]
    views = {k: memoryview(fill.reshape(-1)) for k, fill in fills.items()}
    text.append("[\n" + inner)
    for i, record in enumerate(x):
        text.append("{\n" + ii if not i else ",\n" + inner + "{\n" + ii)
        for j, (k, head) in enumerate(heads):
            text.append(head if not j else ",\n" + ii + head)
            if k in fills:
                size = fills[k].shape[1]
                out.append("".join(text).encode())
                text.clear()
                out.append(views[k][i * size : (i + 1) * size])
            else:
                text.append(_dumps(record[k], ii))
        text.append("\n" + inner + "}")
    text.append("\n" + ind + "]")


def _emit(report: dict, out_path):
    """Write _dumps(report) and a newline to out_path, or to stdout when
    out_path is empty.  The text is assembled by _chunks, joined once and
    written in binary; nothing is written until all of it is built."""
    text, out = [], []
    _chunks(report, "", text, out)
    text.append("\n")
    out.append("".join(text).encode())
    data = b"".join(out)
    if out_path:
        try:
            with open(out_path, "wb") as f:
                f.write(data)
        except OSError as e:
            raise CliError(f"cannot write report file {out_path}: {e}") from e
    else:
        sys.stdout.write(data.decode())


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
            dims[sym] = int(val)
        except ValueError as e:
            raise CliError(f"bad --dims entry {item!r}; expected SYM=INT") from e
        if dims[sym] < 0:
            raise CliError(f"bad --dims entry {item!r}; a bit width must be >= 0")
    try:
        report = rw.run_script(
            script,
            eps_fns=eps_fns,
            N=args.n_value,
            dims=dims or None,
            seed=args.seed,
            tol=tol,
        )
    except rc.UnboundSymbolError as e:
        raise CliError(f"--dims gives no value for symbol {e.symbol!r}") from e
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


def _load_strategy(path) -> pr.DeviceStrategy:
    if path is None:
        return pr.optimal_chsh_strategy()
    if path == "all-zero":
        return pr.deterministic_strategy(lambda x: 0, lambda y: 0)
    return pr.strategy_from_json(_load_json(path))


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
    try:
        strategy = _load_strategy(args.strategy)
        if args.sweep:
            seeds = range(args.seed, args.seed + args.sweep)
            runs = pr.spotcheck_run(args.rounds, args.q, args.chi, strategy, seeds)
            aborts = sum(r.aborted for r in runs)
            report = {
                "format_version": FORMAT_VERSION,
                "command": "simulate",
                "config": config,
                "abort_count": aborts,
                "abort_frequency": aborts / len(runs),
                "runs": [r.to_json() for r in runs],
            }
        else:
            run = pr.spotcheck_run(args.rounds, args.q, args.chi, strategy, args.seed)
            report = {
                "format_version": FORMAT_VERSION,
                "command": "simulate",
                "config": config,
                "report": run.to_json(),
            }
    except ValueError as e:
        raise CliError(str(e)) from e
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
    h, cert = pr.min_entropy_cq(psi, tol=tol)
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
    if args.source is not None:
        _check_seed(args)
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


def cmd_rules(args) -> int:
    if args.dim < 1:
        raise CliError("--dim must be >= 1")
    if args.trials < 1:
        raise CliError("--trials must be >= 1: a rule is ok only once it is checked")
    _check_seed(args)
    tol = _tol(args)
    records = []
    for rule in rw.builtin_rules(args.dim):
        worst = 0.0
        for offset in range(args.trials):
            rng = np.random.default_rng(args.seed + offset)
            worst = max(worst, rw.rule_distance(rule, {}, rng))
        records.append(
            {
                "name": rule.name,
                "mode": rule.validation_mode,
                "cost": str(rule.cost),
                "max_deviation": worst,
                "ok": worst <= tol,
            }
        )
    for rule in rw.axiom_rules():
        rng = np.random.default_rng(args.seed)
        dev = rw.rule_distance(rule, {}, rng, {"N": 1})
        records.append(
            {
                "name": rule.name,
                "mode": rule.validation_mode,
                "cost": str(rule.cost),
                "measured_distance": dev,
                "ok": bool(np.isfinite(dev)),
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

    def common(p, tol=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if tol:
            p.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance, finite and >= 0")

    p = sub.add_parser("eval", help="evaluate a diagram file to a tensor")
    p.add_argument("diagram")
    p.add_argument("--bindings", default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="replay and verify a proof script")
    p.add_argument("script", help="script JSON file or shipped script name")
    p.add_argument("--eps-fn", default=None, help="'c,a' for c*2^(-a*n), or JSON table")
    p.add_argument("--n-value", type=int, default=1)
    p.add_argument("--dims", nargs="*", default=None, metavar="SYM=INT")
    common(p, tol=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the spot-checking protocol")
    p.add_argument("--rounds", type=int, default=500)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--chi", type=float, default=0.85)
    p.add_argument("--strategy", default=None, help="JSON file or 'all-zero'")
    p.add_argument("--sweep", type=int, default=0, help="run this many consecutive seeds")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entropy", help="certify min-entropy of a cq state")
    p.add_argument("--state", default=None)
    p.add_argument("--example", choices=["diagonal"], default=None)
    common(p, tol=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("extract", help="Toeplitz hashing and exact distances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--source", default=None, help="hex-encoded source bits")
    p.add_argument("--hash-seed", default=None, help="hex-encoded hash seed bits")
    p.add_argument("--hmin", type=int, default=None, help="flat-source min-entropy")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rules", help="list the rule library with self-test results")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=5)
    common(p, tol=True)
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
