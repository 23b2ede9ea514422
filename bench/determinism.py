"""Determinism self-test of the benchmark's job streams.

    python3 bench/determinism.py [--seed N]

Runs the traced pass (`run.py --trace 1`, a fixed number of blocks) twice
per workload in fresh interpreters with the same seed, and requires
identical counts and an identical SHA-256 over all report bytes.  Prints
the digest of each workload, so that a change to the program's output
streams shows as a moved digest.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sweep", "proofs", "certify")
# per-layer metrics that are counts of work, not times
COUNTED = ("cli.report_bytes", "rewrite.steps_checked_frac", "protocol.min_entropy_cq.converged_frac",
           "regcalc.process_distance.loose_upper_frac")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count" or k in COUNTED}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        (info_a, res_a), (info_b, res_b) = (traced_run(workload, args.seed) for _ in range(2))
        same_counts = counts(res_a) == counts(res_b)
        same_bytes = info_a["report_sha256"] == info_b["report_sha256"]
        correct = res_a["correct"] and res_b["correct"]
        ok = ok and same_counts and same_bytes and correct
        print(json.dumps({
            "workload": workload,
            "seed": args.seed,
            "report_sha256": info_a["report_sha256"],
            "identical_counts": same_counts,
            "identical_report_bytes": same_bytes,
            "correct": correct,
        }, sort_keys=True))
        if not same_counts:
            a, b = counts(res_a), counts(res_b)
            print({k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
