#!/usr/bin/env python3
"""Print a content digest of every result a benchmark workload produces.

    python3 scripts/result_digests.py --workload interp-nested --seed 11 --rounds 8

Runs the seeded rounds of one ``perfbench`` workload once each, untimed,
with the package and the harness of this checkout, and prints one line per
operation: stratum, key, verdict and ``workloads.digest`` of its result (a
certificate, an interpolant, or a CLI document without its ``instance``
path, which names a temporary file).  Two checkouts print the same lines
exactly when every verdict and every result is the same, bit for bit, so

    diff <(python3 a/scripts/result_digests.py ...) <(python3 b/scripts/result_digests.py ...)

shows whether a change kept the output.
"""
from __future__ import annotations

import os
import sys

# one BLAS thread, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402


def digest_lines(name: str, seed: int, rounds: int, workdir: Path):
    """One line per operation of the workload's first ``rounds`` rounds."""
    work = wl.Workload(name, seed, rounds, workdir)
    for r in range(rounds):
        ops, _ = work.run_round(r, work.build(r))
        for op in ops:
            result = op.result
            if isinstance(result, dict):
                result = {k: v for k, v in result["doc"].items() if k != "instance"}
            yield f"{op.item.stratum} {op.item.key} {op.verdict} {wl.digest(result)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=8)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(args.workload, args.seed, args.rounds, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
