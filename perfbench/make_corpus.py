#!/usr/bin/env python3
"""Rebuild corpus.json: the key pools of every stratum with reference verdicts.

Runs the package once on every candidate key, times it, and sorts the key
into a stratum by its verdict and, for ``separate_sym``, by whether it took
longer than the slow threshold.  No key of a scanned family is dropped for
its verdict or its time, and ``scanned`` records how many keys each family
had, so the measured share of every stratum can be read back from the file.
The verdicts become the references of the correctness gate, so run it only
at a commit whose verdicts are trusted, from the repository root:

    python3 perfbench/make_corpus.py
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from conesep import cli, geometry  # noqa: E402
from conesep.errors import ConesepError, Inconclusive  # noqa: E402

WORK = ROOT / ".bench_work" / "corpus"
FAST_CAP = 600  # keys kept per fast pool


def timed(call, *args) -> tuple[str, float]:
    t0 = time.perf_counter()
    try:
        verdict, _ = call(*args)
    except Inconclusive:
        verdict = "I"
    except ConesepError:
        verdict = "E"
    return verdict, time.perf_counter() - t0


def run_cli(command: str, spec: dict, name: str) -> tuple[str, float]:
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(wl.instance_doc(spec, 0)), encoding="utf-8")
    head, *rest = wl.CLI_ARGS[command]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        cli.main([head, str(path), *rest])
    elapsed = time.perf_counter() - t0
    return wl.CLI_VERDICTS.get(json.loads(out.getvalue())["verdict"], "E"), elapsed


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    pools = defaultdict(list)
    gens = {}
    scanned = {}

    def put(stratum, gen, key, verdict, seconds):
        gens[stratum] = gen
        pools[stratum].append([list(key), verdict, round(seconds * 1000.0, 2)])

    for d in (2, 3, 4, 6):
        scanned[f"sym-{d}"] = 600 if d == 2 else 1200
        fast = 0
        for i in range(scanned[f"sym-{d}"]):
            spec = wl.gen_pair((d, i))
            v, t = timed(wl.call_sym, wl.region(spec["C"]), wl.region(spec["K"]))
            if t > wl.SLOW_S:
                put("sym/stall-fail" if v in wl.FAILED else "sym/stall", "pair", (d, i), v, t)
            elif v in wl.FAILED:
                put("sym/fast-fail", "pair", (d, i), v, t)
            else:
                # the first FAST_CAP fast keys stand for all of them
                fast += 1
                if fast <= FAST_CAP:
                    put(f"sym/fast-{d}", "pair", (d, i), v, t)
        print(f"sym d={d}: stalls {len(pools['sym/stall'])}", file=sys.stderr)
    for i in range(24):
        key = ((2, 3, 4, 6)[i % 4], i)
        spec = wl.gen_thin_pair(key)
        v, t = timed(wl.call_sym, wl.region(spec["C"]), wl.region(spec["K"]))
        put("sym/thin", "thin-pair", key, v, t)
        v, t = run_cli("sym", spec, "thin")
        put("cli/thin", "thin-pair", key, v, t)

    def nested_args(spec):
        return geometry.make_polycone(spec["inner"]), geometry.make_polycone(spec["outer"])

    scanned["interp-nested"] = 500
    for i in range(scanned["interp-nested"]):
        v, t = timed(wl.call_interp, *nested_args(wl.gen_nested((i,))))
        put("interp/nested-fail" if v in wl.FAILED else "interp/nested", "nested", (i,), v, t)
    scanned["interp-sector"] = 300
    for i in range(scanned["interp-sector"]):
        v, t = timed(wl.call_interp, *nested_args(wl.gen_sector((i,))))
        put("interp/sector-fail" if v in wl.FAILED else "interp/sector", "sector", (i,), v, t)
    for i in range(24):
        v, t = timed(wl.call_interp, *nested_args(wl.gen_thin_sector((i,))))
        put("interp/thin", "thin-sector", (i,), v, t)
    print("interp done", file=sys.stderr)

    # The CLI files are pairs that did not stall in separate_sym: the stalls
    # are measured on sym-tail, and the CLI pools keep every such pair.  A
    # file that stalls in the CLI all the same goes to a stall stratum.
    for d in (2, 3, 4):
        scanned[f"cli-{d}"] = 200
        for key, *_ in pools[f"sym/fast-{d}"][:scanned[f"cli-{d}"]]:
            spec = wl.gen_pair(key)
            for command in ("sym", "check", "base"):
                v, t = run_cli(command, spec, "pair")
                stratum = f"cli/{command}-stall" if t > wl.SLOW_S else f"cli/{command}-{d}"
                put(stratum, "pair", key, v, t)
    for i in range(12):
        v, t = run_cli("check", wl.gen_large((i,)), "large")
        put("cli/large", "large", (i,), v, t)
    print("cli done", file=sys.stderr)

    strata = {}
    for name in sorted(pools):
        gen = gens[name]
        first = wl.GENERATORS[gen](tuple(pools[name][0][0]))
        strata[name] = {"gen": gen, "fingerprint": wl.fingerprint(first),
                        "items": pools[name]}
        print(f"{name}: {len(pools[name])} keys", file=sys.stderr)
    lines = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in strata.items())
    wl.CORPUS.write_text('{\n  "format": 1,\n  "scanned": ' + json.dumps(scanned)
                         + ',\n  "strata": {\n' + lines + "\n  }\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
