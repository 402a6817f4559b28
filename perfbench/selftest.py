#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
on every workload, traced and untraced, that the correctness gate trips on
a flipped verdict and on a certificate that fails verification, also when
its input was already verified in an earlier round, that the rounds hold
the failing and stalling inputs in the shares the corpus scan measured, and
that the speed probes scale an interval and are taken out of it.  Run from
the repository root with ``python3 perfbench/selftest.py`` or
``python -m pytest perfbench/selftest.py``; it is not part of the tier-1
suite.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

run.import_package()

import pace  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.01  # every stratum contributes one key per round


def _result(workload: str, trace: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        res = run.run_workload(workload, 3, 0.0, bool(trace), size=TINY, min_samples=1)
    return json.loads(json.dumps(res))


def test_every_metric_is_emitted():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in run.WORKLOADS:
            res = _result(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"], (workload, trace)
            assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))


def test_same_seed_same_operations():
    first, again = _result("interp-nested", 0), _result("interp-nested", 0)
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    keys = [[(it.stratum, it.key) for it in r] for r in wl.draw_rounds("sym-tail", 7, 2)]
    assert keys == [[(it.stratum, it.key) for it in r] for r in wl.draw_rounds("sym-tail", 7, 2)]


def test_speed_scale():
    clock = pace.Clock()
    clock.times = [1.0, 2.0, 3.0, 4.0, 5.0, 9.0]
    clock.durations = [1.0, 1.0, 1.0, 4.0, 4.0, 8.0]
    nearest, pace.NEAREST = pace.NEAREST, 3
    try:
        # the probes inside the interval first, then the nearest outside it
        assert clock.scale(1.5, 1.5) == pace.REF_S / 1.0
        assert clock.scale(8.5, 9.5) == pace.REF_S / 4.0
        assert clock.scale(0.0, 9.0) == pace.REF_S / 2.5  # all six inside
    finally:
        pace.NEAREST = nearest
    clock.times, clock.durations = [1.0, 2.0], [0.1, 0.1]
    assert clock.probe_time(0.9, 1.5) == 0.1  # whole probe inside
    assert clock.probe_time(1.0, 2.0) == 0.0  # both only partly inside
    assert clock.scaled(0.9, 1.5) == (0.6 - 0.1) * clock.scale(0.9, 1.5)
    assert [wl._spread(r) for r in range(4)] == [0.0, 0.5, 0.25, 0.75]


def _busy_call(clock, seconds: float) -> tuple[float, float]:
    clock.arm()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.disarm()
    return t0, t1


def test_probes_inside_long_calls_only():
    clock = pace.Clock()
    clock.watch(True)
    try:
        short = _busy_call(clock, 0.5 * pace.LONG_S)
        time.sleep(2 * pace.EVERY_S)  # disarmed: no probe
        t0, t1 = _busy_call(clock, pace.LONG_S + 4 * pace.EVERY_S)
    finally:
        clock.watch(False)
    assert clock.probe_time(short[0], t0) == 0.0
    inside = [d for t, d in zip(clock.times, clock.durations) if t0 < t < t1]
    assert len(inside) >= 3, clock.times
    assert abs(clock.probe_time(t0, t1) - sum(inside)) < 1e-12


def _sym_round() -> list:
    work = wl.Workload("sym-tail", 0, 1, run.WORK / "selftest", size=TINY)
    ops, _ = work.run_round(0, work.build(0))
    assert wl.check(ops, 0) == []
    return ops


def test_gate_trips_on_flipped_verdict():
    ops = _sym_round()
    op = next(op for op in ops if op.verdict in wl.POSITIVE)
    op.item.ref = "N"
    assert any("reference N" in p for p in wl.check(ops, 0))
    op.item.ref = "I"  # inconclusive to definite is allowed
    assert wl.check(ops, 0) == []


def test_gate_trips_on_bad_certificate():
    ops = _sym_round()
    op = next(op for op in ops if op.verdict in "CK")
    op.result = dataclasses.replace(op.result, x_star=-op.result.x_star)
    assert any("failed verification" in p for p in wl.check(ops, 0))


def test_gate_verifies_repeated_inputs():
    work = wl.Workload("sym-tail", 0, 1, run.WORK / "selftest", size=TINY)
    first, _ = work.run_round(0, work.build(0))
    again, _ = work.run_round(0, work.build(0))
    assert wl.check(first + again, 0) == []
    op = next(op for op in again if op.verdict in "CK")
    op.result = dataclasses.replace(op.result, x_star=-op.result.x_star)
    assert any("failed verification" in p for p in wl.check(first + again, 0))


def test_round_shares_follow_the_scan():
    corpus = json.loads(wl.CORPUS.read_text(encoding="utf-8"))
    scanned, strata = corpus["scanned"], corpus["strata"]
    used = {st.name for strata_ in wl.WORKLOADS.values() for st in strata_}
    assert used == set(strata), set(strata) ^ used  # no pool is left undrawn
    per = {st.name: st.per_round for st in wl.WORKLOADS["interp-nested"]}
    share = per["interp/nested-fail"] / (per["interp/nested"] + per["interp/nested-fail"])
    measured = len(strata["interp/nested-fail"]["items"]) / scanned["interp-nested"]
    assert abs(share - measured) < 0.01, (share, measured)
    per = {st.name: st.per_round for st in wl.WORKLOADS["sym-tail"]}
    for slow in ("sym/stall", "sym/stall-fail"):
        expected = sum(per[f"sym/fast-{d}"] / scanned[f"sym-{d}"]
                       * sum(key[0] == d for key, *_ in strata[slow]["items"])
                       for d in (2, 3, 4, 6))
        assert abs(per[slow] - expected) < 1.0, (slow, per[slow], expected)
    per = {st.name: st for st in wl.WORKLOADS["cli-batch"]}
    expected = run.ROUNDS * sum(per[f"cli/check-{d}"].per_round / scanned[f"cli-{d}"]
                                * sum(key[0] == d for key, *_ in
                                      strata["cli/check-stall"]["items"])
                                for d in (2, 3, 4))
    assert abs(per["cli/check-stall"].per_cycle - expected) < 1.0, expected


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("PASS", name)
