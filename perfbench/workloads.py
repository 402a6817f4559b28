"""Inputs, operations and the correctness gate of the benchmark workloads.

Every input is named by a generator and a key.  The generators draw exactly
what ``oracle.random_region``, ``oracle.cone_about`` and
``oracle.sector_cone_2d`` drew when ``corpus.json`` was made, but they return
plain arrays, so a later change to the package's own generators cannot shift
the inputs under the committed reference verdicts.

A workload is a list of strata.  Each stratum is a pool of keys in
``corpus.json``, with the reference verdict and the time taken of every key
when the corpus was made, and a number of keys that every round draws from
it: the pool is sorted by that time and cut into as many bins as the round
takes keys, and the round takes one key from each bin.  A stratum rarer than
one key a round gives its keys per cycle of the distinct rounds instead,
placed in fixed rounds.  So every round holds the same share of stalling and
failing inputs and the same spread of cheap and costly ones, and the metrics
measure the program rather than the luck of the draw; the seed decides which
key of each bin is drawn, and the order.  The strata hold the failing and
stalling inputs in the shares the corpus scan measured.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conesep import basis, cli, geometry, instances, separation
from conesep.errors import ConesepError, Inconclusive
from conesep.regions import ConeRegion

from tracer import CLI_FILE, CLI_MAIN, OP

CORPUS = Path(__file__).with_name("corpus.json")
BASE_SEED = 2503  # root of every generator key
SLOW_S = 0.25  # an operation slower than this counts in slow_share
VERIFY_COUNT = 64  # samples per certificate or interpolant in the gate

# Verdict letters.  Definite: C / K separated C-from-K / K-from-C, S
# separated (CLI), W well-based, O interpolated; N not separated, B not
# well-based, X no interpolant.  Failed: I inconclusive, E other error.
POSITIVE = frozenset("CKSWO")
NEGATIVE = frozenset("NBX")
FAILED = frozenset("IE")
CLI_VERDICTS = {
    "separated": "S", "not_separated": "N", "well_based": "W",
    "not_well_based": "B", "inconclusive": "I", "defect": "I", "error": "E",
}


def flipped(ref: str, got: str) -> bool:
    """A definite verdict that turned into the opposite definite verdict."""
    return (ref in POSITIVE and got in NEGATIVE) or (ref in NEGATIVE and got in POSITIVE)


# ---------------------------------------------------------------------------
# Generators: key -> input spec made of plain arrays
# ---------------------------------------------------------------------------

def _rng(tag: int, key) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, tag, *key])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _pointed_rays(rng, dim: int, n: int | None = None, cap_deg: float = 40.0):
    """Rays of ``oracle.random_pointed_cone``, drawn in the same order."""
    n = n if n is not None else int(rng.integers(2, 6))
    axis = _unit(rng.standard_normal(dim))
    t = math.cos(math.radians(cap_deg))
    rays = []
    while len(rays) < n:
        v = _unit(rng.standard_normal(dim))
        v = v if float(v @ axis) >= 0 else -v
        rays.append(_unit(t * axis + (1.0 - t) * v))
    return np.array(rays)


def _region_pieces(rng, dim: int) -> list:
    """Pieces of ``oracle.random_region`` (one or two pointed pieces)."""
    return [_pointed_rays(rng, dim) for _ in range(int(rng.integers(1, 3)))]


def _sector(center_deg: float, half_deg: float) -> np.ndarray:
    lo, hi = math.radians(center_deg - half_deg), math.radians(center_deg + half_deg)
    return np.array([[math.cos(lo), math.sin(lo)], [math.cos(hi), math.sin(hi)]])


def _cone_about(axis, half_deg: float, n: int) -> np.ndarray:
    """Rays of ``oracle.cone_about`` in 3-D."""
    axis = _unit(np.asarray(axis, dtype=float))
    M = np.eye(3)
    M[:, 0] = axis
    Q, _ = np.linalg.qr(M)
    if float(Q[:, 0] @ axis) < 0:
        Q[:, 0] *= -1.0
    t = math.radians(half_deg)
    phis = [2.0 * math.pi * k / n for k in range(n)]
    return np.array([math.cos(t) * axis + math.sin(t) * (math.cos(p) * Q[:, 1]
                                                         + math.sin(p) * Q[:, 2])
                     for p in phis])


def gen_pair(key):
    """``random_region`` pair at dimension key[0]."""
    rng = _rng(1, key)
    return {"C": _region_pieces(rng, key[0]), "K": _region_pieces(rng, key[0])}


def gen_thin_pair(key):
    """Two rays a few 1e-9 rad apart: a genuine tolerance dead-band pair."""
    rng = _rng(4, key)
    u = _unit(rng.standard_normal(key[0]))
    p = rng.standard_normal(key[0])
    p = _unit(p - (p @ u) * u)
    delta = rng.uniform(3e-9, 7e-9)
    w = math.cos(delta) * u + math.sin(delta) * p
    return {"C": [u[None, :]], "K": [w[None, :]]}


def gen_large(key):
    """A 4-D cone with 48 rays against a ``random_region``: facet-heavy."""
    rng = _rng(6, key)
    return {"C": [_pointed_rays(rng, 4, n=48, cap_deg=35.0)], "K": _region_pieces(rng, 4)}


def gen_nested(key):
    """``cone_about(ax, 20, 8)`` inside ``cone_about(ax, 50, 12)``, random axis."""
    axis = _rng(2, key).standard_normal(3)
    return {"inner": _cone_about(axis, 20.0, 8), "outer": _cone_about(axis, 50.0, 12)}


def gen_sector(key):
    """A 2-D sector nested in a wider one with a clear margin."""
    rng = _rng(3, key)
    c = rng.uniform(0.0, 360.0)
    ho = rng.uniform(20.0, 80.0)
    hi = rng.uniform(0.2, 0.8) * ho
    shift = rng.uniform(-1.0, 1.0) * (ho - hi) * 0.5
    return {"inner": _sector(c + shift, hi), "outer": _sector(c, ho)}


def gen_thin_sector(key):
    """A 2-D sector whose edge lies a few 1e-9 rad inside the outer edge."""
    rng = _rng(5, key)
    c = rng.uniform(0.0, 360.0)
    h = rng.uniform(20.0, 70.0)
    width = math.radians(rng.uniform(5.0, 15.0))
    edge = math.radians(c + h) - rng.uniform(5e-9, 8e-9)
    inner = np.array([[math.cos(edge), math.sin(edge)],
                      [math.cos(edge - width), math.sin(edge - width)]])
    return {"inner": inner, "outer": _sector(c, h)}


GENERATORS = {
    "pair": gen_pair, "thin-pair": gen_thin_pair, "large": gen_large,
    "nested": gen_nested, "sector": gen_sector, "thin-sector": gen_thin_sector,
}


def fingerprint(spec: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(spec):
        parts = spec[name] if isinstance(spec[name], list) else [spec[name]]
        for arr in parts:
            h.update(np.round(arr, 12).tobytes())
    return h.hexdigest()[:16]


def region(pieces) -> ConeRegion:
    return ConeRegion.union(*[ConeRegion.piece(geometry.make_polycone(p)) for p in pieces])


def instance_doc(spec: dict, seed: int) -> dict:
    """Instance document of a pair spec, as a CLI user would write it."""
    def cone(pieces):
        return {"kind": "convex" if len(pieces) == 1 else "union",
                "pieces": [{"generators": p.tolist()} for p in pieces]}
    return {"dim": int(spec["C"][0].shape[1]),
            "cones": {"C": cone(spec["C"]), "K": cone(spec["K"])},
            "options": {"seed": seed}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    name: str  # pool in corpus.json
    gen: str
    per_round: int
    command: str | None = None  # cli-batch: the CLI command run on its files
    batch: str | None = None  # cli-batch: own CLI call, apart from its command's
    per_cycle: int = 0  # with per_round 0: keys per cycle of the distinct rounds

    @property
    def batch_name(self) -> str | None:
        return self.batch or self.command


def _fast(prefix, gen, dims, k, command=None):
    return tuple(Stratum(f"{prefix}-{d}", gen, k, command=command) for d in dims)


WORKLOADS = {
    # The scan's stall rates at d = 3, 4, 6 give 6.5 stalls and 2.33 stalls
    # that end Inconclusive per 200 pairs of each d; a round holds 7 and 2.
    "sym-tail": _fast("sym/fast", "pair", (2, 3, 4, 6), 200) + (
        Stratum("sym/stall", "pair", 7),
        Stratum("sym/stall-fail", "pair", 2),
        Stratum("sym/thin", "thin-pair", 2),
    ),
    # 4 of 38 nested 3-D calls fail, as 52 of the 500 scanned keys did.
    # The 3 sectors and the dead-band sector, all faster than any 3-D call,
    # balance the 4 slow failures, so the median falls in the middle of
    # the succeeding 3-D calls rather than in the gap between the 2-D and
    # 3-D times, where it moved twice as much between runs.
    "interp-nested": (
        Stratum("interp/nested", "nested", 34),
        Stratum("interp/nested-fail", "nested", 4),
        Stratum("interp/sector", "sector", 3),
        Stratum("interp/thin", "thin-sector", 1),
    ),
    "cli-batch": _fast("cli/sym", "pair", (2, 3, 4), 10, "sym")
    + (Stratum("cli/thin", "thin-pair", 1, command="sym"),)
    + _fast("cli/check", "pair", (2, 3, 4), 10, "check")
    # 3 of the 600 scanned check files stall: 1.2 per 8 rounds of 30
    + (Stratum("cli/check-stall", "pair", 0, command="check", per_cycle=1),
       Stratum("cli/large", "large", 1, command="check", batch="large"))
    + _fast("cli/base", "pair", (2, 3, 4), 10, "base"),
}
CLI_ARGS = {
    "sym": ("separate", "--mode", "sym", "--pair", "C,K"),
    "check": ("check", "--pair", "C,K"),
    "base": ("base", "--cone", "C"),
}


@dataclass
class Item:
    stratum: str
    key: tuple
    ref: str
    spec: dict
    path: str | None = None  # instance file (cli-batch)


@dataclass
class Op:
    item: Item
    latency: float
    verdict: str
    result: object = None  # certificate, interpolant, or CLI document
    # interval whose machine speed scales the latency: the call itself, or
    # the CLI call that ran the file
    when: tuple[float, float] = (0.0, 0.0)


def load_corpus() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def _spread(r: int) -> float:
    """r-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ...
    The first n rounds of a run sit at evenly spaced offsets in every bin."""
    x, f = 0.0, 0.5
    while r:
        x += f * (r & 1)
        r >>= 1
        f /= 2
    return x


def draw_rounds(workload: str, seed: int, rounds: int, size: float = 1.0) -> list:
    """Items of each round, drawn from the corpus strata by the seed.

    ``size`` scales every stratum's share of a round (at least one key).
    The seed sets an offset u in each bin; round r takes the key at
    position (u + _spread(r)) mod 1 of the bin, so that the rounds of a run
    together cover every bin evenly and the cost of a run varies little
    from seed to seed.  A stratum given per cycle puts its j-th key of k in
    round j * rounds // k.
    """
    corpus = load_corpus()
    out = [[] for _ in range(rounds)]
    for s, st in enumerate(WORKLOADS[workload]):
        pool = corpus[st.name]
        items = pool["items"]
        first = GENERATORS[st.gen](items[0][0])
        if fingerprint(first) != pool["fingerprint"]:
            raise RuntimeError(f"generator {st.gen} no longer reproduces {st.name}")
        rng = np.random.default_rng([seed, s])
        ranked = sorted(items, key=lambda it: it[2])
        count = max(1, round(st.per_round * size)) if st.per_round else st.per_cycle
        bins = [[ranked[i] for i in idx] for idx in
                np.array_split(np.arange(len(ranked)), count)]
        # antithetic offsets in neighbouring bins, paired from the costliest
        # down, so that a costly pick in one bin meets a cheap one in the next
        half = rng.random((len(bins) + 1) // 2)
        offsets = np.empty(len(bins))
        offsets[::-2] = half
        offsets[-2::-2] = 1.0 - half[:len(bins) // 2]
        if st.per_round:
            picks = [[b[int((u + _spread(r)) % 1.0 * len(b))] for b, u in zip(bins, offsets)]
                     for r in range(rounds)]
        else:
            picks = [[] for _ in range(rounds)]
            for j, (b, u) in enumerate(zip(bins, offsets)):
                picks[j * rounds // count].append(b[int(u * len(b))])
        for r in range(rounds):
            for key, ref, *_ in picks[r]:
                key = tuple(key)
                out[r].append(Item(st.name, key, ref, GENERATORS[st.gen](key)))
    for r, items in enumerate(out):
        order = np.random.default_rng([seed, 1000 + r]).permutation(len(items))
        out[r] = [items[i] for i in order]
    return out


class Workload:
    """Seeded rounds of one workload and the code that runs them."""

    def __init__(self, name: str, seed: int, rounds: int, workdir: Path,
                 size: float = 1.0):
        self.name = name
        self.seed = seed
        self.rounds = draw_rounds(name, seed, rounds, size)
        self.batches = {st.name: st.batch_name for st in WORKLOADS[name]}
        self.commands = {st.batch_name: st.command for st in WORKLOADS[name]}
        self.workdir = workdir
        if name == "cli-batch":
            self._write_files()

    def _write_files(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        for r, items in enumerate(self.rounds):
            folder = self.workdir / f"round{r}"
            folder.mkdir(parents=True)
            for j, item in enumerate(items):
                item.path = str(folder / f"{j:03d}.json")
                with open(item.path, "w", encoding="utf-8") as fh:
                    json.dump(instance_doc(item.spec, j), fh)

    def build(self, r: int):
        """Fresh input objects of round r, so no pass sees another's caches."""
        items = self.rounds[r % len(self.rounds)]
        if self.name == "sym-tail":
            return [(region(it.spec["C"]), region(it.spec["K"])) for it in items]
        if self.name == "interp-nested":
            return [(geometry.make_polycone(it.spec["inner"]),
                     geometry.make_polycone(it.spec["outer"])) for it in items]
        batches = {}
        for it in items:
            batches.setdefault(self.batches[it.stratum], []).append(it)
        return batches

    def run_round(self, r: int, objects, tracer=None, clock=None) -> tuple[list, list]:
        """Run round r on prepared objects; returns its ops and the timed
        intervals (one per API call, or per CLI call).  An op's latency
        leaves out the speed probes that ``clock`` ran inside the call."""
        items = self.rounds[r % len(self.rounds)]
        if self.name == "cli-batch":
            return self._run_cli(objects, tracer, clock)
        call = call_sym if self.name == "sym-tail" else call_interp
        ops = []
        for item, args in zip(items, objects):
            if clock:
                clock.tick()
                clock.arm()
            token = tracer.open(OP, root=True) if tracer else None
            t0 = time.perf_counter()
            try:
                verdict, result = call(*args)
            except Inconclusive:
                verdict, result = "I", None
            except ConesepError:
                verdict, result = "E", None
            t1 = time.perf_counter()
            if clock:
                clock.disarm()
            if token:
                tracer.end(token)
            latency = t1 - t0 - (clock.probe_time(t0, t1) if clock else 0.0)
            ops.append(Op(item, latency, verdict, result, (t0, t1)))
        if clock:
            clock.burst()
        return ops, [op.when for op in ops]

    def _run_cli(self, batches, tracer, clock) -> tuple[list, list]:
        ops, intervals = [], []
        for batch, items in batches.items():
            if clock:
                clock.burst()
            command = self.commands[batch]
            by_path = {it.path: it for it in items}
            timed = _FileTimer(tracer)
            argv = [CLI_ARGS[command][0], *by_path, *CLI_ARGS[command][1:]]
            token = tracer.open(CLI_MAIN) if tracer else None
            timed.batch = token[0] if token else None
            out = io.StringIO()
            original = cli._evaluate
            cli._evaluate = timed.wrap(original)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            finally:
                t1 = time.perf_counter()
                intervals.append((t0, t1))
                cli._evaluate = original
                if token:
                    tracer.end(token)
            text = out.getvalue()
            # main prints one indented document for a single file
            docs = ([json.loads(text)] if len(by_path) == 1
                    else [json.loads(line) for line in text.splitlines()])
            worst = max(c for _, c in timed.files.values())
            for doc in docs:
                latency, file_code = timed.files[doc["instance"]]
                verdict = CLI_VERDICTS.get(doc["verdict"], "E")
                if file_code in (2, 3):
                    verdict = verdict if verdict in FAILED else "E"
                ops.append(Op(by_path[doc["instance"]], latency, verdict,
                              {"doc": doc, "batch_ok": code == worst}, (t0, t1)))
        if clock:
            clock.burst()
        return ops, intervals


def call_sym(C, K):
    cert = separation.separate_sym(C, K)
    if cert is None:
        return "N", None
    return ("C" if cert.orientation.value == "CfromK" else "K"), cert


def call_interp(inner, outer):
    gamma = basis.interpolate(inner, outer)
    return ("X", None) if gamma is None else ("O", gamma)


class _FileTimer:
    """Per-file latency of a CLI batch, taken at the function that ``main``
    maps over its thread pool; opens the per-file span when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.batch = None
        self.files: dict[str, tuple[float, int]] = {}

    def wrap(self, evaluate):
        def timed(path, args):
            tracer = self.tracer
            token = (tracer.open(CLI_FILE, root=True, parent=self.batch)
                     if tracer else None)
            t0 = time.perf_counter()
            try:
                doc, code = evaluate(path, args)
            finally:
                latency = time.perf_counter() - t0
                if token:
                    tracer.end(token)
            self.files[path] = (latency, code)
            return doc, code
        return timed


# ---------------------------------------------------------------------------
# Correctness gate (run outside the timed region)
# ---------------------------------------------------------------------------

def digest(result) -> str:
    """Content hash of a certificate, an interpolant or a CLI document."""
    h = hashlib.sha256()

    def feed(x):
        if dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        elif isinstance(x, (set, frozenset)):
            h.update(repr(sorted(map(repr, x))).encode())
        elif isinstance(x, dict):
            h.update(json.dumps(x, sort_keys=True).encode())
        else:
            h.update(repr(x).encode())
        h.update(b"|")

    feed(result)
    return h.hexdigest()


def check(ops: list, seed: int) -> list[str]:
    """Problems found in the outputs: flipped verdicts, certificates or
    interpolants that fail sampled verification, CLI exit codes that do not
    match their documents.  An empty list means the run is correct.

    Every op's result is verified, except that a result identical to one
    already verified for the same input (a repeated round) is not sampled
    again: any result that differs in a single bit is."""
    problems = []
    verified = set()
    for n, op in enumerate(ops):
        it = op.item
        if flipped(it.ref, op.verdict):
            problems.append(f"{it.stratum} {it.key}: reference {it.ref}, got {op.verdict}")
        doc = None
        if isinstance(op.result, dict):
            if not op.result["batch_ok"]:
                problems.append(f"{it.stratum} {it.key}: the exit code of its CLI call"
                                " is not the worst of its files'")
            doc = {k: v for k, v in op.result["doc"].items() if k != "instance"}
        if op.result is None:
            continue
        ident = (it.stratum, it.key, op.verdict, digest(op.result if doc is None else doc))
        if ident in verified:
            continue
        verified.add(ident)
        rng = np.random.default_rng([seed, n])
        if op.verdict in "CK":
            C, K = region(it.spec["C"]), region(it.spec["K"])
            ok = separation.verify_certificate(op.result, C, K, count=VERIFY_COUNT, rng=rng).ok
        elif op.verdict == "O":
            ok = basis.verify_interpolation(
                op.result, geometry.make_polycone(it.spec["inner"]),
                geometry.make_polycone(it.spec["outer"]), count=VERIFY_COUNT, rng=rng).ok
        elif doc is not None and op.verdict == "S" and doc.get("certificate"):
            cert = instances.doc_to_certificate(doc["certificate"])
            C, K = region(it.spec["C"]), region(it.spec["K"])
            ok = separation.verify_certificate(cert, C, K, count=VERIFY_COUNT, rng=rng).ok
        else:
            continue
        if not ok:
            problems.append(f"{it.stratum} {it.key}: verdict {op.verdict} failed verification")
    return problems
