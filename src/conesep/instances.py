"""Instance and certificate documents: strict JSON in, canonical JSON out.

An instance names a dimension, a norm, and a map of cone regions; every
region is a list of generator pieces combined as a single convex piece, a
union, a complement, or a boundary.  Parsing is strict -- unknown fields are
errors, not warnings -- and serialization is canonical (sorted names, unit
generators, shortest round-trip float rendering), so parse-serialize-parse
is the identity on canonical documents.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

from . import geometry
from .errors import InstanceError, ZeroGenerator
from .geometry import Norm, PolyCone
from .regions import ConeRegion
from .separation import Orientation, SeparationCertificate

_REGION_KINDS = ("convex", "union", "complement", "boundary")

_TOP_KEYS = {"dim", "norm", "cones", "options"}
_CONE_KEYS = {"kind", "pieces"}
_PIECE_KEYS = {"generators"}


@dataclass(frozen=True)
class InstanceOptions:
    """Solver settings: the one table of option names, types, defaults and
    ranges.  A file sets them under "options" and CLI flags of the same
    names override them.  The default's type is the option's type: floats
    must be finite and > 0, ints at least their "min"; bools are neither.
    A "min" on a float and a "max" on an int bound them further: the sample
    options, so that a value whose samples outgrow memory is an input
    error (CHANGES.md has the measurements).  Construction checks every
    value, so ``dataclasses.replace`` checks a flag as it checks a file."""

    tol: float = 1e-9
    verify_samples: int = field(default=1000, metadata={"min": 1, "max": 10**6})
    seed: int = field(default=0, metadata={"min": 0})
    resolution: float = field(default=0.25, metadata={"min": 0.1})

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            lo, hi = f.metadata.get("min", 0), f.metadata.get("max", math.inf)
            if isinstance(f.default, float):
                rule = f"a finite number >= {lo}" if lo else "a finite number > 0"
                ok = (type(value) in (int, float) and 0 < value
                      and lo <= value <= sys.float_info.max)
                if ok:
                    object.__setattr__(self, f.name, float(value))
            else:
                rule = f"an integer >= {lo}" + (f" and <= {hi}" if hi < math.inf else "")
                ok = type(value) is int and lo <= value <= hi
            if not ok:
                raise InstanceError(f"options.{f.name}: expected {rule}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """A file's cones, each a kind and checked pieces.  ``region`` builds a
    cone's region when a command names it: only then can its geometry fail
    (NotSolid, TrivialRegion, DimensionTooHigh)."""

    dim: int
    norm: Norm
    kinds: dict[str, str]
    pieces: dict[str, list[PolyCone]]
    options: InstanceOptions = field(default_factory=InstanceOptions)

    def region(self, name: str) -> ConeRegion:
        if name not in self.kinds:
            raise InstanceError(f"instance has no cone named {name!r}")
        kind, pieces = self.kinds[name], self.pieces[name]
        if kind == "complement":
            return ConeRegion.complement(pieces[0])
        if kind == "boundary":
            return ConeRegion.boundary(pieces[0])
        return ConeRegion.union(*map(ConeRegion.piece, pieces))

    @property
    def regions(self) -> dict[str, ConeRegion]:
        """Every cone's region, in file order, built anew at each read."""
        return {name: self.region(name) for name in self.kinds}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceError(
            f"unknown field {sorted(unknown)[0]!r} in {where}"
        )


def _matrix(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{where}: not a numeric matrix ({exc})") from None
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InstanceError(f"{where}: expected a non-empty list of vectors")
    # numpy would read "1" and true as 1.0: only JSON numbers are entries
    if not all(type(v) in (int, float) for row in raw for v in row):
        raise InstanceError(f"{where}: not a numeric matrix (an entry is not a number)")
    return arr


def _build_piece(raw: dict, dim: int, where: str) -> PolyCone:
    if not isinstance(raw, dict):
        raise InstanceError(f"{where}: a piece must be a mapping")
    _check_keys(raw, _PIECE_KEYS, where)
    if "generators" not in raw:
        raise InstanceError(f"{where}: a piece needs generators")
    gens = _matrix(raw["generators"], f"{where}.generators")
    if gens.shape[1] != dim:
        raise InstanceError(
            f"{where}.generators: vectors have length {gens.shape[1]}, dim is {dim}"
        )
    try:
        return geometry.make_polycone(gens)
    except ZeroGenerator as exc:
        raise InstanceError(f"{where}.generators: {exc}") from None


def _parse_cone(name: str, raw: dict, dim: int) -> tuple[str, list[PolyCone]]:
    where = f"cones.{name}"
    if not isinstance(raw, dict):
        raise InstanceError(f"{where}: a cone entry must be a mapping")
    _check_keys(raw, _CONE_KEYS, where)
    kind = raw.get("kind", "convex")
    if kind not in _REGION_KINDS:
        raise InstanceError(f"{where}.kind: {kind!r} is not one of {_REGION_KINDS}")
    pieces_raw = raw.get("pieces")
    if not isinstance(pieces_raw, list) or not pieces_raw:
        raise InstanceError(f"{where}.pieces: expected a non-empty list")
    pieces = [
        _build_piece(p, dim, f"{where}.pieces[{i}]") for i, p in enumerate(pieces_raw)
    ]
    if kind in ("convex", "complement", "boundary") and len(pieces) != 1:
        raise InstanceError(f"{where}: kind {kind!r} takes exactly one piece")
    return kind, pieces


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InstanceError("top level must be a mapping")
    _check_keys(doc, _TOP_KEYS, "the top level")
    if "dim" not in doc or "cones" not in doc:
        raise InstanceError("instance needs 'dim' and 'cones'")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise InstanceError("'dim' must be a positive integer")
    norm_name = doc.get("norm", "euclidean")
    try:
        norm = Norm(norm_name)
    except ValueError:
        raise InstanceError(f"unknown norm {norm_name!r}") from None
    cones = doc["cones"]
    if not isinstance(cones, dict) or not cones:
        raise InstanceError("'cones' must be a non-empty mapping")
    kinds: dict[str, str] = {}
    pieces: dict[str, list[PolyCone]] = {}
    for name, raw in cones.items():
        kinds[name], pieces[name] = _parse_cone(name, raw, dim)
    opts_raw = doc.get("options", {})
    if not isinstance(opts_raw, dict):
        raise InstanceError("'options' must be a mapping")
    _check_keys(opts_raw, {f.name for f in fields(InstanceOptions)}, "options")
    return Instance(dim=dim, norm=norm, kinds=kinds, pieces=pieces,
                    options=InstanceOptions(**opts_raw))


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_instance(text)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def _region_doc(pieces: list[PolyCone], kind: str) -> dict:
    return {"kind": kind,
            "pieces": [{"generators": p.generators.T.tolist()} for p in pieces]}


def serialize_instance(inst: Instance) -> str:
    doc = {
        "dim": inst.dim,
        "norm": inst.norm.value,
        "cones": {
            name: _region_doc(inst.pieces[name], inst.kinds[name])
            for name in sorted(inst.kinds)
        },
        "options": jsonable(inst.options),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Certificate documents
# ---------------------------------------------------------------------------

def jsonable(value):
    """Recursively convert records, enums and numpy values so json.dumps
    renders them with shortest round-trip precision: a dataclass becomes
    the mapping of its fields, an enum its value, and a bool stays a bool
    (tested before int, which it subclasses).  A plain float, int or str,
    by exact type, and None come back at once: most leaves are one."""
    if type(value) in (float, int, str) or value is None:
        return value
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.ndarray):
        # tolist already gives plain Python floats, ints and bools
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    return value


def certificate_to_doc(cert: SeparationCertificate) -> dict:
    return jsonable(cert)


def doc_to_certificate(doc: dict) -> SeparationCertificate:
    try:
        cert = SeparationCertificate(
            orientation=Orientation(doc["orientation"]),
            x_star=np.asarray(doc["x_star"], dtype=float),
            alpha=float(doc["alpha"]),
            alpha_interval=(float(doc["alpha_interval"][0]),
                            float(doc["alpha_interval"][1])),
            distance=float(doc["distance"]),
            witnesses=(np.asarray(doc["witnesses"][0], dtype=float),
                       np.asarray(doc["witnesses"][1], dtype=float)),
            family=frozenset(doc.get("family", [])),
            iterations=int(doc.get("iterations", 0)),
        )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"malformed certificate document: {exc}") from None
    x = cert.x_star
    if x.ndim != 1 or not (np.isfinite(x).all() and x.any()):
        fault = "x_star must be a finite, nonzero vector"
    elif any(w.shape != x.shape for w in cert.witnesses):
        fault = "the witnesses must have x_star's length"
    elif not math.isfinite(cert.alpha):
        fault = "alpha must be finite"
    else:
        return cert
    raise InstanceError(f"malformed certificate document: {fault}")


def load_certificate(path: str) -> SeparationCertificate:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if isinstance(doc, dict) and "certificate" in doc and isinstance(
            doc["certificate"], dict):
        doc = doc["certificate"]
    return doc_to_certificate(doc)
