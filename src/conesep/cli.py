"""Command-line front end.

Subcommands wrap the engine one capability each: separate (non-symmetric,
symmetric, or bidirectional convex), base (well-basedness and convex-base
certificates), interpolate (nested-cone squeezing), check (the five-way
boundary equivalence report), render (2-D SVG), and oracle (sampled
separation verdict, independent of the engine).

Documents are JSON on stdout with shortest round-trip float rendering.
Exit codes: 0 separated / certificate found, 1 not separated / absent,
2 inconclusive (tolerance dead-band, uncertified solve, a cone within
rounding of a line, failed sample verification, or a check "defect": the
five conditions disagree), 3 input or usage error.
Several instance files may be given to most subcommands; they are
evaluated in order and emitted one JSON document per line, with the worst
exit code winning.  Every subcommand rejects a non-Euclidean instance.
The --tol, --seed, --verify-samples and --resolution flags override the
file's options of the same names; a bad value is an input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import separation
from .basis import has_convex_base, interpolate, is_well_based, verify_interpolation
from .errors import ConesepError, Inconclusive, InstanceError
from .geometry import Norm
from .instances import (
    Instance,
    InstanceOptions,
    jsonable,
    load_certificate,
    load_instance,
)
from .oracle import oracle_separation
from .separation import (
    separate_convex_bidirectional,
    separate_nonsym,
    separate_sym,
    verify_certificate,
)
from .svg import render_svg

EXIT_SEPARATED = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip() for p in parts):
        raise argparse.ArgumentTypeError("expected two cone names: C,K")
    return parts[0].strip(), parts[1].strip()


def _one_sided_doc(cert, C, K, samples: int, rng) -> tuple[dict, bool]:
    if cert is None:
        return {"certificate": None, "verification": None}, False
    report = verify_certificate(cert, C, K, count=samples, rng=rng)
    return {"certificate": jsonable(cert), "verification": jsonable(report)}, report.ok


def cmd_separate(inst: Instance, args) -> tuple[dict, int]:
    name_c, name_k = args.pair
    C, K = inst.region(name_c), inst.region(name_k)
    tol, samples = inst.options.tol, inst.options.verify_samples
    rng = np.random.default_rng(inst.options.seed)
    base = {"mode": args.mode, "pair": [name_c, name_k]}
    if args.mode == "bidir":
        res = separate_convex_bidirectional(C, K, tol=tol)
        doc_ck, ok_ck = _one_sided_doc(res.cfromk, C, K, samples, rng)
        doc_kc, ok_kc = _one_sided_doc(res.kfromc, C, K, samples, rng)
        both = res.cfromk is not None and res.kfromc is not None
        verified = (res.cfromk is None or ok_ck) and (res.kfromc is None or ok_kc)
        doc = {
            **base,
            "verdict": "separated" if both else "not_separated",
            "cfromk": doc_ck,
            "kfromc": doc_kc,
            "linear": jsonable(res.linear),
        }
        if not verified:
            doc["verdict"] = "inconclusive"
            return doc, EXIT_INCONCLUSIVE
        return doc, EXIT_SEPARATED if both else EXIT_NEGATIVE
    fn = separate_nonsym if args.mode == "nonsym" else separate_sym
    cert = fn(C, K, tol=tol)
    side, ok = _one_sided_doc(cert, C, K, samples, rng)
    doc = {
        **base,
        "verdict": "separated" if cert is not None else "not_separated",
        **side,
    }
    if cert is None:
        return doc, EXIT_NEGATIVE
    if not ok:
        doc["verdict"] = "inconclusive"
        return doc, EXIT_INCONCLUSIVE
    return doc, EXIT_SEPARATED


def cmd_base(inst: Instance, args) -> tuple[dict, int]:
    region = inst.region(args.cone)
    wb = is_well_based(region, tol=inst.options.tol)
    cb = has_convex_base(region, tol=inst.options.tol, well_based=wb)
    doc = {
        "cone": args.cone,
        "verdict": "well_based" if wb.well_based else "not_well_based",
        "well_based": jsonable(wb),
        "convex_base": jsonable(cb),
    }
    return doc, EXIT_SEPARATED if wb.well_based else EXIT_NEGATIVE


def cmd_interpolate(inst: Instance, args) -> tuple[dict, int]:
    inner = inst.region(args.inner)
    outer = inst.region(args.outer).single_cone()
    gamma = interpolate(inner, outer, tol=inst.options.tol)
    base = {"inner": args.inner, "outer": args.outer}
    if gamma is None:
        return {**base, "verdict": "not_interpolated"}, EXIT_NEGATIVE
    check = verify_interpolation(gamma, inner, outer,
                                 count=inst.options.verify_samples,
                                 rng=np.random.default_rng(inst.options.seed))
    doc = {
        **base,
        "verdict": "interpolated",
        "x_star": jsonable(gamma.functional.x_star),
        "alpha": gamma.functional.alpha,
        "alpha_interval": list(gamma.certificate.alpha_interval),
        "family": sorted(gamma.family_flags),
        "verification": jsonable(check),
    }
    if not check.ok:
        doc["verdict"] = "inconclusive"
        return doc, EXIT_INCONCLUSIVE
    return doc, EXIT_SEPARATED


def boundary_equivalence_report(C, K, tol: float):
    """``separation.boundary_equivalence_report``, looked up on its module at
    each call, so that a wrapper set there (a tracer's span) sees the call."""
    return separation.boundary_equivalence_report(C, K, tol=tol)


def cmd_check(inst: Instance, args) -> tuple[dict, int]:
    name_c, name_k = args.pair
    report = boundary_equivalence_report(
        inst.region(name_c), inst.region(name_k), tol=inst.options.tol
    )
    doc = {"report": args.report, "pair": [name_c, name_k], **jsonable(report)}
    if not report.consistent:
        doc["verdict"] = "defect"
        return doc, EXIT_INCONCLUSIVE
    doc["verdict"] = "separated" if all(report.conditions) else "not_separated"
    return doc, EXIT_SEPARATED if all(report.conditions) else EXIT_NEGATIVE


def cmd_oracle(inst: Instance, args) -> tuple[dict, int]:
    name_c, name_k = args.pair
    resolution = inst.options.resolution
    res = oracle_separation(
        inst.region(name_c), inst.region(name_k), resolution=resolution
    )
    doc = {
        "pair": [name_c, name_k],
        "resolution": resolution,
        "verdict": "separated" if res.separated else "not_separated",
        "direction": jsonable(res.direction),
        "interval": list(res.interval),
        "margin": res.margin,
    }
    return doc, EXIT_SEPARATED if res.separated else EXIT_NEGATIVE


def cmd_render(inst: Instance, args) -> tuple[dict, int]:
    cert = load_certificate(args.certificate) if args.certificate else None
    regions = inst.regions
    text = render_svg(regions, order=list(regions), certificate=cert)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceError(f"{args.out}: {exc.strerror or exc}") from None
    return {"out": args.out, "verdict": "rendered"}, EXIT_SEPARATED


_COMMANDS = {
    "separate": cmd_separate,
    "base": cmd_base,
    "interpolate": cmd_interpolate,
    "check": cmd_check,
    "render": cmd_render,
    "oracle": cmd_oracle,
}


def _evaluate(path: str, args) -> tuple[dict, int]:
    try:
        inst = load_instance(path)
        if inst.norm is not Norm.EUCLIDEAN:
            raise InstanceError(
                "the distance engine supports only the euclidean norm"
            )
        # a flag the subcommand lacks (only oracle has --resolution) is None;
        # without one set, the options stand as parsing checked them
        flags = {f.name: v for f in fields(InstanceOptions)
                 if (v := getattr(args, f.name, None)) is not None}
        if flags:
            inst = replace(inst, options=replace(inst.options, **flags))
        doc, code = _COMMANDS[args.command](inst, args)
    except Inconclusive as exc:
        doc, code = {"verdict": "inconclusive", "error": str(exc)}, EXIT_INCONCLUSIVE
    except InstanceError as exc:
        doc, code = {"verdict": "error", "error": str(exc)}, EXIT_INPUT
    except ConesepError as exc:
        doc, code = (
            {"verdict": "error", "error": f"{type(exc).__name__}: {exc}"},
            EXIT_INPUT,
        )
    return {"command": args.command, "instance": path, **doc}, code


def _add_common(sub, multi: bool = True) -> None:
    sub.add_argument("instance", nargs="+" if multi else None,
                     help="instance file (JSON)")
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--verify-samples", type=int, default=None,
                     dest="verify_samples")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conesep",
        description="strict separation of cones by Bishop-Phelps cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="separation certificate for a pair")
    _add_common(p)
    p.add_argument("--mode", choices=("nonsym", "sym", "bidir"),
                   default="nonsym")
    p.add_argument("--pair", type=_pair, required=True, metavar="C,K")

    p = sub.add_parser("base", help="well-basedness / convex base certificates")
    _add_common(p)
    p.add_argument("--cone", required=True)

    p = sub.add_parser("interpolate", help="squeeze a cone between nested cones")
    _add_common(p)
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)

    p = sub.add_parser("check", help="boundary equivalence report")
    _add_common(p)
    p.add_argument("--report", choices=("bd-equivalence",),
                   default="bd-equivalence")
    p.add_argument("--pair", type=_pair, required=True, metavar="C,K")

    p = sub.add_parser("render", help="draw a 2-D instance as SVG")
    _add_common(p, multi=False)
    p.add_argument("--out", required=True)
    p.add_argument("--certificate", default=None,
                   help="certificate document to overlay")

    p = sub.add_parser("oracle", help="sampled separation verdict")
    _add_common(p)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--pair", type=_pair, required=True, metavar="C,K")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; returns the worst exit code of its files.

    The parser is built once per process and serves every later call:
    parsing keeps no state on it, and building it costs more than parsing.
    """
    args = _parser().parse_args(argv)
    paths = args.instance if isinstance(args.instance, list) else [args.instance]
    if len(paths) == 1:
        doc, code = _evaluate(paths[0], args)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return code
    results = [_evaluate(p, args) for p in paths]
    for doc, _ in results:
        print(json.dumps(doc, sort_keys=True))
    return max(code for _, code in results)


if __name__ == "__main__":
    sys.exit(main())
