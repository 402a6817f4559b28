import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conesep import cli, separation
from conesep.cli import build_parser, main


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _sector(center_deg, half_deg):
    lo = math.radians(center_deg - half_deg)
    hi = math.radians(center_deg + half_deg)
    return [[math.cos(lo), math.sin(lo)], [math.cos(hi), math.sin(hi)]]


@pytest.fixture
def rays(tmp_path):
    return _write(tmp_path, "rays.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": [[0, 1]]}]},
            "K": {"pieces": [{"generators": [[1, 0]]}]},
        },
    })


@pytest.fixture
def sector_vs_line_pair(tmp_path):
    return _write(tmp_path, "sector_vs_line_pair.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": _sector(90, 10)}]},
            "K": {"kind": "union",
                  "pieces": [{"generators": [[1, 0]]},
                             {"generators": [[-1, 0]]}]},
        },
    })


@pytest.fixture
def identical(tmp_path):
    orthant = {"pieces": [{"generators": [[1, 0], [0, 1]]}]}
    return _write(tmp_path, "identical.json", {
        "dim": 2, "cones": {"C": orthant, "K": dict(orthant)},
    })


@pytest.fixture
def bidir(tmp_path):
    return _write(tmp_path, "bidir.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": [[1, 0], [1, 1]]}]},
            "K": {"pieces": [{"generators": [[-1, 1]]}]},
        },
    })


@pytest.fixture
def nest(tmp_path):
    return _write(tmp_path, "nest.json", {
        "dim": 2,
        "cones": {
            "W": {"pieces": [{"generators": [[-1, 1], [1, 1]]}]},
            "H": {"pieces": [{"generators": [[1, 0], [-1, 0], [0, 1]]}]},
        },
    })


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_separate_rays(capsys, rays):
    code, doc = _run(capsys, ["separate", rays, "--pair", "C,K"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert doc["mode"] == "nonsym"
    cert = doc["certificate"]
    assert cert["orientation"] == "CfromK"
    assert cert["alpha_interval"][0] == pytest.approx(0.0, abs=1e-9)
    assert cert["alpha_interval"][1] == pytest.approx(1.0, abs=1e-9)
    assert cert["x_star"] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert doc["verification"]["ok"] is True
    assert doc["verification"]["enclosed_violations"] == 0
    assert doc["verification"]["excluded_violations"] == 0


def test_separate_identical_sym(capsys, identical):
    code, doc = _run(capsys, ["separate", identical, "--mode", "sym",
                              "--pair", "C,K"])
    assert code == 1
    assert doc["verdict"] == "not_separated"
    assert doc["certificate"] is None


def test_separate_both_orders(capsys, sector_vs_line_pair):
    code, doc = _run(capsys, ["separate", sector_vs_line_pair, "--pair", "C,K"])
    assert code == 0
    assert doc["certificate"]["orientation"] == "CfromK"

    code, doc = _run(capsys, ["separate", sector_vs_line_pair, "--pair", "K,C"])
    assert code == 1
    assert doc["verdict"] == "not_separated"


def test_separate_bidir(capsys, bidir):
    code, doc = _run(capsys, ["separate", bidir, "--mode", "bidir",
                              "--pair", "C,K"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert doc["cfromk"]["certificate"] is not None
    assert doc["kfromc"]["certificate"] is not None
    assert doc["linear"] is not None


def test_thin_gap_is_inconclusive(capsys, tmp_path):
    path = _write(tmp_path, "thin.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": [[1, 5e-9]]}]},
            "K": {"pieces": [{"generators": [[1, 0]]}]},
        },
    })
    code, doc = _run(capsys, ["separate", path, "--pair", "C,K"])
    assert code == 2
    assert doc["verdict"] == "inconclusive"
    assert "dead-band" in doc["error"]


@pytest.mark.parametrize("mode", ["nonsym", "sym"])
def test_rays_1e13_apart_separate_at_tol_1e15(capsys, tmp_path, mode):
    # 1 - cos(1e-13) rounds to 0; the gap of 1e-13 is still certified
    path = _write(tmp_path, "tight.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": [[1, 0]]}]},
            "K": {"pieces": [{"generators": [[math.cos(1e-13), math.sin(1e-13)]]}]},
        },
    })
    code, doc = _run(capsys, ["separate", path, "--mode", mode, "--tol", "1e-15",
                              "--pair", "C,K"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert doc["certificate"]["alpha_interval"] == pytest.approx([0.0, 1e-13], abs=1e-16)
    assert doc["verification"]["ok"] is True


@pytest.mark.parametrize("command", [["separate", "--mode", "nonsym"],
                                     ["separate", "--mode", "sym"],
                                     ["check", "--report", "bd-equivalence"]])
def test_cone_within_rounding_of_a_line_is_inconclusive(capsys, tmp_path, command):
    # K holds C's ray through (g1 + g2) / 1e-15, yet sampling cannot see it;
    # the verdict is structural, at any tol
    path = _write(tmp_path, "near_line.json", {
        "dim": 3,
        "cones": {
            "C": {"pieces": [{"generators": [[0.7, 1.3, 1.0]]}]},
            "K": {"pieces": [{"generators": [[1, 0, 0], [-1, 1e-15, 0], [0, 0, 1]]}]},
        },
    })
    for tol in ("1e-6", "1e-15"):
        code, doc = _run(capsys, [command[0], path, *command[1:], "--tol", tol,
                                  "--pair", "C,K"])
        assert code == 2
        assert doc["verdict"] == "inconclusive"
        assert "within rounding of opposite" in doc["error"]


def test_non_euclidean_rejected(capsys, tmp_path):
    path = _write(tmp_path, "l1.json", {
        "dim": 2, "norm": "l1",
        "cones": {
            "C": {"pieces": [{"generators": [[0, 1]]}]},
            "K": {"pieces": [{"generators": [[1, 0]]}]},
        },
    })
    code, doc = _run(capsys, ["separate", path, "--pair", "C,K"])
    assert code == 3
    assert doc["error"] == "the distance engine supports only the euclidean norm"


def test_render_rejects_non_euclidean(capsys, tmp_path):
    path = _write(tmp_path, "l1.json", {
        "dim": 2, "norm": "l1",
        "cones": {
            "C": {"pieces": [{"generators": [[0, 1]]}]},
            "K": {"pieces": [{"generators": [[1, 0]]}]},
        },
    })
    out = tmp_path / "out.svg"
    code, doc = _run(capsys, ["render", path, "--out", str(out)])
    assert code == 3
    assert doc["error"] == "the distance engine supports only the euclidean norm"
    assert not out.exists()


def _cross_5d(t):
    # the cone over a cross-polytope of radius t about e5
    rays = []
    for i in range(4):
        for s in (1.0, -1.0):
            ray = [0.0, 0.0, 0.0, 0.0, 1.0]
            ray[i] = s * t
            rays.append(ray)
    return rays


def test_separate_from_a_5d_complement(capsys, tmp_path):
    # the complement's facets are enumerated in 5-D, so the file gets a
    # verdict instead of exiting 3 with DimensionTooHigh
    path = _write(tmp_path, "complement5.json", {
        "dim": 5,
        "cones": {
            "C": {"pieces": [{"generators": _cross_5d(0.2)}]},
            "K": {"kind": "complement", "pieces": [{"generators": _cross_5d(0.8)}]},
        },
    })
    code, doc = _run(capsys, ["separate", path, "--pair", "C,K",
                              "--verify-samples", "200"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert doc["verification"]["ok"]


def test_missing_file(capsys, tmp_path):
    code, doc = _run(capsys, ["separate", str(tmp_path / "nope.json"),
                              "--pair", "C,K"])
    assert code == 3
    assert doc["verdict"] == "error"
    assert "nope.json" in doc["error"]


def test_unknown_cone_name(capsys, rays):
    code, doc = _run(capsys, ["separate", rays, "--pair", "C,Z"])
    assert code == 3
    assert "no cone named 'Z'" in doc["error"]


def test_bad_pair_usage_exits_3(rays):
    with pytest.raises(SystemExit) as exc:
        main(["separate", rays, "--pair", "only-one-name"])
    assert exc.value.code == 3


def test_unknown_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_one_parser_serves_repeated_calls(capsys, rays):
    first = _run(capsys, ["separate", rays, "--pair", "C,K"])
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # a usage error after a flag that has been parsed leaves no trace of it
    with pytest.raises(SystemExit) as exc:
        main(["separate", rays, "--mode", "sym", "--pair", "only-one-name"])
    assert exc.value.code == 3
    capsys.readouterr()
    again = _run(capsys, ["separate", rays, "--pair", "C,K"])
    assert again == first and again[1]["mode"] == "nonsym"
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_batch_ndjson_and_exit_max(capsys, rays, identical):
    code = main(["separate", rays, identical, "--mode", "sym",
                 "--pair", "C,K"])
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert len(lines) == 2
    by_path = {doc["instance"]: doc for doc in lines}
    assert by_path[rays]["verdict"] == "separated"
    assert by_path[identical]["verdict"] == "not_separated"


def test_batch_bad_option_file_exits_3(capsys, tmp_path, rays, identical):
    bad = _write(tmp_path, "bad.json", {
        "dim": 2,
        "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]},
                  "K": {"pieces": [{"generators": [[0, 1]]}]}},
        "options": {"verify_samples": 0},
    })
    code = main(["separate", rays, bad, identical, "--pair", "C,K"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 3
    by_path = {doc["instance"]: doc for doc in lines}
    assert by_path[rays]["verdict"] == "separated"
    assert by_path[identical]["verdict"] == "not_separated"
    assert by_path[bad]["verdict"] == "error"
    assert "options.verify_samples" in by_path[bad]["error"]


@pytest.mark.parametrize("argv", [
    ["separate", "--pair", "C,K", "--tol", "-1"],
    ["separate", "--pair", "C,K", "--tol", "nan"],
    ["separate", "--pair", "C,K", "--seed", "-3"],
    ["separate", "--pair", "C,K", "--verify-samples", "0"],
    ["oracle", "--pair", "C,K", "--resolution", "0"],
    ["separate", "--pair", "C,K", "--verify-samples", "100000000000"],
    ["oracle", "--pair", "C,K", "--resolution", "1e-7"],
])
def test_bad_option_flag_exits_3(capsys, rays, identical, argv):
    code = main([argv[0], rays, identical, *argv[1:]])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 3
    assert [doc["verdict"] for doc in lines] == ["error", "error"]
    name = argv[-2].lstrip("-").replace("-", "_")
    assert all(f"options.{name}" in doc["error"] for doc in lines)


def test_option_flag_overrides_file(capsys, tmp_path):
    path = _write(tmp_path, "opts.json", {
        "dim": 2,
        "cones": {"C": {"pieces": [{"generators": _sector(90, 10)}]},
                  "K": {"pieces": [{"generators": [[1, 0]]}]}},
        "options": {"resolution": 0.5, "verify_samples": 7},
    })
    code, doc = _run(capsys, ["oracle", path, "--pair", "C,K"])
    assert code == 0 and doc["resolution"] == 0.5
    code, doc = _run(capsys, ["oracle", path, "--pair", "C,K",
                              "--resolution", "2"])
    assert code == 0 and doc["resolution"] == 2.0
    code, doc = _run(capsys, ["separate", path, "--pair", "C,K",
                              "--verify-samples", "11"])
    assert code == 0
    assert doc["verification"]["enclosed_count"] == 11


def test_base_on_complement_solves_once(capsys, tmp_path, monkeypatch):
    from conesep import basis

    path = _write(tmp_path, "complement.json", {
        "dim": 2,
        "cones": {"C": {"kind": "complement",
                        "pieces": [{"generators": _sector(90, 30)}]}},
    })
    calls = []
    solve = basis.body_distance

    def counted(*a, **kw):
        calls.append(1)
        return solve(*a, **kw)

    monkeypatch.setattr(basis, "body_distance", counted)
    code, doc = _run(capsys, ["base", path, "--cone", "C"])
    assert len(calls) == 1
    assert code == 1
    assert doc["well_based"]["kind"] == "NotWellBased"
    assert doc["convex_base"]["kind"] == "NoConvexBase"


def test_base_on_a_nonpointed_cone_in_r10_is_not_well_based(capsys):
    # 28 rays in x0 > 0 and a line in x0 = 0.  Once the solve has certified
    # "not well based", the witness pair is one NNLS membership test on the
    # generators; the cone's facet description would hold over MAX_DD_RAYS
    # rays and raise DimensionTooHigh
    path = str(Path(__file__).parent / "data" / "nonpointed_d10.json")
    code, doc = _run(capsys, ["base", path, "--cone", "C"])
    assert code == 1
    assert doc["verdict"] == "not_well_based"
    p, q = doc["well_based"]["witness_pair"]
    assert np.array_equal(q, -np.asarray(p))
    assert doc["convex_base"]["witness_pair"] == [p, q]


def test_batch_prints_one_line_per_file(capsys, rays, identical):
    code = main(["separate", rays, identical, rays, "--mode", "sym",
                 "--pair", "C,K"])
    out = capsys.readouterr().out
    assert code == 1
    assert len(out.strip().splitlines()) == 3


def test_base_command(capsys, tmp_path):
    path = _write(tmp_path, "base.json", {
        "dim": 2,
        "cones": {
            "C": {"pieces": [{"generators": [[1, 0], [0, 1]]}]},
            "H": {"pieces": [{"generators": [[1, 0], [-1, 0], [0, 1]]}]},
        },
    })
    code, doc = _run(capsys, ["base", path, "--cone", "C"])
    assert code == 0
    assert doc["verdict"] == "well_based"
    assert doc["well_based"]["kind"] == "WellBased"
    assert doc["well_based"]["base_vertices"] is not None
    assert doc["convex_base"]["kind"] == "ConvexBase"

    code, doc = _run(capsys, ["base", path, "--cone", "H"])
    assert code == 1
    assert doc["verdict"] == "not_well_based"
    assert doc["well_based"]["witness_points"] is not None


def test_interpolate_command(capsys, nest):
    code, doc = _run(capsys, ["interpolate", nest, "--inner", "W",
                              "--outer", "H"])
    assert code == 0
    assert doc["verdict"] == "interpolated"
    assert doc["x_star"] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert doc["verification"]["ok"] is True

    # boundary contact: a cone cannot be strictly nested inside itself
    code, doc = _run(capsys, ["interpolate", nest, "--inner", "H",
                              "--outer", "H"])
    assert code == 1
    assert doc["verdict"] == "not_interpolated"


def test_interpolate_command_between_two_one_dimensional_rays(capsys, tmp_path):
    # the base of a cone in R^1 is one point, which the check samples
    path = _write(tmp_path, "rays.json", {
        "dim": 1,
        "cones": {
            "A": {"pieces": [{"generators": [[1]]}]},
            "B": {"pieces": [{"generators": [[2]]}]},
        },
    })
    code, doc = _run(capsys, ["interpolate", path, "--inner", "A",
                              "--outer", "B"])
    assert code == 0
    assert doc["verdict"] == "interpolated"
    assert doc["verification"]["ok"] is True


def test_check_command(capsys, sector_vs_line_pair, identical):
    code, doc = _run(capsys, ["check", sector_vs_line_pair, "--report",
                              "bd-equivalence", "--pair", "C,K"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert all(doc["conditions"])
    assert doc["consistent"] is True

    code, doc = _run(capsys, ["check", identical, "--report",
                              "bd-equivalence", "--pair", "C,K"])
    assert code == 1
    assert not any(doc["conditions"])
    assert doc["consistent"] is True


def test_check_in_one_dimension_is_an_error(capsys, tmp_path):
    # every boundary in R^1 is {0}, so the boundary forms have no base, even
    # for a pair that form 1 separates
    path = _write(tmp_path, "line.json", {
        "dim": 1,
        "cones": {
            "C": {"pieces": [{"generators": [[1]]}]},
            "K": {"pieces": [{"generators": [[-1]]}]},
        },
    })
    code, doc = _run(capsys, ["check", path, "--pair", "C,K"])
    assert code == 3
    assert doc["verdict"] == "error"
    assert doc["error"] == ("TrivialRegion: the boundary of a ray in R^1 is {0}, "
                            "whose base is empty")


def _failing(monkeypatch, module, name, **fields):
    # the real report of module.<name>, with fields overridden, set on the
    # module the CLI looks the name up on
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: dataclasses.replace(
        real(*a, **k), **fields))


@pytest.mark.parametrize("mode", ["nonsym", "sym", "bidir"])
def test_separate_failed_verification_is_inconclusive(capsys, bidir,
                                                      monkeypatch, mode):
    _failing(monkeypatch, cli, "verify_certificate", ok=False)
    code, doc = _run(capsys, ["separate", bidir, "--mode", mode,
                              "--pair", "C,K"])
    assert code == 2
    assert doc["verdict"] == "inconclusive"
    assert "error" not in doc


def test_interpolate_failed_verification_is_inconclusive(capsys, nest,
                                                         monkeypatch):
    _failing(monkeypatch, cli, "verify_interpolation", ok=False)
    code, doc = _run(capsys, ["interpolate", nest, "--inner", "W",
                              "--outer", "H"])
    assert code == 2
    assert doc["verdict"] == "inconclusive"
    assert doc["verification"]["ok"] is False


def test_check_defect_is_inconclusive(capsys, sector_vs_line_pair, monkeypatch):
    _failing(monkeypatch, separation, "boundary_equivalence_report",
             conditions=(True, True, False, True, True), consistent=False)
    code, doc = _run(capsys, ["check", sector_vs_line_pair, "--report",
                              "bd-equivalence", "--pair", "C,K"])
    assert code == 2
    assert doc["verdict"] == "defect"
    assert doc["consistent"] is False


def test_oracle_command(capsys, rays, identical):
    code, doc = _run(capsys, ["oracle", rays, "--pair", "C,K",
                              "--resolution", "0.5"])
    assert code == 0
    assert doc["verdict"] == "separated"
    assert doc["direction"] is not None
    assert doc["margin"] > 0

    code, doc = _run(capsys, ["oracle", identical, "--pair", "C,K"])
    assert code == 1
    assert doc["verdict"] == "not_separated"


def test_render_plain_and_with_certificate(capsys, sector_vs_line_pair, tmp_path):
    out = tmp_path / "out.svg"
    code, doc = _run(capsys, ["render", sector_vs_line_pair, "--out", str(out)])
    assert code == 0
    assert doc["verdict"] == "rendered"
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")

    # feed a separate run's emitted document straight back as the overlay
    code, sep_doc = _run(capsys, ["separate", sector_vs_line_pair, "--pair", "C,K"])
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(sep_doc))
    out2 = tmp_path / "out_cert.svg"
    code, doc = _run(capsys, ["render", sector_vs_line_pair, "--out", str(out2),
                              "--certificate", str(cert_path)])
    assert code == 0
    plain = out.read_text()
    overlaid = out2.read_text()
    ET.fromstring(overlaid)
    assert len(overlaid) > len(plain)


def test_render_is_deterministic(capsys, sector_vs_line_pair, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _run(capsys, ["render", sector_vs_line_pair, "--out", str(a)])
    _run(capsys, ["render", sector_vs_line_pair, "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_render_to_an_unwritable_path_is_an_input_error(capsys, sector_vs_line_pair,
                                                        tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.svg"
    code, doc = _run(capsys, ["render", sector_vs_line_pair, "--out", str(out)])
    assert code == 3
    assert doc["verdict"] == "error"
    assert str(out) in doc["error"]
    assert not out.exists()


def test_check_calls_the_report_through_the_separation_module(
        capsys, sector_vs_line_pair, monkeypatch):
    # a wrapper set on the separation module, as a tracer's span is, sees
    # every call the check command makes
    calls = []
    real = separation.boundary_equivalence_report

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(separation, "boundary_equivalence_report", counted)
    code, doc = _run(capsys, ["check", sector_vs_line_pair, "--pair", "C,K"])
    assert code == 0 and doc["verdict"] == "separated"
    assert len(calls) == 1


def test_rays_whose_squared_norm_leaves_the_float_range_parse(capsys, tmp_path):
    # (1e200)^2 overflows and (1e-200)^2 underflows; either ray is the
    # direction (1, 0), so every document matches the plain file's
    def doc(x):
        return {"dim": 2, "cones": {
            "C": {"pieces": [{"generators": [[x, 0.0], [1.0, 1.0]]}]},
            "K": {"pieces": [{"generators": [[-1.0, 0.2], [-1.0, 1.0]]}]}}}

    plain = _write(tmp_path, "plain.json", doc(1.0))
    for x in (1e200, 1e-200):
        path = _write(tmp_path, f"ray_{x}.json", doc(x))
        for argv in (["separate", "--pair", "C,K"], ["base", "--cone", "C"]):
            code, got = _run(capsys, [argv[0], path, *argv[1:]])
            ref_code, ref = _run(capsys, [argv[0], plain, *argv[1:]])
            assert code == ref_code == 0
            assert {**got, "instance": None} == {**ref, "instance": None}


def _around(axis, t, d=10):
    # four rays t off the axis, in the plane of the axis and its successors
    rays = []
    for i in range(4):
        ray = [0.0] * d
        ray[axis] = 1.0
        ray[(axis + 1 + i) % d] = t if i % 2 == 0 else -t
        rays.append(ray)
    return rays


def test_an_unused_cone_fails_only_the_command_that_reads_it(capsys, tmp_path):
    # a 30-ray complement in R^10 needs a facet enumeration beyond
    # geometry.MAX_DD_RAYS; commands on C and K never build it
    d = 10
    rng = np.random.default_rng(0)
    cones = {"C": {"pieces": [{"generators": _around(0, 0.3)}]},
             "K": {"pieces": [{"generators": [[-r[0]] + r[1:] for r in _around(0, 0.3)]}]}}
    plain = _write(tmp_path, "plain.json", {"dim": d, "cones": cones})
    X = np.column_stack([rng.standard_normal((30, d - 1)), np.ones(30)])
    with_x = _write(tmp_path, "with_x.json", {"dim": d, "cones": {
        **cones, "X": {"kind": "complement", "pieces": [{"generators": X.tolist()}]}}})
    for argv in (["separate", "--mode", "nonsym", "--pair", "C,K"],
                 ["separate", "--mode", "sym", "--pair", "C,K"],
                 ["check", "--pair", "C,K"],
                 ["base", "--cone", "C"]):
        code, doc = _run(capsys, [argv[0], plain, *argv[1:]])
        code_x, doc_x = _run(capsys, [argv[0], with_x, *argv[1:]])
        assert code != 3
        assert code_x == code
        del doc["instance"], doc_x["instance"]
        assert doc_x == doc
    code, doc = _run(capsys, ["base", with_x, "--cone", "X"])
    assert code == 3
    assert doc["error"].startswith("DimensionTooHigh: ")


@pytest.mark.parametrize("edit", [{"x_star": [0, 0]}, {"x_star": [1.0, float("nan")]},
                                  {"witnesses": [[0, 1], [1, 0, 0]]},
                                  {"alpha": float("inf")}])
def test_render_rejects_a_degenerate_certificate(capsys, sector_vs_line_pair, tmp_path,
                                                 edit):
    code, sep_doc = _run(capsys, ["separate", sector_vs_line_pair, "--pair", "C,K"])
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({**sep_doc["certificate"], **edit}))
    out = tmp_path / "out.svg"
    code, doc = _run(capsys, ["render", sector_vs_line_pair, "--out", str(out),
                              "--certificate", str(cert_path)])
    assert code == 3
    assert doc["verdict"] == "error"
    assert doc["error"].startswith("malformed certificate document: ")
    assert not out.exists()

