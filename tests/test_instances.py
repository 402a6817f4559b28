import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from conesep.errors import InstanceError, NotSolid, TrivialRegion
from conesep.geometry import Norm
from conesep.instances import (
    certificate_to_doc,
    doc_to_certificate,
    jsonable,
    load_certificate,
    load_instance,
    parse_instance,
    serialize_instance,
)
from conesep.geometry import make_polycone
from conesep.regions import ConeRegion
from conesep.separation import separate_nonsym

MIXED = """
{
  "dim": 2,
  "cones": {
    "C": {"kind": "convex", "pieces": [{"generators": [[2, 0], [2, 2]]}]},
    "K": {"kind": "union", "pieces": [{"generators": [[1, 0]]}, {"generators": [[-1, 0]]}]},
    "H": {"kind": "complement", "pieces": [{"generators": [[1, 0], [0, 1], [1, 1]]}]},
    "B": {"kind": "boundary", "pieces": [{"generators": [[0, 1], [1, 1]]}]}
  },
  "options": {"seed": 3}
}
"""


def test_parse_mixed_instance():
    inst = parse_instance(MIXED)
    assert inst.dim == 2
    assert inst.norm is Norm.EUCLIDEAN
    assert sorted(inst.regions) == ["B", "C", "H", "K"]
    assert inst.kinds == {
        "B": "boundary", "C": "convex", "H": "complement", "K": "union",
    }
    assert inst.options.seed == 3
    assert inst.options.tol == 1e-9
    assert inst.options.verify_samples == 1000


def test_serialize_parse_fixpoint():
    s1 = serialize_instance(parse_instance(MIXED))
    s2 = serialize_instance(parse_instance(s1))
    assert s1 == s2
    # canonical form: sorted cone names, unit generators
    doc = json.loads(s1)
    assert list(doc["cones"]) == sorted(doc["cones"])
    for entry in doc["cones"].values():
        for piece in entry["pieces"]:
            for g in piece["generators"]:
                assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)


def test_kind_defaults_to_convex():
    inst = parse_instance('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}}}')
    assert inst.kinds["C"] == "convex"


def test_unknown_field_top_level():
    with pytest.raises(InstanceError, match="unknown field 'cromulent' in the top level"):
        parse_instance('{"dim": 2, "cones": {}, "cromulent": 1}')


def test_unknown_field_cone_level():
    with pytest.raises(InstanceError, match="unknown field 'color' in cones.C"):
        parse_instance(
            '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}], "color": "red"}}}'
        )


def test_unknown_field_piece_level():
    # a piece is its generators alone: facet normals are always enumerated
    for field in ("rays", "facets"):
        with pytest.raises(InstanceError,
                           match=rf"unknown field '{field}' in cones\.C\.pieces\[0\]"):
            parse_instance(
                '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]], '
                f'"{field}": [[0, 1]]}}]}}}}}}'
            )


def test_unknown_field_options():
    with pytest.raises(InstanceError, match="unknown field 'fast' in options"):
        parse_instance(
            '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}},'
            ' "options": {"fast": true}}'
        )


@pytest.mark.parametrize("name, value", [
    ("tol", "abc"),
    ("tol", -1),
    ("tol", 0),
    ("tol", 1e400),
    ("tol", True),
    ("resolution", 0),
    ("resolution", None),
    ("verify_samples", 0),
    ("verify_samples", 2.5),
    ("verify_samples", False),
    ("seed", None),
    ("seed", -3),
    ("seed", "1"),
    ("verify_samples", 10**6 + 1),
    ("verify_samples", 100000000000),
    ("resolution", 0.0999),
    ("resolution", 1e-7),
])
def test_bad_option_values_name_the_option(name, value):
    text = json.dumps({"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}},
                       "options": {name: value}})
    with pytest.raises(InstanceError, match=rf"options\.{name}: expected"):
        parse_instance(text)


def test_sample_option_bounds_are_inclusive():
    inst = parse_instance(
        '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}},'
        ' "options": {"resolution": 0.1, "verify_samples": 1000000}}'
    )
    assert inst.options.resolution == 0.1
    assert inst.options.verify_samples == 10**6


def test_option_values_are_converted_and_kept():
    inst = parse_instance(
        '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}},'
        ' "options": {"tol": 1, "resolution": 2, "seed": 0, "verify_samples": 1}}'
    )
    assert inst.options.tol == 1.0 and type(inst.options.tol) is float
    assert type(inst.options.resolution) is float
    assert json.loads(serialize_instance(inst))["options"] == {
        "tol": 1.0, "resolution": 2.0, "seed": 0, "verify_samples": 1}


def test_json_error_reports_line_and_column():
    with pytest.raises(InstanceError,
                       match="line 1 column 2: Expecting property name"):
        parse_instance("{'dim': 2}")
    with pytest.raises(InstanceError, match="line 1 column 21: Expecting value"):
        parse_instance('{"dim": 2, "cones": }')
    with pytest.raises(InstanceError, match="line 3 column"):
        parse_instance('{\n "dim": 2,\n "cones" {}\n}')


def test_dim_mismatch_names_the_piece():
    with pytest.raises(
            InstanceError,
            match=r"cones\.C\.pieces\[0\]\.generators: vectors have length 3, dim is 2"):
        parse_instance('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0, 0]]}]}}}')


def test_bad_documents():
    with pytest.raises(InstanceError, match="top level must be a mapping"):
        parse_instance("[1, 2]")
    for dim in ("2.5", "true", "false"):
        with pytest.raises(InstanceError, match="'dim' must be a positive integer"):
            parse_instance('{"dim": %s, "cones": {"C": {"pieces": [{"generators": [[1]]}]}}}'
                           % dim)
    with pytest.raises(InstanceError, match="unknown norm 'manhattan'"):
        parse_instance('{"dim": 2, "norm": "manhattan",'
                       ' "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}}}')
    with pytest.raises(InstanceError, match="'cones' must be a non-empty mapping"):
        parse_instance('{"dim": 2, "cones": {}}')
    with pytest.raises(InstanceError, match=r"cones\.C\.pieces\[0\]: a piece needs generators"):
        parse_instance('{"dim": 2, "cones": {"C": {"pieces": [{}]}}}')
    with pytest.raises(InstanceError, match=r"cones\.C: kind 'convex' takes exactly one piece"):
        parse_instance('{"dim": 2, "cones": {"C": {"pieces":'
                       ' [{"generators": [[1, 0]]}, {"generators": [[0, 1]]}]}}}')
    with pytest.raises(InstanceError, match=r"cones\.C\.kind: 'spiral' is not one of"):
        parse_instance('{"dim": 2, "cones": {"C": {"kind": "spiral",'
                       ' "pieces": [{"generators": [[1, 0]]}]}}}')


def test_a_cone_is_built_only_when_it_is_read():
    # a complement of a non-solid cone and a boundary in R^1 parse, and so
    # do the file's other cones; the fault is raised by reading that cone
    flat = {"kind": "complement", "pieces": [{"generators": [[1, 0], [-1, 0]]}]}
    inst = parse_instance(json.dumps({"dim": 2, "cones": {
        "C": {"pieces": [{"generators": [[1, 1]]}]}, "X": flat}}))
    assert inst.kinds == {"C": "convex", "X": "complement"}
    assert inst.region("C").single_cone() is inst.pieces["C"][0]
    with pytest.raises(NotSolid):
        inst.region("X")
    with pytest.raises(NotSolid):
        inst.regions
    assert json.loads(serialize_instance(inst))["cones"]["X"]["kind"] == "complement"
    line = parse_instance('{"dim": 1, "cones": {"B": {"kind": "boundary",'
                          ' "pieces": [{"generators": [[1]]}]}}}')
    with pytest.raises(TrivialRegion):
        line.region("B")


def test_regions_are_every_cone_in_file_order():
    inst = parse_instance(MIXED)
    assert list(inst.regions) == list(inst.kinds) == ["C", "K", "H", "B"]


def test_region_lookup_error():
    inst = parse_instance(MIXED)
    with pytest.raises(InstanceError, match="instance has no cone named 'Z'"):
        inst.region("Z")


def test_load_instance_prefixes_path(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2, "cones": {}, "junk": 0}')
    with pytest.raises(InstanceError, match=r"bad\.json.*unknown field 'junk'"):
        load_instance(str(p))
    with pytest.raises(InstanceError, match="missing"):
        load_instance(str(tmp_path / "missing.json"))


def _ray_cert():
    C = ConeRegion.piece(make_polycone([[0.0, 1.0]]))
    K = ConeRegion.piece(make_polycone([[1.0, 0.0]]))
    cert = separate_nonsym(C, K)
    assert cert is not None
    return cert


def test_certificate_doc_round_trip():
    cert = _ray_cert()
    doc = certificate_to_doc(cert)
    back = doc_to_certificate(json.loads(json.dumps(doc)))
    assert back.orientation is cert.orientation
    assert np.array_equal(back.x_star, cert.x_star)
    assert back.alpha == cert.alpha
    assert back.alpha_interval == cert.alpha_interval
    assert back.distance == cert.distance
    assert np.array_equal(back.witnesses[0], cert.witnesses[0])
    assert np.array_equal(back.witnesses[1], cert.witnesses[1])
    assert back.family == cert.family
    assert back.iterations == cert.iterations


def test_load_certificate_plain_and_nested(tmp_path):
    cert = _ray_cert()
    doc = certificate_to_doc(cert)

    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    assert load_certificate(str(plain)).alpha == cert.alpha

    # command output embeds the certificate under a "certificate" key
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"command": "separate", "verdict": "separated",
                                  "certificate": doc}))
    loaded = load_certificate(str(nested))
    assert loaded.alpha == cert.alpha
    assert loaded.family == cert.family


def test_load_certificate_malformed(tmp_path):
    p = tmp_path / "cert.json"
    p.write_text('{"orientation": "CfromK"}')
    with pytest.raises(InstanceError, match="malformed certificate document"):
        load_certificate(str(p))
    p.write_text("{nope}")
    with pytest.raises(InstanceError, match="line 1 column 2"):
        load_certificate(str(p))


@pytest.mark.parametrize("edit, match", [
    ({"x_star": [0.0, 0.0]}, "x_star must be a finite, nonzero vector"),
    ({"x_star": [0.0, float("nan")]}, "x_star must be a finite, nonzero vector"),
    ({"x_star": [float("inf"), 1.0]}, "x_star must be a finite, nonzero vector"),
    ({"x_star": []}, "x_star must be a finite, nonzero vector"),
    ({"x_star": [[0.0, 1.0]]}, "x_star must be a finite, nonzero vector"),
    ({"x_star": 1.0}, "x_star must be a finite, nonzero vector"),
    ({"witnesses": [[0.0, 1.0], [1.0, 0.0, 0.0]]}, "the witnesses must have x_star's length"),
    ({"witnesses": [[0.0, 1.0], 1.0]}, "the witnesses must have x_star's length"),
    ({"alpha": float("inf")}, "alpha must be finite"),
    ({"alpha": float("nan")}, "alpha must be finite"),
    ({"alpha": 10 ** 400}, "int too large"),
])
def test_degenerate_certificates_are_malformed(edit, match):
    doc = {**certificate_to_doc(_ray_cert()), **edit}
    with pytest.raises(InstanceError, match=f"malformed certificate document: {match}"):
        doc_to_certificate(doc)


class _Colour(Enum):
    RED = "red"


@dataclass(frozen=True)
class _Inner:
    flag: np.bool_
    values: np.ndarray


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    tags: frozenset
    colour: _Colour
    missing: None
    pairs: tuple


def test_jsonable_converts_each_kind():
    cases = [
        (True, True, bool), (False, False, bool),
        (np.bool_(True), True, bool),
        (np.float64(0.1), 0.1, float), (np.float32(0.5), 0.5, float),
        (np.int64(-7), -7, int), (1.5, 1.5, float), (3, 3, int),
        ("x", "x", str), (None, None, type(None)), (_Colour.RED, "red", str),
        (frozenset({"b", "a"}), ["a", "b"], list),
    ]
    for value, want, kind in cases:
        got = jsonable(value)
        assert type(got) is kind and got == want, value
    doc = jsonable(_Outer(
        inner=_Inner(np.bool_(False), np.array([1.0, -0.0])),
        tags=frozenset({"z", "y"}), colour=_Colour.RED, missing=None,
        pairs=(np.int64(2), [np.float64(2.5), "s"]),
    ))
    assert doc == {"inner": {"flag": False, "values": [1.0, -0.0]},
                   "tags": ["y", "z"], "colour": "red", "missing": None,
                   "pairs": [2, [2.5, "s"]]}
    assert type(doc["inner"]["flag"]) is bool
    assert [type(v) for v in doc["pairs"]] == [int, list]
    assert json.dumps(doc, sort_keys=True) == json.dumps(jsonable(doc), sort_keys=True)


@pytest.mark.parametrize("text, match", [
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [["a", 0]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: not a numeric matrix"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0], [1]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: not a numeric matrix"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": []}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: expected a non-empty list of vectors"),
    ('{"dim": 2, "cones": {"C": {"pieces": [[1, 0]]}}}',
     r"cones\.C\.pieces\[0\]: a piece must be a mapping"),
    ('{"dim": 2, "cones": {"C": [1, 0]}}', r"cones\.C: a cone entry must be a mapping"),
    ('{"dim": 2, "cones": {"C": {"pieces": {"generators": [[1, 0]]}}}}',
     r"cones\.C\.pieces: expected a non-empty list"),
    ('{"dim": 2, "cones": {"C": {"pieces": []}}}', r"cones\.C\.pieces: expected a non-empty list"),
    ('{"cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}}}',
     "instance needs 'dim' and 'cones'"),
    ('{"dim": 2}', "instance needs 'dim' and 'cones'"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}}, "options": [1]}',
     "'options' must be a mapping"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [["1", 0]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: not a numeric matrix"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[true, 0]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: not a numeric matrix"),
    pytest.param(
        '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1%s, 0]]}]}}}' % ("0" * 400),
        r"cones\.C\.pieces\[0\]\.generators: not a numeric matrix", id="int-beyond-floats"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0], [0, 0]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: generator rays must be nonzero finite"),
    ('{"dim": 2, "cones": {"K": {"kind": "union", "pieces": [{"generators": [[1, 0]]},'
     ' {"generators": [[1e400, 0]]}]}}}',
     r"cones\.K\.pieces\[1\]\.generators: generator rays must be nonzero finite"),
    ('{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[NaN, 1]]}]}}}',
     r"cones\.C\.pieces\[0\]\.generators: generator rays must be nonzero finite"),
])
def test_rejected_documents_name_the_fault(text, match):
    with pytest.raises(InstanceError, match=match):
        parse_instance(text)


def test_load_instance_on_an_unreadable_path(tmp_path):
    # a directory cannot be read as a file
    with pytest.raises(InstanceError, match=str(tmp_path)):
        load_instance(str(tmp_path))
