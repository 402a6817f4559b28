import json

import numpy as np
import pytest

from conesep.errors import InstanceError
from conesep.geometry import Norm
from conesep.instances import (
    certificate_to_doc,
    doc_to_certificate,
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


def test_facets_round_trip():
    text = """
    {"dim": 2, "cones": {"C": {"pieces": [{"generators": [[3, 0], [0, 5]],
     "facets": [[1, 0], [0, 1]]}]}}}
    """
    s1 = serialize_instance(parse_instance(text))
    assert "facets" in s1
    assert s1 == serialize_instance(parse_instance(s1))


def test_facets_round_trip_keeps_one_normal_per_row():
    # four facets in R^3: written transposed, the normals re-parse as three
    # vectors of length 4
    text = """
    {"dim": 3, "cones": {"C": {"pieces": [{
     "generators": [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
     "facets": [[-1, -1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, 1]]}]}}}
    """
    inst = parse_instance(text)
    again = parse_instance(serialize_instance(inst))
    assert np.array_equal(again.regions["C"].single_cone().facet_normals,
                          inst.regions["C"].single_cone().facet_normals)


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
    with pytest.raises(InstanceError, match=r"unknown field 'rays' in cones\.C\.pieces\[0\]"):
        parse_instance(
            '{"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]], "rays": []}]}}}'
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
])
def test_bad_option_values_name_the_option(name, value):
    text = json.dumps({"dim": 2, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}},
                       "options": {name: value}})
    with pytest.raises(InstanceError, match=rf"options\.{name}: expected"):
        parse_instance(text)


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
    with pytest.raises(InstanceError, match="'dim' must be a positive integer"):
        parse_instance('{"dim": 2.5, "cones": {"C": {"pieces": [{"generators": [[1, 0]]}]}}}')
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
