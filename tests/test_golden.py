"""Golden outputs for the consumers of the four region kinds.

The SVG renderer and the norm-base sampler both treat every leaf kind
(piece, union, complement, boundary) on its own terms.  These tests pin
their exact output on the ``MIXED`` instance, which holds one region of
each kind, so a change to the leaf code that moves a single bit shows up.

To re-record after an intended output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
from pathlib import Path

import numpy as np

from conesep.instances import parse_instance
from conesep.oracle import sample_norm_base
from conesep.svg import render_svg
from test_instances import MIXED

DATA = Path(__file__).parent / "data"
SVG_PATH = DATA / "mixed.svg"
SAMPLES_PATH = DATA / "mixed_samples.json"


def _samples() -> dict:
    inst = parse_instance(MIXED)
    return {
        name: {
            "count": sample_norm_base(
                region, count=200, rng=np.random.default_rng(0)
            ).points.tolist(),
            "resolution": sample_norm_base(region, resolution=5.0).points.tolist(),
        }
        for name, region in sorted(inst.regions.items())
    }


def _svg() -> str:
    return render_svg(parse_instance(MIXED).regions)


def test_mixed_svg_matches_golden():
    assert _svg() == SVG_PATH.read_text(encoding="utf-8")


def test_mixed_samples_match_golden():
    # JSON floats round-trip exactly, so == is a bit-for-bit comparison
    assert _samples() == json.loads(SAMPLES_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    SVG_PATH.write_text(_svg(), encoding="utf-8")
    SAMPLES_PATH.write_text(json.dumps(_samples()) + "\n", encoding="utf-8")
