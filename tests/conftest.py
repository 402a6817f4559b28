import pytest

from conesep import geometry


@pytest.fixture
def refuse_facets(monkeypatch):
    """A call that makes facet enumeration raise from then on: every read
    of a cone's facet description, cached or not, goes through
    ``geometry._inspan_hrep``, and every facet cone through
    ``geometry.facets``.  Build a complement before the call, since its
    normals come from that description."""
    def refuse(*args, **kwargs):
        raise AssertionError("facet enumeration was called")

    def install():
        monkeypatch.setattr(geometry, "_inspan_hrep", refuse)
        monkeypatch.setattr(geometry, "facets", refuse)

    return install
