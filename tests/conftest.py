"""Session fixtures shared by the acceptance suite."""

import pytest
from hypothesis import settings

from sqpeg.curve import PolyCurve
from sqpeg.generators import (
    make_circle,
    make_ellipse,
    make_random_jordan,
    make_trefoil,
    make_unit_square,
)
from sqpeg.solver import find_quads

SCALENE_TRIANGLE = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]

# property tests run the same small example set on every run: no clock
# deadline on a shared host, no example database written into the tree
settings.register_profile("sqpeg", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("sqpeg")


@pytest.fixture(scope="session")
def corpus():
    """The closed-curve corpus used by the acceptance criteria."""
    return {
        "square": make_unit_square(),
        "circle360": make_circle(1.0, 360),
        "ellipse512": make_ellipse(2.0, 1.0, 512),
        "trefoil512": make_trefoil(512),
        "jordan11": make_random_jordan(256, seed=11, amplitude=1.0, harmonics=6),
        "triangle345": PolyCurve(SCALENE_TRIANGLE, closed=True),
        "jordan42_64": make_random_jordan(64, seed=42),
    }


@pytest.fixture(scope="session")
def corpus_solutions(corpus):
    """find_quads output for every corpus curve (drives several criteria)."""
    import warnings

    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, curve in corpus.items():
            out[name] = find_quads(curve)
    return out
