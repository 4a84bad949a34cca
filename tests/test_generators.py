"""Tests for the curve generators."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sqpeg.cli import _dumps, main
from sqpeg.generators import (
    make_circle,
    make_ellipse,
    make_fourier_curve,
    make_random_jordan,
    make_regular_polygon,
    make_star_polygon,
    make_trefoil,
)


def test_circle_and_ellipse_shapes():
    c = make_circle(2.0, 100)
    assert c.closed and c.num_vertices == 100
    assert np.allclose(np.linalg.norm(c.vertices, axis=1), 2.0)
    e = make_ellipse(2.0, 1.0, 64)
    assert np.allclose((e.vertices[:, 0] / 2.0) ** 2 + e.vertices[:, 1] ** 2, 1.0)


def test_regular_polygon_total_curvature():
    hexa = make_regular_polygon(6)
    assert abs(hexa.total_curvature() - 2 * math.pi) < 1e-12


def test_star_polygon_is_closed_and_spiky():
    star = make_star_polygon(5, 1.0, 0.4)
    assert star.closed and star.num_vertices == 10
    assert star.total_curvature() > 2 * math.pi + 1.0


def test_trefoil_matches_parametrization():
    tre = make_trefoil(8)
    t = 2 * math.pi * np.arange(8) / 8
    expected = np.column_stack(
        [np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t), -np.sin(3 * t)]
    )
    assert np.allclose(tre.vertices, expected)
    assert tre.dimension == 3


def test_trefoil_curvature_stable_under_refinement():
    coarse = make_trefoil(1024)
    fine = make_trefoil(10240)
    assert abs(coarse.total_curvature() - fine.total_curvature()) < 1e-3


def test_fourier_curve_circle_special_case():
    c = make_fourier_curve([[1.0], [0.0]], [[0.0], [1.0]], samples=64)
    assert np.allclose(np.linalg.norm(c.vertices, axis=1), 1.0)


def test_random_jordan_embedded_and_deterministic():
    a = make_random_jordan(128, seed=9)
    b = make_random_jordan(128, seed=9)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.is_embedded(0.0)
    c = make_random_jordan(128, seed=10)
    assert not np.array_equal(a.vertices, c.vertices)


# the dispatch `sqpeg generate` used before it called the make_* builders
# directly, kept as the reference for its bytes; `s` has samples, seed, params
_BUILDERS = {
    "circle": lambda s: make_circle(s.params.get("radius", 1.0), s.samples or 360),
    "ellipse": lambda s: make_ellipse(s.params.get("a", 2.0), s.params.get("b", 1.0),
                                      s.samples or 512),
    "regular_polygon": lambda s: make_regular_polygon(int(s.params.get("sides", 6)),
                                                      s.params.get("radius", 1.0)),
    "star_polygon": lambda s: make_star_polygon(int(s.params.get("points", 5)),
                                                s.params.get("r_outer", 1.0),
                                                s.params.get("r_inner", 0.5)),
    "fourier": lambda s: make_fourier_curve(s.params["cos_coeffs"], s.params["sin_coeffs"],
                                            s.samples or 512),
    "trefoil": lambda s: make_trefoil(s.samples or 1024, s.params.get("scale", 1.0)),
    "random_jordan": lambda s: make_random_jordan(s.samples or 256, s.seed,
                                                  int(s.params.get("harmonics", 5)),
                                                  s.params.get("amplitude", 0.35)),
}
_COEFFS = {"cos_coeffs": "[[1, 0, 0.2], [0, 0.3, 0], [0, 0, 0.4]]",
           "sin_coeffs": "[[0, 0.3, 0], [1, 0, 0.2], [0, 0.5, 0]]"}
# per kind: the options it always gets, then each accepted option's test value
_CASES = {
    "circle": ({}, {"radius": "2.5", "samples": "40"}),
    "ellipse": ({}, {"a": "3", "b": "0.5", "samples": "40"}),
    "regular_polygon": ({}, {"sides": "9", "radius": "2"}),
    "star_polygon": ({}, {"points": "7", "r_outer": "2", "r_inner": "0.3"}),
    "fourier": (_COEFFS, {"samples": "40"}),
    "trefoil": ({}, {"samples": "40", "scale": "2"}),
    "random_jordan": ({}, {"samples": "40", "harmonics": "3", "amplitude": "0.2", "seed": "7"}),
}
_INT_OPTIONS = {"samples", "sides", "points", "harmonics", "seed"}


def _reference_bytes(kind, options):
    params = {k: json.loads(v) if k in _COEFFS else int(v) if k in _INT_OPTIONS else float(v)
              for k, v in options.items()}
    spec = SimpleNamespace(samples=params.pop("samples", 0), seed=params.pop("seed", 0),
                           params=params)
    return (_dumps(_BUILDERS[kind](spec).to_json_dict()) + "\n").encode()


def _generate(tmp_path, kind, options):
    out = tmp_path / "curve.json"
    argv = ["--out", str(out), "generate", kind]
    for name, value in options.items():
        flag = ["--" + name.replace("_", "-"), value]
        argv = flag + argv if name == "seed" else argv + flag
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind, (_, accepted) in _CASES.items() for option in [None, *accepted]])
def test_generate_writes_the_reference_bytes(tmp_path, kind, option):
    always, accepted = _CASES[kind]
    options = dict(always, **({option: accepted[option]} if option else {}))
    assert _generate(tmp_path, kind, options) == _reference_bytes(kind, options)


@pytest.mark.parametrize("argv, message", [
    (["circle", "--samples", "0"], "generation failed: need at least 3 vertices"),
    (["random_jordan", "--samples", "-4"], "generation failed: need at least 3 vertices"),
    (["ellipse", "--radius", "5"], "generate ellipse takes no --radius"),
    (["circle", "--from-file", "c.json"], "generate circle takes no --from-file"),
    (["file", "--from-file", "c.json", "--samples", "5"], "generate file takes no --samples"),
    (["regular_polygon", "--samples", "8", "--r-inner", "1"],
     "generate regular_polygon takes no --r-inner, --samples"),
    (["fourier", "--samples", "8"], "fourier needs both --cos-coeffs and --sin-coeffs"),
    (["fourier", "--cos-coeffs", "[[1], [0]]"], "fourier needs both"),
    (["fourier", "--cos-coeffs", "5", "--sin-coeffs", "5"], "generation failed"),
])
def test_generate_refuses_bad_options(capsys, argv, message):
    assert main(["generate", *argv]) == 1
    assert message in capsys.readouterr().err
