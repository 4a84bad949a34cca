"""Test-corpus curve generators: conics, polygons, Fourier curves, a trefoil,
and rejection-sampled random Jordan curves.

The defaults of the make_* signatures are the defaults of `sqpeg generate`,
which passes a builder only the options that were given.
"""

from __future__ import annotations

import numpy as np

from .curve import PolyCurve

__all__ = [
    "make_circle",
    "make_ellipse",
    "make_regular_polygon",
    "make_star_polygon",
    "make_fourier_curve",
    "make_trefoil",
    "make_random_jordan",
    "make_unit_square",
    "make_stairstep",
    "make_diagonal",
]


def make_circle(radius: float = 1.0, samples: int = 360) -> PolyCurve:
    t = 2.0 * np.pi * np.arange(samples) / samples
    return PolyCurve(np.column_stack([radius * np.cos(t), radius * np.sin(t)]), closed=True)


def make_ellipse(a: float = 2.0, b: float = 1.0, samples: int = 512) -> PolyCurve:
    t = 2.0 * np.pi * np.arange(samples) / samples
    return PolyCurve(np.column_stack([a * np.cos(t), b * np.sin(t)]), closed=True)


def make_regular_polygon(sides: int = 6, radius: float = 1.0) -> PolyCurve:
    t = 2.0 * np.pi * np.arange(sides) / sides
    return PolyCurve(np.column_stack([radius * np.cos(t), radius * np.sin(t)]), closed=True)


def make_star_polygon(points: int = 5, r_outer: float = 1.0, r_inner: float = 0.5) -> PolyCurve:
    if r_inner <= 0 or r_outer <= r_inner:
        raise ValueError("need 0 < r_inner < r_outer")
    t = np.pi * np.arange(2 * points) / points
    r = np.where(np.arange(2 * points) % 2 == 0, r_outer, r_inner)
    return PolyCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]), closed=True)


def make_fourier_curve(cos_coeffs, sin_coeffs, samples: int = 512) -> PolyCurve:
    """Closed curve with coordinate j given by
    sum_k cos_coeffs[j][k] cos((k+1) t) + sin_coeffs[j][k] sin((k+1) t).

    cos_coeffs and sin_coeffs are per-coordinate arrays of harmonic
    amplitudes; their outer length fixes the ambient dimension.
    """
    cos_coeffs = [np.asarray(c, dtype=float) for c in cos_coeffs]
    sin_coeffs = [np.asarray(c, dtype=float) for c in sin_coeffs]
    if len(cos_coeffs) != len(sin_coeffs) or len(cos_coeffs) < 2:
        raise ValueError("need matching per-coordinate coefficient arrays, dimension >= 2")
    t = 2.0 * np.pi * np.arange(samples) / samples
    cols = []
    for cc, sc in zip(cos_coeffs, sin_coeffs):
        x = np.zeros_like(t)
        for k, amp in enumerate(cc):
            x += amp * np.cos((k + 1) * t)
        for k, amp in enumerate(sc):
            x += amp * np.sin((k + 1) * t)
        cols.append(x)
    return PolyCurve(np.column_stack(cols), closed=True)


def make_trefoil(samples: int = 1024, scale: float = 1.0) -> PolyCurve:
    """Closed 3D curve (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t),
    sampled uniformly in t."""
    t = 2.0 * np.pi * np.arange(samples) / samples
    pts = np.column_stack(
        [
            np.sin(t) + 2.0 * np.sin(2.0 * t),
            np.cos(t) - 2.0 * np.cos(2.0 * t),
            -np.sin(3.0 * t),
        ]
    )
    return PolyCurve(scale * pts, closed=True)


def make_random_jordan(samples: int = 256, seed: int = 0, harmonics: int = 5,
                       amplitude: float = 0.35, retries: int = 32) -> PolyCurve:
    """Random embedded plane curve: a unit circle plus a random trigonometric
    polynomial, rejection-sampled against self-intersection.

    Deterministic for a fixed seed.  The perturbation amplitude is halved on
    each failed attempt, so termination is certain for any sane input.
    """
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(samples) / samples
    for attempt in range(retries):
        amp = amplitude * (0.5 ** attempt)
        x = np.cos(t)
        y = np.sin(t)
        for k in range(2, 2 + harmonics):
            scale = amp / (k * k)
            x = x + scale * (rng.standard_normal() * np.cos(k * t)
                             + rng.standard_normal() * np.sin(k * t))
            y = y + scale * (rng.standard_normal() * np.cos(k * t)
                             + rng.standard_normal() * np.sin(k * t))
        curve = PolyCurve(np.column_stack([x, y]), closed=True)
        if curve.is_embedded(0.0):
            return curve
    raise RuntimeError("random Jordan generator exhausted its retries")


def make_unit_square() -> PolyCurve:
    return PolyCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], closed=True)


def make_stairstep(k: int) -> PolyCurve:
    """Open staircase from (0,0) to (1,1) with k steps of width/height 1/k.

    The classic curve that converges to the diagonal in Frechet distance but
    not in length; its total curvature grows without bound in k.
    """
    if k < 1:
        raise ValueError("need at least one step")
    pts = [(0.0, 0.0)]
    for i in range(k):
        pts.append(((i + 1) / k, i / k))
        pts.append(((i + 1) / k, (i + 1) / k))
    return PolyCurve(pts, closed=False)


def make_diagonal(samples: int = 2) -> PolyCurve:
    """The diagonal of the unit square, sampled with `samples` vertices."""
    f = np.linspace(0.0, 1.0, samples)
    return PolyCurve(np.column_stack([f, f]), closed=False)
