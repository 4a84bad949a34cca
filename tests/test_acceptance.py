"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import random_cusp_free_polygon, random_star_polygon
import sqpeg
from sqpeg.approx import convergence_report, fillet_smooth, inscribe_polygon, \
    verify_length_bound
from sqpeg.generators import (
    make_circle,
    make_diagonal,
    make_ellipse,
    make_stairstep,
)
from sqpeg.pidist import pi_distance, verify_quad_arc_curvature
from sqpeg.quad import Quad, make_square_like
from sqpeg.solver import brute_force_oracle, find_quads, symmetry_distance

ELLIPSE_SIDE = 4.0 / math.sqrt(5.0)


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} - {description}")
    assert ok, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# 1. open-turning identity suite over the generated square-like family
# ---------------------------------------------------------------------------

def _batched_rotations(count, dim, rng):
    m = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.einsum("kii->ki", r))[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


def test_criterion_01_open_turning_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    rot3 = _batched_rotations(10_000, 3, rng)
    rot2 = _batched_rotations(10_000, 2, rng)
    thetas = rng.uniform(1e-4, math.pi / 4, 10_000)
    sides = rng.uniform(0.5, 2.0, 10_000)
    shifts = rng.standard_normal((10_000, 3))
    ok = True
    for trial in range(10_000):
        if trial % 10 == 0:
            theta = math.pi / 4  # exact planar cases throughout the run
            dim = 2 if trial % 20 == 0 else 3
        else:
            theta = float(thetas[trial])
            dim = 3
        rot = rot2[trial] if dim == 2 else rot3[trial]
        quad = make_square_like(theta, side=float(sides[trial]), dim=dim,
                                rotation=rot, translation=shifts[trial][:dim])
        ot = quad.open_turning()
        ok &= abs(ot - (2 * math.pi - 4 * theta)) <= 1e-9
        ok &= ot >= math.pi - 1e-9
        ok &= (abs(ot - math.pi) <= 1e-9) == quad.is_planar_square(1e-9)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, f"open turning = 2pi-4theta, >= pi, = pi iff planar square "
              f"(10^4 quads, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 2. regular tetrahedron values
# ---------------------------------------------------------------------------

def test_criterion_02_regular_tetrahedron():
    gen = make_square_like(math.pi / 6, side=1.0)
    explicit = Quad.from_points(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / math.sqrt(8)
    )
    ok = True
    for quad in (gen, explicit):
        ok &= abs(quad.theta() - math.pi / 6) <= 1e-12
        ok &= abs(quad.open_turning() - 4 * math.pi / 3) <= 1e-12
        ok &= float(np.max(np.abs(quad.residual()))) <= 1e-12
    report(2, "tetrahedron: theta = pi/6, open turning = 4pi/3, residual = 0", ok)


# ---------------------------------------------------------------------------
# 3. total curvature of closed polygons is at least 2*pi
# ---------------------------------------------------------------------------

def test_criterion_03_fenchel_property():
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(1000):
        z = 0.2 if trial % 3 == 0 else 0.0  # mix planar and lifted polygons
        poly = random_star_polygon(rng, 10, 200, z_jitter=z)
        if trial % 50 == 0:
            ok &= poly.is_embedded(0.0)
        ok &= poly.total_curvature() >= 2 * math.pi - 1e-9
        if not ok:
            break
    report(3, "1000 random closed polygons carry total curvature >= 2pi", ok)


# ---------------------------------------------------------------------------
# 4. corner rounding preserves total curvature exactly
# ---------------------------------------------------------------------------

def test_criterion_04_fillet_curvature_preservation():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(1000):
        poly = random_cusp_free_polygon(rng, 6, 50)
        sm = fillet_smooth(poly, float(rng.uniform(0.01, 0.4)))
        ok &= abs(sm.total_curvature() - poly.total_curvature()) <= 1e-12
        if not ok:
            break
    report(4, "1000 random fillets preserve total curvature to 1e-12", ok)


# ---------------------------------------------------------------------------
# 5. Frechet/total-curvature length bound across the corpus
# ---------------------------------------------------------------------------

def test_criterion_05_length_bound(corpus):
    t0 = time.perf_counter()
    ok = True
    for name in ("square", "circle360", "ellipse512", "trefoil512", "jordan11"):
        curve = corpus[name]
        coarse = inscribe_polygon(curve, 24)
        ok &= verify_length_bound(curve, coarse)["holds"]
        radius = 0.02 * curve.length
        smooth = fillet_smooth(coarse, radius)
        resampled = smooth.sample(curve.length / 96.0)
        ok &= verify_length_bound(coarse, resampled)["holds"]
    for k in (4, 16, 64, 256):
        rec = verify_length_bound(make_stairstep(k), make_diagonal(k + 1))
        ok &= rec["holds"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(5, f"length bound holds on inscriptions, smoothed resamples, "
              f"stairsteps ({elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 6. ellipse: one solution class at the analytic side length
# ---------------------------------------------------------------------------

def test_criterion_06_ellipse_target(corpus):
    t0 = time.perf_counter()
    sol = find_quads(corpus["ellipse512"])
    elapsed = time.perf_counter() - t0
    ok = len(sol.solutions) == 1
    side = float(np.mean(sol.solutions[0].sides)) if sol.solutions else math.nan
    ok &= abs(side - ELLIPSE_SIDE) <= 1e-4
    ok &= elapsed < 60.0
    report(6, f"ellipse 512-gon: exactly one class, side {side:.6f} vs "
              f"{ELLIPSE_SIDE:.6f} ({elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 7. circle: the full family sits at sqrt(2) on an L/4 progression
# ---------------------------------------------------------------------------

def test_criterion_07_circle_target(corpus_solutions, corpus):
    circle = corpus["circle360"]
    L = circle.length
    sol = corpus_solutions["circle360"]
    ok = len(sol.solutions) >= 1
    for s in sol.solutions:
        ok &= float(np.max(np.abs(s.sides - math.sqrt(2.0)))) <= 1e-6
        gaps = np.diff(np.append(s.params, s.params[0] + L))
        ok &= float(np.max(np.abs(gaps - L / 4.0))) <= L / 24.0
    report(7, f"circle 360-gon: {len(sol.solutions)} solutions, all sides at "
              "sqrt(2) +- 1e-6 on an L/4 progression", ok)


# ---------------------------------------------------------------------------
# 8. exhaustive oracle agrees with the solver cluster-for-cluster
# ---------------------------------------------------------------------------

def test_criterion_08_oracle_equivalence(corpus, corpus_solutions):
    ok = True
    m = 24
    for name in ("ellipse512", "triangle345", "jordan11"):
        curve = corpus[name]
        L = curve.length
        sol = corpus_solutions[name]
        orc = brute_force_oracle(curve, m=m, tol=0.3)
        ok &= len(orc.solutions) >= 1 and len(sol.solutions) >= 1
        dedup = L / 24.0
        for o in orc.solutions:
            ok &= min(symmetry_distance(o.params, s.params, L)
                      for s in sol.solutions) < dedup
        for s in sol.solutions:
            if float(np.mean(s.sides)) < 4.0 * L / m:
                continue
            ok &= min(symmetry_distance(o.params, s.params, L)
                      for o in orc.solutions) < dedup
    report(8, "oracle and solver clusters match on ellipse, triangle, and a "
              "random embedded curve", ok)


# ---------------------------------------------------------------------------
# 9. every reported solution carries arc curvature >= pi
# ---------------------------------------------------------------------------

def test_criterion_09_arc_curvature_mechanism(corpus, corpus_solutions, ellipse_ngon_runs):
    ok = True
    checked = 0
    for name, sol in corpus_solutions.items():
        curve = corpus[name]
        for s in sol.solutions:
            ok &= s.arc_kappa_ok
            ok &= verify_quad_arc_curvature(curve, s.params, 1e-6)
            checked += 1
    for approx, sol, _ in ellipse_ngon_runs:
        for s in sol.solutions:
            ok &= verify_quad_arc_curvature(approx, s.params, 1e-6)
            checked += 1
    ok &= checked > 0
    report(9, f"arc curvature >= pi - 1e-6 for all {checked} solutions emitted "
              "across the corpus", ok)


# ---------------------------------------------------------------------------
# 10. pi-distance: capped circle diameter; literal degeneracy documented
# ---------------------------------------------------------------------------

def test_criterion_10_pi_distance(corpus):
    circle = corpus["circle360"]
    L = circle.length
    step = L / 720.0
    capped = pi_distance(circle, mode="capped", cap=L / 2.0, step=step)
    ok = abs(capped.value - 2.0) <= 0.02

    for name in ("square", "circle360", "ellipse512", "trefoil512", "jordan11"):
        curve = corpus[name]
        s = curve.length / 720.0
        lit = pi_distance(curve, mode="literal", step=s)
        ok &= lit.value is not None and lit.value <= 2.0 * s
        ok &= lit.witness.arclen >= curve.length - 3.0 * s
        ok &= lit.witness.kappa >= math.pi - 1e-12
    report(10, f"capped circle pi-distance {capped.value:.4f} ~ 2.0; literal "
               "mode degenerates near-full-wrap on every closed curve", ok)


# ---------------------------------------------------------------------------
# 11. convergence experiment on the ellipse with a circle control
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def ellipse_ngon_runs():
    import warnings

    dense = make_ellipse(2.0, 1.0, 4096)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (16, 32, 64, 128, 256, 512):
            approx = inscribe_polygon(dense, n)
            sol = find_quads(approx)
            rep = convergence_report(dense, approx, dyadic_depth=6, index=n)
            runs.append((approx, sol, rep))
    return runs


def test_criterion_11_convergence_experiment(ellipse_ngon_runs):
    reports = [rep for _, _, rep in ellipse_ngon_runs]
    ok = True
    for r1, r2 in zip(reports, reports[1:]):
        ok &= r2.position_err < r1.position_err
        ok &= r2.length_err < r1.length_err
        ok &= r2.curvature_err < r1.curvature_err

    circle = make_circle(1.0, 4096)
    for n in (16, 32, 64, 128, 256, 512):
        rep = convergence_report(circle, inscribe_polygon(circle, n), dyadic_depth=3)
        sagitta = 1.0 - math.cos(math.pi / n)
        ok &= abs(rep.position_err - sagitta) <= 0.1 * sagitta

    min_sides = []
    for _, sol, rep in ellipse_ngon_runs:
        ok &= len(sol.solutions) >= 1
        min_sides.append(min(float(np.mean(s.sides)) for s in sol.solutions))
    ok &= all(s >= 0.5 for s in min_sides)
    ok &= abs(min_sides[-1] - ELLIPSE_SIDE) <= 1e-3
    report(11, f"errors strictly decrease over N = 16..512; min side "
               f"{min_sides[-1]:.5f} -> {ELLIPSE_SIDE:.5f}, never below 0.5", ok)


# ---------------------------------------------------------------------------
# 12. byte-identical CLI reruns
# ---------------------------------------------------------------------------

def _cli(args, tmp):
    """Run `python -m sqpeg.cli ARGS` in TMP with the test run's own sqpeg.

    The directory holding the imported package goes first on the child's
    PYTHONPATH, so a relative `PYTHONPATH=src` or an install both work from
    any working directory.
    """
    env = dict(os.environ)
    pkg_root = str(Path(sqpeg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "sqpeg.cli"] + args
    return subprocess.run(cmd, capture_output=True, cwd=str(tmp), env=env)


def test_criterion_12_cli_determinism(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))

    def invocations(tag):
        jordan = tmp_path / f"jordan_{tag}.json"
        circle = tmp_path / f"circle_{tag}.json"
        return [
            (["--seed", "42", "--out", str(jordan),
              "generate", "random_jordan", "--samples", "64"], jordan),
            (["--seed", "42", "--out", str(circle),
              "generate", "circle", "--samples", "72"], circle),
            (["--seed", "42", "--out",
              str(tmp_path / f"analyze_{tag}.json"), "analyze", str(square)],
             tmp_path / f"analyze_{tag}.json"),
            (["--seed", "42", "--out",
              str(tmp_path / f"find_{tag}.json"), "find", str(jordan),
              "--csv", str(tmp_path / f"find_{tag}.csv")],
             tmp_path / f"find_{tag}.json"),
            (["--seed", "42", "--out",
              str(tmp_path / f"conv_{tag}.csv"), "converge", str(circle),
              "--n-list", "8,12", "--grid-m", "12", "--dyadic-depth", "4"],
             tmp_path / f"conv_{tag}.csv"),
            (["--seed", "42", "--out",
              str(tmp_path / f"frechet_{tag}.json"), "frechet", str(circle),
              str(circle)], tmp_path / f"frechet_{tag}.json"),
        ]

    ok = True
    outputs = {}
    for tag in ("a", "b"):
        for args, outfile in invocations(tag):
            proc = _cli(args, tmp_path)
            artifacts = {outfile} | {Path(a) for a in args if a.endswith(".csv")}
            missing = sorted(str(p) for p in artifacts if not p.exists())
            if proc.returncode not in (0, 2) or missing:
                pytest.fail(
                    f"{' '.join(proc.args)} exited {proc.returncode}"
                    + (f", missing {', '.join(missing)}" if missing else "")
                    + f"; stderr:\n{proc.stderr.decode(errors='replace')}")
            for path in artifacts:
                key = path.name.replace(f"_{tag}", "")
                outputs.setdefault(key, []).append(path.read_bytes())
    for key, blobs in outputs.items():
        ok &= len(blobs) == 2 and blobs[0] == blobs[1]
    report(12, "every CLI command is byte-identical across reruns "
               f"({len(outputs)} artifacts compared)", ok)
