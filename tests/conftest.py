"""Shared fixtures and seeded matrix generators for the test suite."""
import numpy as np
import pytest
from hypothesis import settings

from hessform import Mode
from hessform.linalg import inf_norm

# every property test draws the same examples on every run
settings.register_profile("hessform", derandomize=True, deadline=None)
settings.load_profile("hessform")

# 3x3 pair whose discrete-time controller form is provably infeasible even
# though the matrix itself is similar to a nonnegative Hessenberg matrix
INFEASIBLE_DT_A = np.array([[0.0, 0.0, 14.0],
                            [0.0, 6.0, 0.0],
                            [15.0, 4.0, 6.0]])
INFEASIBLE_DT_B = np.array([1.0, 1.0, 0.0])

# planar projections of the first ten iterates of the pair above, plus limit
INFEASIBLE_DT_POINTS = [
    (5.0000000e-01, 0.0000000e+00),
    (2.4000000e-01, 7.6000000e-01),
    (8.1818182e-02, 3.1363636e-01),
    (3.0379747e-02, 6.9789030e-01),
    (9.9401749e-03, 4.5724804e-01),
    (3.4601522e-03, 6.2515018e-01),
    (1.1464765e-03, 5.1553759e-01),
    (3.9146805e-04, 5.8886733e-01),
    (1.3090841e-04, 5.4039031e-01),
    (4.4372480e-05, 5.7255958e-01),
]
INFEASIBLE_DT_LIMIT = (0.0, 0.55973)


def random_metzler(rng, n):
    """Off-diagonal uniform [-5, 5] clipped at zero, diagonal uniform [-5, 5]."""
    A = rng.uniform(-5.0, 5.0, size=(n, n))
    off = ~np.eye(n, dtype=bool)
    A[off] = np.maximum(A[off], 0.0)
    return A


def random_nonneg(rng, n):
    A = random_metzler(rng, n)
    np.fill_diagonal(A, np.maximum(np.diag(A), 0.0))
    return A


def random_rank_one_shift(rng, n):
    """Member of the family c (u v^T - s I) with u, v > 0."""
    u = rng.uniform(0.1, 2.0, size=n)
    v = rng.uniform(0.1, 2.0, size=n)
    s = rng.uniform(0.0, float(np.min(u * v)))
    c = rng.uniform(0.1, 3.0)
    return c * (np.outer(u, v) - s * np.eye(n))


def random_irreducible_nonneg(rng, n):
    """Strictly positive entries, hence irreducible."""
    return rng.uniform(0.05, 5.0, size=(n, n))


def random_psd_nonneg(rng, n):
    """B^T B with B >= 0: nonnegative, symmetric, spectrum in R_{>=0}."""
    B = rng.uniform(0.0, 1.0, size=(n, n))
    return B.T @ B


def in_witness_triangle(v0, p, q, u, tol=1e-7):
    """Whether the point u lies in the triangle (v0, p, q) up to tol; v0 and u are
    coordinate pairs, p and q the SimplexPoint witnesses of a cover decision."""
    verts = np.array([v0, (p.x, p.y), (q.x, q.y)])
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    area2 = float(d1[0] * d2[1] - d1[1] * d2[0])
    u = np.array(u)
    if abs(area2) < 1e-14:
        a, b = verts[0], verts[1] if np.linalg.norm(verts[1] - verts[0]) > 1e-14 else verts[2]
        d = b - a
        L = np.linalg.norm(d)
        if L < 1e-14:
            return np.linalg.norm(u - a) <= tol
        t = np.clip((u - a) @ d / L**2, 0.0, 1.0)
        return np.linalg.norm(u - (a + t * d)) <= tol
    if area2 < 0:
        verts = verts[[0, 2, 1]]
    inside = True
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        edge = b - a
        inward = np.array([-edge[1], edge[0]]) / np.linalg.norm(edge)
        inside = inside and (u - a) @ inward >= 0.0
    if inside:
        return True
    # outside: the Euclidean distance to the nearest edge segment, since a
    # half-plane test passes points behind the apex of a thin triangle
    dist = []
    for i in range(3):
        a, d = verts[i], verts[(i + 1) % 3] - verts[i]
        t = np.clip((u - a) @ d / (d @ d), 0.0, 1.0)
        dist.append(np.linalg.norm(u - (a + t * d)))
    return min(dist) <= tol


def structure_scale(A):
    return max(1.0, inf_norm(A))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {report.outcome.upper()}", flush=True)
