"""Randomized cross-checks of the one orbit routine, ``groups._orbit_roots``,
and of the intertwiner basis it builds, against plain closures.

A root is checked against the least point of the orbit that
``bruteforce.closure_orbit`` grows from each point; the intertwiner basis
is checked matrix for matrix, in order, against cell orbits grown one
closure at a time from the cells in row-major order.
"""

import itertools
import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isodrum.groups import _orbit_roots, _rows, is_transitive_on
from isodrum.permutations import Permutation
from isodrum.transplant import intertwiner_basis

from bruteforce import closure_orbit

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def image_rows(draw, max_degree=9):
    """(degree, rows): up to three permutations, each a product of a few
    random transpositions (often intransitive) or a random shuffle."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_degree))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        img = list(range(n))
        if rng.random() < 0.3:
            rng.shuffle(img)
        else:
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randrange(n), rng.randrange(n)
                img[a], img[b] = img[b], img[a]
        rows.append(img)
    return n, _rows(rows, n)


def root_faults(rows, roots):
    """Points whose root is not the least point of their closure orbit."""
    return [x for x in range(len(roots)) if roots[x] != min(closure_orbit(rows, x))]


@SETTINGS
@given(image_rows())
@example((1, _rows([], 1)))                 # degree 1, no generators
@example((4, _rows([], 4)))                 # no generators: every point alone
@example((5, _rows([[1, 0, 2, 4, 3]], 5)))  # intransitive: {0, 1}, {2}, {3, 4}
def test_orbit_roots_match_closure(drawn):
    n, rows = drawn
    roots = _orbit_roots(rows)
    assert roots.dtype == np.intp and roots.shape == (n,)
    assert root_faults(rows, roots) == []
    assert is_transitive_on(n, rows) == (len(closure_orbit(rows, 0)) == n)


def test_root_check_detects_merged_orbits():
    # negative control: giving the orbit {3, 4} the root of {0, 1} must fail
    rows = _rows([[1, 0, 2, 4, 3]], 5)
    roots = _orbit_roots(rows)
    assert roots.tolist() == [0, 0, 2, 3, 3]
    merged = np.where(roots == 3, 0, roots)
    assert root_faults(rows, merged) == [3, 4]
    assert not is_transitive_on(5, rows) and not is_transitive_on(0, _rows([], 0))


def brute_intertwiner_basis(mats_a, mats_b, n):
    """One 0/1 matrix per orbit of the cells (i, j) -> (b(i), a(j)), each
    orbit grown by closure from its least cell in row-major order."""
    seen, basis = set(), []
    for cell in itertools.product(range(n), repeat=2):
        if cell in seen:
            continue
        orbit = {cell}
        while True:
            grown = orbit | {(int(b.images[i]), int(a.images[j]))
                             for a, b in zip(mats_a, mats_b) for i, j in orbit}
            if grown == orbit:
                break
            orbit = grown
        seen |= orbit
        basis.append(tuple(tuple(int((i, j) in orbit) for j in range(n)) for i in range(n)))
    return basis


def random_involution(n, rng):
    img, pts = list(range(n)), rng.sample(range(n), n)
    for k in range(0, 2 * rng.randint(0, n // 2), 2):
        img[pts[k]], img[pts[k + 1]] = pts[k + 1], pts[k]
    return Permutation(img)


def test_intertwiner_basis_matches_cell_closure():
    rng = random.Random(25)
    for _ in range(150):
        n, r = rng.randint(1, 8), rng.randint(0, 4)
        a = [random_involution(n, rng) for _ in range(r)]
        b = [random_involution(n, rng) for _ in range(r)]
        basis = intertwiner_basis(a, b, n)
        assert basis == brute_intertwiner_basis(a, b, n)
        for T in basis:  # each matrix solves T * A_mu == B_mu * T
            assert all(T[i][int(pa.images[j])] == T[int(pb.images[i])][j]
                       for pa, pb in zip(a, b) for i in range(n) for j in range(n))
