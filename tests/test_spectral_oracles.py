"""The integer rasterizer and the factorized eigensolver against oracles.

``rasterize`` is checked against ``brute_rasterize`` (the Fraction
arithmetic rasterizer it replaced): equal ``i0``, ``j0``, shape and cells,
on the gww boundaries, random star-shaped rational polygons and skyline
polygons whose vertices and horizontal edges lie on lattice lines.  A copy
of ``rasterize`` with an interval end off by one must disagree somewhere.
``dirichlet_eigenvalues`` is checked against dense ``eigvalsh`` on small
masks and against scipy's unfactorized shift-invert ``eigsh`` on the gww
masks; removing one boundary-adjacent node must move the ground state by
far more than the tolerance.
"""

import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from isodrum import spectral
from isodrum.spectral import GridMask, _dirichlet_laplacian, dirichlet_eigenvalues, rasterize

from bruteforce import brute_eigenvalues, brute_rasterize
from test_spectral import gww_polygons

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

SPACINGS = [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64), Fraction(1, 5), Fraction(2, 7)]

# integer directions in increasing angle; a star polygon takes a subset
DIRECTIONS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
              (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]


@pytest.fixture(scope="module")
def gww():
    return gww_polygons()


def same_mask(a, b):
    return ((a.i0, a.j0, a.cells.shape) == (b.i0, b.j0, b.cells.shape)
            and np.array_equal(a.cells, b.cells))


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
spacings = st.builds(Fraction, st.integers(1, 3), st.integers(2, 13))


@st.composite
def star_polygon(draw):
    """A simple polygon, star-shaped about a rational center: vertices
    center + r*d on a subset of DIRECTIONS in angular order, consecutive
    directions less than a half turn apart."""
    picks = draw(st.lists(st.sampled_from(range(len(DIRECTIONS))), min_size=3,
                          max_size=len(DIRECTIONS), unique=True))
    ds = [DIRECTIONS[k] for k in sorted(picks)]
    assume(all(u[0] * v[1] - u[1] * v[0] > 0 for u, v in zip(ds, ds[1:] + ds[:1])))
    cx, cy = draw(rationals), draw(rationals)
    radii = draw(st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 9)),
                          min_size=len(ds), max_size=len(ds)))
    return [(cx + r * dx, cy + r * dy) for r, (dx, dy) in zip(radii, ds)]


@st.composite
def skyline_polygon(draw):
    """A simple x-monotone polygon on the grid (h/2)Z^2, between a bottom
    and a top chain with repeated heights, so vertices fall on lattice lines
    and horizontal edges on lattice rows, with the interior above some of
    them (those nodes are boundary, not interior)."""
    h = draw(st.sampled_from(SPACINGS[:2] + SPACINGS[3:]))
    unit = h / 2
    steps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    xs = [draw(st.integers(-6, 6))]
    for s in steps:
        xs.append(xs[-1] + s)
    heights = st.lists(st.integers(0, 4), min_size=len(xs), max_size=len(xs))
    bottoms, tops = draw(heights), [5 + t for t in draw(heights)]
    pts = list(zip(xs, bottoms)) + list(zip(reversed(xs), reversed(tops)))
    return [(x * unit, y * unit) for x, y in pts], h


@pytest.mark.parametrize("h", SPACINGS, ids=str)
def test_rasterize_matches_fraction_oracle_on_gww(gww, h):
    for poly in gww:
        assert same_mask(rasterize(poly, h), brute_rasterize(poly, h))


@SETTINGS
@given(star_polygon(), spacings)
def test_rasterize_matches_fraction_oracle_on_star_polygons(poly, h):
    assert same_mask(rasterize(poly, h), brute_rasterize(poly, h))


@SETTINGS
@given(skyline_polygon())
def test_rasterize_matches_fraction_oracle_on_lattice_aligned_polygons(drawn):
    poly, h = drawn
    assert same_mask(rasterize(poly, h), brute_rasterize(poly, h))


def test_rasterize_excludes_horizontal_edges_on_rows():
    # a notch up from the base whose top runs along row y = 1/2 inside the
    # interior run 0 < x < 3: the nodes on it are boundary
    h = Fraction(1, 4)
    poly = [(Fraction(x), Fraction(y)) for x, y in
            [(0, 0), (1, 0), (1, "1/2"), (2, "1/2"), (2, 0), (3, 0), (3, 1), (0, 1)]]
    mask = rasterize(poly, h)
    assert same_mask(mask, brute_rasterize(poly, h))
    row = mask.cells[:, 2 - mask.j0]  # y = 1/2
    assert [i for i in range(13) if row[i - mask.i0]] == [1, 2, 3, 9, 10, 11]


def mutant(old, new):
    """``rasterize`` with one source fragment replaced."""
    src = inspect.getsource(rasterize)
    assert src.count(old) == 1
    namespace = dict(vars(spectral))
    exec(src.replace(old, new), namespace)
    return namespace["rasterize"]


@pytest.mark.parametrize("old,new", [
    ("i_lo = a // (da * L) + 1", "i_lo = -(-a // (da * L))"),  # i*L >= a
    ("i_hi = -(-b // (db * L)) - 1", "i_hi = b // (db * L)"),  # i*L <= b
], ids=["left-end", "right-end"])
def test_off_by_one_interval_end_is_caught(gww, old, new):
    wrong = mutant(old, new)
    assert any(not same_mask(wrong(poly, h), brute_rasterize(poly, h))
               for poly in gww for h in SPACINGS)


def relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / want))


@st.composite
def connected_mask(draw):
    """A connected mask of at most 400 nodes grown from one node by random
    4-neighbor steps, on a random spacing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(3, 400))
    side = 24
    cells = np.zeros((side, side), dtype=bool)
    nodes = [(side // 2, side // 2)]
    cells[nodes[0]] = True
    while len(nodes) < size:
        i, j = nodes[rng.integers(len(nodes))]
        di, dj = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
        i, j = i + di, j + dj
        if 0 <= i < side and 0 <= j < side and not cells[i, j]:
            cells[i, j] = True
            nodes.append((i, j))
    return GridMask(Fraction(1, draw(st.integers(2, 64))), 0, 0, cells)


@SETTINGS
@given(connected_mask(), st.integers(1, 8))
def test_factorized_eigenvalues_match_dense_oracle(mask, k):
    n = mask.occupied_count
    k = min(k, n - 2)  # the sparse, factorized branch
    got = dirichlet_eigenvalues(mask, k).eigenvalues
    assert relative_error(got, brute_eigenvalues(mask)[:k]) <= 1e-12


@pytest.fixture(scope="module")
def gww_masks(gww):
    return [rasterize(poly, Fraction(1, 64)) for poly in gww]


def test_factorized_eigenvalues_match_unfactorized_eigsh_on_gww(gww_masks):
    from scipy.sparse.linalg import eigsh

    for mask in gww_masks:
        assert mask.occupied_count > 10000
        v0 = np.random.default_rng(0).standard_normal(mask.occupied_count)
        want = np.sort(eigsh(_dirichlet_laplacian(mask), k=10, sigma=0.0, which="LM", v0=v0,
                             maxiter=5000, return_eigenvectors=False))
        assert relative_error(dirichlet_eigenvalues(mask, 10).eigenvalues, want) <= 1e-12


def test_removing_a_boundary_node_moves_the_ground_state(gww_masks):
    mask = gww_masks[0]
    lam = dirichlet_eigenvalues(mask, 1).eigenvalues[0]
    cells = mask.cells.copy()
    j = int(np.median(np.nonzero(cells)[1]))
    i = np.flatnonzero(cells[:, j])[0]  # cells[i - 1, j] is outside
    cells[i, j] = False
    moved = dirichlet_eigenvalues(GridMask(mask.h, mask.i0, mask.j0, cells), 1).eigenvalues[0]
    assert abs(moved - lam) / lam > 1e-6
