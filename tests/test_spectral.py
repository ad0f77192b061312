import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bruteforce import brute_laplacian
from isodrum.spectral import (
    GridMask,
    SpectrumResult,
    _dirichlet_laplacian,
    dirichlet_eigenvalues,
    pairwise_relative_gaps,
    rasterize,
)


def unit_square():
    z, one = Fraction(0), Fraction(1)
    return [(z, z), (one, z), (one, one), (z, one)]


def rectangle(w, h):
    z = Fraction(0)
    return [(z, z), (Fraction(w), z), (Fraction(w), Fraction(h)), (z, Fraction(h))]


def test_rasterize_square_counts():
    assert rasterize(unit_square(), Fraction(1, 4)).occupied_count == 9
    assert rasterize(unit_square(), Fraction(1, 8)).occupied_count == 49


def test_rasterize_excludes_boundary_nodes():
    # diamond with vertices on lattice nodes: those nodes are boundary
    poly = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))]
    m = rasterize(poly, Fraction(1, 2))
    # strict interior nodes at spacing 1/2: the diamond |x-1|+|y-1| < 1
    expected = 0
    for i in range(0, 5):
        for j in range(0, 5):
            x, y = Fraction(i, 2), Fraction(j, 2)
            if abs(x - 1) + abs(y - 1) < 1:
                expected += 1
    assert m.occupied_count == expected


def test_rasterize_area_convergence():
    # each interior node stands for an h x h cell
    coarse, fine = (rasterize(unit_square(), h).occupied_count * float(h) ** 2
                    for h in (Fraction(1, 16), Fraction(1, 64)))
    assert abs(fine - 1.0) < abs(coarse - 1.0)
    assert abs(fine - 1.0) < 0.05


def test_rasterize_validation():
    with pytest.raises(ValueError):
        rasterize(unit_square(), Fraction(0))
    with pytest.raises(ValueError):
        rasterize([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))], Fraction(1, 4))


def test_square_ground_state():
    m = rasterize(unit_square(), Fraction(1, 64))
    res = dirichlet_eigenvalues(m, 1)
    exact = 2 * math.pi**2
    assert abs(res.eigenvalues[0] - exact) / exact < 0.005


def test_square_convergence_rate():
    # discretization error shrinks like h^2
    exact = 2 * math.pi**2
    e32 = abs(dirichlet_eigenvalues(rasterize(unit_square(), Fraction(1, 32)), 1).eigenvalues[0] - exact)
    e64 = abs(dirichlet_eigenvalues(rasterize(unit_square(), Fraction(1, 64)), 1).eigenvalues[0] - exact)
    assert e64 < e32 / 3.0


def test_rectangle_ground_state():
    m = rasterize(rectangle(2, 1), Fraction(1, 32))
    res = dirichlet_eigenvalues(m, 1)
    exact = math.pi**2 * (1 + Fraction(1, 4))
    assert abs(res.eigenvalues[0] - float(exact)) / float(exact) < 0.005


def test_spectrum_result_validation():
    with pytest.raises(ValueError):
        SpectrumResult([2.0, 1.0], 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        SpectrumResult([-1.0, 1.0], 2, Fraction(1, 4))
    SpectrumResult([1.0, 1.0, 2.0], 3, Fraction(1, 4))  # multiplicities allowed


def test_k_bounds():
    m = rasterize(unit_square(), Fraction(1, 4))
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(m, 10)
    res = dirichlet_eigenvalues(m, 9)  # full dense fallback
    assert len(res.eigenvalues) == 9


def test_determinism():
    m = rasterize(unit_square(), Fraction(1, 32))
    a = dirichlet_eigenvalues(m, 6)
    b = dirichlet_eigenvalues(m, 6)
    assert a.eigenvalues == b.eigenvalues


def test_weyl_two_term_counting():
    # N(E) tracks area*E/(4 pi) - perimeter*sqrt(E)/(4 pi) within 15 percent
    # at the 20th eigenvalue of the unit square.  (The one-term law is off by
    # about 25 percent there; the perimeter correction is required.)
    m = rasterize(unit_square(), Fraction(1, 64))
    res = dirichlet_eigenvalues(m, 20)
    E = res.eigenvalues[-1]
    prediction = E / (4 * math.pi) - 4 * math.sqrt(E) / (4 * math.pi)
    assert abs(prediction - 20) / 20 < 0.15


def test_domain_monotonicity_smoke():
    # a domain inside a rectangle has larger eigenvalues than the rectangle
    from isodrum.drums import BaseTile, boundary_polygon, unfold
    from isodrum.transplant import InvolutionSystem
    from isodrum.permutations import Permutation

    sys1 = InvolutionSystem(1, 3, tuple(Permutation.identity(1) for _ in range(3)))
    d = unfold(sys1, BaseTile.half_square())  # triangle inside the unit square
    tri = boundary_polygon(d)
    lam_tri = dirichlet_eigenvalues(rasterize(tri, Fraction(1, 64)), 1).eigenvalues[0]
    lam_square = 2 * math.pi**2
    assert lam_tri >= lam_square * 0.9


def test_pairwise_gaps_symmetric():
    m = rasterize(unit_square(), Fraction(1, 16))
    a = dirichlet_eigenvalues(m, 4)
    b = dirichlet_eigenvalues(rasterize(rectangle(1, 1), Fraction(1, 16)), 4)
    assert pairwise_relative_gaps(a, b) == pairwise_relative_gaps(b, a)
    assert max(pairwise_relative_gaps(a, b)) <= 1e-12


def gww_polygons():
    """Boundary polygons of the two domains ``isodrum gww`` draws."""
    from isodrum.catalog import psl_triple
    from isodrum.drums import BaseTile, boundary_polygon, unfold
    from isodrum.groups import left_cosets
    from isodrum.transplant import InvolutionSystem, is_tree
    from isodrum.triples import inv_witnesses

    t = psl_triple(3, 2)
    table_k = left_cosets(t.G, t.K)
    tile = BaseTile.half_square()
    for gs, sys_a in inv_witnesses(t, 3):
        sys_b = InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs))
        if not is_tree(sys_b):
            continue
        for order in itertools.permutations(range(3)):
            da = unfold(sys_a.permute_colors(order), tile)
            db = unfold(sys_b.permute_colors(order), tile)
            if da.overlap_flag or db.overlap_flag:
                continue
            try:
                return boundary_polygon(da), boundary_polygon(db)
            except ValueError:
                continue
    raise AssertionError("no clean gww domains")


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def test_batched_laplacian_matches_loop_on_gww_masks():
    for poly in gww_polygons():
        mask = rasterize(poly, Fraction(1, 64))
        assert mask.occupied_count > 10000
        assert_same_csr(_dirichlet_laplacian(mask), brute_laplacian(mask))


def test_batched_laplacian_matches_loop_on_random_masks():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 7), (6, 1), (5, 5), (9, 13), (20, 17)]:
        for density in (0.3, 0.7, 1.0):
            cells = rng.random(shape) < density  # occupied border cells included
            if not cells.any():
                continue
            mask = GridMask(Fraction(1, int(rng.integers(2, 40))), 0, 0, cells)
            assert_same_csr(_dirichlet_laplacian(mask), brute_laplacian(mask))


def test_gww_pair_isospectral_to_rounding():
    """Grid-aligned half-square tilings are isospectral at the discrete level
    too, so the gww gap is rounding error (about 4e-15), far below 1e-9."""
    pa, pb = gww_polygons()
    h = Fraction(1, 16)
    ra, rb = (dirichlet_eigenvalues(rasterize(p, h), 10) for p in (pa, pb))
    assert max(pairwise_relative_gaps(ra, rb)) <= 1e-9


def test_gww_gate_negative_control():
    """A pair that is not transplantable must fail the 1e-9 gate by far.

    The second psl(3,2) witness under color order (2, 0, 1) unfolds cleanly,
    and its intertwiner space is proved singular against gww A; its gap is
    about 7.2e-2.  (Permuting B's colors alone is no control: it only
    mirrors the domain, and the gap stays at rounding level.)
    """
    from isodrum.catalog import psl_triple
    from isodrum.drums import BaseTile, boundary_polygon, unfold
    from isodrum.transplant import find_transplantation
    from isodrum.triples import inv_witnesses

    witnesses = itertools.islice(inv_witnesses(psl_triple(3, 2), 3), 2)
    (_, first), (_, second) = witnesses  # gww A unfolds the first witness
    control = second.permute_colors((2, 0, 1))
    assert find_transplantation(first, control).certificate == "proved-singular-by-character-mismatch"
    tile = BaseTile.half_square()
    pa, pc = (boundary_polygon(unfold(s, tile)) for s in (first, control))
    assert pa == gww_polygons()[0]
    h = Fraction(1, 16)
    ra, rc = (dirichlet_eigenvalues(rasterize(p, h), 10) for p in (pa, pc))
    assert max(pairwise_relative_gaps(ra, rc)) > 1e-2
