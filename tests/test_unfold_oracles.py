"""Overlap, boundary crossing and the tree test against brute-force oracles.

``drums.unfold`` sets ``overlap_flag`` when two placed tiles have the same
vertex set, and ``boundary_polygon`` runs no crossing test; both rest on
every unfolded tile being a cell of the base tile's reflection
tessellation.  ``transplant.is_tree`` is the fixed-point identity, which is
the edge-count test of a connected graph.  Here each is compared with an
exact pairwise or search-based oracle from ``bruteforce``, and the negative
controls show what the identities would get wrong without their hypotheses:
a non-Coxeter tile, and a system that is not transitive.  The unfolding tests
draw their tile from the unit half-square and a rotated, scaled and
translated one.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_is_tree,
    brute_overlap,
    brute_unfold,
    walk_self_crosses,
)
from isodrum.catalog import psl_triple
from isodrum.constructions import add_kernel
from isodrum.drums import BaseTile, _reflect, boundary_polygon, unfold
from isodrum.groups import PermGroup
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import InvolutionSystem, is_tree, okada_shudo_scan
from isodrum.triples import inv_witnesses

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

COLOR_ORDERS = list(itertools.permutations(range(3)))


def _fraction_triangle(points):
    return tuple((Fraction(x), Fraction(y)) for x, y in points)


# the unit half-square, and one with legs (2, 1) and (-1, 2) at (1/2, -1/3)
TILES = (BaseTile.half_square(),
         BaseTile(_fraction_triangle((("1/2", "-1/3"), ("5/2", "2/3"), ("-1/2", "5/3")))))


def _system(n, pairs_per_color):
    perms = []
    for pairs in pairs_per_color:
        images = list(range(n))
        for i, j in pairs:
            images[i], images[j] = j, i
        perms.append(Permutation(images))
    return InvolutionSystem(n, 3, tuple(perms))


@st.composite
def tree_systems(draw, max_tiles=10):
    """A random tree system: each new tile is glued to an earlier one by a
    color that tile has not used yet."""
    n = draw(st.integers(1, max_tiles))
    used = [set() for _ in range(n)]
    pairs = [[], [], []]
    for j in range(1, n):
        free = [(i, mu) for i in range(j) for mu in range(3) if mu not in used[i]]
        i, mu = draw(st.sampled_from(free))
        used[i].add(mu)
        used[j].add(mu)
        pairs[mu].append((i, j))
    return _system(n, pairs)


@st.composite
def transitive_systems(draw, max_tiles=8):
    """A random transitive system: each color a random partial matching."""
    n = draw(st.integers(1, max_tiles))
    pairs = []
    for _ in range(3):
        order = draw(st.permutations(range(n)))
        k = draw(st.integers(0, n // 2))
        pairs.append([(order[2 * x], order[2 * x + 1]) for x in range(k)])
    try:
        return _system(n, pairs)
    except ValueError:  # not transitive
        assume(False)


def _check_domain(sys, tile):
    """Unfold and compare with the oracles; return whether the domain
    overlaps and whether it has a boundary walk."""
    domain = unfold(sys, tile)
    assert domain.overlap_flag == brute_overlap(domain.tiles)
    if domain.overlap_flag:
        return True, False
    try:
        walk = boundary_polygon(domain)
    except ValueError:  # a slit or a non-manifold boundary
        return False, False
    assert not walk_self_crosses(walk)
    return False, True


# seven tiles fanned around vertex 0 by colors 1 and 2: past 2*pi on both tiles
FAN7 = _system(7, [[], [(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 6)]])


@SETTINGS
@given(tree_systems(), st.sampled_from(TILES))
@example(FAN7, TILES[0])
@example(FAN7, TILES[1])
def test_overlap_and_boundary_agree_with_oracle_on_random_trees(sys, tile):
    _check_domain(sys, tile)


@SETTINGS
@given(tree_systems(), st.sampled_from(TILES))
@example(FAN7, TILES[0])
@example(FAN7, TILES[1])
def test_lattice_unfolding_matches_cartesian_unfolding(sys, tile):
    # every tile the library places breadth first is the tile the oracle's
    # Euclidean reflections place depth first
    assert unfold(sys, tile).tiles == brute_unfold(sys, tile.vertices)


def test_overlap_and_boundary_agree_with_oracle_on_psl32_census():
    clean = slit = 0
    for pair in okada_shudo_scan(psl_triple(3, 2), 7):
        for sys in pair:
            for order in COLOR_ORDERS:
                overlap, has_boundary = _check_domain(sys.permute_colors(order), TILES[0])
                assert not overlap  # seven tiles never overlap in this census
                clean += has_boundary
                slit += not has_boundary
    assert clean and slit


def test_fan_overlaps_on_both_tiles():
    for tile in TILES:
        assert unfold(FAN7, tile).overlap_flag


@SETTINGS
@given(transitive_systems())
def test_is_tree_is_the_identity_and_matches_search(sys):
    assert is_tree(sys) == brute_is_tree(sys)


def test_identity_needs_transitivity():
    # negative control: two components with n - 1 edges in all meet the
    # identity but are no tree; InvolutionSystem rejects such gluings
    perms = (parse_cycles("(0 1)", 4), parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4))
    loose = SimpleNamespace(n_tiles=4, r=3, perms=perms,
                            traces=lambda: [p.fixed_point_count() for p in perms])
    assert is_tree(loose)
    assert not brute_is_tree(loose)
    with pytest.raises(ValueError, match="not transitive"):
        InvolutionSystem(4, 3, perms)


@pytest.mark.parametrize("case", ["psl32", "psl33", "psl32_kernel"])
def test_inv_witnesses_are_trees(case):
    if case == "psl33":
        t, limit = psl_triple(3, 3), 300  # the full search exceeds its node bound
    elif case == "psl32":
        t, limit = psl_triple(3, 2), None
    else:  # unfaithful coset action: witnesses come from the image group
        t, limit = add_kernel(psl_triple(3, 2), PermGroup(2, [parse_cycles("(0 1)", 2)])), None
    systems = [sys for _, sys in itertools.islice(inv_witnesses(t, 3), limit)]
    assert systems
    assert all(brute_is_tree(sys) for sys in systems)


def test_base_tile_accepts_only_coxeter_triangles():
    # every half-square, scaled, rotated and with its vertices in any order
    for tile in TILES:
        for order in COLOR_ORDERS:
            BaseTile(tuple(tile.vertices[i] for i in order))
    BaseTile(_fraction_triangle(((0, 0), ("3/7", 0), (0, "3/7"))))  # scaled by 3/7
    BaseTile(_fraction_triangle(((0, 0), ("3/5", "4/5"), ("-4/5", "3/5"))))  # rotated by a 3-4-5 angle
    BaseTile(_fraction_triangle(((0, 0), (1, 1), (2, 0))))  # right angle at (1, 1)
    # squared sides 1:1:3 have no rational triangle (its area would be
    # sqrt(3)/4 times a rational), so the obtuse isosceles control is 5:5:16
    with pytest.raises(ValueError, match="Coxeter"):
        BaseTile(_fraction_triangle(((0, 0), (2, 0), (1, "1/2"))))  # squared sides 5:5:16
    with pytest.raises(ValueError, match="Coxeter"):
        BaseTile(_fraction_triangle(((0, 0), (2, 0), (1, 3))))  # squared sides 4:10:10
    with pytest.raises(ValueError, match="Coxeter"):
        BaseTile(_fraction_triangle(((0, 0), (2, 0), (0, 1))))  # right, squared sides 1:4:5
    with pytest.raises(ValueError, match="Coxeter"):
        BaseTile(_fraction_triangle(((0, 0), (4, 0), (0, 3))))  # right, squared sides 9:16:25
    with pytest.raises(ValueError, match="degenerate"):
        BaseTile(_fraction_triangle(((0, 0), (1, 1), (2, 2))))


def _fan(tri, count):
    """Tiles reflected in turn across the sides through tri[0], in Cartesian
    coordinates."""
    tiles = [tri]
    for _ in range(count - 1):
        v, a, b = tiles[-1]
        tiles.append((v, b) + _reflect((a,), v, b))
    return tiles


def test_skewed_tile_overlaps_with_distinct_vertex_sets():
    # negative control: around the vertex (2, 0) of the 1:4:5 triangle the
    # angle is not pi/k, so the fan passes 2*pi without closing; the last
    # tile overlaps the first while every vertex set is distinct, which the
    # vertex-set rule would miss
    v, a, b = _fraction_triangle(((2, 0), (0, 0), (0, 1)))
    tiles = _fan((v, a, b), 14)
    assert len({frozenset(t) for t in tiles}) == len(tiles)
    assert brute_overlap(tiles)
    assert not brute_overlap(tiles[:13])


def test_coxeter_fan_closes_on_the_first_tile():
    # around the half-square's right angle the fan closes after 4 tiles: the
    # fifth has the first tile's vertex set
    v, a, b = BaseTile.half_square().vertices
    tiles = _fan((v, a, b), 5)
    assert frozenset(tiles[4]) == frozenset(tiles[0])
    assert not brute_overlap(tiles[:4])
    assert brute_overlap(tiles)
