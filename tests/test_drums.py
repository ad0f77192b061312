import json
import random
from fractions import Fraction

import pytest

from isodrum.drums import (
    EISENSTEIN,
    SQUARE,
    BaseTile,
    TiledDomain,
    boundary_polygon,
    export_json,
    export_svg,
    load_domain_json,
    unfold,
    _reflect,
)
from isodrum.errors import SpecFormatError
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import InvolutionSystem

from bruteforce import (
    QuadExt,
    _cross,
    _sign,
    cartesian,
    polygon_area,
    polygon_perimeter_sq_multiset,
    triangles_overlap,
)


def single_tile_system():
    return InvolutionSystem(1, 3, tuple(Permutation.identity(1) for _ in range(3)))


def two_tile_system(mu=0):
    perms = [Permutation.identity(2)] * 3
    perms[mu] = Permutation([1, 0])
    return InvolutionSystem(2, 3, tuple(perms))


@pytest.fixture(scope="module")
def gww_domains():
    from isodrum.catalog import psl_triple
    from isodrum.groups import left_cosets
    from isodrum.triples import inv_witnesses

    t = psl_triple(3, 2)
    table_k = left_cosets(t.G, t.K)
    gs, sys_a = next(inv_witnesses(t, 3))
    sys_b = InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs))
    tile = BaseTile.half_square()
    return unfold(sys_a, tile), unfold(sys_b, tile)


def test_base_tile_validation():
    with pytest.raises(ValueError):
        BaseTile(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))))


def test_half_square_area():
    assert BaseTile.half_square().area() == Fraction(1, 2)


def test_reflection_is_exact_involution():
    rng = random.Random(0)
    for gram in (SQUARE, EISENSTEIN):
        for _ in range(50):
            p = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
            q = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
            if p == q:
                continue
            x = (Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
            assert _reflect(_reflect((x,), p, q, gram), p, q, gram) == (x,)


def test_unfold_single():
    d = unfold(single_tile_system(), BaseTile.half_square())
    assert d.n_tiles == 1 and not d.overlap_flag
    assert polygon_area(boundary_polygon(d)) == Fraction(1, 2)


def test_unfold_two_half_squares_makes_unit_square():
    d = unfold(two_tile_system(mu=0), BaseTile.half_square())  # glue along hypotenuse
    poly = boundary_polygon(d)
    assert polygon_area(poly) == 1
    assert len(poly) == 4
    assert set(poly) == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                         (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))}


def test_unfold_requires_tree():
    cyc = InvolutionSystem(3, 3, (
        parse_cycles("(0 1)", 3), parse_cycles("(1 2)", 3), parse_cycles("(0 2)", 3)))
    with pytest.raises(ValueError):
        unfold(cyc, BaseTile.half_square())


def test_glued_tiles_share_full_edge():
    d = unfold(two_tile_system(mu=1), BaseTile.half_square())
    edge = set(d.tiles[0]) & set(d.tiles[1])
    assert len(edge) == 2
    a, b = d.tiles[0], d.tiles[1]
    assert a != b


def test_orientation_alternates(gww_domains):
    da, _ = gww_domains
    for i, j, _mu in da.adjacency:
        assert da.orientations[i] == -da.orientations[j]


def test_gww_domains_exact_area(gww_domains):
    for d in gww_domains:
        assert not d.overlap_flag
        assert d.total_area() == Fraction(7, 2)
        assert polygon_area(boundary_polygon(d)) == Fraction(7, 2)


def test_gww_domains_equal_perimeters(gww_domains):
    da, db = gww_domains
    pa, pb = boundary_polygon(da), boundary_polygon(db)
    assert polygon_perimeter_sq_multiset(pa) == polygon_perimeter_sq_multiset(pb)


def test_gww_domains_not_congruent(gww_domains):
    # same edge lengths but different turn sequences: genuinely different shapes
    def shape_word(poly):
        n = len(poly)
        out = []
        for i in range(n):
            a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
            dx, dy = b[0] - a[0], b[1] - a[1]
            out.append((dx * dx + dy * dy, _sign(_cross(a, b, c))))
        return out

    da, db = gww_domains
    wa = shape_word(boundary_polygon(da))
    wb = shape_word(boundary_polygon(db))
    variants = set()
    n = len(wa)
    for s in range(n):
        variants.add(tuple(wa[s:] + wa[:s]))
    rev = [(l, -t) for l, t in reversed(wa)]
    for s in range(n):
        variants.add(tuple(rev[s:] + rev[:s]))
    assert tuple(wb) not in variants


def test_overlap_flag_detects_collision():
    # gluing two tiles twice around would collide; build a fold-back chain:
    # three tiles in a fan around one vertex of the half-square overlap
    t1 = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    t2 = tuple((x + Fraction(1, 3), y + Fraction(1, 3)) for x, y in t1)
    assert triangles_overlap(t1, t2)
    assert triangles_overlap(t1, t1)
    t3 = tuple((x + 5, y) for x, y in t1)
    assert not triangles_overlap(t1, t3)
    # edge-touching is not overlap
    t4 = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert not triangles_overlap(t1, t4)


def test_quadext_tile():
    tile = BaseTile.equilateral()
    d = unfold(two_tile_system(mu=0), tile)
    assert not d.overlap_flag
    poly = boundary_polygon(d)
    # rhombus of two unit equilateral triangles: one lattice cell, whose
    # Cartesian image has area sqrt(3)/2
    assert polygon_area(poly) == d.total_area() == 1
    assert polygon_area([cartesian(p, tile.gram) for p in poly]) == QuadExt(0, Fraction(1, 2), 3)


def test_export_and_reload_round_trip(tmp_path, gww_domains):
    da, _ = gww_domains
    path = tmp_path / "a.json"
    export_json(da, path)
    tiles, boundary, gram = load_domain_json(path)
    assert tiles == [tuple(t) for t in da.tiles]
    assert boundary == boundary_polygon(da)
    assert gram == SQUARE and "lattice" not in json.loads(path.read_text())
    # exactness: repeated export is byte-identical
    path2 = tmp_path / "b.json"
    export_json(da, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_svg_has_tiles_and_boundary(tmp_path, gww_domains):
    da, _ = gww_domains
    path = tmp_path / "a.svg"
    export_svg(da, path)
    text = path.read_text()
    assert text.count("<polygon") == da.n_tiles + 1
    assert text.startswith("<svg")


def test_export_json_carries_the_lattice(tmp_path):
    # the equilateral tile's coordinates are rational in its lattice basis;
    # the Gram matrix travels in a "lattice" field and comes back exactly
    d = unfold(two_tile_system(mu=0), BaseTile.equilateral())
    path = tmp_path / "x.json"
    export_json(d, path)
    data = json.loads(path.read_text())
    assert data["lattice"] == [[[1, 1], [1, 2]], [[1, 2], [1, 1]]]
    assert data["area"] == [1, 1]
    tiles, boundary, gram = load_domain_json(path)
    assert gram == EISENSTEIN
    assert tiles == [tuple(t) for t in d.tiles] and boundary == boundary_polygon(d)


@pytest.mark.parametrize("lattice", [
    [[[1, 1], [0, 1]], [[0, 1], [2, 1]]],  # positive definite, but no named tile's
    [[[1, 1], [1, 2]], [[1, 3], [1, 1]]],  # not symmetric
    [[[1, 1], [1, 2]]],  # one row
    [[1, 2], [2, 1]],  # entries not numerator/denominator pairs
    [[[1, 1], [1, 0]], [[1, 2], [1, 1]]],  # zero denominator
    "eisenstein",
], ids=["other-gram", "asymmetric", "one-row", "bare-ints", "zero-denominator", "string"])
def test_malformed_lattice_is_a_format_error(tmp_path, lattice):
    d = unfold(two_tile_system(mu=0), BaseTile.equilateral())
    path = tmp_path / "x.json"
    export_json(d, path)
    data = json.loads(path.read_text())
    data["lattice"] = lattice
    path.write_text(json.dumps(data))
    with pytest.raises(SpecFormatError, match="bad domain json"):
        load_domain_json(path)


def test_boundary_needs_no_overlap():
    sys = single_tile_system()
    d = unfold(sys, BaseTile.half_square())
    d.overlap_flag = True
    with pytest.raises(ValueError):
        boundary_polygon(d)


def test_isometry_transport_congruence(gww_domains):
    # relabeling tiles by a detected self-isometry yields a congruent domain
    from isodrum.transplant import detect_isometry

    da, _ = gww_domains
    sys = da.system
    q = detect_isometry(sys, sys)
    assert q is not None
    d2 = unfold(sys.relabel(q), da.base)
    assert sorted(polygon_perimeter_sq_multiset(boundary_polygon(d2))) == \
        sorted(polygon_perimeter_sq_multiset(boundary_polygon(da)))
    assert polygon_area(boundary_polygon(d2)) == polygon_area(boundary_polygon(da))
