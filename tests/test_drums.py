import json
import random
from fractions import Fraction

import pytest

from isodrum.drums import (
    BaseTile,
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
    brute_congruent,
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
    assert polygon_area(BaseTile.half_square().vertices) == Fraction(1, 2)


def test_reflection_is_exact_involution():
    rng = random.Random(0)
    for _ in range(100):
        p = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
        q = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
        if p == q:
            continue
        x = (Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
        assert _reflect(_reflect((x,), p, q), p, q) == (x,)


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
    # same edge lengths, but no rigid motion, mirror images included, carries
    # one boundary onto the other: genuinely different shapes
    pa, pb = (boundary_polygon(d) for d in gww_domains)
    assert not brute_congruent(pa, pb)


def test_congruence_oracle_negative_control(gww_domains):
    # gww A against a translated mirror image of itself, reflected in a line
    # at a 3-4-5 angle and listed from another vertex: congruent, as is its
    # reverse walk; a scaled copy is not
    pa = boundary_polygon(gww_domains[0])
    image = [((3 * x + 4 * y) / 5 + Fraction(7, 3), (4 * x - 3 * y) / 5 - 2) for x, y in pa]
    assert brute_congruent(pa, image[4:] + image[:4])
    assert brute_congruent(pa, pa[::-1])
    assert not brute_congruent(pa, [(2 * x, 2 * y) for x, y in pa])
    # a straight vertex inserted on an edge does not change the shape
    mid = ((pa[0][0] + pa[1][0]) / 2, (pa[0][1] + pa[1][1]) / 2)
    assert brute_congruent(pa, pa[:1] + [mid] + pa[1:])


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


def test_export_and_reload_round_trip(tmp_path, gww_domains):
    da, _ = gww_domains
    path = tmp_path / "a.json"
    export_json(da, path)
    tiles, boundary = load_domain_json(path)
    assert tiles == [tuple(t) for t in da.tiles]
    assert boundary == boundary_polygon(da)
    assert "lattice" not in json.loads(path.read_text())
    # exactness: repeated export is byte-identical
    path2 = tmp_path / "b.json"
    export_json(da, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_svg_has_tiles_and_boundary(tmp_path, gww_domains):
    da, _ = gww_domains
    path = tmp_path / "a.svg"
    export_svg(da, path, boundary_polygon(da))
    text = path.read_text()
    assert text.count("<polygon") == da.n_tiles + 1
    assert text.startswith("<svg")
    export_svg(da, path)  # no boundary given: the tiles alone
    assert path.read_text().count("<polygon") == da.n_tiles


@pytest.mark.parametrize("lattice", [
    [[[1, 1], [1, 2]], [[1, 2], [1, 1]]],  # the Gram matrix of 60-degree coordinates
    [[[1, 1], [0, 1]], [[0, 1], [2, 1]]],  # positive definite, but no tile's
    [[[1, 1], [1, 2]], [[1, 3], [1, 1]]],  # not symmetric
    [[[1, 1], [1, 2]]],  # one row
    [[1, 2], [2, 1]],  # entries not numerator/denominator pairs
    [[[1, 1], [1, 0]], [[1, 2], [1, 1]]],  # zero denominator
    "eisenstein",
], ids=["sixty-degree", "other-gram", "asymmetric", "one-row", "bare-ints", "zero-denominator",
        "string"])
def test_malformed_lattice_is_a_format_error(tmp_path, lattice):
    # files that earlier versions wrote for a tile with 60-degree angles hold
    # coordinates in a basis that is not Cartesian, under a "lattice" field;
    # any such field is refused rather than read as Cartesian
    d = unfold(two_tile_system(mu=0), BaseTile.half_square())
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
