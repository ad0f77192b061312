import itertools
import random

import pytest

from isodrum.catalog import psl_triple
from isodrum.errors import BoundExceeded, SpecFormatError
from isodrum.groups import PermGroup, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import (
    InvolutionSystem,
    find_transplantation,
    format_involution_system,
    intertwiner_basis,
    involutions_of,
    is_tree,
    okada_shudo_scan,
    parse_involution_system,
    verify_intertwiner,
)
from isodrum.triples import Triple, inv_witnesses, is_ac

from bruteforce import fraction_det


def single_tile(r=3):
    return InvolutionSystem(1, r, tuple(Permutation.identity(1) for _ in range(r)))


def three_cycle_gluing():
    # tiles 0-1, 1-2, 2-0 glued by three colors: a cycle, not a tree
    return InvolutionSystem(3, 3, (
        parse_cycles("(0 1)", 3),
        parse_cycles("(1 2)", 3),
        parse_cycles("(0 2)", 3),
    ))


@pytest.fixture(scope="module")
def gww_pair(psl32_module):
    t = psl32_module
    table_k = left_cosets(t.G, t.K)
    gs, sys_a = next(inv_witnesses(t, 3))
    sys_b = InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs))
    return sys_a, sys_b


@pytest.fixture(scope="module")
def psl32_module():
    return psl_triple(3, 2)


def test_system_validation_rejects_non_involution():
    with pytest.raises(ValueError):
        InvolutionSystem(3, 1, (parse_cycles("(0 1 2)", 3),))


def test_system_validation_rejects_intransitive():
    with pytest.raises(ValueError):
        InvolutionSystem(4, 2, (parse_cycles("(0 1)", 4), parse_cycles("(0 1)", 4)))


def test_matrices_symmetric_involutive(gww_pair):
    # a side's 0/1 gluing matrix is symmetric and squares to the identity
    # exactly when its permutation is its own inverse
    for sys in gww_pair:
        for p in sys.perms:
            assert p.degree == sys.n_tiles
            assert p == p.inverse() and (p * p).is_identity()


def test_schreier_system_single_tile():
    # three sides of the one coset of the trivial group in itself
    table = left_cosets(PermGroup(1, []), PermGroup(1, []))
    sys = InvolutionSystem(len(table), 3, tuple(table.action_of(Permutation.identity(1)) for _ in range(3)))
    assert sys.traces() == [1, 1, 1]
    assert is_tree(sys)  # 1 == 3 - 2


def test_schreier_system_validates():
    # S3 on the cosets of the trivial group is regular; a 3-cycle is no side,
    # and one transposition does not glue the six tiles together
    G = PermGroup(3, [parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)])
    table = left_cosets(G, PermGroup(3, []))
    with pytest.raises(ValueError):
        InvolutionSystem(len(table), 1, (table.action_of(parse_cycles("(0 1 2)", 3)),))
    with pytest.raises(ValueError):
        InvolutionSystem(len(table), 1, (table.action_of(parse_cycles("(0 1)", 3)),))  # intransitive


def test_gww_systems_structure(gww_pair):
    for sys in gww_pair:
        assert sys.n_tiles == 7 and sys.r == 3
        assert sorted(sys.traces()) == [3, 3, 3]
        # each matrix: 3 diagonal ones and 2 transposition pairs
        for p in sys.perms:
            assert p.fixed_point_count() == 3
            assert len([c for c in p.cycles() if len(c) == 2]) == 2
        assert is_tree(sys)


def test_is_tree_counterexamples():
    assert is_tree(single_tile())
    assert not is_tree(three_cycle_gluing())
    swap = parse_cycles("(0 1)", 2)
    assert not is_tree(InvolutionSystem(2, 3, (swap, swap, Permutation.identity(2))))  # double edge


def test_fixeq_cases():
    # is_tree is the identity (r-2) * tiles == sum of traces - 2
    assert is_tree(single_tile())  # (3-2)*1 == 3-2
    assert not is_tree(three_cycle_gluing())  # 3 != 1


def test_tree_implies_fixeq_on_generated_systems(psl32_module):
    # every tree system built from involution triples satisfies the identity
    t = psl32_module
    table = left_cosets(t.G, t.H)
    invs = involutions_of(t.G)
    rng = random.Random(0)
    count = 0
    for _ in range(300):
        combo = rng.sample(invs, 3)
        imgs = tuple(table.action_of(g) for g in combo)
        try:
            sys = InvolutionSystem(len(table), 3, imgs)
        except ValueError:
            continue
        if is_tree(sys):
            count += 1
            assert sum(sys.traces()) == (3 - 2) * len(table) + 2
    assert count > 0


def test_intertwiner_basis_dimension_equals_orbit_count(gww_pair):
    a, b = gww_pair
    basis = intertwiner_basis(a.perms, b.perms, a.n_tiles)
    assert len(basis) == 2  # incidence and non-incidence orbits
    sizes = sorted(sum(sum(row) for row in m) for m in basis)
    assert sizes == [21, 28]


def test_find_transplantation_identity(gww_pair):
    a, _ = gww_pair
    sol = find_transplantation(a, a)
    assert sol is not None and sol.invertible
    assert sol.permutation_solution is not None
    assert verify_intertwiner(sol.T, a, a)


def test_find_transplantation_gww(gww_pair):
    a, b = gww_pair
    sol = find_transplantation(a, b)
    assert sol is not None and sol.invertible
    assert sol.permutation_solution is None
    assert verify_intertwiner(sol.T, a, b)
    assert sol.T in intertwiner_basis(a.perms, b.perms, 7)  # a 0/1 basis matrix, as ints
    assert all(type(x) is int for row in sol.T for x in row)


def test_transplantation_dimension_mismatch(gww_pair):
    a, _ = gww_pair
    with pytest.raises(ValueError):
        find_transplantation(a, single_tile())


def test_mismatched_systems_not_equivalent(gww_pair):
    # a tree system with a different trace vector cannot be equivalent
    a, _ = gww_pair
    chain = InvolutionSystem(7, 3, (
        parse_cycles("(0 1)(2 3)(4 5)", 7),
        parse_cycles("(1 2)(3 4)(5 6)", 7),
        Permutation.identity(7),
    ))
    assert is_tree(chain)
    sol = find_transplantation(a, chain)
    assert sol is None or not sol.invertible
    if sol is not None:
        assert sol.certificate == "proved-singular-by-character-mismatch"


def test_combination_certificate_when_no_basis_matrix_is_invertible(gww_pair, monkeypatch):
    # no known pair lacks an invertible basis matrix, so report every basis
    # matrix, and the first combination drawn, as singular to reach the
    # random-combination branch and its redraw
    import ast

    from isodrum import transplant

    a, b = gww_pair
    basis = intertwiner_basis(a.perms, b.perms, a.n_tiles)
    real_det = transplant._int_det
    draws = []

    def det(rows):
        rows = tuple(map(tuple, rows))
        if rows in basis:
            return 0
        draws.append(rows)
        return 0 if len(draws) == 1 else real_det(rows)

    monkeypatch.setattr(transplant, "_int_det", det)
    sol = find_transplantation(a, b)
    assert sol.invertible and sol.certificate.startswith("combination(")
    assert len(draws) >= 2 and sol.T != draws[0]
    coeffs = ast.literal_eval(sol.certificate[len("combination"):])
    assert len(coeffs) == len(basis) == 2 and all(c != 0 for c in coeffs)
    expected = [[sum(c * m[i][j] for c, m in zip(coeffs, basis)) for j in range(7)]
                for i in range(7)]
    assert [list(row) for row in sol.T] == expected
    assert all(type(x) is int for row in sol.T for x in row)
    assert verify_intertwiner(sol.T, a, b)
    assert fraction_det(sol.T) != 0


def test_permutation_solution_identity_and_relabel(gww_pair):
    a, b = gww_pair
    assert find_transplantation(a, a).permutation_solution.is_identity()
    assert find_transplantation(a, b).permutation_solution is None
    rng = random.Random(1)
    img = list(range(7))
    rng.shuffle(img)
    p = Permutation(img)
    relabeled = a.relabel(p)
    q = find_transplantation(a, relabeled).permutation_solution
    assert q == p  # a has no automorphism, so the relabeling is the only isometry
    assert a.relabel(q).perms == relabeled.perms


def test_isometry_is_permutation_intertwiner(gww_pair):
    a, _ = gww_pair
    rng = random.Random(2)
    img = list(range(7))
    rng.shuffle(img)
    relabeled = a.relabel(Permutation(img))
    q = find_transplantation(a, relabeled).permutation_solution
    # the map j -> q(j) as a matrix, T[i][j] = 1 exactly when i = q(j), intertwines
    T = [[int(int(q.images[j]) == i) for j in range(7)] for i in range(7)]
    assert verify_intertwiner(T, a, relabeled)
    assert not verify_intertwiner([list(row) for row in zip(*T)], a, relabeled)


def test_canonical_key_invariant_under_relabel(gww_pair):
    a, _ = gww_pair
    rng = random.Random(3)
    for _ in range(10):
        img = list(range(7))
        rng.shuffle(img)
        assert a.relabel(Permutation(img)).canonical_key() == a.canonical_key()


def test_okada_shudo_scan_flagship(psl32_module, gww_pair):
    pairs = okada_shudo_scan(psl32_module, 7, 3)
    assert pairs
    key = (gww_pair[0].canonical_key(), gww_pair[1].canonical_key())
    assert any((a.canonical_key(), b.canonical_key()) == key for a, b in pairs)
    # deduplicated
    keys = [(a.canonical_key(), b.canonical_key()) for a, b in pairs]
    assert len(keys) == len(set(keys))
    # frozen census size for this triple (regression guard)
    assert len(pairs) == 14


def test_okada_shudo_index_two_empty():
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    A3 = PermGroup(3, [parse_cycles("(0 1 2)", 3)])
    t = Triple(S3, A3, A3)
    assert okada_shudo_scan(t, 2, 3) == []


def test_okada_shudo_cyclic_empty():
    C6 = PermGroup(6, [parse_cycles("(0 1 2 3 4 5)", 6)])
    C2 = PermGroup(6, [parse_cycles("(0 3)(1 4)(2 5)", 6)])
    t = Triple(C6, C2, C2)
    assert okada_shudo_scan(t, 3, 3) == []


def test_okada_shudo_nmax_guards_the_index():
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    triv = PermGroup(3, [])
    t = Triple(S3, triv, triv)
    with pytest.raises(BoundExceeded, match="index 6 exceeds n_max 5"):
        okada_shudo_scan(t, 5, 3)


def test_okada_shudo_runs_beyond_fifteen_tiles():
    # psl(3,4) on its 21 points: no tile cap stops the census, and the
    # fixed-point certificate decides it
    assert okada_shudo_scan(psl_triple(3, 4), 21, 3) == []


def test_ac_iff_invertible_intertwiner_from_generators(psl32_module, a4_triple_local=None):
    # transplantability theorem on the generator images of both coset actions
    from isodrum.transplant import intertwiner_basis, _int_det, _combine

    t = psl32_module
    assert is_ac(t)
    table_h, table_k = left_cosets(t.G, t.H), left_cosets(t.G, t.K)
    basis = intertwiner_basis(table_h.generator_actions, table_k.generator_actions, len(table_h))
    assert any(_int_det(m) != 0 for m in basis)


def test_format_parse_round_trip(gww_pair):
    for sys in gww_pair:
        text = format_involution_system(sys)
        back = parse_involution_system(text)
        assert back.perms == sys.perms
        assert format_involution_system(back) == text  # byte-exact


def test_parse_rejects_malformed():
    with pytest.raises(SpecFormatError):
        parse_involution_system("tiles: x\nsides: 3\n")
    with pytest.raises(SpecFormatError):
        parse_involution_system("tiles: 2\nsides: 1\nside 1: (1 3) ; boundary:\n")
    with pytest.raises(SpecFormatError):
        parse_involution_system("tiles: 2\nsides: 1\nside 1: ; boundary: 1\n")


def dominant_involution(sys):
    """Whether some side fixes more than a third of the tiles (strict)."""
    return any(3 * t > sys.n_tiles for t in sys.traces())


def test_dominant_involution():
    assert dominant_involution(single_tile())  # 1 > 1/3
    sys = InvolutionSystem(4, 3, (
        parse_cycles("(0 1)(2 3)", 4),
        parse_cycles("(1 2)", 4),
        parse_cycles("(0 3)", 4),
    ))
    # traces 0, 2, 2: 3*2 > 4
    assert dominant_involution(sys)
