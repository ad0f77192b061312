import random

import numpy as np
import pytest

from isodrum.errors import BoundExceeded
from isodrum.groups import (
    PermGroup,
    _orbit_roots,
    _rows,
    conjugacy_classes,
    core,
    is_simple,
    is_subgroup,
    is_transitive_on,
    left_cosets,
    normal_closure,
    same_group,
)
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, check_max, max_witness

from bruteforce import (
    all_subgroups,
    brute_classes,
    brute_conjugators,
    brute_core,
    is_conjugate,
    mulclose,
    random_element,
)


def S(n):
    return PermGroup(n, [parse_cycles("(0 1)", n), parse_cycles(f"({' '.join(map(str, range(n)))})", n)])


def A4():
    return PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])


def klein():
    return PermGroup(4, [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)])


CHAIN_CORPUS = [
    ("S3", S(3), 6),
    ("S4", S(4), 24),
    ("S5", S(5), 120),
    ("A4", A4(), 12),
    ("V4", klein(), 4),
    ("C6", PermGroup(6, [parse_cycles("(0 1 2 3 4 5)", 6)]), 6),
    ("D8", PermGroup(4, [parse_cycles("(0 1 2 3)", 4), parse_cycles("(0 2)", 4)]), 8),
    ("A5", PermGroup(5, [parse_cycles("(0 1 2)", 5), parse_cycles("(0 1 2 3 4)", 5)]), 60),
    ("trivial", PermGroup(3, []), 1),
]


def test_psl32_chain_order_matches_closure():
    from isodrum.catalog import psl_group

    G, _ = psl_group(3, 2)
    assert G.order == 168
    assert len(mulclose(list(G.generators))) == 168


@pytest.mark.parametrize("name,G,order", CHAIN_CORPUS, ids=[c[0] for c in CHAIN_CORPUS])
def test_chain_order_matches_closure(name, G, order):
    assert G.order == order
    closure = mulclose(list(G.generators)) if G.generators else {G.identity}
    assert len(closure) == G.order
    elems = G.elements()
    assert len(elems) == len(set(elems)) == G.order
    assert set(elems) == closure


def test_s3_from_spec_generators():
    G = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    assert G.chain().order() == G.order == 6


def test_a4_order_by_closure():
    G = A4()
    assert G.order == len(mulclose(list(G.generators))) == 12


def test_membership_of_random_generator_products():
    rng = random.Random(5)
    for _, G, _ in CHAIN_CORPUS:
        if not G.generators:
            continue
        for _ in range(10):
            p = G.identity
            for _ in range(rng.randrange(1, 4)):
                p = p * rng.choice(G.generators)
            assert p in G


def orbit(G, x):
    roots = _orbit_roots(_rows([g.images for g in G.generators], G.degree))
    return frozenset(np.flatnonzero(roots == roots[x]).tolist())


def test_orbit_stabilizer_product():
    for _, G, _ in CHAIN_CORPUS:
        for x in range(G.degree):
            assert len(orbit(G, x)) * G.stabilizer(x).order == G.order


def test_trivial_group_orbit_and_stabilizer():
    G = PermGroup(5, [])
    assert orbit(G, 3) == frozenset([3])
    assert same_group(G.stabilizer(3), G)


def test_s3_stabilizer_is_s2():
    G = S(3)
    H = G.stabilizer(2)
    assert H.order == 2


def test_point_out_of_range():
    with pytest.raises(ValueError):
        S(3).stabilizer(3)
    with pytest.raises(ValueError):
        S(3).stabilizer(-1)


def test_is_conjugate_identity():
    G = S(4)
    e = G.identity
    assert is_conjugate(G, e, e) == e


def test_is_conjugate_cycle_type_filter():
    G = S(4)
    a = parse_cycles("(0 1)", 4)
    b = parse_cycles("(0 1)(2 3)", 4)
    assert is_conjugate(G, a, b) is None


def test_is_conjugate_in_a4():
    G = A4()
    a = parse_cycles("(0 1)(2 3)", 4)
    b = parse_cycles("(0 2)(1 3)", 4)
    g = is_conjugate(G, a, b)
    assert g is not None
    assert a.conjugate_by(g) == b
    assert g in G
    # oracle: witnesses exist among the 12 elements
    assert brute_conjugators(G.elements(), a, b)


def test_is_conjugate_requires_membership():
    with pytest.raises(ValueError):
        is_conjugate(A4(), parse_cycles("(0 1)", 4), parse_cycles("(0 1)", 4))


def test_conjugacy_soundness_and_completeness_small():
    from isodrum.catalog import psl_group

    rng = random.Random(6)
    corpus = [(n, G, o) for n, G, o in CHAIN_CORPUS if 1 < o <= 200]
    corpus.append(("PSL32", psl_group(3, 2)[0], 168))
    for _, G, order in corpus:
        elems = G.elements()
        for _ in range(15):
            a, b = rng.choice(elems), rng.choice(elems)
            got = is_conjugate(G, a, b)
            witnesses = brute_conjugators(elems, a, b)
            if got is None:
                assert not witnesses
            else:
                assert a.conjugate_by(got) == b


def test_classes_s3():
    cc = conjugacy_classes(S(3))
    assert sorted(cc.sizes) == [1, 2, 3]


def test_classes_a4():
    cc = conjugacy_classes(A4())
    assert sorted(cc.sizes) == [1, 3, 4, 4]
    oracle = brute_classes(A4().elements())
    assert sorted(len(c) for c in oracle) == [1, 3, 4, 4]
    # same partition
    got = {}
    for e in A4().elements():
        got.setdefault(cc.class_of[e.key()], set()).add(e)
    assert set(map(frozenset, got.values())) == set(oracle)


def test_classes_share_cycle_type_and_sizes_divide_order():
    for _, G, order in CHAIN_CORPUS:
        if order > 300:
            continue
        cc = conjugacy_classes(G)
        elements = G.elements()
        assert sum(cc.sizes) == order
        for i, rep in enumerate(cc.reps):
            members = [e for e in elements if cc.class_of[e.key()] == i]
            assert len(members) == cc.sizes[i]
            assert order % cc.sizes[i] == 0
            assert all(cycle_lengths(m) == cycle_lengths(rep) for m in members)


def cycle_lengths(p):
    return sorted(map(len, p.cycles(include_fixed=True)))


def test_classes_bound(monkeypatch):
    monkeypatch.setenv("GF_BOUND", "100")
    with pytest.raises(BoundExceeded):
        conjugacy_classes(S(5))


def test_left_cosets_s3():
    G = S(3)
    H = PermGroup(3, [parse_cycles("(0 1)", 3)])
    table = left_cosets(G, H)
    assert len(table) == 3
    assert table.representatives[0].is_identity()
    assert len(table) * H.order == G.order


def test_coset_signature_constant_on_cosets():
    G = S(4)
    H = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2)", 4)])
    table = left_cosets(G, H)
    for h in H.elements():
        for r in table.representatives:
            # coset 0 is H, so the index of Hg is the image of 0 under g's action
            assert table.action_of(h * r).images[0] == table.action_of(r).images[0]


def test_coset_action_s3_natural():
    G = S(3)
    H = PermGroup(3, [parse_cycles("(0 1)", 3)])
    table = left_cosets(G, H)
    image = PermGroup(len(table), table.generator_actions)
    assert image.degree == 3
    assert image.is_transitive()
    assert image.order == 6
    assert core(G, H).order == 1


def test_coset_action_projection():
    # S3 x S2 acting with H = S3 x 1: degree-2 image, kernel of order 6
    gens = [
        parse_cycles("(0 1)", 5),
        parse_cycles("(0 1 2)", 5),
        parse_cycles("(3 4)", 5),
    ]
    G = PermGroup(5, gens)
    H = PermGroup(5, gens[:2])
    table = left_cosets(G, H)
    image = PermGroup(len(table), table.generator_actions)
    assert image.degree == 2
    assert image.order == 2
    K = core(G, H)
    assert K.order == 6


def test_coset_action_not_subgroup_error():
    with pytest.raises(ValueError):
        left_cosets(S(3), PermGroup(4, []))  # another degree
    with pytest.raises(ValueError):
        left_cosets(A4(), PermGroup(4, [parse_cycles("(0 1)", 4)]))  # odd, so not in A4


def test_core_h_equals_g():
    G = S(4)
    assert same_group(core(G, G), G)


def test_core_agrees_with_kernel_and_bruteforce():
    cases = [
        (S(4), PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2)", 4)])),
        (S(4), klein()),
        (A4(), PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)])),
        (A4(), klein()),
    ]
    for G, H in cases:
        K = core(G, H)
        # oracle 1: elements whose whole class stays inside H
        oracle = brute_core(G.elements(), mulclose(list(H.generators)) if H.generators else [G.identity])
        assert set(K.elements()) == oracle
        # oracle 2: kernel of the coset action, element by element
        table = left_cosets(G, H)
        kernel = {g for g in G.elements() if g in H and table_fixes_all(table, g)}
        assert set(K.elements()) == kernel


def table_fixes_all(table, g):
    return all(
        table.action_of(r * g).images[0] == i for i, r in enumerate(table.representatives)
    )


def test_is_maximal_examples():
    G = A4()
    H = PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)])
    assert check_max(Triple(G, H, H)) is False  # inside the Klein four-group
    assert check_max(Triple(G, klein(), klein())) is True
    S4 = S(4)
    A4_in_S4 = PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])
    assert check_max(Triple(S4, A4_in_S4, A4_in_S4)) is True


def test_is_maximal_rejects_equal():
    # a side equal to G is not maximal: G itself is the witness
    G = S(3)
    assert max_witness(Triple(G, G, G)) == ("H", G)
    assert check_max(Triple(G, G, G)) is False


def test_is_maximal_against_subgroup_lattice():
    # oracle: enumerate every subgroup and look for strict intermediates
    for G in [S(3), A4(), S(4),
              PermGroup(4, [parse_cycles("(0 1 2 3)", 4), parse_cycles("(0 2)", 4)])]:
        elems = G.elements()
        subgroups = all_subgroups(elems)
        gset = frozenset(elems)
        for sub in subgroups:
            if sub == gset:
                continue
            H = PermGroup(G.degree, sorted(sub))
            expected = not any(sub < other < gset for other in subgroups)
            assert check_max(Triple(G, H, H)) is expected, f"{sorted(map(str, sub))}"


def test_normal_closure_trivial():
    G = A4()
    assert normal_closure(G, [G.identity]).order == 1


def test_normal_closure_three_cycle_is_whole_a4():
    G = A4()
    N = normal_closure(G, [parse_cycles("(0 1 2)", 4)])
    assert same_group(N, G)


def test_normal_closure_double_transposition_is_klein():
    G = A4()
    N = normal_closure(G, [parse_cycles("(0 1)(2 3)", 4)])
    assert N.order == 4
    assert same_group(N, klein())


def test_normal_closure_requires_membership():
    with pytest.raises(ValueError):
        normal_closure(A4(), [parse_cycles("(0 1)", 4)])


def test_is_simple():
    assert is_simple(PermGroup(5, [parse_cycles("(0 1 2)", 5), parse_cycles("(0 1 2 3 4)", 5)]))
    assert not is_simple(A4())
    assert not is_simple(S(4))
    assert not is_simple(PermGroup(3, []))


def test_is_subgroup():
    assert is_subgroup(A4(), S(4))
    assert not is_subgroup(S(4), A4())


def test_same_group_on_one_object_builds_no_chain():
    G = S(5)
    assert same_group(G, G)
    assert G._chain is None
    assert same_group(A4(), A4()) and not same_group(A4(), S(4))


def test_elements_bound(monkeypatch):
    monkeypatch.setenv("GF_BOUND", "100")
    with pytest.raises(BoundExceeded):
        S(6).elements()


def test_random_element_uniformish_and_member():
    rng = random.Random(7)
    G = S(4)
    seen = set()
    for _ in range(300):
        p = random_element(G, rng)
        assert p in G
        seen.add(p)
    assert len(seen) == 24


def test_is_transitive_on_matches_closure_orbit():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(0, 3)):
            img = list(range(n))
            # a random product of a few transpositions: often intransitive
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randrange(n), rng.randrange(n)
                img[a], img[b] = img[b], img[a]
            gens.append(Permutation(img))
        orbit = {0} | {int(g.images[0]) for g in mulclose(gens)}
        expected = len(orbit) == n
        assert is_transitive_on(n, [g.images for g in gens]) == expected
        assert PermGroup(n, gens).is_transitive() == expected
    assert not is_transitive_on(0, [])
