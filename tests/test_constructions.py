import random

import pytest

from isodrum.constructions import (
    ConstructionData,
    NotElementwiseConjugate,
    WreathGroup,
    add_kernel,
    diagonal_subgroup,
    direct_power,
    ec_witness,
    type1,
    type2,
    type3,
    _direct_power_group,
)
from isodrum.groups import PermGroup, is_subgroup, normal_closure, same_group
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, check_ff, check_max, compress, is_ac, is_ec

from bruteforce import (
    WreathElement,
    all_blocks_group,
    brute_is_ec,
    is_conjugate,
    mulclose,
    random_element,
)


def rand_perm(rng, n):
    img = list(range(n))
    rng.shuffle(img)
    return Permutation(img)


def S2():
    return PermGroup(2, [parse_cycles("(0 1)", 2)])


def test_wreath_law_associative_and_inverse():
    rng = random.Random(11)
    for _ in range(60):
        els = [WreathElement(tuple(rand_perm(rng, 4) for _ in range(3)), rand_perm(rng, 3))
               for _ in range(3)]
        a, b, c = els
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).is_identity()
        ident = WreathElement.identity(3, 4)
        assert (a * ident) == a and (ident * a) == a


def test_wreath_realization_is_homomorphism():
    rng = random.Random(12)
    for _ in range(40):
        a = WreathElement(tuple(rand_perm(rng, 3) for _ in range(4)), rand_perm(rng, 4))
        b = WreathElement(tuple(rand_perm(rng, 3) for _ in range(4)), rand_perm(rng, 4))
        assert (a * b).realize() == a.realize() * b.realize()


def _oracle_top(t: Permutation, d: int) -> Permutation:
    """The top permutation t realized by the wreath oracle, on the identity base."""
    return WreathElement(tuple(Permutation.identity(d) for _ in range(t.degree)), t).realize()


def _random_transitive_top(rng, n):
    """A transitive group of degree n: a relabeled n-cycle and one random
    permutation."""
    cycle = Permutation([(x + 1) % n for x in range(n)])
    return PermGroup(n, [cycle.conjugate_by(rand_perm(rng, n)), rand_perm(rng, n)])


def test_top_generators_are_the_oracle_block_permutations():
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    tops = [S2(), _c(["(0 1 2)"], 3), _c(["(0 1 2 3)", "(0 2)"], 4),
            _random_transitive_top(random.Random(13), 5)]
    controls = 0
    for T in tops:
        W = WreathGroup(S3, T)
        assert W.top_generators == [_oracle_top(t, 3) for t in T.generators]
        # negative control: the inverted block map i*d + x -> t^-1(i)*d + x
        for t, row in zip(T.generators, W.top_generators):
            if t.inverse() != t:
                assert row != _oracle_top(t.inverse(), 3)
                controls += 1
    assert controls >= 3


def test_wreath_group_size_and_transitivity():
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    W = WreathGroup(S3, S2())
    assert W.realized.order == 6**2 * 2 == W.expected_order()
    assert W.realized.is_transitive()
    C3 = PermGroup(3, [parse_cycles("(0 1 2)", 3)])
    W2 = WreathGroup(C3, PermGroup(3, [parse_cycles("(0 1 2)", 3)]))
    assert W2.realized.order == 3**3 * 3


def test_wreath_requires_transitive_top():
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    with pytest.raises(ValueError):
        WreathGroup(S3, PermGroup(3, [parse_cycles("(0 1)", 3)]))


def test_add_kernel_trivial(a5_triple):
    triv = PermGroup(1, [])
    t = add_kernel(a5_triple, triv)
    assert t.G.order == a5_triple.G.order
    assert is_ec(t) and check_ff(t)


def test_add_kernel_c2_on_psl(psl32_small):
    C2 = S2()
    t = add_kernel(psl32_small, C2)
    assert t.G.order == 336
    assert is_ec(t) and is_ac(t)
    assert not check_ff(t)


def test_add_kernel_c3_on_a4(a4_triple):
    C3 = PermGroup(3, [parse_cycles("(0 1 2)", 3)])
    t = add_kernel(a4_triple, C3)
    assert is_ec(t) and not is_ac(t) and not check_ff(t)


def test_add_kernel_requires_ec():
    S4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    bad = Triple(S4, PermGroup(4, [parse_cycles("(0 1)", 4)]),
                 PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]))
    with pytest.raises(NotElementwiseConjugate):
        add_kernel(bad, S2())


def test_direct_power_identity(a5_triple):
    assert direct_power(a5_triple, 1) is a5_triple


def test_direct_power_a5(a5_triple):
    t = direct_power(a5_triple, 2)
    assert t.G.order == 60**2
    assert t.H.order == 4 and t.K.order == 16
    assert is_ec(t) and check_ff(t)
    assert not check_max(t)


def test_direct_power_lists_no_elements(a5_triple, monkeypatch):
    # G^k is built from generators: an enumeration bound below |G^2| = 3600
    # does not stop it
    monkeypatch.setenv("GF_BOUND", "100")
    assert direct_power(a5_triple, 2).G.order == 3600


def test_direct_power_psl(psl32_small):
    t = direct_power(psl32_small, 2)
    assert t.G.order == 168**2
    assert is_ac(t) and check_ff(t)
    assert not check_max(t)


def test_direct_power_requires_ff(a4_triple):
    with pytest.raises(ValueError):
        direct_power(a4_triple, 2)  # V4 normal in A4: not FF


def test_type1_degenerate_returns_base(psl32_small):
    T1 = PermGroup(1, [])
    data = ConstructionData(variant=1, base_triple=psl32_small, T=T1, n=1)
    assert type1(data) is psl32_small


def test_type1_flagship_sizes_and_properties(psl32_small):
    data = ConstructionData(variant=1, base_triple=psl32_small, T=S2(), n=2)
    t = type1(data)
    assert t.G.order == 168**2 * 2 == 56448
    assert t.H.order == 24**2 * 2 == 1152
    assert t.K.order == 1152
    assert t.G.degree == 14
    assert is_ec(t)
    assert check_ff(t)
    assert check_max(t)


def test_type1_ec_only_base(a5_triple):
    data = ConstructionData(variant=1, base_triple=a5_triple, T=S2(), n=2)
    t = type1(data)
    assert t.G.order == 60**2 * 2
    assert t.H.order == 2**2 * 2 and t.K.order == 4**2 * 2
    assert is_ec(t)
    assert not is_ac(t)
    assert check_ff(t)


def test_type1_rejects_intransitive_top(psl32_small):
    T = PermGroup(2, [])
    data = ConstructionData(variant=1, base_triple=psl32_small, T=T, n=2)
    with pytest.raises(ValueError):
        type1(data)


def test_type1_rejects_non_ff_base(a4_triple):
    data = ConstructionData(variant=1, base_triple=a4_triple, T=S2(), n=2)
    with pytest.raises(ValueError):
        type1(data)


@pytest.mark.slow
def test_type1_nonconjugacy_inherited(psl32_small):
    # H and K non-conjugate in the base; the wreath subgroups stay
    # non-conjugate (exhaustive conjugator search on both levels)
    base = psl32_small
    found = any(
        all(h.conjugate_by(g) in base.K for h in base.H.generators)
        for g in base.G.elements()
    )
    assert not found, "base subgroups should be non-conjugate"
    data = ConstructionData(variant=1, base_triple=base, T=S2(), n=2)
    t = type1(data)
    for g in t.G.elements():
        if all(h.conjugate_by(g) in t.K for h in t.H.generators):
            pytest.fail("found a conjugator; wreath subgroups must stay non-conjugate")


def test_unbounded_index_arithmetic(psl32_small):
    # cyclic tops acting regularly: index grows like (base index)^m
    base_index = psl32_small.G.order // psl32_small.H.order
    for m in (1, 2, 3):
        if m == 1:
            T = PermGroup(1, [])
        else:
            T = PermGroup(m, [parse_cycles(f"({' '.join(str(i) for i in range(m))})", m)])
        data = ConstructionData(variant=1, base_triple=psl32_small, T=T, n=m)
        t = type1(data)
        assert t.G.order // t.H.order == base_index**m
    assert base_index**3 == 343


def test_type2_plain_diagonal(a5_group):
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag)
    t = type2(ConstructionData(variant=2, base_triple=base, T=S2(), n=2))
    assert t.G.order == 60**2 * 2
    assert t.H.order == 60 * 2  # |L| * |T|
    assert is_ec(t) and check_ff(t) and check_max(t)


def test_type2_twisted_diagonal(a5_group):
    # outer twist: conjugation by an odd transposition
    tau = parse_cycles("(0 1)", 5)
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    twisted = diagonal_subgroup(
        a5_group, 2,
        [list(a5_group.generators), [g.conjugate_by(tau) for g in a5_group.generators]],
    )
    base = Triple(G2, diag, twisted)
    t = type2(ConstructionData(variant=2, base_triple=base, T=S2(), n=2))
    assert t.H.order == t.K.order == 120
    # EC status as found by the checker, frozen after a brute-force check:
    # a 5-cycle pair (s, s) cannot reach (t, t^tau) inside A5 x A5
    assert is_ec(t) is False
    assert is_ac(t) is False


def test_top_group_must_normalize_the_diagonals(a5_group):
    # phi = conjugation by a 3-cycle has phi^2 != 1, so swapping the two
    # coordinates maps {(s, phi(s))} to {(phi(s), s)}, a different diagonal;
    # the swap is T's generator in type 2 and lies in type 3's block
    # stabilizer, so K grows past |L'|^l * |T| and the order check refuses it
    c = parse_cycles("(0 1 2)", 5)
    G2 = _direct_power_group(a5_group, 2)
    twisted = diagonal_subgroup(
        a5_group, 2,
        [list(a5_group.generators), [g.conjugate_by(c) for g in a5_group.generators]],
    )
    base = Triple(G2, diagonal_subgroup(a5_group, 2), twisted)
    with pytest.raises(ValueError, match="^constructed K has order 7200, expected 120$"):
        type2(ConstructionData(variant=2, base_triple=base, T=S2(), n=2))
    T = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4),
                      parse_cycles("(0 2)(1 3)", 4)])
    with pytest.raises(ValueError, match="^constructed K has order 103680000, expected 28800$"):
        type3(ConstructionData(variant=3, base_triple=base, T=T, l=2, k=2))


def test_type2_rejects_single_copy(a5_group):
    base = Triple(a5_group, a5_group, a5_group)
    data = ConstructionData(variant=2, base_triple=base, T=PermGroup(1, []), n=1)
    with pytest.raises(ValueError):
        type2(data)


def test_type2_rejects_nonsimple_factor():
    S4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    G2 = _direct_power_group(S4, 2)
    diag = diagonal_subgroup(S4, 2)
    base = Triple(G2, diag, diag)
    with pytest.raises(ValueError):
        type2(ConstructionData(variant=2, base_triple=base, T=S2(), n=2))


def test_type3_rejects_l_or_k_one(a5_group):
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag)
    T = PermGroup(2, [parse_cycles("(0 1)", 2)])
    with pytest.raises(ValueError):
        ConstructionData(variant=3, base_triple=base, T=T, l=1, k=2)
    with pytest.raises(ValueError):
        ConstructionData(variant=3, base_triple=base, T=T, l=2, k=1)


def test_type3_block_system_required(a5_group):
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag)
    # S4 is transitive on 4 points but does not preserve {0,1},{2,3}
    T = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    data = ConstructionData(variant=3, base_triple=base, T=T, l=2, k=2)
    with pytest.raises(ValueError):
        type3(data)


def flagship_type3(a5_group):
    """The type-3 wreath of the A5 x A5 diagonal triple under a D8 top."""
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag)
    T = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4),
                      parse_cycles("(0 2)(1 3)", 4)])
    assert T.order == 8
    return type3(ConstructionData(variant=3, base_triple=base, T=T, l=2, k=2))


@pytest.mark.slow
def test_type3_flagship(a5_group):
    t = flagship_type3(a5_group)
    assert t.G.order == 60**4 * 8
    assert t.H.order == 60**2 * 8  # |S|^l * |T|
    assert t.G.degree == 20
    assert is_ec(t)
    assert check_ff(t)
    assert check_max(t)


def test_type3_derived_series_at_default_bound(a5_group, monkeypatch):
    # normal closures list no elements, so chains of order 10^8 pass the
    # default enumeration bound of 10^6: |G'| = 2 * 60^4 and G'' = A5^4
    monkeypatch.delenv("GF_BOUND", raising=False)
    G = flagship_type3(a5_group).G
    orders = [G.order]
    while True:
        D = normal_closure(G, [a.inverse() * b.inverse() * a * b
                               for a in G.generators for b in G.generators])
        if D.order == G.order:
            break
        G = D
        orders.append(G.order)
    assert orders == [103_680_000, 25_920_000, 12_960_000]


def test_ec_witness_n1_definition(psl32_small):
    # single copy, identity top: l_1 conjugates a into H exactly when possible
    rng = random.Random(5)
    gamma = Permutation.identity(1)
    for _ in range(20):
        a = random_element(psl32_small.K, rng)
        (l1,) = ec_witness(psl32_small, gamma, [a])
        assert l1.inverse() * a * l1 in psl32_small.H


def test_ec_witness_two_and_three_cycles(psl32_small):
    rng = random.Random(6)
    for n, cyc in ((2, "(0 1)"), (3, "(0 1 2)")):
        gamma = parse_cycles(cyc, n)
        for _ in range(25):
            avec = [random_element(psl32_small.K, rng) for _ in range(n)]
            ls = ec_witness(psl32_small, gamma, avec)
            for w in range(n):
                r = ls[w].inverse() * avec[w] * ls[int(gamma.images[w])]
                assert r in psl32_small.H


def test_ec_witness_realized_conjugation(psl32_small):
    rng = random.Random(7)
    n = 3
    gamma = parse_cycles("(0 1 2)", n)
    Hwr = all_blocks_group(psl32_small.H.generators, PermGroup(n, [gamma]), psl32_small.G.degree)
    for _ in range(10):
        avec = [random_element(psl32_small.K, rng) for _ in range(n)]
        ls = ec_witness(psl32_small, gamma, avec)
        lw = WreathElement(tuple(ls), Permutation.identity(n)).realize()
        aw = WreathElement(tuple(avec), gamma).realize()
        assert lw.inverse() * aw * lw in Hwr


def test_ec_witness_refutes_non_ec():
    S4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    H = PermGroup(4, [parse_cycles("(0 1)", 4)])
    K = PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)])
    t = Triple(S4, H, K)
    gamma = Permutation.identity(1)
    with pytest.raises(NotElementwiseConjugate):
        ec_witness(t, gamma, [parse_cycles("(0 1)(2 3)", 4)])


def test_diagonal_subgroup_size(a5_group):
    d = diagonal_subgroup(a5_group, 3)
    assert d.order == 60
    assert d.degree == 15


def _c(cycles, degree):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycles])


def _wreath_case(case, a5_group, psl32_small):
    """(constructed triple, base triple, S, T, block degree) for one case."""
    twist = parse_cycles("(0 1)", 5)
    diag = diagonal_subgroup(a5_group, 2)
    a5sq = Triple(_direct_power_group(a5_group, 2), diag, diag)
    if case.startswith("type1"):
        T = {"C2": _c(["(0 1)"], 2), "C3": _c(["(0 1 2)"], 3),
             "S3": _c(["(0 1 2)", "(0 1)"], 3)}[case.split()[1]]
        data = ConstructionData(variant=1, base_triple=psl32_small, T=T, n=T.degree)
        return type1(data), psl32_small, psl32_small.G, T, 7
    if case.startswith("type2"):
        base = a5sq
        if case == "type2 twisted":
            base = Triple(a5sq.G, diag, diagonal_subgroup(
                a5_group, 2, [list(a5_group.generators),
                              [g.conjugate_by(twist) for g in a5_group.generators]]))
        data = ConstructionData(variant=2, base_triple=base, T=S2(), n=2)
        return type2(data), base, a5_group, S2(), 5
    T = {"D4": _c(["(0 1)", "(2 3)", "(0 2)(1 3)"], 4), "C4": _c(["(0 2 1 3)"], 4)}[case.split()[1]]
    return type3(ConstructionData(variant=3, base_triple=a5sq, T=T, l=2, k=2)), a5sq, a5_group, T, 5


@pytest.mark.parametrize("case", ["type1 C2", "type1 C3", "type1 S3", "type2 plain",
                                  "type2 twisted", "type3 D4", "type3 C4"])
def test_block_zero_generates_the_all_blocks_groups(case, a5_group, psl32_small):
    t, base, S, T, d = _wreath_case(case, a5_group, psl32_small)
    assert same_group(t.G, all_blocks_group(S.generators, T, d))
    assert same_group(t.H, all_blocks_group(base.H.generators, T, d))
    assert same_group(t.K, all_blocks_group(base.K.generators, T, d))
    # each group lists its base generators on block 0, then the top
    # generators as the wreath oracle realizes them
    total, ngens = t.G.degree, len(T.generators)
    top = [_oracle_top(g, d) for g in T.generators]
    for group, sub in ((t.G, S), (t.H, base.H), (t.K, base.K)):
        block0 = [Permutation(list(g.images) + list(range(g.degree, total)))
                  for g in sub.generators]
        assert list(group.generators) == block0 + top
    # negative control: block 0 without the top generators is one copy of S
    assert PermGroup(t.G.degree, t.G.generators[:-ngens]).order < t.G.order


def test_repeated_base_subgroup_is_built_once(a5_group):
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(_direct_power_group(a5_group, 2), diag, diag)
    t2 = type2(ConstructionData(variant=2, base_triple=base, T=S2(), n=2))
    t3 = flagship_type3(a5_group)
    assert t2.K is t2.H and t3.K is t3.H
    # an equal subgroup that is another object is lifted on its own
    apart = Triple(base.G, diag, diagonal_subgroup(a5_group, 2))
    t = type2(ConstructionData(variant=2, base_triple=apart, T=S2(), n=2))
    assert t.K is not t.H and same_group(t.K, t.H)


def test_type3_refuses_a_top_group_that_twists_the_diagonals(twisted_type3):
    with pytest.raises(ValueError, match="^top group twists the diagonals between blocks$"):
        type3(twisted_type3)
    # the all-blocks generating set is no L^2 : T either: it is larger
    T = twisted_type3.T
    assert all_blocks_group(twisted_type3.base_triple.H.generators, T, 5).order > 60**2 * T.order


def test_order_check_refuses_a_wrong_order(psl32_small):
    from isodrum.constructions import _require_orders

    t = psl32_small
    assert _require_orders(t, 168, 24, 24) is t
    with pytest.raises(ValueError, match="^constructed K has order 24, expected 48$"):
        _require_orders(t, 168, 24, 48)
