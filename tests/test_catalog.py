import pytest

from isodrum.catalog import (
    ProjectiveSpace,
    SUPPORTED,
    duality_automorphism,
    psl_group,
    psl_order,
    psl_triple,
    _Field,
)
from isodrum.groups import PermGroup
from isodrum.triples import PairStatus, check_ff, check_max, check_pair, is_ac, is_ec

from bruteforce import is_conjugate, random_element


def test_field_tables():
    for q in (2, 3, 4):
        F = _Field(q)
        for a in range(1, q):
            assert F.mul[a][F.inv[a]] == 1
        for a in range(q):
            assert F.add[a][F.neg[a]] == 0
    F4 = _Field(4)
    # x * x = x + 1 and (x+1)*(x+1) = x
    assert F4.mul[2][2] == 3
    assert F4.mul[3][3] == 2
    with pytest.raises(ValueError):
        _Field(5)


@pytest.mark.parametrize("n,q", SUPPORTED)
def test_projective_counts(n, q):
    sp = ProjectiveSpace.create(n, q)
    assert sp.point_count == (q**n - 1) // (q - 1)
    assert len(sp.hyperplanes) == sp.point_count
    per = (q ** (n - 1) - 1) // (q - 1)
    for h in range(sp.point_count):
        assert sum(sp.incident(p, h) for p in range(sp.point_count)) == per


def test_fano_incidence():
    sp = ProjectiveSpace.create(3, 2)
    assert sp.point_count == 7
    assert all(sum(sp.incident(p, h) for p in range(7)) == 3 for h in range(7))


@pytest.mark.parametrize("n,q,index", [((3), 2, 7), (3, 3, 13), (4, 2, 15), (3, 4, 21)])
def test_psl_orders_and_indices(n, q, index):
    t = psl_triple(n, q)
    assert t.G.order == psl_order(n, q)
    assert t.G.order // t.H.order == index
    assert t.G.order // t.K.order == index
    assert t.G.degree == 2 * index


@pytest.mark.parametrize("n,q", SUPPORTED)
def test_chain_level_zero_has_at_most_the_given_generators(n, q):
    # a residue of level i's Schreier generator joins only the levels after
    # i, so level 0 keeps the generators that were added from outside
    t = psl_triple(n, q)
    for X in (t.G, t.H):
        chain = PermGroup(X.degree, X.generators).chain()
        assert chain.order() == X.order
        assert len(chain.levels[0].gens) <= len(X.generators)


def test_realization_preserves_incidence():
    G, sp = psl_group(3, 2)
    m = sp.point_count
    for g in G.generators:
        for p in range(m):
            for h in range(m):
                assert sp.incident(p, h) == sp.incident(
                    int(g.images[p]), int(g.images[m + h]) - m)


def test_psl32_full_property_suite(psl32):
    assert is_ac(psl32) and is_ec(psl32)
    assert check_ff(psl32) and check_max(psl32)
    assert check_pair(psl32, duality_automorphism(3, 2)) == PairStatus.CONFIRMED


@pytest.mark.slow
@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (3, 4)])
def test_other_catalog_triples_ac_max_pair(n, q):
    t = psl_triple(n, q)
    assert is_ac(t)
    assert check_ff(t)
    assert check_max(t)
    assert check_pair(t, duality_automorphism(n, q)) == PairStatus.CONFIRMED


def test_duality_squares_to_inner(psl32):
    from isodrum.triples import verify_automorphism

    cand = duality_automorphism(3, 2)
    sigma = verify_automorphism(psl32.G, cand)
    for g in psl32.G.generators:
        assert sigma(sigma(g)) == g  # the square is the identity map


def test_point_and_hyperplane_stabilizers_not_conjugate(psl32):
    # exhaustive conjugator search at (3,2)
    for g in psl32.G.elements():
        if all(h.conjugate_by(g) in psl32.K for h in psl32.H.generators):
            pytest.fail("point and hyperplane stabilizers conjugate")


@pytest.mark.slow
def test_inv_witnesses_across_catalog():
    # fixed-point identity targets index + 2 at three sides; witnesses found
    # for (3,3) and (4,2), and provably absent inside (3,4) itself, whose
    # involutions all fix 5 of the 21 points (3 * 5 < 23)
    from isodrum.triples import check_inv

    t33 = psl_triple(3, 3)
    w33 = check_inv(t33, 3)
    assert w33 is not None and sorted(w33.traces()) == [5, 5, 5]
    t42 = psl_triple(4, 2)
    w42 = check_inv(t42, 3)
    assert w42 is not None and sorted(w42.traces()) == [3, 7, 7]
    t34 = psl_triple(3, 4)
    assert check_inv(t34, 3) is None


def test_unsupported_field():
    with pytest.raises(ValueError):
        psl_triple(3, 5)


def model_fixed_coset(n, q, a, b):
    """A common point image of a and b: the least point y with a(y) == b(y).

    a and b must fix one common hyperplane.  Then so does a * b^-1, and a
    projective map with a fixed hyperplane (an eigenvector of its transpose)
    has a fixed point y, an eigenvector of its own; b^-1(a(y)) == y says
    a(y) == b(y).
    """
    m = ProjectiveSpace.create(n, q).point_count
    if a.degree != 2 * m or b.degree != 2 * m:
        raise ValueError("elements do not act on this space")
    if not any(int(a.images[i]) == i == int(b.images[i]) for i in range(m, 2 * m)):
        raise ValueError("elements do not stabilize a common hyperplane")
    for y in range(m):
        if int(a.images[y]) == int(b.images[y]):
            return y
    raise AssertionError("no common point image: the projective fixed-point property fails")


def test_model_fixed_coset_trivial(psl32):
    e = psl32.G.identity
    assert model_fixed_coset(3, 2, e, e) == 0


def test_model_fixed_coset_equal_elements(psl32):
    import random

    rng = random.Random(0)
    for _ in range(10):
        a = random_element(psl32.K, rng)
        y = model_fixed_coset(3, 2, a, a)
        assert 0 <= y < 7


def test_model_fixed_coset_random_pairs(psl32):
    import random

    rng = random.Random(1)
    for _ in range(25):
        a = random_element(psl32.K, rng)
        b = random_element(psl32.K, rng)
        y = model_fixed_coset(3, 2, a, b)
        assert int(a.images[y]) == int(b.images[y])
        assert y == min(p for p in range(7) if int(a.images[p]) == int(b.images[p]))


def test_model_fixed_coset_requires_common_hyperplane(psl32):
    import random

    rng = random.Random(2)
    a = random_element(psl32.K, rng)
    # an element moving every hyperplane that H fixes pointwise is unlikely;
    # build one that fixes no common hyperplane with a by taking b in H-side
    for _ in range(50):
        b = random_element(psl32.G, rng)
        common = any(int(a.images[i]) == i == int(b.images[i]) for i in range(7, 14))
        if not common:
            with pytest.raises(ValueError):
                model_fixed_coset(3, 2, a, b)
            return
    pytest.skip("no witness pair without a common fixed hyperplane found")
