"""Randomized cross-checks of PAIR and of the batched element kernel.

``verify_automorphism`` decides a generator-image map by the order of its
graph subgroup and evaluates it by sifting; it is compared with the
multiplication-table closure (``bruteforce.brute_automorphism``) on inner,
normalizer and block-swap automorphisms and on random image tuples.  ``elements`` and
``involutions_of`` are compared with per-element oracles.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from isodrum.catalog import duality_automorphism, psl_triple
from isodrum.constructions import add_kernel
from isodrum.errors import BoundExceeded
from isodrum.groups import PermGroup, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import involutions_of
from isodrum.triples import PairStatus, check_pair, verify_automorphism

from bruteforce import (brute_automorphism, brute_elements, brute_involutions, mulclose,
                        random_element)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def S4():
    return PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])


@st.composite
def small_group(draw, max_degree=6, max_order=720):
    """(G, rng): G generated by two or three random permutations of up to
    ``max_degree`` points, and a ``random.Random`` seeded by the same draw."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(3, max_degree)

    def perm():
        p = list(range(n))
        rng.shuffle(p)
        return Permutation(p)

    G = PermGroup(n, [perm() for _ in range(rng.randint(2, 3))])
    assume(G.order <= max_order)
    return G, rng


def outcome(fn):
    """The value of fn(), or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def doubled(G):
    """G x G on two blocks of G.degree points."""
    n = G.degree
    shift = lambda g, lo: Permutation(list(range(lo)) + [lo + int(x) for x in g.images]
                                      + list(range(lo + n, 2 * n)))
    return PermGroup(2 * n, [shift(g, 0) for g in G.generators]
                     + [shift(g, n) for g in G.generators])


@SETTINGS
@given(small_group(), st.sampled_from(["inner", "normalizer", "swap"]))
def test_sigma_matches_table_closure(drawn, kind):
    # conjugation by an element of G (inner), by a permutation normalizing
    # G, or by the block swap of G0 x G0 (outer whenever G0 is nontrivial):
    # sigma agrees with the closure on every element
    G, rng = drawn
    if kind == "swap":
        assume(G.order <= 24)
        n = G.degree
        G = doubled(G)
        c = Permutation(list(range(n, 2 * n)) + list(range(n)))
    elif kind == "inner":
        c = random_element(G, rng)
    else:
        p = list(range(G.degree))
        rng.shuffle(p)
        c = Permutation(p)
    images = [g.conjugate_by(c) for g in G.generators]
    assume(all(im in G for im in images))
    sigma = verify_automorphism(G, images)
    table = brute_automorphism(G.degree, G.generators, images)
    assert len(table) == G.order
    for x in G.elements():
        assert sigma(x) == table[x] == x.conjugate_by(c)


@SETTINGS
@given(small_group(max_order=120))
def test_accept_reject_matches_table_closure(drawn):
    # random image tuples: the same verdict, the same error, the same map
    G, rng = drawn
    elements = G.elements()
    images = [rng.choice(elements) for _ in G.generators]
    mine = outcome(lambda: verify_automorphism(G, images))
    theirs = outcome(lambda: brute_automorphism(G.degree, G.generators, images))
    if isinstance(theirs, dict):
        assert callable(mine)
        assert all(mine(x) == theirs[x] for x in elements)
    else:
        assert mine == theirs


def test_accept_reject_hits_every_verdict():
    # one explicit case per verdict: an automorphism, a non-bijective
    # homomorphism and a map that is no homomorphism
    C6 = PermGroup(6, [parse_cycles("(0 1 2 3 4 5)", 6)])
    gen = C6.generators[0]
    assert callable(verify_automorphism(C6, [gen.inverse()]))
    with pytest.raises(ValueError, match="non-bijective"):
        verify_automorphism(C6, [gen * gen])
    S3 = PermGroup(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])
    with pytest.raises(ValueError, match="homomorphism"):
        verify_automorphism(S3, [parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)])


def test_sign_map_is_rejected_as_non_bijective():
    # a homomorphism of S4 onto <(0 1)>, so only bijectivity fails
    G = S4()
    t = parse_cycles("(0 1)", 4)
    with pytest.raises(ValueError, match="non-bijective"):
        brute_automorphism(4, G.generators, [t, t])
    with pytest.raises(ValueError, match="non-bijective"):
        verify_automorphism(G, [t, t])


def test_non_homomorphism_is_rejected():
    # an involution sent to a 3-cycle
    G = S4()
    images = [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)", 4)]
    with pytest.raises(ValueError, match="homomorphism"):
        brute_automorphism(4, G.generators, images)
    with pytest.raises(ValueError, match="homomorphism"):
        verify_automorphism(G, images)


def test_image_outside_group_is_rejected():
    A4 = PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])
    with pytest.raises(ValueError, match="not a member"):
        verify_automorphism(A4, [parse_cycles("(0 1)", 4), parse_cycles("(1 2 3)", 4)])


def test_sigma_rejects_non_members():
    A4 = PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])
    sigma = verify_automorphism(A4, list(A4.generators))
    assert sigma(A4.identity) == A4.identity
    with pytest.raises(ValueError, match="not a member"):
        sigma(parse_cycles("(0 1)", 4))


def test_pair_bound_caps_h_only(monkeypatch):
    # PAIR lists H alone (the inner-square search), never G.  The duality
    # sigma squares to 1, which confirms without a search; sigma followed
    # by conjugation by c in H and K still swaps H and K, and its square
    # is conjugation by sigma(c) * c in H, which moves a generator of H
    t = psl_triple(3, 4)
    duality = duality_automorphism(3, 4)
    sigma = verify_automorphism(t.G, duality)
    c = next(c for c in t.H.elements() if c in t.K and not (sigma(c) * c).is_identity())
    cand = [im.conjugate_by(c) for im in duality]
    twisted = verify_automorphism(t.G, cand)
    assert any(twisted(twisted(h)) != h for h in t.H.generators)
    assert t.H.order == 960 < t.G.order
    monkeypatch.setenv("GF_BOUND", str(t.H.order - 1))
    assert check_pair(t, duality) == PairStatus.CONFIRMED
    monkeypatch.setenv("GF_BOUND", str(t.H.order))
    assert check_pair(t, cand) == PairStatus.CONFIRMED
    monkeypatch.setenv("GF_BOUND", str(t.H.order - 1))
    with pytest.raises(BoundExceeded):
        check_pair(t, cand)


def test_psl62_pair_confirms_without_listing_h():
    # |H| = 319,979,520 is above the enumeration bound, but the duality
    # squares to 1 on H's generators
    t = psl_triple(6, 2)
    assert t.H.order == 319_979_520
    assert check_pair(t, duality_automorphism(6, 2)) == PairStatus.CONFIRMED


@SETTINGS
@given(small_group())
def test_elements_order_matches_per_element_traversal(drawn):
    G, _ = drawn
    assert G.elements() == brute_elements(G)
    assert len(set(G.elements())) == G.order


@SETTINGS
@given(small_group())
def test_involutions_match_oracle(drawn):
    G, _ = drawn
    assert involutions_of(G) == brute_involutions(mulclose(list(G.generators)))


def test_involutions_of_unfaithful_image_group(psl32_small):
    # the group INV lists when the H-side action has a kernel
    C2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    t = add_kernel(psl32_small, C2)
    table = left_cosets(t.G, t.H)
    assert not table.is_faithful()
    image = PermGroup(len(table), [table.action_of(g) for g in t.G.generators])
    expected = brute_involutions(mulclose(list(image.generators)))
    assert len(expected) == 21
    assert involutions_of(image) == expected


def test_no_involutions():
    # C7 x| C3 has odd order 21; the trivial group has no elements but 1
    F21 = PermGroup(7, [parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(1 2 4)(3 6 5)", 7)])
    assert F21.order == 21
    assert involutions_of(F21) == []
    assert involutions_of(PermGroup(3, [])) == []
