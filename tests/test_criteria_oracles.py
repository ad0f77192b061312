"""Randomized cross-checks of the exact AC, EC and transplantability criteria.

AC is decided by double-coset counts, EC by fixed cosets and the
invertibility of a transplantation by intertwiner dimensions.  Each is
compared with an oracle that enumerates whole groups: conjugacy classes by
scanning all conjugations, double cosets by multiplying elements, and
characters by closing the paired gluing generators.  The AC and EC
witnesses that ``property_report`` prints are compared with the least
element found from the definitions.  The census's per-triple isometry
verdict (``sides_conjugate``: K fixes a coset of H) is compared with
conjugating all of H by every element of G.
"""

import random
import re
from functools import lru_cache

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from isodrum.catalog import psl_triple
from isodrum.groups import PermGroup, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import (InvolutionSystem, find_transplantation, involutions_of,
                                verify_intertwiner)
from isodrum.triples import (Triple, compress, is_ac, is_ec, property_report, rank,
                             sides_conjugate)

from bruteforce import (
    brute_classes,
    brute_conjugate_subgroups,
    brute_double_coset_count,
    brute_fixed_cosets,
    brute_is_ac,
    brute_is_ec,
    brute_same_character,
    fraction_det,
    mulclose,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def conjugate_triple(draw, max_degree=6, max_order=360):
    """(G, H, K) with K generated by G-conjugates of H's generators.

    G acts on up to two blocks of points as in the coset oracles.  H is
    generated by x and y, where x is usually a member of G's smallest class
    of size > 1 and y is usually x itself; K is generated by x^g and y^h for
    independently drawn g and h.  A cyclic H with K spanned by two
    conjugates of its generator makes EC-not-AC triples common (a double
    transposition in A4 or S4 gives C2 against V4).
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = rng.choice([0, 2, 3])
    a = rng.randint(max(2, 3 - b), max_degree - b)
    n = a + b

    def on_block(lo, size):
        p = list(range(size))
        rng.shuffle(p)
        return Permutation(list(range(lo)) + [lo + x for x in p] + list(range(lo + size, n)))

    gens = [on_block(0, a) for _ in range(2)]
    if b:
        gens += [on_block(a, b) for _ in range(rng.randint(1, 2))]
    G = PermGroup(n, gens)
    assume(6 <= G.order <= max_order)
    elements = G.elements()
    noncentral = [(len(c), min(c)) for c in brute_classes(elements) if len(c) > 1]
    x = min(noncentral)[1] if noncentral and rng.random() < 0.9 else rng.choice(elements)
    y = x if rng.random() < 0.8 else rng.choice(elements)
    H = PermGroup(n, [x, y])
    K = PermGroup(n, [x.conjugate_by(rng.choice(elements)), y.conjugate_by(rng.choice(elements))])
    return Triple(G, H, K)


def triple(degree, gens, h, k):
    cyc = lambda cs: [parse_cycles(c, degree) for c in cs]
    return Triple(PermGroup(degree, cyc(gens)), PermGroup(degree, cyc(h)), PermGroup(degree, cyc(k)))


# EC without AC: C2 against V4 in A4 and in A5; two non-conjugate C2 in S4
A4_EC = triple(4, ["(0 1 2)", "(1 2 3)"], ["(0 1)(2 3)"], ["(0 1)(2 3)", "(0 2)(1 3)"])
A5_EC = triple(5, ["(0 1 2)", "(0 1 2 3 4)"], ["(0 1)(2 3)"], ["(0 1)(2 3)", "(0 2)(1 3)"])
S4_NOT_EC = triple(4, ["(0 1)", "(0 1 2 3)"], ["(0 1)"], ["(0 1)(2 3)"])
# Young subgroups S4 and S3 x S2 x S2 of S7: ranks 34, 25, 25, so two equal
# ranks out of three do not make a triple AC
S7_YOUNG = triple(7, ["(0 1)", "(0 1 2 3 4 5 6)"], ["(0 1)", "(0 1 2 3)"],
                  ["(0 1)", "(0 1 2)", "(3 4)", "(5 6)"])


def elements_of(P):
    return mulclose(list(P.generators)) if P.generators else {P.identity}


@SETTINGS
@given(conjugate_triple())
@example(A4_EC)
@example(A5_EC)
@example(S4_NOT_EC)
@example(S7_YOUNG)
def test_rank_ac_and_ec_against_bruteforce(t):
    ge, he, ke = t.G.elements(), elements_of(t.H), elements_of(t.K)
    for A, B in ((t.H, t.H), (t.H, t.K), (t.K, t.K), (t.K, t.H)):
        assert rank(t.G, A, B) == brute_double_coset_count(ge, A.generators, B.generators)
    swapped = Triple(t.G, t.K, t.H)
    assert is_ac(t) == is_ac(swapped) == brute_is_ac(ge, he, ke)
    assert is_ec(t) == is_ec(swapped) == brute_is_ec(ge, he, ke)


@st.composite
def conjugated_sides(draw):
    """``conjugate_triple``'s (G, H, K), or (G, H, H^g) for a drawn g in G."""
    t = draw(conjugate_triple())
    if not draw(st.booleans()):
        return t
    g = draw(st.sampled_from(t.G.elements()))
    return Triple(t.G, t.H, PermGroup(t.G.degree, [h.conjugate_by(g) for h in t.H.generators]))


@SETTINGS
@given(conjugated_sides())
def test_sides_conjugate_against_bruteforce(t):
    # the census's per-triple isometry verdict, K fixing a coset of H,
    # against conjugating all of H by every element of G
    conjugate = brute_conjugate_subgroups(t.G.elements(), elements_of(t.H), elements_of(t.K))
    assert sides_conjugate(t) == sides_conjugate(Triple(t.G, t.K, t.H)) == conjugate


def test_point_and_hyperplane_stabilizers_are_not_conjugate(psl32):
    # negative control: psl(3,2)'s point and hyperplane stabilizers are AC
    # (the Gassmann pair of the census) but not conjugate in G; K = H^g is
    g = next(g for g in psl32.G.generators if g not in psl32.H)
    Hg = PermGroup(psl32.G.degree, [h.conjugate_by(g) for h in psl32.H.generators])
    ge, he = psl32.G.elements(), elements_of(psl32.H)
    assert is_ac(psl32) and not sides_conjugate(psl32)
    assert not brute_conjugate_subgroups(ge, he, elements_of(psl32.K))
    assert sides_conjugate(Triple(psl32.G, psl32.H, Hg))
    assert brute_conjugate_subgroups(ge, he, elements_of(Hg))


WITNESS_TEXT = {"ac": re.compile(r"element (.*) fixes (\d+) cosets of H, (\d+) of K"),
                "ec": re.compile(r"element (.*) conjugate into one side only")}


def witness(t, prop):
    """(element, counts...) parsed from ``property_report``'s witness for
    ``prop``, or None when the report gives none."""
    text = property_report(t, props=()).witnesses.get(prop)
    if text is None:
        return None
    x, *counts = WITNESS_TEXT[prop].fullmatch(text).groups()
    return (parse_cycles(x, t.G.degree), *map(int, counts))


def ec_witness_element(t):
    w = witness(t, "ec")
    return None if w is None else w[0]


@SETTINGS
@given(conjugate_triple())
@example(A4_EC)
@example(S4_NOT_EC)
def test_ec_witness_against_class_definition(t):
    # the least element of either side whose G-class misses the other side
    he, ke = elements_of(t.H), elements_of(t.K)
    bad = []
    for cls in brute_classes(t.G.elements()):
        if not cls & ke:
            bad += cls & he
        if not cls & he:
            bad += cls & ke
    expected = min(bad, default=None)
    assert ec_witness_element(t) == expected
    assert (expected is None) == is_ec(t)


@SETTINGS
@given(conjugate_triple())
@example(S4_NOT_EC)
@example(S7_YOUNG)
def test_ac_witness_against_fixed_coset_definition(t):
    # the least element of either side whose fixed counts on the cosets of H
    # and of K differ, each count taken from the definition
    ge, he, ke = t.G.elements(), elements_of(t.H), elements_of(t.K)
    expected = None
    for x in sorted(he | ke):
        a, b = brute_fixed_cosets(ge, he, x), brute_fixed_cosets(ge, ke, x)
        if a != b:
            expected = (x, a, b)
            break
    assert witness(t, "ac") == expected
    assert is_ac(t) == (expected is None)


def test_ac_witness_text_pinned():
    lines = property_report(S4_NOT_EC, props=()).lines()
    assert "witness[ac]: element (0 1) fixes 2 cosets of H, 0 of K" in lines
    assert "witness[ec]: element (0 1) conjugate into one side only" in lines


def system(*images):
    return InvolutionSystem(len(images[0]), len(images), tuple(Permutation(p) for p in images))


# dim End(A) == dim Hom(A, B) == 3 but dim End(B) == 6: two equal
# dimensions out of three do not make the actions isomorphic
HALF_EQUAL = (system([2, 3, 0, 1, 5, 4], [0, 4, 2, 5, 1, 3], [4, 2, 1, 5, 0, 3]),
              system([5, 3, 4, 1, 2, 0], [0, 1, 2, 3, 4, 5], [2, 5, 0, 4, 3, 1]))


@lru_cache(maxsize=None)
def flagship_small():
    return compress(psl_triple(3, 2))


@st.composite
def system_pair(draw, max_tiles=4):
    """Two three-color systems on the same tiles.

    Either both are drawn at random (small, so the oracle's closure stays
    small), or B relabels A, or the pair is the image of one random
    involution triple of PSL(3,2) under its two non-conjugate index-7
    actions: transplantable, and usually not isometric.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mode = rng.choice(["random", "relabel", "sunada", "sunada"])
    if mode == "sunada":
        t = flagship_small()
        invs = involutions_of(t.G)
        gs = rng.sample(invs, 3)
        imgs = [tuple(left_cosets(t.G, sub).action_of(g) for g in gs) for sub in (t.H, t.K)]
        assume(all(PermGroup(7, ps).is_transitive() for ps in imgs))
        return tuple(InvolutionSystem(7, 3, ps) for ps in imgs)
    n = rng.randint(1, max_tiles)

    def involution():
        pts = list(range(n))
        rng.shuffle(pts)
        images = list(range(n))
        for i in range(0, 2 * rng.randint(0, n // 2), 2):
            images[pts[i]], images[pts[i + 1]] = pts[i + 1], pts[i]
        return Permutation(images)

    def system():
        perms = tuple(involution() for _ in range(3))
        assume(PermGroup(n, perms).is_transitive())
        return InvolutionSystem(n, 3, perms)

    A = system()
    if mode == "relabel":
        p = list(range(n))
        rng.shuffle(p)
        return A, A.relabel(Permutation(p))
    return A, system()


@SETTINGS
@given(system_pair())
@example(HALF_EQUAL)
@example(HALF_EQUAL[::-1])
def test_transplantability_against_characters(pair):
    A, B = pair
    sol = find_transplantation(A, B)
    same = brute_same_character(A.perms, B.perms)
    assert (sol is not None and sol.invertible) == same
    if same:
        assert verify_intertwiner(sol.T, A, B) and fraction_det(sol.T) != 0
    elif sol is not None:
        assert sol.certificate == "proved-singular-by-character-mismatch"
