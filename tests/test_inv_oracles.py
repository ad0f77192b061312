"""INV's forest search from H's involutions against the listing of every
involution of G.

``triples.inv_witnesses`` answers INV without listing G when it can: by the
fixed-point identity, when no r fixed counts of H's involutions and 0 sum to
the target, or by the closure of H's involutions under conjugation.  It walks the subsets in one search that keeps the
gluing graph a forest and tries only the first candidate of each G-class as
the first member.  ``bruteforce.brute_inv_witnesses`` lists every
involution of G, searches subsets by fixed-point sum alone and tests each
for transitivity; ``bruteforce.brute_class_first`` keeps those of its
witnesses whose first member no element of G conjugates to an earlier
candidate.  The library's witness sequence (element keys and formatted
systems) must equal the filtered oracle's, and its first witness and its
emptiness those of the unfiltered oracle, on random triples with faithful
and unfaithful coset actions, on the catalog triples, and on S6 over 6
points, whose first witness uses a fixed-point-free involution.  PAIR's
batched inner-square test is compared with the loop over H's elements.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bruteforce import brute_check_pair, brute_class_first, brute_inv_witnesses, random_element
from isodrum import catalog, transplant
from isodrum.catalog import duality_automorphism, psl_triple
from isodrum.cli import main
from isodrum.constructions import add_kernel
from isodrum.errors import BoundExceeded
from isodrum.groups import PermGroup, _conjugation_closure, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import format_involution_system, involutions_of
from isodrum.triples import PairStatus, Triple, check_pair, inv_witnesses

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def witnesses(gen, limit=None):
    """Element keys and system text of the first ``limit`` witnesses."""
    return [([g.key() if g is not None else None for g in gs], format_involution_system(sys))
            for gs, sys in itertools.islice(gen, limit)]


def assert_same_witnesses(t, r=3, limit=None):
    """The library's witnesses equal the class-first oracle's, and its first
    witness (or none) equals the unfiltered oracle's."""
    mine = witnesses(inv_witnesses(t, r), limit)
    assert mine == witnesses(brute_class_first(t, brute_inv_witnesses(t, r)), limit)
    assert mine[:1] == witnesses(brute_inv_witnesses(t, r), 1)
    return mine


@st.composite
def small_triple(draw, max_degree=7, max_order=720):
    """Triple(G, H, H): G transitive, from three random involutions or from
    two random permutations, H < G the stabilizer of point 0 or generated by one or two
    random elements of G; optionally times a C2 kernel, so the coset action
    is unfaithful."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(3, max_degree)

    def perm():
        p = list(range(n))
        rng.shuffle(p)
        return Permutation(p)

    def involution():
        p = list(range(n))
        points = rng.sample(range(n), 2 * rng.randint(1, n // 2))
        for a, b in zip(points[::2], points[1::2]):
            p[a], p[b] = b, a
        return Permutation(p)

    if rng.random() < 0.6:
        G = PermGroup(n, [involution() for _ in range(3)])
    else:
        G = PermGroup(n, [perm() for _ in range(2)])
    assume(G.order <= max_order and G.is_transitive())
    if rng.random() < 0.5:
        H = G.stabilizer(0)
    else:
        H = PermGroup(n, [random_element(G, rng) for _ in range(rng.randint(1, 2))])
    assume(H.order < G.order)
    t = Triple(G, H, H)
    if draw(st.booleans()):
        t = add_kernel(t, PermGroup(2, [parse_cycles("(0 1)", 2)]))
    return t


@SETTINGS
@given(small_triple(), st.sampled_from([3, 4]))
def test_random_triples_match_listing(t, r):
    assert_same_witnesses(t, r, limit=300)


def s6_point_triple():
    S6 = PermGroup(6, [parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6)])
    stab = PermGroup(6, [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5)", 6)])
    return Triple(S6, stab, stab)


def test_fixed_point_free_involution_in_first_witness():
    # transpositions fix 4 of the 6 cosets, so 2 * 4 = 8 = target leaves
    # room for a fixed-point-free member: only the full listing finds it
    mine = assert_same_witnesses(s6_point_triple(), limit=300)
    first = next(inv_witnesses(s6_point_triple(), 3))[1]
    assert first.traces() == [4, 4, 0]
    assert len(mine) == 300


def test_psl32_all_witnesses_match():
    # 56 of the 392 witnesses start with the first of the 21 involutions,
    # which form one class; they are the first 56 of all 392
    mine = assert_same_witnesses(psl_triple(3, 2))
    assert len(mine) == 56
    assert mine == witnesses(brute_inv_witnesses(psl_triple(3, 2)), 56)
    assert len(witnesses(brute_inv_witnesses(psl_triple(3, 2)))) == 392


def test_psl32_kernel_matches():
    t = add_kernel(psl_triple(3, 2), PermGroup(2, [parse_cycles("(0 1)", 2)]))
    assert not left_cosets(t.G, t.H).is_faithful()
    assert assert_same_witnesses(t, limit=300)


def test_psl33_first_witnesses_match():
    assert len(assert_same_witnesses(psl_triple(3, 3), limit=300)) == 300


def test_first_witness_where_the_oracle_hits_its_cap():
    # G of order 1152 on 8 points, H the stabilizer of point 0: the plain
    # subset search passes 200k nodes before it is exhausted
    gens = ["(2 3)(5 6)", "(0 5)(1 2)(3 6)(4 7)", "(4 5)"]
    G = PermGroup(8, [parse_cycles(c, 8) for c in gens])
    t = Triple(G, G.stabilizer(0), G.stabilizer(0))
    mine = witnesses(inv_witnesses(t, 4))
    assert len(mine) == 768
    assert mine[:1] == witnesses(brute_inv_witnesses(t, 4), 1)
    with pytest.raises(BoundExceeded, match="involution subset search bound exceeded"):
        for _ in brute_inv_witnesses(t, 4):
            pass


def test_psl34_has_no_witness():
    # every involution is a transvection fixing 5 of the 21 cosets, and
    # 3 * 5 = 15 < 23: the certificate answers
    assert assert_same_witnesses(psl_triple(3, 4)) == []


def test_closure_is_the_involutions_with_a_fixed_coset(monkeypatch):
    # psl(3,2) on its 7 point cosets: the 21 involutions all fix 3 points
    t = psl_triple(3, 2)
    table = left_cosets(t.G, t.H)
    stab = involutions_of(t.H)
    seeds = [table.actions_of(stab), np.array([p.images for p in stab])]
    gens = [np.array([a.images for a in table.generator_actions]),
            np.array([g.images for g in t.G.generators])]
    monkeypatch.setenv("GF_BOUND", "21")
    (acts, rows), maps = _conjugation_closure(seeds, gens)
    monkeypatch.setenv("GF_BOUND", "20")
    with pytest.raises(BoundExceeded, match="closure exceeds bound 20"):
        _conjugation_closure(seeds, gens)
    monkeypatch.delenv("GF_BOUND")
    every = involutions_of(t.G)
    assert len(rows) == len(every) == 21
    assert sorted(Permutation(r).key() for r in rows) == sorted(p.key() for p in every)
    assert (acts == table.actions_of([Permutation(r) for r in rows])).all()
    # the maps are the conjugation action, in both actions alike
    for j, images in enumerate(maps):
        assert (gens[0][j][acts[:, np.argsort(gens[0][j])]] == acts[images]).all()
        assert (gens[1][j][rows[:, np.argsort(gens[1][j])]] == rows[images]).all()


def test_catalog_verify_never_lists_g(tmp_path, capsys, monkeypatch):
    # psl(4,2) takes the closure; psl(3,4) is decided by the certificate
    # before any closure is built
    listed, closures = [], []
    real_rows, real_closure = PermGroup.element_rows, transplant._conjugation_closure

    def rows_spy(self):
        listed.append(self.order)
        return real_rows(self)

    def closure_spy(*args):
        closures.append(args)
        return real_closure(*args)

    monkeypatch.setattr(PermGroup, "element_rows", rows_spy)
    monkeypatch.setattr(transplant, "_conjugation_closure", closure_spy)
    for (n, q), rc, closed in (((4, 2), 0, 1), ((3, 4), 1, 0)):
        spec = tmp_path / f"psl{n}{q}.spec"
        assert main(["catalog", "emit", "--nq", f"{n},{q}", "--out", str(spec)]) == 0
        listed.clear()
        closures.clear()
        assert main(["verify", str(spec)]) == rc
        order = catalog.psl_triple(n, q).G.order
        assert listed and order not in listed
        assert len(closures) == closed
    capsys.readouterr()


@settings(SETTINGS, max_examples=40)
@given(small_triple(), st.integers(0, 2**32 - 1))
def test_pair_verdicts_match_loop(t, seed):
    # sigma is conjugation by an element of G or by a random permutation
    # normalizing G; K is the image of H, and sigma^2 may or may not be
    # inner on H
    rng = random.Random(seed)
    if rng.random() < 0.5:
        c = random_element(t.G, rng)
    else:
        p = list(range(t.G.degree))
        rng.shuffle(p)
        c = Permutation(p)
    images = [g.conjugate_by(c) for g in t.G.generators]
    assume(all(im in t.G for im in images))
    K = PermGroup(t.G.degree, [h.conjugate_by(c) for h in t.H.generators])
    swapped = Triple(t.G, t.H, K)
    assert check_pair(swapped, images) == brute_check_pair(swapped, images)


def test_pair_catalog_verdicts_match_loop():
    for n, q in ((3, 2), (3, 3), (4, 2), (3, 4)):
        t, cand = psl_triple(n, q), duality_automorphism(n, q)
        assert check_pair(t, cand) == brute_check_pair(t, cand) == PairStatus.CONFIRMED


def test_pair_without_inner_square():
    # conjugation by the 4-cycle maps <(0 1)> to <(1 2)>; its square maps
    # (0 1) to (2 3), which no element of <(0 1)> does
    S4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    c = parse_cycles("(0 1 2 3)", 4)
    t = Triple(S4, PermGroup(4, [parse_cycles("(0 1)", 4)]), PermGroup(4, [parse_cycles("(1 2)", 4)]))
    images = [g.conjugate_by(c) for g in S4.generators]
    assert check_pair(t, images) == brute_check_pair(t, images) == PairStatus.WEAK_EVIDENCE
