"""The census scan over conjugation orbits against the scan of every subset.

``okada_shudo_scan`` walks the H-side gluing trees once per G-orbit of
involution sets under simultaneous conjugation and expands each passing
orbit by its color patterns; ``bruteforce.brute_scan`` examines every
subset.  Their formatted pair files must agree byte for byte, on relabeled
copies of the PSL(3,2) point triple (which reorder the involutions, and so
the orbit representatives) and on triples whose generating tuples have
nontrivial stabilizers (G has a center).  Larger triples are pinned by the
SHA-256 of their pair files, as computed by the earlier scan that walked all
C(|Inv|, 3) subsets and examined one per conjugation orbit.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

from bruteforce import brute_scan, closure_orbit, mulclose
from isodrum import transplant
from isodrum.catalog import psl_triple
from isodrum.groups import CosetTable, PermGroup, _conjugation_closure, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import (
    _orbit,
    _rows,
    find_transplantation,
    format_involution_system,
    intertwiner_basis,
    involutions_of,
    okada_shudo_scan,
)
from isodrum.triples import Triple, is_ac


def pair_files(pairs):
    return [(format_involution_system(a), format_involution_system(b)) for a, b in pairs]


def file_digest(pairs):
    """SHA-256 of the pair files written in order, side a then side b."""
    text = "".join(format_involution_system(a) + format_involution_system(b) for a, b in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def conjugation_maps(G, invs):
    """The conjugation maps of G's generators on ``invs``, which must be
    closed under conjugation: the closure's maps, the closure adding none."""
    found, maps = _conjugation_closure([_rows([p.images for p in invs], G.degree)],
                                       [_rows([g.images for g in G.generators], G.degree)])
    assert len(found[0]) == len(invs)
    return maps


def relabeled(t, seed):
    """The triple with its points renamed by a seeded random permutation and
    G's generators listed in a seeded random order."""
    rng = random.Random(seed)
    img = list(range(t.G.degree))
    rng.shuffle(img)
    pi = Permutation(img)
    gens = [g.conjugate_by(pi) for g in t.G.generators]
    rng.shuffle(gens)
    move = lambda S: PermGroup(S.degree, [g.conjugate_by(pi) for g in S.generators])
    return Triple(PermGroup(t.G.degree, gens), move(t.H), move(t.K))


def affine_mod8(u, a):
    return Permutation([(u * x + a) % 8 for x in range(8)])


def affine_triple():
    """Gassmann triple in the affine group of Z/8 (order 32): the stabilizer
    of 0 and {x, 3x+4, 5x+4, 7x}.  x -> x+4 is central, so every generating
    tuple is fixed by it."""
    G = PermGroup(8, [affine_mod8(1, 1), affine_mod8(3, 0), affine_mod8(5, 0)])
    H = PermGroup(8, [affine_mod8(3, 0), affine_mod8(5, 0)])
    K = PermGroup(8, [affine_mod8(3, 4), affine_mod8(5, 4)])
    return Triple(G, H, K)


def times_c2(t):
    """(G x C2, H x C2, K x C2), the C2 swapping two new points."""
    n = t.G.degree
    z = Permutation(list(range(n)) + [n + 1, n])
    ext = lambda S: PermGroup(n + 2, [Permutation(list(g.images) + [n, n + 1])
                                      for g in S.generators] + [z])
    return Triple(ext(t.G), ext(t.H), ext(t.K))


@pytest.mark.parametrize("seed", [11, 12])
def test_orbit_scan_matches_brute_on_relabeled_psl32(psl32_small, seed):
    t = relabeled(psl32_small, seed)
    pairs = okada_shudo_scan(t, 7, 3)
    assert len(pairs) == 14
    assert pair_files(pairs) == pair_files(brute_scan(t, 7, 3))


def test_orbit_scan_matches_brute_with_central_stabilizers(psl32_small):
    t = affine_triple()
    assert t.G.order == 32 and is_ac(t)
    invs = involutions_of(t.G)
    maps = conjugation_maps(t.G, invs)
    generating = [(0, *c) for c in itertools.combinations(range(1, len(invs)), 2)
                  if PermGroup(8, [invs[i] for i in (0, *c)]).order == 32]
    assert generating
    # each orbit has 16 ordered tuples: the center x -> x+4 fixes the tuple
    assert {len(_orbit(maps, c)) for c in generating} == {16}
    # the affine triple has no pairs at 8 tiles; PSL(3,2) x C2 has 14, and
    # its center fixes every generating tuple
    assert pair_files(okada_shudo_scan(t, 8, 3)) == pair_files(brute_scan(t, 8, 3)) == []
    t = times_c2(psl32_small)
    pairs = okada_shudo_scan(t, 7, 3)
    assert len(pairs) == 14
    assert pair_files(pairs) == pair_files(brute_scan(t, 7, 3))


def test_central_extension_keeps_the_census(psl32_small):
    # every generating involution triple of PSL(3,2) lifts to one of
    # PSL(3,2) x C2 with the same coset actions, and the center fixes it
    t = times_c2(psl32_small)
    keys = lambda pairs: sorted((a.canonical_key(), b.canonical_key()) for a, b in pairs)
    assert len(involutions_of(t.G)) == 43
    assert keys(okada_shudo_scan(t, 7, 3)) == keys(okada_shudo_scan(psl32_small, 7, 3))


def s6_two_actions():
    """S6 on the cosets of a point stabilizer S5 and of a transitive S5
    (PGL(2,5) on the projective line over F5, infinity as point 5): both of
    index 6, not Gassmann."""
    cyc = lambda text: parse_cycles(text, 6)
    mobius = lambda f: Permutation([f(x) for x in range(6)])
    inverse_mod5 = {1: 1, 2: 3, 3: 2, 4: 4}
    K = PermGroup(6, [mobius(lambda x: 5 if x == 5 else (x + 1) % 5),
                      mobius(lambda x: 5 if x == 5 else 2 * x % 5),
                      mobius(lambda x: 0 if x == 5 else 5 if x == 0 else -inverse_mod5[x] % 5)])
    return Triple(PermGroup(6, [cyc("(0 1)"), cyc("(0 1 2 3 4 5)")]),
                  PermGroup(6, [cyc("(1 2)"), cyc("(1 2 3 4 5)")]), K)


def test_census_runs_no_k_side_test(monkeypatch):
    # AC and generation make the K side a tree, so no K-side test runs; here
    # H-side trees generate S6 and none has a K-side tree (by the fixed
    # counts, no triple of involutions meets the sum on both sides), and the
    # census proves it by AC failing, before any tree search or solve
    t = s6_two_actions()
    assert t.K.order == 120 and not is_ac(t)
    invs = involutions_of(t.G)
    acts = [left_cosets(t.G, S).actions_of(invs) for S in (t.H, t.K)]
    fh, fk = ((a == np.arange(6)).sum(axis=1).tolist() for a in acts)
    combos = list(itertools.combinations(range(len(invs)), 3))
    assert not [c for c in combos if sum(fh[i] for i in c) == sum(fk[i] for i in c) == 8]
    tree = next(c for c in combos if sum(fh[i] for i in c) == 8
                and len(closure_orbit(acts[0][list(c)], 0)) == 6
                and PermGroup(6, [invs[i] for i in c]).order == 720)
    assert sum(fk[i] for i in tree) != 8
    called = []
    for name in ("find_transplantation", "_tree_candidates"):
        monkeypatch.setattr(transplant, name, lambda *args, name=name: called.append(name))
    assert okada_shudo_scan(t, 6, 3) == []
    assert called == []


def test_census_pairs_share_the_g_intertwiners(spied_census, psl32):
    # Sunada: a census tuple generates G, so the intertwiners of its two
    # systems are those of G's generators on the coset tables, one space per
    # triple, which holds an invertible non-permutation matrix; the per-tuple
    # solve the census no longer runs is checked here on every pair
    for t, pairs in ((psl32, okada_shudo_scan(psl32, 7, 3)), spied_census("psl42")[:2]):
        table_h, table_k = left_cosets(t.G, t.H), left_cosets(t.G, t.K)
        n = len(table_h)
        g_basis = intertwiner_basis(table_h.generator_actions, table_k.generator_actions, n)
        assert pairs and g_basis
        for a, b in pairs:
            assert intertwiner_basis(a.perms, b.perms, n) == g_basis
            sol = find_transplantation(a, b)
            assert sol.invertible and sol.permutation_solution is None


def test_census_of_conjugate_sides_is_empty(psl32_small):
    # with K conjugate to H the triple is AC, and every generating tuple's
    # two systems are isometric: the census refuses the triple once
    # (triples.sides_conjugate), and brute_scan's per-tuple isometry test
    # rejects every subset
    t = psl32_small
    g = next(g for g in t.G.generators if g not in t.H)
    K = PermGroup(t.G.degree, [h.conjugate_by(g) for h in t.H.generators])
    assert any(h not in t.H for h in K.generators)
    for side in (t.H, K):
        u = Triple(t.G, t.H, side)
        assert is_ac(u)
        assert okada_shudo_scan(u, 7, 3) == brute_scan(u, 7, 3) == []


def test_census_decides_isometry_per_triple(psl32_small, monkeypatch):
    # a generating tuple's isometries are G-set isomorphisms G/H -> G/K, so
    # conjugate sides are refused before any candidate is listed, and no
    # census runs a per-tuple solve or isometry test
    called = []
    for name in ("find_transplantation", "_tree_candidates"):
        real = getattr(transplant, name)
        monkeypatch.setattr(transplant, name,
                            lambda *args, name=name, real=real: called.append(name) or real(*args))
    t = psl32_small
    g = next(g for g in t.G.generators if g not in t.H)
    K = PermGroup(t.G.degree, [h.conjugate_by(g) for h in t.H.generators])
    assert okada_shudo_scan(Triple(t.G, t.H, K), 7, 3) == []
    assert called == []
    assert len(okada_shudo_scan(t, 7, 3)) == 14
    assert len(okada_shudo_scan(psl_triple(4, 2), 15, 3)) == 30
    assert called == ["_tree_candidates"] * 2


def test_conjugation_maps_against_conjugate_by(psl32_small):
    G = relabeled(psl32_small, 3).G
    invs = involutions_of(G)
    maps = conjugation_maps(G, invs)
    assert maps.shape == (len(G.generators), len(invs))
    for s, images in zip(G.generators, maps):
        assert [invs[j] for j in images] == [x.conjugate_by(s) for x in invs]
    # the maps generate G's conjugation action: the orbit of one involution
    # is its whole class, all 21 involutions of PSL(3,2)
    assert len(_orbit(maps, (0,))) == len(invs) == 21
    ordered = {tuple(x.conjugate_by(g) for x in invs[:3]) for g in mulclose(list(G.generators))}
    assert {tuple(invs[i] for i in u) for u in _orbit(maps, (0, 1, 2)).tolist()} == ordered
    # grown from one seed, the closure is its class, and the maps of the
    # rows it found are the conjugations too
    found, grown = _conjugation_closure([_rows([invs[5].images], G.degree)],
                                        [_rows([g.images for g in G.generators], G.degree)])
    elements = [Permutation(x) for x in found[0]]
    assert elements[0] == invs[5] and sorted(elements) == invs
    for s, images in zip(G.generators, grown):
        assert [elements[j] for j in images] == [x.conjugate_by(s) for x in elements]


def test_psl33_census_pinned():
    # 52 pairs, checked once against brute_scan (every one of the
    # C(117, 3) involution triples) when the orbit scan was introduced
    pairs = okada_shudo_scan(psl_triple(3, 3), 13, 3)
    keys = sorted((a.canonical_key(), b.canonical_key()) for a, b in pairs)
    assert len(pairs) == 52
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "924937de3fe04ffec2b9ea8fafd46191501f8896203decc68d3a5f360511474f")


@pytest.fixture(scope="module")
def spied_census():
    """Census of a named triple, with the orders of the groups it listed and
    the sizes of the batches it canonicalized on coset tables."""
    def run(name):
        t = {"psl33": lambda: psl_triple(3, 3),
             "psl33_relabeled": lambda: relabeled(psl_triple(3, 3), 5),
             "psl42": lambda: psl_triple(4, 2)}[name]()
        listed, batches = [], []
        real_rows, real_actions = PermGroup.element_rows, CosetTable.actions_of

        def rows_spy(self):
            listed.append(self.order)
            return real_rows(self)

        def actions_spy(self, elements):
            elements = list(elements)
            batches.append(len(elements))
            return real_actions(self, elements)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PermGroup, "element_rows", rows_spy)
            mp.setattr(CosetTable, "actions_of", actions_spy)
            pairs = okada_shudo_scan(t, 15, 3)  # psl(4,2) has the most tiles
        return t, pairs, listed, batches
    cache = {}

    def census(name):
        if name not in cache:
            cache[name] = run(name)
        return cache[name]
    return census


# pair count and pair-file digest, from the scan that examined one subset
# per conjugation orbit of all C(|Inv|, 3) subsets (on psl(4,2) with its
# census bound lifted to 15 tiles)
PAIR_FILES = {
    "psl33": (52, "dfcbaa7e12af62f137e80e7417f2719e9214ee4c5359eacbde72e8294c94c022"),
    "psl33_relabeled": (52, "c40731fd1ac90da6ed3b5f3fd8f47f728e58d29dc3d0982b394880cf0df4c5f6"),
    "psl42": (30, "8421b62e6f4e0723976f36abfd5f8901ed6acc3d159c53eb6d5f3bc793a19127"),
}


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_census_pair_files_pinned(spied_census, name):
    _, pairs, _, _ = spied_census(name)
    assert (len(pairs), file_digest(pairs)) == PAIR_FILES[name]


@pytest.mark.parametrize("name", ["psl33", "psl42"])
def test_census_never_lists_g(spied_census, name):
    # every involution fixes a point, so the candidates are the closure of
    # H's involutions: H is listed, G is not
    t, _, listed, _ = spied_census(name)
    assert listed and t.G.order not in listed and t.H.order in listed


def test_psl42_census_pinned(spied_census):
    # 15 tiles, the Buser-Conway-Doyle-Semmler 15-tile family
    _, pairs, _, _ = spied_census("psl42")
    keys = sorted((a.canonical_key(), b.canonical_key()) for a, b in pairs)
    assert len(pairs) == 30
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "c46f505646c1b596279f555a1c7be91715d07c17eb963a6fb50593ed91a0d9c0")


@pytest.mark.parametrize("name", ["psl33", "psl42"])
def test_census_canonicalizes_only_class_roots(spied_census, name):
    # the fixed-point certificate and the closure need the actions of one
    # involution per class of H only, on the H and the K side; the closure
    # carries them to its 117 (psl(3,3)) or 315 (psl(4,2)) candidates
    t, _, _, batches = spied_census(name)
    roots = len(transplant._involution_roots(t.H, [])[0])
    candidates = len(transplant._tree_candidates(
        t.G, t.H, [left_cosets(t.G, t.H)], 3)[0][0])
    assert (roots, candidates) == {"psl33": (2, 117), "psl42": (3, 315)}[name]
    assert [b for b in batches if b > 1] == [roots, roots]
