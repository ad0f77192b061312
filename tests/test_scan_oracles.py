"""The census scan over conjugation orbits against the scan of every subset.

``okada_shudo_scan`` examines one involution tuple per G-orbit under
simultaneous conjugation; ``bruteforce.brute_scan`` examines every subset.
Their formatted pair files must agree byte for byte, on relabeled copies of
the PSL(3,2) point triple (which reorder the involutions, and so the orbit
representatives) and on triples whose generating tuples have nontrivial
stabilizers (G has a center).
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

from bruteforce import brute_scan, mulclose
from isodrum.catalog import psl_triple
from isodrum.groups import PermGroup
from isodrum.permutations import Permutation
from isodrum.transplant import (
    _conjugation_action,
    format_involution_system,
    involutions_of,
    okada_shudo_scan,
)
from isodrum.triples import Triple, is_ac


def pair_files(pairs):
    return [(format_involution_system(a), format_involution_system(b)) for a, b in pairs]


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


def test_orbit_scan_matches_brute_with_central_stabilizers():
    t = affine_triple()
    assert t.G.order == 32 and is_ac(t)
    rows = t.G.element_rows()
    invs = involutions_of(t.G)
    conj = _conjugation_action(t.G, rows, invs)
    generating = [(0, *c) for c in itertools.combinations(range(1, len(invs)), 2)
                  if PermGroup(8, [invs[i] for i in (0, *c)]).order == 32]
    assert generating
    # each orbit has 16 ordered tuples: the center x -> x+4 fixes the tuple
    assert {len(set(map(tuple, conj[:, c].tolist()))) for c in generating} == {16}
    assert pair_files(okada_shudo_scan(t, 8, 3)) == pair_files(brute_scan(t, 8, 3))


def test_central_extension_keeps_the_census(psl32_small):
    # every generating involution triple of PSL(3,2) lifts to one of
    # PSL(3,2) x C2 with the same coset actions, and the center fixes it
    t = times_c2(psl32_small)
    keys = lambda pairs: sorted((a.canonical_key(), b.canonical_key()) for a, b in pairs)
    assert len(involutions_of(t.G)) == 43
    assert keys(okada_shudo_scan(t, 7, 3)) == keys(okada_shudo_scan(psl32_small, 7, 3))


def test_conjugation_action_against_conjugate_by(psl32_small):
    G = relabeled(psl32_small, 3).G
    rows = G.element_rows()
    invs = involutions_of(G)
    conj = _conjugation_action(G, rows, invs)
    assert conj.shape == (G.order, len(invs))
    elements = {Permutation._wrap(r) for r in rows}
    assert elements == mulclose(list(G.generators))
    rng = np.random.default_rng(0)
    for e in rng.choice(len(rows), 20, replace=False):
        g = Permutation._wrap(rows[e])
        assert [invs[j] for j in conj[e]] == [x.conjugate_by(g) for x in invs]


def test_psl33_census_pinned():
    # 52 pairs, checked once against brute_scan (every one of the
    # C(117, 3) involution triples) when the orbit scan was introduced
    pairs = okada_shudo_scan(psl_triple(3, 3), 13, 3)
    keys = sorted((a.canonical_key(), b.canonical_key()) for a, b in pairs)
    assert len(pairs) == 52
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "924937de3fe04ffec2b9ea8fafd46191501f8896203decc68d3a5f360511474f")
