"""The permutation solution of ``find_transplantation`` and
``canonical_key`` against a search over every tile bijection
(``bruteforce.brute_isomorphisms``).

The permutation solution is read off the intertwiner basis and the key off
a breadth-first labeling, so the two are independent.  The inputs are the
gww pair, the 14 PSL(3,2) census pairs on 7 tiles and two Cayley systems
(S3 and the Klein group acting on themselves by right multiplication), each
with its tiles renamed and its colors reordered at random: renaming keeps a
system's isomorphism class, and reordering the colors of a census system
sometimes keeps it and sometimes not, so both answers occur.  A census
system has no automorphism, so it has at most one isomorphism onto another;
a Cayley system has one per tile, so there the least image of tile 0 is a
choice.
"""

import random

import pytest

from bruteforce import brute_isomorphisms, mulclose
from isodrum.groups import left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import (
    InvolutionSystem,
    find_transplantation,
    okada_shudo_scan,
    verify_intertwiner,
)
from isodrum.triples import inv_witnesses


@pytest.fixture(scope="module")
def systems(psl32):
    table_k = left_cosets(psl32.G, psl32.K)
    gs, a = next(inv_witnesses(psl32, 3))
    gww = (a, InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs)))
    cayley = [cayley_system(["(0 1)", "(1 2)", "(0 2)"], 3),
              cayley_system(["(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)"], 4)]
    return [s for pair in [gww, *okada_shudo_scan(psl32, 7, 3)] for s in pair] + cayley


def cayley_system(involutions, degree):
    """The group generated by the involutions, given in cycle notation on
    ``degree`` points, acting on itself by right multiplication: color mu
    sends tile g to g * s_mu."""
    gens = [parse_cycles(c, degree) for c in involutions]
    elements = sorted(mulclose(gens), key=Permutation.key)
    index = {g: i for i, g in enumerate(elements)}
    return InvolutionSystem(len(elements), len(gens), tuple(
        Permutation([index[g * s] for g in elements]) for s in gens))


def isometry(a, b):
    """The permutation solution of a to b, or None (also when no intertwiner
    is nonzero)."""
    sol = find_transplantation(a, b)
    return None if sol is None else sol.permutation_solution


def scrambled(sys, rng, colors=True):
    """The system with its tiles renamed and, if ``colors``, its colors
    reordered, both at random."""
    tiles = list(range(sys.n_tiles))
    rng.shuffle(tiles)
    order = list(range(sys.r))
    if colors:
        rng.shuffle(order)
    return sys.relabel(Permutation(tiles)).permute_colors(order)


def test_isometry_against_keys_and_every_bijection(systems):
    assert [s.n_tiles for s in systems] == [7] * 30 + [6, 4]
    rng = random.Random(26)
    answers, least_is_a_choice = [], False
    for x in systems:
        a = scrambled(x, rng, colors=False)
        others = [scrambled(x, rng, colors=False), scrambled(x, rng)]
        same_size = [y for y in systems if y.n_tiles == x.n_tiles]
        others += [scrambled(y, rng) for y in rng.choices(same_size, k=2)]
        for b in others:
            iso = isometry(a, b)
            brute = brute_isomorphisms(a, b)
            answers.append(iso is not None)
            assert (iso is not None) == (a.canonical_key() == b.canonical_key()) == bool(brute)
            if iso is None:
                continue
            images = tuple(iso.images.tolist())
            assert images in brute
            assert images[0] == min(phi[0] for phi in brute)  # the least image of tile 0
            n = a.n_tiles
            T = [[int(images[j] == i) for j in range(n)] for i in range(n)]
            assert verify_intertwiner(T, a, b)
            least_is_a_choice |= len(brute) > 1
    assert answers.count(True) > len(systems) and answers.count(False) > len(systems)
    assert least_is_a_choice


def test_isometry_checks_catch_a_wrong_map(systems):
    # the returned map with the images of two tiles swapped is no
    # isomorphism (an automorphism fixing a tile of a connected system is
    # the identity), and both checks above reject it
    a = systems[0]
    b = scrambled(a, random.Random(7), colors=False)
    images = isometry(a, b).images.tolist()
    images[0], images[1] = images[1], images[0]
    T = [[int(images[j] == i) for j in range(7)] for i in range(7)]
    assert not verify_intertwiner(T, a, b) and tuple(images) not in brute_isomorphisms(a, b)
    # gww's two sides are not isometric: no bijection, different keys
    a, b = systems[:2]
    assert isometry(a, b) is None and not brute_isomorphisms(a, b)
    assert a.canonical_key() != b.canonical_key()
