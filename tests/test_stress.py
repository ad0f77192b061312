"""Cross-checks of the chain engine against independent group-order data."""

import math
import random

import pytest

from isodrum.groups import (
    PermGroup,
    core,
    is_subgroup,
    left_cosets,
    same_group,
)
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, check_max

from bruteforce import random_element


def sym(n):
    return PermGroup(n, [parse_cycles("(0 1)", n),
                         parse_cycles(f"({' '.join(map(str, range(n)))})", n)])


def alt(n):
    cyc = f"({' '.join(map(str, range(n)))})" if n % 2 else \
        f"({' '.join(map(str, range(1, n)))})"
    return PermGroup(n, [parse_cycles("(0 1 2)", n), parse_cycles(cyc, n)])


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetric_orders(n):
    assert sym(n).order == math.factorial(n)


@pytest.mark.parametrize("n", range(4, 9))
def test_alternating_orders(n):
    assert alt(n).order == math.factorial(n) // 2


def test_mathieu_11():
    # standard generators of the sharply 4-transitive group on 11 points
    g1 = parse_cycles("(0 1 2 3 4 5 6 7 8 9 10)", 11)
    g2 = parse_cycles("(2 6 10 7)(3 9 4 5)", 11)
    M11 = PermGroup(11, [g1, g2])
    assert M11.order == 7920
    assert M11.is_transitive()
    assert M11.stabilizer(0).order == 720


def test_dihedral_family():
    for n in range(3, 12):
        rot = parse_cycles(f"({' '.join(map(str, range(n)))})", n)
        flip = Permutation([(n - i) % n for i in range(n)])
        assert PermGroup(n, [rot, flip]).order == 2 * n


def test_random_subgroup_consistency():
    rng = random.Random(42)
    G = sym(6)
    for _ in range(12):
        gens = [random_element(G, rng) for _ in range(rng.randrange(1, 3))]
        H = PermGroup(6, gens)
        assert is_subgroup(H, G)
        assert G.order % H.order == 0
        if H.order == G.order:
            continue
        table = left_cosets(G, H)
        assert len(table) * H.order == G.order
        image = PermGroup(len(table), table.generator_actions)
        assert image.is_transitive()
        K = core(G, H)
        assert is_subgroup(K, H)
        assert G.order % (image.order * K.order) == 0
        assert image.order * K.order == G.order


def test_is_maximal_agrees_with_generation_definition():
    # the defining property: H maximal iff every coset representative
    # outside H generates G together with H
    rng = random.Random(7)
    G = sym(5)
    seen = 0
    while seen < 10:
        gens = [random_element(G, rng) for _ in range(rng.randrange(1, 3))]
        H = PermGroup(5, gens)
        if H.order == G.order:
            continue
        seen += 1
        table = left_cosets(G, H)
        by_definition = all(
            PermGroup(5, list(H.generators) + [r]).order == G.order
            for r in table.representatives[1:]
        )
        assert check_max(Triple(G, H, H)) == by_definition


def test_transplantation_on_random_relabelings():
    from isodrum.transplant import InvolutionSystem, find_transplantation, verify_intertwiner

    rng = random.Random(3)
    base = InvolutionSystem(5, 3, (
        parse_cycles("(0 1)(2 3)", 5),
        parse_cycles("(1 2)(3 4)", 5),
        Permutation.identity(5),
    ))
    for _ in range(10):
        img = list(range(5))
        rng.shuffle(img)
        other = base.relabel(Permutation(img))
        sol = find_transplantation(base, other)
        assert sol is not None and sol.invertible
        assert verify_intertwiner(sol.T, base, other)
        assert sol.permutation_solution is not None
        assert base.relabel(sol.permutation_solution).perms == other.perms
