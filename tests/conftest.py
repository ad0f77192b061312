import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isodrum.catalog import psl_triple
from isodrum.groups import PermGroup
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, compress


@pytest.fixture(scope="session")
def psl32():
    return psl_triple(3, 2)


@pytest.fixture(scope="session")
def psl32_small(psl32):
    """The flagship triple on its degree-7 coset action."""
    return compress(psl32)


@pytest.fixture(scope="session")
def a4_triple():
    A4 = PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)])
    C2 = PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)])
    V4 = PermGroup(4, [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)])
    return Triple(A4, C2, V4, label="a4 ec-not-ac")


@pytest.fixture(scope="session")
def a5_triple():
    """EC-not-AC with FF: commuting double transpositions in the simple A5."""
    A5 = PermGroup(5, [parse_cycles("(0 1 2)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    C2 = PermGroup(5, [parse_cycles("(0 1)(2 3)", 5)])
    V4 = PermGroup(5, [parse_cycles("(0 1)(2 3)", 5), parse_cycles("(0 2)(1 3)", 5)])
    return Triple(A5, C2, V4, label="a5 ec-not-ac")


@pytest.fixture(scope="session")
def a5_group():
    return PermGroup(5, [parse_cycles("(0 1 2)", 5), parse_cycles("(0 1 2 3 4)", 5)])


@pytest.fixture(scope="session")
def twisted_type3(a5_group):
    """Type-3 data whose top group twists a diagonal that is not symmetric.

    L = {(s, phi(s), phi^2(s))} in A5^3 with phi conjugation by a 3-cycle;
    T = <r, m> on the blocks {0,1,2}, {3,4,5}.  r rotates block 0, which
    keeps L, but m swaps coordinates 1 and 2 on its way to block 1, so block
    0's diagonal lands there as {(s, phi^2(s), phi(s))}, not L.
    """
    from isodrum.constructions import ConstructionData, _direct_power_group, diagonal_subgroup

    c = parse_cycles("(0 1 2)", 5)
    L = diagonal_subgroup(a5_group, 3, [[g.conjugate_by(p) for g in a5_group.generators]
                                        for p in (Permutation.identity(5), c, c * c)])
    T = PermGroup(6, [parse_cycles("(0 1 2)(3 4 5)", 6), parse_cycles("(0 3)(1 5)(2 4)", 6)])
    return ConstructionData(variant=3, base_triple=Triple(_direct_power_group(a5_group, 3), L, L),
                            T=T, l=2, k=3)
