"""Coset tables are shared between equal subgroups, and only between them.

A subgroup written with a different generating list for the same set gets
the table already built for it, whose contents equal a table built afresh;
a subgroup of the same order that differs as a set gets its own table.
Outputs that hand out image generators (``compress``) or subgroups
(``max_witness``, ``ff_witness``) do not depend on which of two equal
subgroups built the shared table first.
"""

import numpy as np
from hypothesis import assume, given

from isodrum.catalog import psl_triple
from isodrum.groups import PermGroup, left_cosets, same_group
from isodrum.triples import Triple, compress, ff_witness, max_witness

from test_coset_oracles import S4_D8, SETTINGS, group, group_and_subgroup


def rewritten(H):
    """H as a set, from a different generating list: g1 replaced by g1 * g2,
    plus one extra element of H (g2 * g1)."""
    gens = list(H.generators)
    if len(gens) >= 2:
        g1, g2 = gens[0], gens[1]
        return PermGroup(H.degree, [g1 * g2] + gens[1:] + [g2 * g1])
    return PermGroup(H.degree, [g.inverse() for g in gens] + [g * g for g in gens])


def fresh(G):
    """A copy of G with no coset tables cached."""
    return PermGroup(G.degree, G.generators)


def assert_same_table(a, b):
    assert np.array_equal(a.rows, b.rows)
    assert a.generator_actions == b.generator_actions
    assert np.array_equal(a.parents, b.parents)
    assert np.array_equal(a.parent_gens, b.parent_gens)


def check_shared(G, H):
    H2 = rewritten(H)
    assert same_group(H, H2) and H2.generators != H.generators
    table = left_cosets(G, H)
    assert left_cosets(G, H2) is table
    assert left_cosets(G, H2) is table  # the alias is recorded
    own = left_cosets(fresh(G), H2)
    assert_same_table(table, own)
    # image order, block verdict and memoized actions serve both subgroups
    assert table.is_faithful() == own.is_faithful()
    assert table.intermediate_block() == own.intermediate_block()
    for x in H2.generators:
        act = table.action_of(x)
        assert table.action_of(x) is act
        assert act == own.action_of(x)


def check_not_shared(G, H, K):
    assert H.order == K.order and not same_group(H, K)
    table_h = left_cosets(G, H)
    table_k = left_cosets(G, K)
    assert table_k is not table_h
    assert table_k.subgroup is K
    assert_same_table(table_k, left_cosets(fresh(G), K))


def test_equal_subgroups_share_one_table():
    for n, q in ((3, 2), (3, 3)):
        t = psl_triple(n, q)
        check_shared(t.G, t.H)
        check_shared(t.G, t.K)
    check_shared(*S4_D8)


@SETTINGS
@given(group_and_subgroup())
def test_equal_subgroups_share_one_table_random(gh):
    G, H = gh
    assume(rewritten(H).generators != H.generators)  # H is not trivial or of order 2
    check_shared(G, H)


def test_point_and_hyperplane_stabilizers_do_not_share():
    t = psl_triple(3, 2)
    check_not_shared(t.G, t.H, t.K)


def test_conjugate_subgroups_do_not_share():
    # the point stabilizer is maximal and not normal, so it is its own
    # normalizer, and any x outside it moves it
    t = psl_triple(3, 2)
    x = next(g for g in t.G.generators if g not in t.H)
    Hx = PermGroup(t.G.degree, [h.conjugate_by(x) for h in t.H.generators])
    check_not_shared(t.G, t.H, Hx)


def witnesses(t):
    """compress (None when unfaithful), max_witness and ff_witness as
    generator tuples, comparable across triples that share no objects."""
    out = {"compress": None}
    if left_cosets(t.G, t.H).is_faithful():
        c = compress(t)
        out["compress"] = (c.G.generators, c.H.generators, c.K.generators)
    for name, w in (("max", max_witness(t)), ("ff", ff_witness(t))):
        out[name] = w and (w[0], w[1].generators)
    return out


# H == K as sets: (A5 x A5, diag, diag) as in the type-2 and type-3 wreaths;
# a non-maximal H in S4; a D8 in S4 with core V4; the psl(3,2) point stabilizer
A5SQ_DIAG = (group(10, "(0 1 2)", "(0 1 2 3 4)", "(5 6 7)", "(5 6 7 8 9)"),
             group(10, "(0 1 2)(5 6 7)", "(0 1 2 3 4)(5 6 7 8 9)"))
S4_C2C2 = (group(4, "(0 1)", "(0 1 2 3)"), group(4, "(0 1)", "(2 3)"))


def equal_sides():
    t = psl_triple(3, 2)
    return [A5SQ_DIAG, S4_C2C2, S4_D8, (t.G, t.H)]


def test_call_order_does_not_change_outputs():
    for G, H in equal_sides():
        K = rewritten(H)
        expected = witnesses(Triple(fresh(G), H, K))
        t = Triple(fresh(G), H, K)
        left_cosets(t.G, t.K)  # K builds the shared table
        assert left_cosets(t.G, t.H).subgroup is t.K
        assert witnesses(t) == expected
    found = [witnesses(Triple(fresh(G), H, H)) for G, H in equal_sides()]
    for name in ("compress", "max", "ff"):  # each output is exercised
        assert any(w[name] is not None for w in found)
