"""The candidates of INV and of the census, and the conjugacy classes, against
per-element oracles.

``transplant._tree_candidates`` reads m, the largest fixed count of an
involution of H, on one involution per class of H
(``transplant._involution_roots``), and closes only those roots under
conjugation by G.  The oracles canonicalize every involution of H's image
(``CosetTable.actions_of``) and close every involution of H.  The routine's
m, its candidate set and its action rows must agree with them on random
triples with faithful and unfaithful coset actions, on the catalog triples
and on the type-1/2/3 wreaths.  ``groups.conjugacy_classes``, the union-find
over G's element rows, is compared with ``bruteforce.brute_classes``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_classes
from isodrum import groups
from isodrum.catalog import psl_triple
from isodrum.constructions import (ConstructionData, _direct_power_group, diagonal_subgroup,
                                   type1, type2, type3)
from isodrum.groups import PermGroup, _row_keys, conjugacy_classes, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import (_conjugation_closure, _involution_roots, _rows,
                                _tree_candidates, involutions_of)
from isodrum.triples import Triple, check_inv
from test_inv_oracles import SETTINGS, s6_point_triple, small_triple


def fixed_max(acts):
    return int((acts == np.arange(acts.shape[1])).sum(axis=1).max(initial=0))


def action_rows(table, elements, chunk=64):
    """``table.actions_of`` in chunks, so a large index stays small in memory."""
    return np.concatenate([table.actions_of(elements[i:i + chunk])
                           for i in range(0, len(elements), chunk)] or
                          [np.zeros((0, len(table)), dtype=np.int32)])


def setting(t):
    """(G, H, tables) as INV passes them to ``_tree_candidates``: G and H
    with H's table when the action is faithful, else their images on the
    cosets and no table."""
    table = left_cosets(t.G, t.H)
    if table.is_faithful():
        return t.G, t.H, [table]
    return PermGroup(len(table), table.generator_actions), table.subgroup_image(), []


def assert_roots_give_m(t):
    """m from the class roots equals m over every involution of H's image."""
    G, H, tables = setting(t)
    table = left_cosets(t.G, t.H)
    roots = _involution_roots(H, tables)
    mine = fixed_max(roots[-1])
    if tables:  # faithful: H is its image, and actions_of gives its action
        oracle = fixed_max(action_rows(table, involutions_of(t.H)))
    else:
        oracle = fixed_max(_rows([p.images for p in involutions_of(H)], len(table)))
    assert mine == oracle
    return roots


def assert_closure_matches(t, r=3):
    """The candidates are the closure of all of H's involutions (or all of G's
    involutions), with action rows equal to ``actions_of``."""
    G, H, tables = setting(t)
    found = _tree_candidates(G, H, tables, r)
    if found is None:
        return None
    rows = found[0]
    n = found[-1].shape[1]
    every = _rows([p.images for p in involutions_of(H)], H.degree)
    gens = [_rows([g.images for g in G.generators], G.degree)]
    gens += [_rows([a.images for a in table.generator_actions], n) for table in tables]
    seeds = [every] + [action_rows(table, [Permutation(x) for x in every]) for table in tables]
    old = _conjugation_closure(seeds, gens)[0]
    if (r - 1) * fixed_max(found[-1]) >= (r - 2) * n + 2:
        old = _rows([p.images for p in involutions_of(G)], G.degree)
    assert sorted(_row_keys(rows)) == sorted(_row_keys(old))
    assert len(set(_row_keys(rows))) == len(rows)
    for table, acts in zip(tables, found[1:]):
        assert (acts == action_rows(table, [Permutation(x) for x in rows])).all()
    return found


@SETTINGS
@given(small_triple(), st.sampled_from([3, 4]))
def test_random_triples_roots_and_closure(t, r):
    assert_roots_give_m(t)
    assert_closure_matches(t, r)


@pytest.mark.parametrize("nq", [(3, 2), (3, 3), (4, 2), (3, 4)])
def test_catalog_roots_and_closure(nq):
    t = psl_triple(*nq)
    assert_roots_give_m(t)
    found = assert_closure_matches(t)
    # psl(3,4) is decided by the certificate; the others take the closure
    assert (found is None) == (nq == (3, 4))


def test_fixed_point_free_case_lists_every_involution():
    # S6 on 6 points: (r-1) * m = 8 reaches the target, so the candidates
    # are all 75 involutions of S6, from the roots of its 3 classes
    t = s6_point_triple()
    found = assert_closure_matches(t)
    assert len(found[0]) == len(involutions_of(t.G)) == 75
    assert len(_involution_roots(t.G, [])[0]) == 3


def test_census_carries_both_sides(psl32_small):
    t = psl32_small
    tables = [left_cosets(t.G, S) for S in (t.H, t.K)]
    rows, acts_h, acts_k = _tree_candidates(t.G, t.H, tables, 3)
    assert len(rows) == 21
    elements = [Permutation(x) for x in rows]
    assert (acts_h == tables[0].actions_of(elements)).all()
    assert (acts_k == tables[1].actions_of(elements)).all()


@pytest.fixture(scope="module")
def wreaths(psl32_small, a5_group):
    T2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    D4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4),
                       parse_cycles("(0 2)(1 3)", 4)])
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(_direct_power_group(a5_group, 2), diag, diag)
    return {
        1: lambda: type1(ConstructionData(variant=1, base_triple=psl32_small, T=T2, n=2)),
        2: lambda: type2(ConstructionData(variant=2, base_triple=base, T=T2, n=2)),
        3: lambda: type3(ConstructionData(variant=3, base_triple=base, T=D4, l=2, k=2)),
    }


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_wreath_roots_and_closure(wreaths, variant):
    t = wreaths[variant]()
    roots = assert_roots_give_m(t)
    found = assert_closure_matches(t)
    if variant == 3:
        # 10 classes of 1143 involutions, m = 960, and 3 * 960 < 3602
        assert len(roots[0]) == 10 and len(involutions_of(t.H)) == 1143
        assert fixed_max(roots[1]) == 960 and found is None


def test_type3_inv_canonicalizes_only_the_class_roots(wreaths, monkeypatch):
    # the certificate is read on the 10 class roots; the 1143 involutions
    # of H are never canonicalized
    t = wreaths[3]()
    batches = []
    real = groups.CosetTable.actions_of

    def spy(self, elements):
        elements = list(elements)
        batches.append(len(elements))
        return real(self, elements)

    monkeypatch.setattr(groups.CosetTable, "actions_of", spy)
    assert check_inv(t) is None
    assert max(batches) == 10
    assert sorted(set(batches)) == [1, 10] and batches.count(10) == 1


@settings(SETTINGS, max_examples=40)
@given(small_triple(max_degree=6, max_order=120))
def test_conjugacy_classes_match_brute(t):
    G = t.G
    cc = conjugacy_classes(G)
    elements = G.elements()
    assert [e.key() for e in cc.elements] == [e.key() for e in elements]
    expected = sorted(brute_classes(elements), key=lambda c: min(x.key() for x in c))
    assert [r.key() for r in cc.reps] == [min(x.key() for x in c) for c in expected]
    assert cc.sizes == [len(c) for c in expected]
    assert cc.class_of == {x.key(): i for i, c in enumerate(expected) for x in c}
