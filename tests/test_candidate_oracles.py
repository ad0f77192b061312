"""The candidates of INV and of the census, and the conjugacy classes, against
per-element oracles.

``transplant._tree_candidates`` reads the fixed counts of one involution per
class of H (``transplant._involution_roots``), decides by a subset sum over
them and 0 whether a tree may exist and whether it may hold a
fixed-point-free involution, and closes only the class roots under
conjugation by G.  The oracles canonicalize every involution of H's image
(``CosetTable.actions_of``), take the case by listing every r-multiset of
those counts and 0, and close every involution of H or list every one of G.
The routine's counts, its candidate set, its action rows and its
conjugation maps must agree with them on random triples with faithful and
unfaithful coset actions, on the catalog triples and on the type-1/2/3
wreaths; and on random triples its None and its H-only closure must agree
with ``bruteforce.brute_inv_witnesses``.  ``groups.conjugacy_classes``, the
lex-least member of each class (``groups._class_roots``), is compared with
``bruteforce.brute_classes``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_classes, brute_inv_witnesses
from isodrum import groups, triples
from isodrum.catalog import psl_triple
from isodrum.constructions import (ConstructionData, _direct_power_group, diagonal_subgroup,
                                   type1, type2, type3)
from isodrum.groups import (PermGroup, _conjugation_closure, _row_keys, conjugacy_classes,
                            left_cosets)
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import _involution_roots, _rows, _tree_candidates, involutions_of
from isodrum.triples import Triple, check_inv
from test_inv_oracles import SETTINGS, s6_point_triple, small_triple


def fixed_counts(acts):
    return (acts == np.arange(acts.shape[1])).sum(axis=1)


def fixed_max(acts):
    return int(fixed_counts(acts).max(initial=0))


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


def assert_roots_give_counts(t):
    """The fixed counts of the class roots are those of every involution of
    H's image; returns that set of counts."""
    G, H, tables = setting(t)
    table = left_cosets(t.G, t.H)
    roots = _involution_roots(H, tables)
    if tables:  # faithful: H is its image, and actions_of gives its action
        every = action_rows(table, involutions_of(t.H))
    else:
        every = _rows([p.images for p in involutions_of(H)], len(table))
    counts = set(fixed_counts(every).tolist())
    assert set(fixed_counts(roots[-1]).tolist()) == counts
    return counts


def tree_case(counts, r, n):
    """Which involutions may lie in a gluing tree of r colors on n tiles,
    from every r-multiset of the counts and 0 that sums to (r-2) * n + 2:
    None when there is none, "G" when one holds 0, else "H"."""
    sums = [c for c in itertools.combinations_with_replacement(sorted({0, *counts}), r)
            if sum(c) == (r - 2) * n + 2]
    if not sums:
        return None
    return "G" if any(0 in c for c in sums) else "H"


def assert_closure_matches(t, r=3):
    """The candidates are the closure of all of H's involutions, or all of
    G's involutions, as ``tree_case`` says, with action rows equal to
    ``actions_of`` and conjugation maps equal to ``conjugate_by``."""
    G, H, tables = setting(t)
    counts = assert_roots_give_counts(t)
    n = len(left_cosets(t.G, t.H))
    case = tree_case(counts, r, n)
    found = _tree_candidates(G, H, tables, r)
    assert (found is None) == (case is None)
    if found is None:
        return None
    candidates, maps = found
    rows = candidates[0]
    if case == "H":
        every = _rows([p.images for p in involutions_of(H)], H.degree)
        gens = [_rows([g.images for g in G.generators], G.degree)]
        gens += [_rows([a.images for a in table.generator_actions], n) for table in tables]
        seeds = [every] + [action_rows(table, [Permutation(x) for x in every]) for table in tables]
        old = _conjugation_closure(seeds, gens)[0][0]
    else:
        old = _rows([p.images for p in involutions_of(G)], G.degree)
    assert sorted(_row_keys(rows)) == sorted(_row_keys(old))
    assert len(set(_row_keys(rows))) == len(rows)
    for table, acts in zip(tables, candidates[1:]):
        assert (acts == action_rows(table, [Permutation(x) for x in rows])).all()
    fixes = fixed_counts(candidates[-1])
    assert (np.diff(fixes) <= 0).all()
    elements = [Permutation._wrap(x) for x in rows[:200]]
    for s, images in zip(G.generators, maps):
        assert [Permutation._wrap(rows[j]) for j in images[:200]] == [
            x.conjugate_by(s) for x in elements]
    return candidates


@SETTINGS
@given(small_triple(), st.sampled_from([3, 4]))
def test_random_triples_roots_and_closure(t, r):
    assert_closure_matches(t, r)


@SETTINGS
@given(small_triple(), st.sampled_from([3, 4]))
def test_exact_rule_against_brute_witnesses(t, r):
    # None only when there is no witness; H's involutions alone only when
    # no witness holds a fixed-point-free involution
    found = _tree_candidates(*setting(t), r)
    traces = [sys.traces() for _, sys in brute_inv_witnesses(t, r)]
    if found is None:
        assert traces == []
    elif fixed_counts(found[0][-1]).min() > 0:
        assert all(min(tr) > 0 for tr in traces)


@pytest.mark.parametrize("nq", [(3, 2), (3, 3), (4, 2), (3, 4)])
def test_catalog_roots_and_closure(nq):
    found = assert_closure_matches(psl_triple(*nq))
    # psl(3,4) is decided by the certificate; the others take the closure
    assert (found is None) == (nq == (3, 4))


def test_fixed_point_free_case_lists_every_involution():
    # S6 on 6 points: transpositions fix 4 points, and 4 + 4 + 0 = 8 is the
    # target, so the candidates are all 75 involutions of S6, from the
    # roots of its 3 classes
    t = s6_point_triple()
    found = assert_closure_matches(t)
    assert len(found[0]) == len(involutions_of(t.G)) == 75
    assert len(_involution_roots(t.G, [])[0]) == 3


def forest_searches(monkeypatch):
    """The calls INV makes to the forest search, recorded."""
    calls = []
    real = triples._forest_search

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(triples, "_forest_search", spy)
    return calls


def test_psl52_inv_is_decided_without_search(monkeypatch):
    # on the 31 point cosets H's involutions fix 7 or 15, and no three of
    # 0, 7 and 15 sum to 33
    t = psl_triple(5, 2)
    roots = _involution_roots(t.H, [left_cosets(t.G, t.H)])
    assert set(fixed_counts(roots[1]).tolist()) == {7, 15}
    searches = forest_searches(monkeypatch)
    assert check_inv(t) is None
    assert searches == []


def test_census_carries_both_sides(psl32_small):
    t = psl32_small
    tables = [left_cosets(t.G, S) for S in (t.H, t.K)]
    (rows, acts_h, acts_k), maps = _tree_candidates(t.G, t.H, tables, 3)
    assert len(rows) == 21
    elements = [Permutation(x) for x in rows]
    assert (acts_h == tables[0].actions_of(elements)).all()
    assert (acts_k == tables[1].actions_of(elements)).all()
    for s, images in zip(t.G.generators, maps):
        assert [elements[j] for j in images] == [x.conjugate_by(s) for x in elements]


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
    found = assert_closure_matches(t)
    if variant == 3:
        roots = _involution_roots(*setting(t)[1:])
        # 10 classes of 1143 involutions, none fixing more than 960 of the
        # 3600 cosets, and 3 * 960 < 3602
        assert len(roots[0]) == 10 and len(involutions_of(t.H)) == 1143
        assert fixed_max(roots[1]) == 960 and found is None


def test_type1_wreath_inv_still_searches(wreaths, monkeypatch):
    # on the 49 cosets H's involutions fix 7, 9 or 21: 21 + 21 + 9 = 51 is
    # the target, with no room for a 0, so H's involutions are closed and
    # only the search proves that no tree exists
    t = wreaths[1]()
    candidates = assert_closure_matches(t)
    assert set(fixed_counts(_involution_roots(*setting(t)[1:])[-1]).tolist()) == {7, 9, 21}
    searches = forest_searches(monkeypatch)
    assert check_inv(t) is None
    assert len(searches) == 1 and len(searches[0][0]) == len(candidates[0])


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
    expected = sorted(brute_classes(t.G.elements()), key=min)
    assert conjugacy_classes(t.G) == [min(c) for c in expected]
