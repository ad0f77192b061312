"""Cross-checks of the kernels that work on raw int32 image rows.

Each kernel is compared with an object-level or brute-force oracle from
``bruteforce``, and each comparison has a negative control: a deliberately
broken copy of the kernel that the same comparison must reject.

* Schreier-Sims (``_Chain``) against ``ReferenceChain``, the same loop on
  Permutation objects: base, Schreier vectors, strong generators, order;
  and against ``brute_chain_faults``, which checks order, basic orbits and
  strong generators on the group's closure, with no chain.
* Coset canonicalization (``_canonical_rows``) against the least member of
  each coset by base images, H enumerated; one case has degree >= 256 and
  more than 2**16 entries, so narrowing rows or offsets to int8 or int16
  would show.
* ``involutions_of`` (a test on the base images) against
  ``brute_involutions``, on intransitive groups with many fixed points and
  bases much shorter than the degree.
"""

import math
import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isodrum import groups
from isodrum.groups import PermGroup, _canonical_rows, _Chain, _group_of_order_at_most
from isodrum.permutations import Permutation, parse_cycles
from isodrum.transplant import involutions_of

from bruteforce import (brute_canonical, brute_chain_faults, brute_involutions, mulclose,
                        reference_chain, tuple_closure)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def signature(chain):
    """Base, strong-generator keys and Schreier vector per level, and order."""
    return ([(lvl.point, [g.key() for g in lvl.gens], dict(lvl.sv)) for lvl in chain.levels],
            chain.order())


def random_perm(rng, n, support=None):
    """A random permutation of 0..n-1 moving only points of ``support``
    (default all)."""
    support = list(range(n)) if support is None else list(support)
    shuffled = support[:]
    rng.shuffle(shuffled)
    images = list(range(n))
    for a, b in zip(support, shuffled):
        images[a] = b
    return Permutation(images)


@st.composite
def generating_set(draw, max_degree=9):
    """A degree and one to three generators: random permutations of all
    points, or of a random subset (intransitive, with fixed points), possibly
    with a repeat or the identity among them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(2, max_degree)
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(n), rng.randint(2, n)) if rng.random() < 0.5 else None
        gens.append(random_perm(rng, n, support))
    if rng.random() < 0.2:
        gens.append(rng.choice([gens[0], Permutation.identity(n)]))
    return n, gens


# --- Schreier-Sims -------------------------------------------------------------


@SETTINGS
@given(generating_set())
def test_row_chain_matches_object_chain(drawn):
    n, gens = drawn
    full = reference_chain(n, gens)
    assert signature(PermGroup(n, gens).chain()) == signature(full)
    # the run stopped at a known order, reached (the true order) or not (n!)
    for bound in (full.order(), math.factorial(n)):
        got = _group_of_order_at_most(n, gens, bound).chain()
        assert signature(got) == signature(reference_chain(n, gens, bound)) == signature(full)


@SETTINGS
@given(generating_set())
def test_chain_is_a_stabilizer_chain_of_the_closure(drawn):
    n, gens = drawn
    elements = tuple_closure(n, gens)
    assert brute_chain_faults(elements, PermGroup(n, gens).chain()) == []
    for bound in (len(elements), math.factorial(n)):
        assert brute_chain_faults(elements, _group_of_order_at_most(n, gens, bound).chain()) == []


def test_chain_oracle_rejects_a_dropped_install(monkeypatch):
    # the first residue that ``complete`` finds skips the level just after
    # its own, so that level's orbit stays short of the stabilizer's
    n, gens = 4, [parse_cycles("(0 1 2)", 4), parse_cycles("(2 3)", 4)]
    elements = tuple_closure(n, gens)
    assert brute_chain_faults(elements, PermGroup(n, gens).chain()) == []
    install = _Chain._install
    dropped = []

    def drop_one(chain, j, r, start=0):
        if start and not dropped:
            dropped.append(r)
            start += 1
        install(chain, j, r, start)

    monkeypatch.setattr(_Chain, "_install", drop_one)
    faults = brute_chain_faults(elements, PermGroup(n, gens).chain())
    assert dropped and "order 16, closure 24" in faults
    assert any(f.startswith("level 1: orbit") for f in faults)


def test_public_sift_returns_permutations():
    G = PermGroup(4, [parse_cycles("(0 1 2 3)", 4), parse_cycles("(0 1)", 4)])
    chain = G.chain()
    assert chain.sift(parse_cycles("(1 3)", 4)) == (len(chain.levels), None)
    H = PermGroup(5, [parse_cycles("(0 1 2)", 5)])
    outside = parse_cycles("(3 4)", 5)
    assert H.chain().sift(outside) == (1, outside)
    j, residue = H.chain().sift(parse_cycles("(0 1)(3 4)", 5))
    assert (j, residue) == (1, parse_cycles("(1 2)(3 4)", 5))


def test_chain_oracle_rejects_a_skipped_identity_test(monkeypatch):
    # with no row ever recognised as the identity, the kernel installs a
    # Schreier generator that sifts to 1 as a strong generator
    n, gens = 4, [parse_cycles("(0 1 2 3)", 4), parse_cycles("(0 1)", 4)]
    expected = signature(reference_chain(n, gens))
    monkeypatch.setattr(groups, "_identity_bytes", lambda degree: b"")
    try:
        got = signature(PermGroup(n, gens).chain())
    except ValueError:  # the identity has no moved point to serve as a base point
        got = None
    assert got != expected


# --- coset canonicalization ----------------------------------------------------


def check_canonical_rows(H, rows):
    base = H.chain().base()
    elements = sorted(mulclose(list(H.generators))) or [H.identity]
    expected = [brute_canonical(elements, Permutation(u), base).images for u in rows]
    got = _canonical_rows(H, rows)
    assert got.dtype == np.int32
    return np.array_equal(got, np.array(expected, dtype=np.int32).reshape(rows.shape))


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_canonical_rows_are_least_coset_members(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    support = rng.sample(range(n), rng.randint(2, n))
    H = PermGroup(n, [random_perm(rng, n, support) for _ in range(rng.randint(1, 2))])
    rows = np.array([random_perm(rng, n).images for _ in range(rng.randint(1, 6))],
                    dtype=np.int32)
    assert check_canonical_rows(H, rows)


def large_degree_case():
    # H = S5 on 5 of 300 points, some above 255; 240 rows hold 72,000 entries
    rng = random.Random(5)
    n = 300
    H = PermGroup(n, [parse_cycles("(3 140 255 256 299)", n), parse_cycles("(256 299)", n)])
    rows = np.array([random_perm(rng, n).images for _ in range(240)], dtype=np.int32)
    assert rows.size > 2**16
    return H, rows


def test_canonical_rows_on_degree_300():
    assert check_canonical_rows(*large_degree_case())


def test_row_offsets_widen_only_past_int32():
    # offsets are int32 below 2**31 entries and intp from there on
    assert groups._row_offsets(2**20, 2**11 - 1).dtype == np.int32
    wide = groups._row_offsets(2**20, 2**11)
    assert wide.dtype == np.intp and wide[-1, 0] == (2**20 - 1) * 2**11


def test_canonical_oracle_rejects_an_off_by_one_offset(monkeypatch):
    H, rows = large_degree_case()
    monkeypatch.setattr(groups, "_row_offsets",
                        lambda count, width: np.maximum(np.arange(count) * width - 1, 0)[:, None])
    assert not check_canonical_rows(H, rows)


# --- involutions ---------------------------------------------------------------


def sparse_group(seed):
    """An intransitive group of degree 20-40: random permutations of one or
    two small random supports, every other point fixed."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    points = rng.sample(range(n), 9)
    blocks = [points[:4], points[4:]] if rng.random() < 0.5 else [points[:6]]
    return PermGroup(n, [random_perm(rng, n, b) for b in blocks for _ in range(rng.randint(1, 2))])


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_involutions_match_oracle_on_sparse_groups(seed):
    G = sparse_group(seed)
    assert len(G.chain().base()) <= 8 < G.degree // 2
    assert involutions_of(G) == brute_involutions(mulclose(list(G.generators)))


def test_involution_oracle_rejects_a_first_point_test(monkeypatch):
    # S4 x S3 on disjoint supports among 30 points: (0 1)(4 5 6) squares to
    # an element that fixes the first base point but is not the identity
    G = PermGroup(30, [parse_cycles(c, 30) for c in ("(0 1 2 3)", "(0 1)", "(4 5 6)", "(4 5)")])
    expected = brute_involutions(mulclose(list(G.generators)))
    assert involutions_of(G) == expected
    monkeypatch.setattr(_Chain, "base", lambda self: [self.levels[0].point])
    G = PermGroup(30, list(G.generators))
    assert involutions_of(G) != expected
