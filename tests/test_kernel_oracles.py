"""Randomized cross-checks of the bounded Schreier-Sims run, the batched
coset actions, the orbit block closure and the lazy permutation keys.

A chain stopped at a known order is compared with a full run level by
level; ``actions_of`` with one ``action_of`` per element; ``_finest_block``
and ``_intermediate_block`` with the union-find closure
(``bruteforce.brute_minimal_block``) on primitive and imprimitive actions;
and lazily computed keys with the eager big-endian bytes.
"""

import random

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from isodrum.catalog import psl_triple
from isodrum.constructions import add_kernel
from isodrum.groups import (
    PermGroup,
    _finest_block,
    _group_of_order_at_most,
    _intermediate_block,
    left_cosets,
)
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, max_witness, property_report

from bruteforce import brute_minimal_block, mulclose, random_element

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def group(degree, *cycles):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycles])


@st.composite
def group_and_subgroup(draw, max_degree=6, max_order=720, max_index=120):
    """(G, H < G): G from two or three random permutations, or preserving
    the blocks {0, 1}, {2, 3}, ... (an imprimitive G); H from one or two
    random elements of G, so coset actions of every kind come up."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(3, max_degree)

    def perm():
        p = list(range(n))
        rng.shuffle(p)
        return Permutation(p)

    if n % 2 == 0 and rng.random() < 0.4:
        blocks = list(range(n // 2))
        rng.shuffle(blocks)
        swap = [b ^ 1 for b in range(n)]
        gens = [Permutation([2 * blocks[x // 2] + x % 2 for x in range(n)]),
                Permutation([swap[x] if x < 2 else x for x in range(n)]),
                Permutation([2 * (x // 2 + 1) % n + x % 2 for x in range(n)])]
    else:
        gens = [perm() for _ in range(rng.randint(2, 3))]
    G = PermGroup(n, gens)
    assume(6 <= G.order <= max_order)
    H = PermGroup(n, [random_element(G, rng) for _ in range(rng.randint(1, 2))])
    assume(G.order // max_index <= H.order < G.order)
    return G, H, rng


def chain_signature(chain):
    """Base points, strong-generator keys and Schreier vectors, per level."""
    return [(lvl.point, [g.key() for g in lvl.gens], dict(lvl.sv)) for lvl in chain.levels]


def processed(chain):
    """Schreier pairs taken off the queues: each (orbit point, generator)
    pair of a level is queued once, so those not pending were processed."""
    return sum(len(lvl.sv) * len(lvl.gens) - len(lvl.pending) for lvl in chain.levels)


# primitive: S4 on its points; imprimitive: a block of half the 4 cosets (<(0 2)> < <(0 2), (1 3)> < D8), and the
# point stabilizer of S2 wr S3 on the blocks {0, 1}, {2, 3}, {4, 5}
S4_S3 = (group(4, "(0 1)", "(0 1 2 3)"), group(4, "(1 2)", "(1 2 3)"))
D8_C2 = (group(4, "(0 1 2 3)", "(0 2)"), group(4, "(0 2)"))
WREATH = (group(6, "(0 1)", "(0 2)(1 3)", "(0 2 4)(1 3 5)"), group(6, "(2 3)", "(2 4)(3 5)"))


def test_bounded_chain_stops_early_on_a_coset_image():
    # H's image on the 13 point cosets of psl(3,3): the run stops at |H|
    # with fewer Schreier generators processed, and the chain is the full one
    t = psl_triple(3, 3)
    table = left_cosets(t.G, t.H)
    image = table.subgroup_image()
    full = PermGroup(len(table), image.generators).chain()
    assert chain_signature(image.chain()) == chain_signature(full)
    assert image.order == full.order() == t.H.order
    assert processed(image.chain()) < processed(full)


@SETTINGS
@given(group_and_subgroup())
@example((*S4_S3, random.Random(0)))
@example((*WREATH, random.Random(1)))
def test_bounded_chain_matches_full_chain(drawn):
    G, H, rng = drawn
    n = G.degree
    # G with its own order, H's coset image with |H| (reached exactly when
    # the action is faithful), and a random subgroup with |G| (a bound the
    # census uses, usually not reached)
    table = left_cosets(G, H)
    cases = [(n, G.generators, G.order),
             (len(table), table.subgroup_image().generators, H.order),
             (n, [random_element(G, rng) for _ in range(2)], G.order)]
    for degree, gens, bound in cases:
        full = PermGroup(degree, gens).chain()
        bounded = _group_of_order_at_most(degree, gens, bound).chain()
        assert chain_signature(bounded) == chain_signature(full)
        # mulclose of no generators is empty; the group is then trivial
        assert bounded.order() == full.order() == max(1, len(mulclose(list(gens))))


def test_unreached_bound_gives_exact_order():
    # psl(3,2) plus a kernel C2 acts unfaithfully on its cosets: H's image
    # has order |H| / 2, so the bound |H| is never reached and the run completes
    base = psl_triple(3, 2)
    t = add_kernel(base, group(2, "(0 1)"))
    table = left_cosets(t.G, t.H)
    image = table.subgroup_image()
    assert not table.is_faithful()
    assert image.order * 2 == t.H.order == 2 * base.H.order
    assert image.order == len(mulclose(list(image.generators)))
    full = PermGroup(len(table), image.generators).chain()
    assert chain_signature(image.chain()) == chain_signature(full)


@SETTINGS
@given(group_and_subgroup())
def test_actions_of_matches_action_of(drawn):
    G, H, rng = drawn
    table = left_cosets(G, H)
    elements = [random_element(G, rng) for _ in range(6)] + [G.identity]
    batch = table.actions_of(elements)
    assert batch.shape == (len(elements), len(table))
    assert [Permutation(row) for row in batch] == [table.action_of(x) for x in elements]
    gens = table.actions_of(G.generators)
    assert [Permutation(row) for row in gens] == list(table.generator_actions)
    assert table.actions_of([]).shape == (0, len(table))


@SETTINGS
@given(group_and_subgroup())
def test_parents_record_first_discovery(drawn):
    G, H, _ = drawn
    table = left_cosets(G, H)
    acts = [a.images.tolist() for a in table.generator_actions]
    assert table.parents[0] == table.parent_gens[0] == -1
    for i in range(1, len(table)):
        first = min((c, j) for c in range(len(table)) for j in range(len(acts)) if acts[j][c] == i)
        assert (table.parents[i], table.parent_gens[i]) == first
        r = table.representatives
        assert r[i] == r[table.parents[i]] * G.generators[table.parent_gens[i]]


def brute_intermediate_block(table):
    """The union-find form of ``_intermediate_block``: the same suborbit
    seeds, each closed with ``brute_minimal_block`` over G's generators."""
    m = len(table)
    gens = [a.images.tolist() for a in table.generator_actions]
    h_gens = [a.images.tolist() for a in table.subgroup_image().generators]
    seen = {0}
    for beta in range(1, m):
        if beta in seen:
            continue
        stack = [beta]
        seen.add(beta)
        while stack:
            x = stack.pop()
            for h in h_gens:
                if h[x] not in seen:
                    seen.add(h[x])
                    stack.append(h[x])
        block = brute_minimal_block(gens, m, beta)
        if len(block) < m:
            return block
    return None


@SETTINGS
@given(group_and_subgroup())
@example((*S4_S3, random.Random(0)))
@example((*D8_C2, random.Random(0)))
@example((*WREATH, random.Random(0)))
def test_orbit_block_matches_union_find(drawn):
    G, H, _ = drawn
    table = left_cosets(G, H)
    m = len(table)
    gens = [a.images.tolist() for a in table.generator_actions]
    for beta in range(1, m):
        block = brute_minimal_block(gens, m, beta)
        assert _finest_block(table, beta) == (block if len(block) < m else None)
    oracle = brute_intermediate_block(table)
    assert _intermediate_block(table) == oracle
    # max_witness's subgroup, and the order in the report's witness text
    witness = max_witness(Triple(G, H, H))
    report = property_report(Triple(G, H, H), props=())
    if oracle is None:
        assert witness is None and "max" not in report.witnesses
    else:
        M = PermGroup(G.degree, list(H.generators) + [table.representatives[i] for i in oracle])
        assert witness[1].order == M.order
        assert report.witnesses["max"] == f"H is contained in a proper subgroup of order {M.order}"


def test_orbit_block_on_larger_actions():
    # primitive: psl(3,2) on its 7 point cosets; imprimitive: the cosets of
    # a nontrivial cyclic subgroup of psl(3,2) (index 24 or more), every
    # seed checked
    t = psl_triple(3, 2)
    rng = random.Random(3)
    for H in (t.H, PermGroup(t.G.degree, [random_element(t.G, rng)])):
        table = left_cosets(t.G, H)
        m = len(table)
        gens = [a.images.tolist() for a in table.generator_actions]
        blocks = [_finest_block(table, beta) for beta in range(1, m)]
        expected = [brute_minimal_block(gens, m, beta) for beta in range(1, m)]
        assert blocks == [b if len(b) < m else None for b in expected]
        assert _intermediate_block(table) == brute_intermediate_block(table)
    assert _intermediate_block(left_cosets(t.G, t.H)) is None
    assert _intermediate_block(table) is not None and m >= 24


def eager_key(p):
    return np.asarray(p.images).astype(">i4").tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_lazy_keys_match_eager_bytes(seed, n):
    rng = random.Random(seed)

    def perm():
        p = list(range(n))
        rng.shuffle(p)
        return Permutation(p)

    base = [perm() for _ in range(5)]
    # the factors' keys and hashes are cached before any product is made, so
    # a product that took over a factor's cached key would show
    assert [hash(p) for p in base[:3]] == [hash(eager_key(p)) for p in base[:3]]
    # every way of making a permutation: the validating constructor, the
    # internal wrap (products, inverses, conjugates, powers), the identity
    # and cycles
    made = base + [a * b for a in base for b in base] + [a.inverse() for a in base]
    made += [a.conjugate_by(b) for a, b in zip(base, base[1:])] + [a ** 3 for a in base]
    made += [Permutation.identity(n), Permutation.from_cycles([list(range(n))], n)]
    keys = [eager_key(p) for p in made]
    assert [p.key() for p in made] == keys
    assert [hash(p) for p in made] == [hash(k) for k in keys]
    assert sorted(made) == [made[i] for i in sorted(range(len(made)), key=keys.__getitem__)]
    for p, kp in zip(made[:12], keys):
        for q, kq in zip(made, keys):
            assert (p == q) == (kp == kq)
    assert len(set(made)) == len(set(keys))
    for p in made:
        fixed = [i for i in range(n) if p.images[i] == i]
        assert p.fixed_point_count() == len(fixed)
        assert p.is_identity() == (len(fixed) == n)
        assert p.moved_points() == [i for i in range(n) if i not in fixed]
