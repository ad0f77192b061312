"""Randomized cross-checks of the coset layer against brute-force oracles.

Small random permutation groups G and subgroups H: the batched coset table,
``action_of``, ``core``, faithfulness by image order and the block-closure
maximality routine are each compared with an oracle that enumerates
elements and never batches.
"""

import random

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from isodrum.groups import PermGroup, core, left_cosets, normal_closure
from isodrum.permutations import Permutation, parse_cycles
from isodrum.triples import Triple, check_ff, check_max, ff_witness, max_witness

from bruteforce import all_subgroups, brute_core, brute_coset_table, mulclose, random_element

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def group_and_subgroup(draw, max_degree=5, max_order=120, closure=True):
    """(G, H < G) from a drawn seed, G acting on up to two blocks of points.

    G's generators each move one block only, so G is a direct product when
    there are two blocks.  H is generated by up to two random elements of
    G, optionally (``closure``) together with the normal closure of one of
    G's generators, which makes nontrivial cores common.  Drawing a seed rather than the
    permutations themselves keeps the examples as varied as plain random
    ones.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = rng.choice([0, 2, 3])
    a = rng.randint(max(2, 3 - b), max_degree - b)
    n = a + b

    def on_block(lo, size):
        p = list(range(size))
        rng.shuffle(p)
        return Permutation(list(range(lo)) + [lo + x for x in p] + list(range(lo + size, n)))

    gens = [on_block(0, a) for _ in range(2)]
    if b:
        gens += [on_block(a, b) for _ in range(rng.randint(1, 2))]
    G = PermGroup(n, gens)
    assume(6 <= G.order <= max_order)
    elements = G.elements()
    with_closure = closure and rng.random() < 0.5
    H_gens = rng.sample(elements, rng.randint(int(with_closure), 2))
    if with_closure:
        H_gens += normal_closure(G, [rng.choice(gens)]).generators
    H = PermGroup(n, H_gens)
    assume(H.order < G.order)
    return G, H


def group(degree, *cycles):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycles])


# cores strictly between 1 and H: V4 < D8 in S4, and S3 x 1 < S3 x C2 in S3 x S3
S4_D8 = (group(4, "(0 1)", "(0 1 2 3)"), group(4, "(0 1 2 3)", "(0 2)"))
S3S3_S3C2 = (group(6, "(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)"), group(6, "(0 1)", "(0 1 2)", "(3 4)"))
# a block of half the 4 cosets: <(0 2)> < <(0 2), (1 3)> < D8
D8_C2 = (group(4, "(0 1 2 3)", "(0 2)"), group(4, "(0 2)"))


def h_elements(H):
    return mulclose(list(H.generators)) if H.generators else {H.identity}


@SETTINGS
@given(group_and_subgroup())
def test_batched_table_matches_per_element_search(gh):
    G, H = gh
    table = left_cosets(G, H)
    reps, index_of, actions = brute_coset_table(list(G.generators), h_elements(H),
                                                H.chain().base())
    assert table.representatives == reps
    assert table.index_of == index_of
    assert [list(a.images) for a in table.generator_actions] == actions
    assert [table.action_of(g) for g in G.generators] == list(table.generator_actions)
    assert len(table) * H.order == G.order


@SETTINGS
@given(group_and_subgroup(), st.randoms(use_true_random=False))
def test_action_of_non_generators(gh, rng):
    G, H = gh
    table = left_cosets(G, H)
    hset = h_elements(H)
    for _ in range(5):
        x = random_element(G, rng)
        act = table.action_of(x)
        for i, r in enumerate(table.representatives):
            # coset i goes to the coset j whose representative r_j has
            # r_i * x * r_j^-1 in H
            j = int(act.images[i])
            assert r * x * table.representatives[j].inverse() in hset
        # a homomorphism: the action of a product is the product of actions
        y = random_element(G, rng)
        assert table.action_of(x * y) == act * table.action_of(y)


@SETTINGS
@given(group_and_subgroup())
@example(S4_D8)
@example(S3S3_S3C2)
def test_core_and_faithfulness_against_bruteforce(gh):
    G, H = gh
    oracle = brute_core(G.elements(), h_elements(H))
    K = core(G, H)
    assert set(K.elements()) == oracle
    faithful = left_cosets(G, H).is_faithful()
    assert faithful == (K.order == 1) == (len(oracle) == 1)
    t = Triple(G, H, H)
    assert check_ff(t) == faithful
    w = ff_witness(t)
    assert (w is None) == faithful
    if w is not None:
        assert w[0] == "H" and set(w[1].elements()) == oracle


@settings(SETTINGS, max_examples=25)
@given(group_and_subgroup(max_degree=5, max_order=24, closure=False))
@example(D8_C2)
@example(S4_D8)
def test_maximality_against_subgroup_lattice(gh):
    G, H = gh
    elems = frozenset(G.elements())
    sub = frozenset(h_elements(H))
    expected = not any(sub < other < elems for other in all_subgroups(elems))
    assert check_max(Triple(G, H, H)) is expected
    w = max_witness(Triple(G, H, H))
    assert (w is None) is expected
    if w is not None:
        M = frozenset(w[1].elements())
        assert sub < M < elems
