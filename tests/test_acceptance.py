"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from isodrum.catalog import duality_automorphism, psl_triple
from isodrum.constructions import (
    ConstructionData,
    add_kernel,
    diagonal_subgroup,
    direct_power,
    ec_witness,
    type1,
    type2,
    type3,
    _direct_power_group,
)
from isodrum.groups import PermGroup, left_cosets
from isodrum.permutations import Permutation, parse_cycles
from isodrum.spectral import dirichlet_eigenvalues, pairwise_relative_gaps, rasterize
from isodrum.drums import BaseTile, boundary_polygon, unfold
from isodrum.transplant import (
    InvolutionSystem,
    detect_isometry,
    find_transplantation,
    intertwiner_basis,
    is_tree,
    okada_shudo_scan,
    verify_intertwiner,
    _int_det,
)
from isodrum.triples import (
    PairStatus,
    Triple,
    check_ff,
    check_inv,
    check_max,
    check_pair,
    compress,
    inv_witnesses,
    is_ac,
    is_ec,
)

from bruteforce import WreathElement, all_blocks_group, brute_is_ac, brute_is_ec, random_element


def _report(num, ok, elapsed, budget, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def flagship():
    return psl_triple(3, 2)


@pytest.fixture(scope="module")
def flagship_small(flagship):
    return compress(flagship)


@pytest.fixture(scope="module")
def gww_systems(flagship):
    table_k = left_cosets(flagship.G, flagship.K)
    gs, sys_a = next(inv_witnesses(flagship, 3))
    sys_b = InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs))
    return sys_a, sys_b


def test_criterion_1_catalog_flagship(flagship):
    t0 = time.time()
    ok = (
        flagship.G.order == 168
        and flagship.G.order // flagship.H.order == 7
        and is_ac(flagship) is True
        and is_ec(flagship) is True
        and check_ff(flagship) is True
        and check_max(flagship) is True
        and check_pair(flagship, duality_automorphism(3, 2)) == PairStatus.CONFIRMED
    )
    _report(1, ok, time.time() - t0, 5, "|G|=168, index 7, AC/EC/FF/MAX/PAIR")


def test_criterion_2_fixed_point_identity(flagship):
    t0 = time.time()
    sys = check_inv(flagship, 3)
    ok = (
        sys is not None
        and sum(sys.traces()) == 9 == (3 - 2) * 7 + 2
        and is_tree(sys)
    )
    _report(2, ok, time.time() - t0, 5, f"fixed counts {tuple(sys.traces())}, sum 9")


def test_criterion_3_transplantation(gww_systems):
    t0 = time.time()
    sys_a, sys_b = gww_systems
    sol = find_transplantation(sys_a, sys_b)
    ok = (
        sol is not None
        and sol.invertible
        and sol.permutation_solution is None
        and detect_isometry(sys_a, sys_b) is None
        and verify_intertwiner(sol.T, sys_a, sys_b)
    )
    _report(3, ok, time.time() - t0, 10, "invertible, non-permutation, exact")


def test_criterion_4_spectral(gww_systems):
    t0 = time.time()
    sys_a, sys_b = gww_systems
    tile = BaseTile.half_square()
    h = Fraction(1, 64)
    da, db = unfold(sys_a, tile), unfold(sys_b, tile)
    pa, pb = boundary_polygon(da), boundary_polygon(db)
    ra = dirichlet_eigenvalues(rasterize(pa, h), 10)
    rb = dirichlet_eigenvalues(rasterize(pb, h), 10)
    gap = max(pairwise_relative_gaps(ra, rb))
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    lam1 = dirichlet_eigenvalues(rasterize(square, h), 1).eigenvalues[0]
    bench = abs(lam1 - 2 * math.pi**2) / (2 * math.pi**2)
    ok = gap <= 0.01 and bench <= 0.005
    _report(4, ok, time.time() - t0, 120,
            f"max pair gap {gap:.2e} <= 1%, square benchmark {bench:.2e} <= 0.5%")


def test_criterion_5_conservation(flagship_small, a5_group):
    t0 = time.time()
    T2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    t1 = type1(ConstructionData(variant=1, base_triple=flagship_small, T=T2, n=2))
    ok = (
        t1.G.order == 168**2 * 2 == 56448
        and t1.H.order == 24**2 * 2 == 1152
        and t1.K.order == 1152
        and t1.G.degree == 14
        and is_ec(t1)
        and check_ff(t1)
        and check_max(t1)
    )
    # type II and III verified analogously on A5-based instances
    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag)
    t2 = type2(ConstructionData(variant=2, base_triple=base, T=T2, n=2))
    ok = ok and t2.H.order == 60 * 2 and is_ec(t2) and check_ff(t2) and check_max(t2)
    T8 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4),
                       parse_cycles("(0 2)(1 3)", 4)])
    t3 = type3(ConstructionData(variant=3, base_triple=base, T=T8, l=2, k=2))
    ok = (ok and t3.G.order == 60**4 * 8 and t3.H.order == 60**2 * 8
          and is_ec(t3) and check_ff(t3) and check_max(t3))
    _report(5, ok, time.time() - t0, 120,
            "type I 56448/deg 14; type II |H|=120; type III |H|=28800; EC+FF+MAX")


def test_criterion_6_negative_controls(a4_triple, a5_triple):
    t0 = time.time()
    from isodrum.triples import ff_witness

    C3 = PermGroup(3, [parse_cycles("(0 1 2)", 3)])
    tk = add_kernel(a4_triple, C3)
    w = ff_witness(tk)
    ok = not check_ff(tk) and w is not None and w[1].order > 1
    dp = direct_power(a5_triple, 2)
    ok = ok and not check_max(dp)
    ok = ok and is_ec(a4_triple) and not is_ac(a4_triple)
    _report(6, ok, time.time() - t0, 5,
            "kernel kills FF (with witness), power kills MAX, (A4,C2,V4) EC-not-AC")


def test_criterion_7_oracle_equivalence(flagship_small, a4_triple, a5_triple):
    t0 = time.time()
    S4 = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    corpus = [
        flagship_small,
        a4_triple,
        a5_triple,
        Triple(S4, PermGroup(4, [parse_cycles("(0 1)", 4)]),
               PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]), label="s4 non-ec"),
        Triple(S4, PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)]),
               PermGroup(4, [parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)]),
               label="s4 a4 equal"),
        add_kernel(a4_triple, PermGroup(3, [parse_cycles("(0 1 2)", 3)])),
        add_kernel(flagship_small, PermGroup(2, [parse_cycles("(0 1)", 2)])),
        direct_power(a5_triple, 2),
    ]
    ok = True
    details = []
    for t in corpus:
        assert t.G.order <= 5000
        ge, he, ke = t.G.elements(), t.H.elements(), t.K.elements()
        ec, ac = is_ec(t), is_ac(t)
        ok = ok and ec == brute_is_ec(ge, he, ke) and ac == brute_is_ac(ge, he, ke)
        # transplantability: AC iff an invertible intertwiner of the coset
        # actions exists
        if t.G.order // t.H.order == t.G.order // t.K.order:
            table_h, table_k = left_cosets(t.G, t.H), left_cosets(t.G, t.K)
            basis = intertwiner_basis(table_h.generator_actions, table_k.generator_actions,
                                      len(table_h))
            invertible = any(_int_det(m) != 0 for m in basis)
            if not invertible and ac:
                sol_found = False
                details.append(f"{t.label}: AC but no basis determinant")
                ok = False
            if invertible and not ac:
                details.append(f"{t.label}: intertwiner without AC")
                ok = False
        else:
            ok = ok and not ac
        details.append(f"{t.label or 'triple'}: ec={ec} ac={ac}")
    _report(7, ok, time.time() - t0, 300, "; ".join(details))


def test_criterion_8_bounded_census(flagship, gww_systems):
    t0 = time.time()
    pairs = okada_shudo_scan(flagship, 7, 3)
    keys = [(a.canonical_key(), b.canonical_key()) for a, b in pairs]
    target = (gww_systems[0].canonical_key(), gww_systems[1].canonical_key())
    ok = bool(pairs) and len(keys) == len(set(keys)) and target in keys
    _report(8, ok, time.time() - t0, 60,
            f"{len(pairs)} deduplicated pairs, flagship pair present")


def test_criterion_9_ec_witness_randomized(flagship_small):
    t0 = time.time()
    rng = random.Random(0)
    base = flagship_small
    checked = 0
    ok = True
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        gamma = parse_cycles("(0 1)", 2) if n == 2 else parse_cycles("(0 1 2)", 3)
        avec = [random_element(base.K, rng) for _ in range(n)]
        ls = ec_witness(base, gamma, avec)
        for w in range(n):
            r = ls[w].inverse() * avec[w] * ls[int(gamma.images[w])]
            if r not in base.H:
                ok = False
        lw = WreathElement(tuple(ls), Permutation.identity(n)).realize()
        aw = WreathElement(tuple(avec), gamma).realize()
        conj = lw.inverse() * aw * lw
        Hwr = all_blocks_group(base.H.generators, PermGroup(n, [gamma]), base.G.degree)
        if conj not in Hwr:
            ok = False
        checked += 1
    _report(9, ok and checked == 100, time.time() - t0, 60,
            "100 instances verified by direct multiplication")
