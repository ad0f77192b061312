import pytest

from isodrum.errors import BoundExceeded
from isodrum.groups import PermGroup, conjugacy_classes, same_group
from isodrum.permutations import parse_cycles
from isodrum.triples import (
    PairStatus,
    Triple,
    check_ff,
    check_inv,
    check_max,
    check_pair,
    compress,
    ff_witness,
    is_ac,
    is_ec,
    max_witness,
    property_report,
    verify_automorphism,
)
from isodrum.transplant import is_tree

from bruteforce import ac_profile, brute_is_ac, brute_is_ec, permutation_character


def S4():
    return PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])


def test_triple_requires_subgroups():
    G = PermGroup(3, [parse_cycles("(0 1 2)", 3)])
    H = PermGroup(3, [parse_cycles("(0 1)", 3)])
    with pytest.raises(ValueError):
        Triple(G, H, G)


def test_ac_equal_subgroups(psl32):
    t = Triple(psl32.G, psl32.H, psl32.H)
    assert is_ac(t) and is_ec(t)


def test_psl_triple_is_ac_and_ec(psl32):
    assert is_ac(psl32)
    assert is_ec(psl32)


def test_a4_triple_ec_not_ac(a4_triple):
    assert is_ec(a4_triple)
    assert not is_ac(a4_triple)
    # order mismatch is the witness
    assert a4_triple.H.order != a4_triple.K.order


def test_ec_ac_against_bruteforce(psl32_small, a4_triple, a5_triple):
    corpus = [psl32_small, a4_triple, a5_triple]
    # a couple of AC-false equal-order cases
    S = S4()
    corpus.append(Triple(S, PermGroup(4, [parse_cycles("(0 1)", 4)]),
                         PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]), label="s4 c2 vs c2'"))
    for t in corpus:
        ge = t.G.elements()
        he = t.H.elements()
        ke = t.K.elements()
        assert is_ec(t) == brute_is_ec(ge, he, ke), t.label
        assert is_ac(t) == brute_is_ac(ge, he, ke), t.label


def test_ac_implies_ec_on_corpus(psl32, psl32_small, a4_triple, a5_triple):
    for t in (psl32, psl32_small, a4_triple, a5_triple):
        if is_ac(t):
            assert is_ec(t)


def test_ac_iff_equal_characters(psl32, a4_triple):
    # independent code path: classwise fixed-coset counts
    for t, expected in ((psl32, True), (a4_triple, False)):
        ch = permutation_character(t.G, t.H)
        ck = permutation_character(t.G, t.K)
        assert (ch == ck) is expected
        assert is_ac(t) is expected


def test_ac_iff_equal_characters_across_corpus(psl32, a4_triple, a5_triple):
    from isodrum.constructions import add_kernel

    C2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    corpus = [psl32, a4_triple, a5_triple, add_kernel(a5_triple, C2)]
    S = S4()
    corpus.append(Triple(S, PermGroup(4, [parse_cycles("(0 1)", 4)]),
                         PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)])))
    for t in corpus:
        if t.H.order != t.K.order:
            assert not is_ac(t)
            continue
        ch = permutation_character(t.G, t.H)
        ck = permutation_character(t.G, t.K)
        assert (ch == ck) == is_ac(t)


def test_character_identity_value(psl32):
    ch = permutation_character(psl32.G, psl32.H)
    ident = psl32.G.identity
    assert ch[ident] == psl32.G.order // psl32.H.order == 7


def test_character_involution_fixes_three(psl32):
    # involutions on the 7 points of the plane fix exactly 3 points
    ch = permutation_character(psl32.G, psl32.H)
    inv_reps = [rep for rep in ch if (rep * rep).is_identity() and not rep.is_identity()]
    assert inv_reps and all(ch[rep] == 3 for rep in inv_reps)


def test_ec_witness_element(a4_triple):
    assert "ec" not in property_report(a4_triple, props=()).witnesses  # EC holds
    S = S4()
    t = Triple(S, PermGroup(4, [parse_cycles("(0 1)", 4)]),
               PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]))
    # (0 1) lies in H, and no transposition lies in K
    assert property_report(t, props=()).witnesses["ec"] == "element (0 1) conjugate into one side only"


def test_ac_implies_equal_orders_converse_fails(psl32, a4_triple):
    # AC forces |H| == |K|; the converse fails on a stored counterexample
    for t in (psl32,):
        if is_ac(t):
            assert t.H.order == t.K.order
    S = S4()
    same_order_not_ac = Triple(
        S,
        PermGroup(4, [parse_cycles("(0 1)", 4)]),
        PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]),
        label="equal orders, different fusion",
    )
    assert same_order_not_ac.H.order == same_order_not_ac.K.order
    assert not is_ac(same_order_not_ac)


def test_check_inv_on_unfaithful_action(a4_triple, psl32_small):
    # A4 / V4 is cyclic of order 3: no involutions, hence no witness
    t = Triple(a4_triple.G, a4_triple.K, a4_triple.K)
    assert check_inv(t, 3) is None
    # flagship plus a kernel: the action is unfaithful but its image still
    # carries the (3,3,3) witness, found among the image group's involutions
    from isodrum.constructions import add_kernel

    C2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    tk = add_kernel(psl32_small, C2)
    assert not check_ff(tk)
    sys = check_inv(tk, 3)
    assert sys is not None
    assert sorted(sys.traces()) == [3, 3, 3]
    assert is_tree(sys)


def test_bound_exceeded_signalled(monkeypatch):
    # AC counts double cosets on coset tables, so only the index bound caps
    # it, not an enumeration bound of 5; a fresh triple, so no coset table
    # is cached yet
    from isodrum import limits
    from isodrum.catalog import psl_triple

    monkeypatch.setenv("GF_BOUND", "5")
    assert is_ac(psl_triple(3, 2))
    monkeypatch.setattr(limits, "INDEX_BOUND", 6)
    with pytest.raises(BoundExceeded):
        is_ac(psl_triple(3, 2))  # 7 cosets


def test_check_ff(psl32, a4_triple):
    assert check_ff(psl32)
    # V4 is normal in A4, so the K side is unfaithful
    assert not check_ff(a4_triple)
    side, sub = ff_witness(a4_triple)
    assert side == "K" and sub.order == 4


def test_ff_witness_generators_pinned():
    # regression pin of the reported core generators; they are Schreier
    # generators of H along the coset table, so rewriting H's generators
    # does not change them
    G = S4()
    pinned = ["(0 3)(1 2)", "(0 2)(1 3)"]
    for d8 in (["(0 1 2 3)", "(0 2)"], ["(0 2)", "(1 3)", "(0 1)(2 3)"]):
        D8 = PermGroup(4, [parse_cycles(c, 4) for c in d8])
        side, sub = ff_witness(Triple(G, D8, D8))
        assert side == "H" and [str(g) for g in sub.generators] == pinned


def test_ff_self():
    G = S4()
    t = Triple(G, G, G)
    assert not check_ff(t)


def test_check_max(psl32, a4_triple):
    assert check_max(psl32)
    assert not check_max(a4_triple)  # order-2 subgroup is not maximal
    side, sub = max_witness(a4_triple)
    assert side == "H"
    assert t_strictly_between(a4_triple.G, a4_triple.H, sub)


def test_ff_max_ignore_enumeration_bound(monkeypatch):
    # FF and MAX enumerate no elements: an enumeration bound of 5 must not
    # cap the 7 cosets (a fresh triple, so no coset table is cached yet)
    from isodrum.catalog import psl_triple

    monkeypatch.setenv("GF_BOUND", "5")
    t = psl_triple(3, 2)
    assert check_ff(t) and ff_witness(t) is None
    assert check_max(t) and max_witness(t) is None
    assert compress(t).G.degree == 7
    assert is_ac(t)  # AC counts double cosets, enumerating nothing


def test_report_witnesses_are_text_only(psl32):
    # FF fails on the kernel extension and MAX on the direct power; their
    # witnesses are sentences, with no group object printed beside them
    from isodrum.constructions import add_kernel, direct_power

    C2 = PermGroup(2, [parse_cycles("(0 1)", 2)])
    for t in (add_kernel(psl32, C2), direct_power(psl32, 2)):
        report = property_report(t, props=())
        assert not (report.ff and report.max)
        text = "\n".join(report.lines()) + repr(report.to_json_dict())
        assert "PermGroup(" not in text
        assert set(report.witnesses) <= {"ac", "ec", "ff", "max"}


def t_strictly_between(G, H, M):
    from isodrum.groups import is_subgroup

    return (is_subgroup(H, M) and is_subgroup(M, G)
            and H.order < M.order < G.order)


def test_check_pair_weak_and_failed(a4_triple, psl32):
    assert check_pair(a4_triple) == PairStatus.FAILED  # orders 2 vs 4
    assert check_pair(psl32) == PairStatus.WEAK_EVIDENCE  # no candidate given


def test_check_pair_identity_candidate(psl32):
    t = Triple(psl32.G, psl32.H, psl32.H)
    ident_images = list(t.G.generators)
    assert check_pair(t, ident_images) == PairStatus.CONFIRMED


def test_check_pair_duality(psl32):
    from isodrum.catalog import duality_automorphism

    cand = duality_automorphism(3, 2)
    assert check_pair(psl32, cand) == PairStatus.CONFIRMED


def test_verify_automorphism_rejects_nonsense():
    G = S4()
    bad = [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)", 4)]
    with pytest.raises(ValueError):
        verify_automorphism(G, bad)


def test_verify_automorphism_inner():
    G = S4()
    g = parse_cycles("(0 1 2 3)", 4)
    images = [h.conjugate_by(g) for h in G.generators]
    sigma = verify_automorphism(G, images)
    for x in G.elements():
        assert sigma(x) == x.conjugate_by(g)


def test_check_inv_psl(psl32):
    sys = check_inv(psl32, 3)
    assert sys is not None
    assert sorted(sys.traces()) == [3, 3, 3]
    assert sum(sys.traces()) == (3 - 2) * 7 + 2 == 9
    assert is_tree(sys)
    assert 3 * max(sys.traces()) > sys.n_tiles  # a dominant involution: 3 > 7/3


def test_check_inv_trivial_action():
    # index 1: identity-only action has no involutions
    G = S4()
    t = Triple(G, G, G)
    assert check_inv(t, 3) is None


def test_check_inv_odd_order():
    C5 = PermGroup(5, [parse_cycles("(0 1 2 3 4)", 5)])
    triv = PermGroup(5, [])
    t = Triple(C5, triv, triv)
    assert check_inv(t, 3) is None


def test_check_inv_requires_three_sides(psl32):
    with pytest.raises(ValueError):
        check_inv(psl32, 2)


def test_compress_preserves_properties(psl32):
    small = compress(psl32)
    assert small.G.degree == 7
    assert small.G.order == psl32.G.order
    assert small.H.order == psl32.H.order
    assert is_ac(small) and check_ff(small) and check_max(small)


def test_compress_requires_faithful(a4_triple):
    t = Triple(a4_triple.G, a4_triple.K, a4_triple.K)  # core = V4
    with pytest.raises(ValueError):
        compress(t)


def test_ac_profile_counts(psl32):
    prof = ac_profile(psl32)
    assert sum(nh for _, nh, _ in prof) == psl32.H.order
    assert sum(nk for _, _, nk in prof) == psl32.K.order
    assert all(nh == nk for _, nh, nk in prof)


def test_property_report_flagship(psl32):
    from isodrum.catalog import duality_automorphism

    rep = property_report(psl32, pair_candidate=duality_automorphism(3, 2))
    assert rep.ac and rep.ec and rep.ff and rep.max
    assert rep.pair == PairStatus.CONFIRMED
    assert rep.inv is not None
    assert rep.holds(("ac", "ec", "ff", "max", "pair", "inv"))
    data = rep.to_json_dict()
    assert data["schema"] == 1 and data["pair"] == "confirmed"


def test_property_report_witnesses(a4_triple):
    rep = property_report(a4_triple, props=("pair",))
    assert not rep.ac and rep.ec
    assert not rep.ff and "ff" in rep.witnesses
    assert not rep.max and "max" in rep.witnesses
    assert rep.pair == PairStatus.FAILED
    assert not rep.holds(("ac", "ec", "ff", "max", "pair"))
    assert rep.holds(("ec",)) and not rep.holds(("ec", "pair"))
    assert rep.holds(())


def test_report_rejects_ac_without_ec():
    from isodrum.transplant import InvolutionSystem
    from isodrum.triples import PropertyReport

    with pytest.raises(ValueError):
        PropertyReport(label="x", ac=True, ec=False, ff=True, max=True,
                       pair=PairStatus.WEAK_EVIDENCE, inv=None)


def test_big_group_cluster_path(a5_triple, monkeypatch):
    # a bound below |G| but above |H|, |K|: EC without AC enumerates only the
    # subgroups, never G
    assert a5_triple.G.order == 60
    monkeypatch.setenv("GF_BOUND", "50")
    assert is_ec(a5_triple) is True
    S = S4()
    t = Triple(S, PermGroup(4, [parse_cycles("(0 1)", 4)]),
               PermGroup(4, [parse_cycles("(0 1)(2 3)", 4)]))
    monkeypatch.setenv("GF_BOUND", "20")
    assert is_ec(t) is False
    assert is_ac(t) is False
