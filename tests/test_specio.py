import pytest

from isodrum.constructions import ConstructionData
from isodrum.errors import SpecFormatError
from isodrum.groups import PermGroup, same_group
from isodrum.permutations import parse_cycles
from isodrum.specio import (
    construction_from_stanza,
    format_group_spec,
    format_triple_spec,
    parse_group_spec,
    parse_triple_spec,
    stanza_from_construction,
)
from isodrum.triples import Triple


def test_group_spec_round_trip():
    G = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    text = format_group_spec(G)
    back = parse_group_spec(text)
    assert back.degree == 4
    assert same_group(back, G)
    assert format_group_spec(back) == text


def test_group_spec_one_based():
    G = parse_group_spec("degree: 4\ngenerators: [(1 2)(3 4)]\n")
    assert G.generators[0] == parse_cycles("(0 1)(2 3)", 4)


def test_group_spec_errors():
    with pytest.raises(SpecFormatError):
        parse_group_spec("generators: [(1 2)]\n")
    with pytest.raises(SpecFormatError):
        parse_group_spec("degree: x\ngenerators: [(1 2)]\n")
    with pytest.raises(SpecFormatError):
        parse_group_spec("degree: 3\ngenerators: [(1 5)]\n")
    with pytest.raises(SpecFormatError):
        parse_group_spec("degree: 3\ngenerators: [(1 2]\n")


def test_triple_spec_round_trip(psl32):
    text = format_triple_spec(psl32)
    back, pair, stanza = parse_triple_spec(text)
    assert pair is None and stanza is None
    assert same_group(back.G, psl32.G)
    assert same_group(back.H, psl32.H)
    assert same_group(back.K, psl32.K)
    assert back.label == psl32.label
    assert format_triple_spec(back) == text


def test_triple_spec_with_pair_candidate(psl32):
    from isodrum.catalog import duality_automorphism

    cand = duality_automorphism(3, 2)
    text = format_triple_spec(psl32, pair_candidate=cand)
    back, pair, _ = parse_triple_spec(text)
    assert pair == cand


def test_triple_spec_multiline_list():
    text = (
        "degree: 4\n"
        "generators: [(1 2),\n"
        "  (1 2 3 4)]\n"
        "H: [(1 2)]\n"
        "K: [(3 4)]\n"
    )
    t, _, _ = parse_triple_spec(text)
    assert t.G.order == 24 and t.H.order == 2


def test_triple_spec_rejects_nonsubgroup():
    text = "degree: 3\ngenerators: [(1 2 3)]\nH: [(1 2)]\nK: []\n"
    with pytest.raises(SpecFormatError):
        parse_triple_spec(text)


def test_construct_stanza_round_trip(psl32_small):
    T = PermGroup(2, [parse_cycles("(0 1)", 2)])
    data = ConstructionData(variant=1, base_triple=psl32_small, T=T, n=2)
    stanza = stanza_from_construction(data)
    text = format_triple_spec(psl32_small, stanza=stanza)
    base, _, parsed = parse_triple_spec(text)
    rebuilt = construction_from_stanza(base, parsed)
    assert rebuilt.variant == 1 and rebuilt.n == 2
    assert same_group(rebuilt.T, T)


def test_construct_stanza_type3_keys(psl32_small):
    T = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4),
                      parse_cycles("(0 2)(1 3)", 4)])
    data = ConstructionData(variant=3, base_triple=psl32_small, T=T, l=2, k=2)
    stanza = stanza_from_construction(data)
    assert stanza["l"] == 2 and stanza["k"] == 2
    text = format_triple_spec(psl32_small, stanza=stanza)
    base, _, parsed = parse_triple_spec(text)
    rebuilt = construction_from_stanza(base, parsed)
    assert rebuilt.l == 2 and rebuilt.k == 2


def test_stanza_errors(psl32_small):
    with pytest.raises(SpecFormatError):
        construction_from_stanza(psl32_small, {"variant": "7"})
    with pytest.raises(SpecFormatError):
        construction_from_stanza(psl32_small, {"variant": "1", "n": "2"})
    with pytest.raises(SpecFormatError):
        construction_from_stanza(
            psl32_small,
            {"variant": "3", "l": "1", "k": "2", "T_degree": "2", "T_generators": "[(1 2)]"},
        )


def test_unknown_key_rejected():
    with pytest.raises(SpecFormatError):
        parse_triple_spec("degree: 3\ngenerators: [(1 2 3)]\nH: []\nK: []\nbogus: 1\n")


def test_repeated_keys_rejected():
    # a repeated key would otherwise keep its last value, and a second
    # construct: line would drop the first stanza
    text = "degree: 3\ngenerators: [(1 2 3)]\nH: []\nK: []\n"
    stanza = "construct:\nvariant: 1\nn: 2\nT_degree: 2\nT_generators: [(1 2)]\n"
    cases = [
        (text + "H: [(1 2 3)]\n", "repeated key 'H'"),
        (text + stanza + "n: 3\n", "repeated construct key 'n'"),
        (text + stanza + stanza, "repeated construct: stanza"),
    ]
    for bad, message in cases:
        with pytest.raises(SpecFormatError, match=f"^{message}$"):
            parse_triple_spec(bad)
    assert parse_triple_spec(text + stanza)[2]["n"] == "2"


def test_repeated_subgroup_line_is_one_group():
    text = ("degree: 4\ngenerators: [(1 2), (1 2 3 4)]\n"
            "H: [(1 2 3), (1 2)]\nK: [(1 2 3), (1 2)]\n")
    t, _, _ = parse_triple_spec(text)
    assert t.K is t.H
    # the same group in other words is parsed on its own
    t, _, _ = parse_triple_spec(text.replace("K: [(1 2 3), (1 2)]", "K: [(1 2), (1 2 3)]"))
    assert t.K is not t.H and same_group(t.K, t.H)
    t, _, _ = parse_triple_spec(text.replace("K: [(1 2 3), (1 2)]", "K: [(1 2)]"))
    assert t.K is not t.H and not same_group(t.K, t.H)
