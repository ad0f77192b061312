import pytest

from isodrum.errors import SpecFormatError
from isodrum.groups import PermGroup, same_group
from isodrum.permutations import parse_cycles
from isodrum.specio import construction_from_stanza, format_triple_spec, parse_triple_spec
from isodrum.triples import Triple

SUBGROUPS = "H: []\nK: []\n"


def test_group_spec_round_trip():
    # the group block heads a triple spec and is emitted as it was read
    G = PermGroup(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
    text = format_triple_spec(Triple(G, PermGroup(4, []), PermGroup(4, [])))
    assert text.startswith("degree: 4\ngenerators: [(1 2), (1 2 3 4)]\n")
    back, _, _ = parse_triple_spec(text)
    assert back.G.degree == 4
    assert same_group(back.G, G)
    assert format_triple_spec(back) == text


def test_group_spec_one_based():
    t, _, _ = parse_triple_spec("degree: 4\ngenerators: [(1 2)(3 4)]\n" + SUBGROUPS)
    assert t.G.generators[0] == parse_cycles("(0 1)(2 3)", 4)


def test_group_spec_errors():
    # the group block's errors, read through the triple spec it heads
    for group, message in (
        ("generators: [(1 2)]\n", "^missing degree:$"),
        ("degree: x\ngenerators: [(1 2)]\n", "^bad degree: 'x'$"),
        ("degree: 3\ngenerators: [(1 5)]\n", "^point out of range"),
        ("degree: 3\ngenerators: [(1 2]\n", "^unbalanced parentheses in list$"),
    ):
        with pytest.raises(SpecFormatError, match=message):
            parse_triple_spec(group + SUBGROUPS)


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
    stanza = "construct:\nvariant: 1\nn: 2\nT_degree: 2\nT_generators: [(1 2)]\n"
    text = format_triple_spec(psl32_small) + stanza
    base, _, parsed = parse_triple_spec(text)
    assert format_triple_spec(base, stanza=parsed) == text
    rebuilt = construction_from_stanza(base, parsed)
    assert rebuilt.variant == 1 and rebuilt.n == 2
    assert same_group(rebuilt.T, PermGroup(2, [parse_cycles("(0 1)", 2)]))


def test_construct_stanza_type3_keys(psl32_small):
    stanza = ("construct:\nvariant: 3\nl: 2\nk: 2\nT_degree: 4\n"
              "T_generators: [(1 2), (3 4), (1 3)(2 4)]\n")
    text = format_triple_spec(psl32_small) + stanza
    base, _, parsed = parse_triple_spec(text)
    assert parsed["l"] == "2" and parsed["k"] == "2"
    assert format_triple_spec(base, stanza=parsed) == text
    rebuilt = construction_from_stanza(base, parsed)
    assert rebuilt.l == 2 and rebuilt.k == 2 and rebuilt.T.order == 8


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
