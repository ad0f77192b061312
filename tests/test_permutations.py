import random

import pytest

from isodrum.errors import SpecFormatError
from isodrum.groups import PermGroup
from isodrum.permutations import Permutation, format_cycles, parse_cycles


def test_involution_squared_is_identity():
    p = parse_cycles("(0 1)", 2)
    assert (p * p).is_identity()


def test_three_cycle_squared():
    p = parse_cycles("(0 1 2)", 3)
    assert p * p == parse_cycles("(0 2 1)", 3)


def test_compose_matches_pointwise_lookup():
    rng = random.Random(0)
    for _ in range(50):
        pi = list(range(7))
        qi = list(range(7))
        rng.shuffle(pi)
        rng.shuffle(qi)
        p, q = Permutation(pi), Permutation(qi)
        r = p * q
        for x in range(7):
            assert r(x) == qi[pi[x]]


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation([0, 1]) * Permutation([0, 1, 2])


def test_inverse_and_identity():
    rng = random.Random(1)
    for _ in range(30):
        imgs = list(range(9))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_associativity_random():
    rng = random.Random(2)
    for _ in range(30):
        ps = []
        for _ in range(3):
            imgs = list(range(8))
            rng.shuffle(imgs)
            ps.append(Permutation(imgs))
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_conjugate_by():
    rng = random.Random(3)
    for _ in range(20):
        imgs = list(range(6))
        rng.shuffle(imgs)
        a = Permutation(imgs)
        rng.shuffle(imgs)
        g = Permutation(imgs)
        assert a.conjugate_by(g) == g.inverse() * a * g


def test_cycle_type_and_order():
    p = parse_cycles("(0 1)(2 3 4)", 5)
    assert sorted(map(len, p.cycles(include_fixed=True))) == [2, 3]
    assert PermGroup(5, [p]).order == 6  # the order of p is that of the group it generates
    assert sorted(map(len, Permutation.identity(4).cycles(include_fixed=True))) == [1, 1, 1, 1]


def test_parse_one_based():
    p = parse_cycles("(1 2)(3 4)", 4, one_based=True)
    assert p == parse_cycles("(0 1)(2 3)", 4)


def test_parse_juxtaposed_cycles_compose_left_first():
    # (0 1) then (1 2): 0 -> 1 -> 2
    p = parse_cycles("(0 1)(1 2)", 3)
    assert p(0) == 2


def test_parse_rejects_garbage():
    with pytest.raises(SpecFormatError):
        parse_cycles("(1 2) junk", 4)
    with pytest.raises(SpecFormatError):
        parse_cycles("(0 9)", 4)
    with pytest.raises(SpecFormatError):
        parse_cycles("(0 0 1)", 4)


def test_format_parse_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        imgs = list(range(10))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        assert parse_cycles(format_cycles(p), 10) == p
        assert parse_cycles(format_cycles(p, one_based=True), 10, one_based=True) == p


def test_identity_formats_as_unit():
    assert format_cycles(Permutation.identity(5)) == "()"
    assert parse_cycles("()", 5).is_identity()
    assert parse_cycles("", 5).is_identity()
