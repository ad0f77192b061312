"""Generative procedures: kernels, direct powers and wreath-product triples.

Every wreath triple is generated from block 0 and the top group T: G from
S's generators on block 0 and T's generators, H and K from the subgroup's
generators on block 0 (type 3: on the first block of T's block system) and
T's.  T is transitive, so conjugating block 0's copy by T reaches every
block, and these generate the groups a copy on every block would; each
constructor checks the orders the wreath theorem gives before returning.

On n*d points, block i holds the points i*d .. i*d + d - 1.  A top
permutation t acts as the block permutation i*d + x -> t(i)*d + x; the
wreath product law itself is checked against the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import PermGroup, is_simple, is_subgroup, left_cosets, same_group
from .permutations import Permutation
from .triples import Triple, is_ec, check_ff


class NotElementwiseConjugate(ValueError):
    """Raised when a construction's EC hypothesis is refuted by computation."""


def _shift_degree(p: Permutation, offset: int, total: int) -> Permutation:
    images = np.arange(total, dtype=np.int32)
    images[offset:offset + p.degree] = offset + p.images
    return Permutation(images)


class WreathGroup:
    """S wr T realized on n*deg(S) points.

    The realized group is generated by S's generators on block 0 and T's
    generators permuting the blocks.  T is transitive, so the conjugates of
    block 0's copy of S under T are the copies on every block, and their
    normal closure is the whole base group S^n (Dixon-Mortimer, Permutation
    Groups, GTM 163, ch. 2): the order is |S|^n * |T|, as with S's generators
    repeated on every block.
    """

    def __init__(self, base_group: PermGroup, top_group: PermGroup):
        if not top_group.is_transitive():
            raise ValueError("top group must be transitive")
        self.base_group = base_group
        self.top_group = top_group
        self.n = top_group.degree
        self.top_generators = [self.embed_top(t) for t in top_group.generators]
        self.realized = self.with_top(base_group.generators)

    def with_top(self, generators) -> PermGroup:
        """The subgroup generated by ``generators``, placed on the first
        points, and the top generators."""
        total = self.n * self.base_group.degree
        return PermGroup(total, [_shift_degree(g, 0, total) for g in generators]
                         + self.top_generators)

    def embed_top(self, t: Permutation) -> Permutation:
        """The block permutation sending point i*d + x to t(i)*d + x."""
        d = self.base_group.degree
        return Permutation((t.images[:, None] * d + np.arange(d)).ravel())

    def expected_order(self) -> int:
        return self.base_group.order ** self.n * self.top_group.order


@dataclass
class ConstructionData:
    """Data for one of the three wreath constructions.

    Type 1 uses (base triple (S, L, L'), n, T).  Types 2 and 3 take the base
    triple on a realized direct power (S^n or S^k, diagonal L, diagonal L')
    together with T; the simple factor is recovered from block 0.
    """

    variant: int
    base_triple: Triple
    T: PermGroup
    n: int | None = None
    l: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.variant not in (1, 2, 3):
            raise ValueError("variant must be 1, 2 or 3")
        if self.variant in (1, 2) and (self.n is None or self.n < 1):
            raise ValueError("types 1 and 2 need a positive copy count n")
        if self.variant == 3:
            if self.l is None or self.k is None or self.l < 2 or self.k < 2:
                raise ValueError("type 3 needs l and k both at least 2")


def _direct_power_group(S: PermGroup, k: int) -> PermGroup:
    """S^k on k consecutive blocks of S's points, block by block."""
    d = S.degree
    return PermGroup(k * d, [_shift_degree(s, i * d, k * d) for i in range(k) for s in S.generators])


def add_kernel(t: Triple, kext: PermGroup) -> Triple:
    """(G x Kext, H x Kext, K x Kext) on the disjoint union of the points."""
    if not is_ec(t):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    d, e = t.G.degree, kext.degree
    total = d + e
    left = [_shift_degree(g, 0, total) for g in t.G.generators]
    right = [_shift_degree(g, d, total) for g in kext.generators]
    G = PermGroup(total, left + right)
    H = PermGroup(total, [_shift_degree(g, 0, total) for g in t.H.generators] + right)
    K = PermGroup(total, [_shift_degree(g, 0, total) for g in t.K.generators] + right)
    return Triple(G, H, K, label=f"{t.label or 'triple'} + kernel({kext.order})")


def _sides(base: Triple) -> tuple:
    """(H, K), or (H,) when K is H: a repeated subgroup is built and checked once."""
    return (base.H,) if base.K is base.H else (base.H, base.K)


def _lift_subgroups(W: WreathGroup, base: Triple):
    """(H, K) of a wreath triple: each base subgroup's generators on the first
    points with the top generators."""
    lifted = [W.with_top(sub.generators) for sub in _sides(base)]
    return lifted[0], lifted[-1]


def _require_orders(t: Triple, g: int, h: int, k: int) -> Triple:
    """``t`` once |G|, |H| and |K| are the orders the wreath theorem gives;
    ValueError otherwise."""
    for name, group, want in (("G", t.G, g), ("H", t.H, h), ("K", t.K, k)):
        if group.order != want:
            raise ValueError(f"constructed {name} has order {group.order}, expected {want}")
    return t


def _require_ec_ff(base: Triple):
    """Raise unless the base triple is EC and FF, the hypotheses of direct
    powers and of types 1 and 3."""
    if not is_ec(base):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    if not check_ff(base):
        raise ValueError("base triple is not FF")


def direct_power(t: Triple, k: int) -> Triple:
    """(G^k, H^k, K^k) on k disjoint copies of the points."""
    if k < 1:
        raise ValueError("power must be positive")
    if k == 1:
        return t
    _require_ec_ff(t)
    G = _direct_power_group(t.G, k)
    H = _direct_power_group(t.H, k)
    K = _direct_power_group(t.K, k)
    return Triple(G, H, K, label=f"{t.label or 'triple'} ^ {k}")


def type1(data: ConstructionData) -> Triple:
    """(S wr T, L wr T, L' wr T)."""
    if data.variant != 1:
        raise ValueError("construction data is not for type 1")
    base = data.base_triple
    T = data.T
    if not T.is_transitive():
        raise ValueError("top group must be transitive")
    if T.degree != data.n:
        raise ValueError("top group degree must equal n")
    _require_ec_ff(base)
    if data.n == 1 and T.order == 1:
        return base
    W = WreathGroup(base.G, T)
    H, K = _lift_subgroups(W, base)
    t = Triple(W.realized, H, K,
               label=f"type1({base.label or 'base'}, n={data.n}, |T|={T.order})")
    return _require_orders(t, W.expected_order(), base.H.order ** data.n * T.order,
                           base.K.order ** data.n * T.order)


def _block_restriction(G: PermGroup, block: int, block_size: int):
    """Restriction of a direct-power group to one block."""
    gens = []
    lo, hi = block * block_size, (block + 1) * block_size
    for g in G.generators:
        seg = g.images[lo:hi]
        if (seg < lo).any() or (seg >= hi).any():
            raise ValueError("group does not preserve the block")
        rest = np.delete(g.images, np.s_[lo:hi])
        if not (np.sort(rest) == np.sort(np.delete(np.arange(G.degree), np.s_[lo:hi]))).all():
            raise ValueError("group does not preserve the block")
        gens.append(Permutation(seg - lo))
    return PermGroup(block_size, gens)


def _is_diagonal_subgroup(L: PermGroup, S: PermGroup, n: int) -> bool:
    """Whether L <= S^n is a (possibly twisted) full diagonal copy of S."""
    if L.order != S.order:
        return False
    d = S.degree
    for i in range(n):
        proj = PermGroup(d, [Permutation(g.images[i * d:(i + 1) * d] - i * d)
                             for g in L.generators])
        if proj.order != S.order or not is_subgroup(proj, S):
            return False
    return True


def _simple_factor(base: Triple, copies: int) -> PermGroup:
    """The factor S of a base triple (S^copies, diagonal, diagonal), read off
    block 0; raises ValueError unless S is simple, G is S^copies and H and K
    are diagonal copies of S."""
    S = _block_restriction(base.G, 0, base.G.degree // copies)
    if not same_group(base.G, _direct_power_group(S, copies)):
        raise ValueError("base group is not the direct power of its first block")
    if not is_simple(S):
        raise ValueError("base factor is not simple")
    if not all(_is_diagonal_subgroup(sub, S, copies) for sub in _sides(base)):
        raise ValueError("subgroups are not diagonal copies of the factor")
    return S


def type2(data: ConstructionData) -> Triple:
    """(S wr T, L : T, L' : T) with diagonal L, L' in the base S^n.

    The base EC status is computed by the caller's checkers on the result;
    this constructor enforces the structural conditions only (simple factor,
    diagonals) and the orders of the result, which decide T-stability: the
    diagonal L lies in the normal base group S^n, which T meets trivially,
    so <L, T> meets S^n in a group of order |<L, T>| / |T| containing L, and
    |<L, T>| = |L| * |T| exactly when T normalizes L.
    """
    if data.variant != 2:
        raise ValueError("construction data is not for type 2")
    base = data.base_triple
    n, T = data.n, data.T
    if n < 2:
        raise ValueError("type 2 needs at least two copies (the diagonal in S^1 is S itself)")
    if not T.is_transitive() or T.degree != n:
        raise ValueError("top group must be transitive of degree n")
    if base.G.degree % n:
        raise ValueError("base group degree is not divisible by n")
    S = _simple_factor(base, n)
    W = WreathGroup(S, T)
    H, K = _lift_subgroups(W, base)
    t = Triple(W.realized, H, K, label=f"type2(|S|={S.order}, n={n}, |T|={T.order})")
    return _require_orders(t, W.expected_order(), base.H.order * T.order,
                           base.K.order * T.order)


def type3(data: ConstructionData) -> Triple:
    """(S wr T, L^l : T, L'^l : T) for T with blocks of size k.

    Blocks are the consecutive runs {0..k-1}, {k..2k-1}, ...; the base triple
    lives on S^k, and H and K are generated by its diagonal subgroups on the
    first block and T.  They are L^l : T and L'^l : T, with the same diagonal
    on every block, only when T carries each diagonal to itself from block
    to block; otherwise ValueError.
    """
    if data.variant != 3:
        raise ValueError("construction data is not for type 3")
    base = data.base_triple
    l, k, T = data.l, data.k, data.T
    if not T.is_transitive() or T.degree != l * k:
        raise ValueError("top group must be transitive of degree l*k")
    blocks = [frozenset(range(j * k, (j + 1) * k)) for j in range(l)]
    for tg in T.generators:
        for blk in blocks:
            img = frozenset(int(tg.images[x]) for x in blk)
            if img not in blocks:
                raise ValueError("top group does not preserve the block system")
    if base.G.degree % k:
        raise ValueError("base group degree is not divisible by k")
    S = _simple_factor(base, k)
    _require_ec_ff(base)
    W = WreathGroup(S, T)
    total = W.realized.degree
    H, K = _lift_subgroups(W, base)
    # T may map block 0's diagonal to a twisted diagonal on another block
    # while the orders still match: then H is not L^l : T
    seg = base.G.degree
    for sub, lifted in zip(_sides(base), (H, K)):
        if not all(_shift_degree(g, j * seg, total) in lifted
                   for j in range(1, l) for g in sub.generators):
            raise ValueError("top group twists the diagonals between blocks")
    t = Triple(W.realized, H, K, label=f"type3(|S|={S.order}, l={l}, k={k}, |T|={T.order})")
    return _require_orders(t, W.expected_order(), base.H.order ** l * T.order,
                           base.K.order ** l * T.order)


def diagonal_subgroup(S: PermGroup, n: int, gen_images=None) -> PermGroup:
    """Diagonal copy of S in the realized S^n.

    ``gen_images[i]`` gives the i-th coordinate's images of S's generators
    (defaults to the generators themselves, the plain diagonal).
    """
    if gen_images is None:
        gen_images = [list(S.generators)] * n
    if len(gen_images) != n:
        raise ValueError("need one image list per coordinate")
    d = S.degree
    gens = []
    for j in range(len(S.generators)):
        images = np.empty(n * d, dtype=np.int32)
        for i in range(n):
            img = gen_images[i][j]
            if img not in S:
                raise ValueError("coordinate image is outside the factor group")
            images[i * d:(i + 1) * d] = i * d + img.images
        gens.append(Permutation(images))
    return PermGroup(n * d, gens)


def ec_witness(base: Triple, gamma: Permutation, elements):
    """Solve the conjugation identity for one wreath element of the K side.

    Given a = (a_1..a_n) with entries in K and a top permutation gamma,
    returns l = (l_1..l_n) such that every r_w = l_w^-1 * a_w * l_{gamma(w)}
    lies in H; then (l, id) conjugates (a, gamma) into H wr-side.  The chain
    runs cycle by cycle: around each cycle the product of the a's lies in K,
    so elementwise conjugacy forces it to fix a coset of H, and the fixed
    coset seeds the chain.  Failure to find a fixed coset refutes EC.
    """
    n = gamma.degree
    elements = list(elements)
    if len(elements) != n:
        raise ValueError("need one base entry per top point")
    for a in elements:
        if a not in base.K:
            raise ValueError("base entries must lie in the second subgroup")
    table = left_cosets(base.G, base.H)
    lam = len(table)
    actions = {a.key(): table.action_of(a) for a in elements}
    w_points = [None] * n
    for cyc in gamma.cycles(include_fixed=True):
        start = cyc[0]
        prod = elements[start]
        w = start
        for _ in range(len(cyc) - 1):
            w = int(gamma.images[w])
            prod = prod * elements[w]
        act = table.action_of(prod)
        fixed = next((y for y in range(lam) if int(act.images[y]) == y), None)
        if fixed is None:
            raise NotElementwiseConjugate(
                "cycle product has no fixed coset; the base triple is not EC "
                "(the elementwise-conjugacy checker is authoritative)")
        w_points[start] = fixed
        w = start
        y = fixed
        for _ in range(len(cyc) - 1):
            y = int(actions[elements[w].key()].images[y])
            w = int(gamma.images[w])
            w_points[w] = y
    return [table.representatives[w_points[i]].inverse() for i in range(n)]
