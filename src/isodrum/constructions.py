"""Generative procedures: kernels, direct powers and wreath-product triples.

Wreath elements are pairs (base vector, top) multiplied by
``(a, b) * (a', b') = ((a_w * a'_{b(w)})_w, b * b')``; with left-first
permutation products this is the associative twisted law, and the
imprimitive realization on blocks sends (i, alpha) to (b(i), a_i(alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundExceeded
from .groups import PermGroup, is_simple, is_subgroup, left_cosets, same_group
from .limits import enumeration_bound
from .permutations import Permutation
from .triples import Triple, is_ec, check_ff


class NotElementwiseConjugate(ValueError):
    """Raised when a construction's EC hypothesis is refuted by computation."""


def _shift_degree(p: Permutation, offset: int, total: int) -> Permutation:
    images = np.arange(total, dtype=np.int32)
    images[offset:offset + p.degree] = offset + p.images
    return Permutation(images)


@dataclass(frozen=True)
class WreathElement:
    """(base vector, top permutation) with the twisted product."""

    base: tuple
    top: Permutation

    def __post_init__(self):
        if len(self.base) != self.top.degree:
            raise ValueError("base vector length must equal top degree")
        deg = self.base[0].degree if self.base else 0
        if any(p.degree != deg for p in self.base):
            raise ValueError("base entries must share one degree")

    @staticmethod
    def identity(n: int, base_degree: int) -> "WreathElement":
        return WreathElement(
            tuple(Permutation.identity(base_degree) for _ in range(n)),
            Permutation.identity(n),
        )

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        b = self.top
        new_base = tuple(
            self.base[w] * other.base[int(b.images[w])] for w in range(len(self.base))
        )
        return WreathElement(new_base, self.top * other.top)

    def inverse(self) -> "WreathElement":
        binv = self.top.inverse()
        new_base = tuple(
            self.base[int(binv.images[w])].inverse() for w in range(len(self.base))
        )
        return WreathElement(new_base, binv)

    def is_identity(self) -> bool:
        return self.top.is_identity() and all(p.is_identity() for p in self.base)

    def realize(self) -> Permutation:
        """Imprimitive action: block i carries copy i, the top permutes blocks."""
        n = len(self.base)
        d = self.base[0].degree if self.base else 0
        images = np.empty(n * d, dtype=np.int32)
        for i in range(n):
            images[i * d:(i + 1) * d] = int(self.top.images[i]) * d + self.base[i].images
        return Permutation(images)


class WreathGroup:
    """S wr T realized on n*deg(S) points."""

    def __init__(self, base_group: PermGroup, top_group: PermGroup):
        if not top_group.is_transitive():
            raise ValueError("top group must be transitive")
        self.base_group = base_group
        self.top_group = top_group
        self.n = top_group.degree
        gens = []
        for i in range(self.n):
            for s in base_group.generators:
                gens.append(self.embed_base(i, s))
        for t in top_group.generators:
            gens.append(self.embed_top(t))
        self.realized = PermGroup(self.n * base_group.degree, gens)

    def embed_base(self, i: int, s: Permutation) -> Permutation:
        d = self.base_group.degree
        return _shift_degree(s, i * d, self.n * d)

    def embed_top(self, t: Permutation) -> Permutation:
        d = self.base_group.degree
        vec = tuple(Permutation.identity(d) for _ in range(self.n))
        return WreathElement(vec, t).realize()

    def element(self, base, top) -> Permutation:
        return WreathElement(tuple(base), top).realize()

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


def add_kernel(t: Triple, kext: PermGroup, bound=None) -> Triple:
    """(G x Kext, H x Kext, K x Kext) on the disjoint union of the points."""
    if not is_ec(t, bound):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    d, e = t.G.degree, kext.degree
    total = d + e
    left = [_shift_degree(g, 0, total) for g in t.G.generators]
    right = [_shift_degree(g, d, total) for g in kext.generators]
    G = PermGroup(total, left + right)
    H = PermGroup(total, [_shift_degree(g, 0, total) for g in t.H.generators] + right)
    K = PermGroup(total, [_shift_degree(g, 0, total) for g in t.K.generators] + right)
    return Triple(G, H, K, label=f"{t.label or 'triple'} + kernel({kext.order})")


def direct_power(t: Triple, k: int, bound=None) -> Triple:
    """(G^k, H^k, K^k) on k disjoint copies of the points."""
    if k < 1:
        raise ValueError("power must be positive")
    if k == 1:
        return t
    if not is_ec(t, bound):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    if not check_ff(t):
        raise ValueError("base triple is not FF")
    cap = enumeration_bound(bound)
    if k * t.G.order > cap:
        raise BoundExceeded("direct power exceeds realization bounds")
    G = _direct_power_group(t.G, k)
    H = _direct_power_group(t.H, k)
    K = _direct_power_group(t.K, k)
    return Triple(G, H, K, label=f"{t.label or 'triple'} ^ {k}")


def type1(data: ConstructionData, bound=None) -> Triple:
    """(S wr T, L wr T, L' wr T)."""
    if data.variant != 1:
        raise ValueError("construction data is not for type 1")
    base = data.base_triple
    T = data.T
    if not T.is_transitive():
        raise ValueError("top group must be transitive")
    if T.degree != data.n:
        raise ValueError("top group degree must equal n")
    if not is_ec(base, bound):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    if not check_ff(base):
        raise ValueError("base triple is not FF")
    if data.n == 1 and T.order == 1:
        return base
    W = WreathGroup(base.G, T)
    total = W.realized.degree
    d = base.G.degree
    top_gens = [W.embed_top(tg) for tg in T.generators]
    H = PermGroup(total, [_shift_degree(h, i * d, total)
                          for i in range(data.n) for h in base.H.generators] + top_gens)
    K = PermGroup(total, [_shift_degree(k, i * d, total)
                          for i in range(data.n) for k in base.K.generators] + top_gens)
    return Triple(W.realized, H, K,
                  label=f"type1({base.label or 'base'}, n={data.n}, |T|={T.order})")


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


def _simple_factor(base: Triple, copies: int, bound=None) -> PermGroup:
    """The factor S of a base triple (S^copies, diagonal, diagonal), read off
    block 0; raises ValueError unless S is simple, G is S^copies and H and K
    are diagonal copies of S."""
    S = _block_restriction(base.G, 0, base.G.degree // copies)
    if not same_group(base.G, _direct_power_group(S, copies)):
        raise ValueError("base group is not the direct power of its first block")
    if not is_simple(S, bound):
        raise ValueError("base factor is not simple")
    if not (_is_diagonal_subgroup(base.H, S, copies) and _is_diagonal_subgroup(base.K, S, copies)):
        raise ValueError("subgroups are not diagonal copies of the factor")
    return S


def _t_stabilizes(W: WreathGroup, sub: PermGroup) -> bool:
    for tg in W.top_group.generators:
        tp = W.embed_top(tg)
        for g in sub.generators:
            if g.conjugate_by(tp) not in sub:
                return False
    return True


def type2(data: ConstructionData, bound=None) -> Triple:
    """(S wr T, L : T, L' : T) with diagonal L, L' in the base S^n.

    The base EC status is computed by the caller's checkers on the result;
    this constructor enforces the structural conditions only (simple factor,
    diagonals, T-stability).
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
    S = _simple_factor(base, n, bound)
    W = WreathGroup(S, T)
    if not _t_stabilizes(W, base.H) or not _t_stabilizes(W, base.K):
        raise ValueError("top group does not stabilize the diagonal subgroups")
    top_gens = [W.embed_top(tg) for tg in T.generators]
    H = PermGroup(W.realized.degree, list(base.H.generators) + top_gens)
    K = PermGroup(W.realized.degree, list(base.K.generators) + top_gens)
    return Triple(W.realized, H, K,
                  label=f"type2(|S|={S.order}, n={n}, |T|={T.order})")


def type3(data: ConstructionData, bound=None) -> Triple:
    """(S wr T, L^l : T, L'^l : T) for T with blocks of size k.

    Blocks are the consecutive runs {0..k-1}, {k..2k-1}, ...; the base triple
    lives on S^k and its diagonal subgroups are copied into each block.
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
    S = _simple_factor(base, k, bound)
    if not is_ec(base, bound):
        raise NotElementwiseConjugate("base triple is not elementwise conjugate")
    if not check_ff(base):
        raise ValueError("base triple is not FF")
    W = WreathGroup(S, T)
    total = W.realized.degree
    block_stab = [t for t in T.elements(enumeration_bound(bound))
                  if frozenset(int(t.images[x]) for x in range(k)) == blocks[0]]
    seg = base.G.degree
    for tau in block_stab:
        coord = Permutation([int(tau.images[x]) for x in range(k)])
        tp = WreathElement(tuple(Permutation.identity(S.degree) for _ in range(k)), coord).realize()
        for sub in (base.H, base.K):
            for g in sub.generators:
                if g.conjugate_by(tp) not in sub:
                    raise ValueError("block stabilizer does not stabilize the diagonals")
    top_gens = [W.embed_top(tg) for tg in T.generators]
    h_gens = [_shift_degree(g, j * seg, total) for j in range(l) for g in base.H.generators]
    k_gens = [_shift_degree(g, j * seg, total) for j in range(l) for g in base.K.generators]
    H = PermGroup(total, h_gens + top_gens)
    K = PermGroup(total, k_gens + top_gens)
    return Triple(W.realized, H, K,
                  label=f"type3(|S|={S.order}, l={l}, k={k}, |T|={T.order})")


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
