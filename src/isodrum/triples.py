r"""Triples (G, H, K) and their properties.

AC: every conjugacy class of G meets H and K in equally many elements.
EC: every element of H is G-conjugate into K and vice versa.
FF: both coset actions are faithful (trivial cores).
MAX: both subgroups are maximal.
PAIR: an automorphism swaps H and K with inner square on H; the weak form
only compares orders.
INV: r involutions of the coset action generate a transitive group and
satisfy the fixed-point identity (r-2)*tiles == sum(Fix) - 2, so their
gluing graph is a tree.

AC, FF and MAX are decided on the coset tables of H and K, capped by the
index bound only: AC by equal double-coset counts |H\G/H| == |H\G/K| ==
|K\G/K| (equal permutation characters; each the number of orbits,
``groups._orbit_roots``, of one side's actions on the other's cosets), FF
by the order of each subgroup's image, MAX by block closure; sides equal
as sets share one table, with its image, block verdict and element actions
(``left_cosets``).
H and K are conjugate exactly when K's generators fix a common coset of H
(``sides_conjugate``, on the actions that AC reads).
EC follows from AC.  When AC fails, EC and both witnesses are read from
the fixed counts of the class representatives of H and of K on the two
coset tables (``_class_fixed_counts``); G's conjugacy classes are never
built here, only by ``groups.is_simple``.
PAIR verifies the swap automorphism by the order of its graph subgroup and
lists only H.  INV takes its candidates from H's involutions and lists G's
only when a witness may contain a fixed-point-free involution; one forest
search over the candidates, pruned by the fixed-point identity and by G's
conjugation classes, yields the witnesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .groups import (
    PermGroup,
    _conjugation_maps,
    _group_of_order_at_most,
    _orbit_roots,
    _rows,
    _take_rows,
    cached_classes,
    core,
    is_subgroup,
    left_cosets,
    same_group,
)
from .permutations import Permutation
from .transplant import InvolutionSystem, _forest_search, _tree_candidates


@dataclass
class Triple:
    """A parent group with two designated subgroups."""

    G: PermGroup
    H: PermGroup
    K: PermGroup
    label: str = ""

    def __post_init__(self):
        if not is_subgroup(self.H, self.G):
            raise ValueError("H is not a subgroup of G")
        if not is_subgroup(self.K, self.G):
            raise ValueError("K is not a subgroup of G")

    def __repr__(self):
        return (f"Triple({self.label or 'unnamed'}: |G|={self.G.order}, "
                f"|H|={self.H.order}, |K|={self.K.order})")


class PairStatus(enum.Enum):
    CONFIRMED = "confirmed"
    WEAK_EVIDENCE = "weak-evidence"
    FAILED = "failed"


def rank(G: PermGroup, A: PermGroup, B: PermGroup) -> int:
    r"""|A\G/B|: the number of orbits of B on the cosets of A."""
    table = left_cosets(G, A)
    m = len(table)
    roots = _orbit_roots(_rows([table.action_of(b).images for b in B.generators], m))
    return int(np.count_nonzero(roots == np.arange(m)))


def is_ac(t: Triple) -> bool:
    r"""Almost conjugate: equal permutation characters 1_H^G == 1_K^G.

    By Frobenius reciprocity <1_H^G, 1_K^G> = |H\G/K|, and by
    Cauchy-Schwarz the characters agree exactly when the three ranks
    |H\G/H|, |H\G/K| and |K\G/K| are equal.  Each rank counts orbits on a
    coset table, so no elements are enumerated and only the index bound
    applies.
    """
    if t.H.order != t.K.order:
        return False
    return rank(t.G, t.H, t.H) == rank(t.G, t.H, t.K) == rank(t.G, t.K, t.K)


def sides_conjugate(t: Triple) -> bool:
    """Whether H and K are conjugate in G: equal orders, and K's generators
    fix a common coset of H, whose stabilizer is a conjugate of H.  The
    actions are those ``rank(G, H, K)`` memoized on H's table."""
    table = left_cosets(t.G, t.H)
    m = len(table)
    fixed = _rows([table.action_of(k).images for k in t.K.generators], m) == np.arange(m)
    return t.H.order == t.K.order and bool(fixed.all(axis=0).any())


def _class_fixed_counts(t: Triple):
    """(x, a, b) for the lex-least member x of every conjugacy class of H and
    of K, sorted by key: x fixes a cosets of H and b cosets of K.

    x fixes the coset Hy exactly when y * x * y^-1 lies in H, so a fixed
    count is constant on conjugacy classes of G and an element that fixes a
    coset of H is conjugate into H.  So AC (equal fixed counts on all of G)
    holds exactly when a == b for every x, and EC exactly when no count is
    0.  The least element of H or K with either property is the least of
    its class, hence among the x.  The enumeration bound caps |H| and |K|;
    G is never listed.
    """
    by_key = {x.key(): x for sub in (t.H, t.K) for x in cached_classes(sub).reps}
    reps = [by_key[k] for k in sorted(by_key)]
    counts = []
    for sub in (t.H, t.K):
        table = left_cosets(t.G, sub)
        counts.append((table.actions_of(reps) == np.arange(len(table))).sum(axis=1).tolist())
    return list(zip(reps, *counts))


def is_ec(t: Triple) -> bool:
    """Elementwise conjugate in both directions.

    AC implies EC.  Otherwise every class representative of H must fix a
    coset of K and vice versa (``_class_fixed_counts``); this enumerates H
    and K (enumeration bound) but never G.
    """
    if same_group(t.H, t.K) or is_ac(t):
        return True
    return all(a and b for _, a, b in _class_fixed_counts(t))


def check_ff(t: Triple) -> bool:
    """Faithful coset actions: both cores trivial.

    Decided by the order of each subgroup's image on its cosets; no elements
    are enumerated, so only the index bound applies.
    """
    return all(left_cosets(t.G, sub).is_faithful() for sub in (t.H, t.K))


def ff_witness(t: Triple):
    """The offending normal subgroup (with its side) when FF fails."""
    for name, sub in (("H", t.H), ("K", t.K)):
        if not left_cosets(t.G, sub).is_faithful():
            return name, core(t.G, sub)
    return None


def check_max(t: Triple) -> bool:
    """Both subgroups maximal."""
    return max_witness(t) is None


def max_witness(t: Triple):
    """An intermediate subgroup strictly between G and a side, when one exists.

    The subgroup is generated by the side and the representatives of the
    first proper block of the coset action.  Only the index bound applies.
    """
    for name, sub in (("H", t.H), ("K", t.K)):
        if sub.order == t.G.order:
            return name, t.G
        table = left_cosets(t.G, sub)
        block = table.intermediate_block()
        if block is not None:
            gens = list(sub.generators) + [table.representatives[i] for i in block]
            return name, PermGroup(t.G.degree, gens)
    return None


def compress(t: Triple) -> Triple:
    """Transport a triple onto its H-coset action.

    Needs a faithful action (trivial core of H), so the image triple is
    isomorphic to the original and all properties carry over; the degree
    drops to the index [G:H].  H's image is generated by the images of t.H's
    own generators, whichever equal subgroup built the shared table.
    """
    table = left_cosets(t.G, t.H)
    if not table.is_faithful():
        raise ValueError("coset action is unfaithful; cannot compress")
    G2 = PermGroup(len(table), table.generator_actions)
    H2 = _group_of_order_at_most(len(table), [table.action_of(h) for h in t.H.generators],
                                 t.H.order)
    K2 = PermGroup(len(table), [table.action_of(k) for k in t.K.generators])
    return Triple(G2, H2, K2, label=f"{t.label or 'triple'} (coset action)")


def verify_automorphism(G: PermGroup, images):
    """Extend generator images to an automorphism sigma, or raise ValueError.

    The graph subgroup D = <(g_i, sigma_i)> acts on 2n points, g_i on the
    first n and its image sigma_i on the last n.  Projecting D onto its
    first half maps it onto G with kernel {(1, y)} in D, so the images
    define a homomorphism exactly when |D| == |G|; it is then bijective
    exactly when the images generate a group of order |G|.  No elements
    are enumerated.

    Returns sigma as a function on the elements of G.  Since D meets
    {(1, y)} trivially, every base point of D's chain lies in the first
    half, so sifting (x, 1) through the chain leaves a residue (1, y) with
    sigma(x) == y^-1.
    """
    images = list(images)
    if len(images) != len(G.generators):
        raise ValueError("need one image per generator")
    for im in images:
        if im.degree != G.degree:
            raise ValueError("image degree mismatch")
        if im not in G:
            raise ValueError("image is not a member of the group")
    n = G.degree
    ident = np.arange(n, dtype=np.int32)
    graph = PermGroup(2 * n, [Permutation._wrap(np.concatenate([g.images, im.images + n]))
                              for g, im in zip(G.generators, images)])
    if graph.order != G.order:
        raise ValueError("generator images do not define a homomorphism")
    if _group_of_order_at_most(n, images, G.order).order != G.order:
        raise ValueError("generator images define a non-bijective map")
    chain = graph.chain()

    def sigma(x: Permutation) -> Permutation:
        _, residue = chain.sift(Permutation._wrap(np.concatenate([x.images, ident + n])))
        if residue is None:
            return G.identity
        if not (residue.images[:n] == ident).all():
            raise ValueError("element is not a member of the group")
        return Permutation._wrap(residue.images[n:] - n).inverse()

    return sigma


def check_pair(t: Triple, candidate=None) -> PairStatus:
    """PAIR: confirmed via a verified swap automorphism, else the order test.

    The search for an inner square lists H only, so the enumeration bound
    caps |H|: sigma^2 is inner on H when some h0 in H has h0^-1 * h * h0 ==
    sigma^2(h) for every generator h of H.  All h0 are tested at once on
    H's element rows: their inverses are one scatter, and the conjugates of
    each generator one gather.
    """
    if candidate is None:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    sigma = verify_automorphism(t.G, candidate)
    maps_h_to_k = (t.H.order == t.K.order
                   and all(sigma(h) in t.K for h in t.H.generators))
    if not maps_h_to_k:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    rows = t.H.element_rows()
    count, n = rows.shape
    inverses = np.empty_like(rows)
    inverses[np.arange(count)[:, None], rows] = np.arange(n, dtype=np.int32)
    inner = np.ones(count, dtype=bool)
    for h in t.H.generators:
        # row i of the gather is h0^-1 * h * h0 for h0 = rows[i]
        inner &= (_take_rows(rows, h.images[inverses]) == sigma(sigma(h)).images).all(axis=1)
    return PairStatus.CONFIRMED if inner.any() else PairStatus.WEAK_EVIDENCE


def inv_witnesses(t: Triple, r: int = 3):
    """Involution systems witnessing INV for the H-side coset action, at
    least one from each class of witnesses under conjugation by G.

    Yields (G-involution tuple, system on the coset space) in a fixed order:
    the candidates of ``transplant._tree_candidates`` in its order (by
    descending fixed-point count in the action, then by action row), subsets
    lexicographically.  That routine holds the fixed-point certificate and
    the three cases of candidates with their proof; the candidates act by
    pairwise distinct rows and are closed under conjugation by G.  For a
    faithful action they are involutions of G, which keeps preimages
    available; otherwise the same routine runs on G's image on the cosets,
    with H's image as the stabilizer, and the preimage slot is None.

    One depth-first search (``transplant._forest_search``, which the census
    filters) walks the subsets, with one exact fact and one symmetry rule:

    * Tree identity.  Color i glues (n - Fix_i) / 2 pairs of tiles, so a
      subset meeting sum Fix = (r-2) * n + 2 has exactly n - 1 gluing
      edges, and its gluing graph is connected (the system is transitive)
      exactly when it is acyclic.  The search keeps a union-find over the
      cosets and rejects a candidate whose 2-cycles close a cycle; every
      leaf meeting the sum is a tree, and no transitivity test runs.
    * Class-first rule (proved at ``_forest_search``).  The yielded
      sequence is the subsequence of all witnesses whose first member is
      the first candidate of its G-class; it holds the least witness of
      every class, so its first witness, and whether it is empty, are
      those of the full sequence.  ``gww`` takes the first witness that
      unfolds cleanly under some color order; cleanliness is kept by
      conjugation (a relabeling of tiles) and by reordering the colors, so
      the same argument makes that witness class-first, and ``gww``
      chooses as it would from the full sequence.

    References: Buser-Conway-Doyle-Semmler, "Some planar isospectral
    domains", IMRN 1994 (the gluing trees); McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998 (orderly generation).
    """
    if r < 3:
        raise ValueError("need at least 3 sides")
    table = left_cosets(t.G, t.H)
    lam = len(table)
    if table.is_faithful():
        found = _tree_candidates(t.G, t.H, [table], r)
        preimage = Permutation._wrap
    else:
        found = _tree_candidates(PermGroup(lam, table.generator_actions), table.subgroup_image(),
                                 [], r)
        preimage = lambda row: None
    if found is None:
        return
    rows, acts = found[0], found[-1]
    maps = _conjugation_maps(acts, _rows([a.images for a in table.generator_actions], lam))
    for combo in _forest_search(acts, maps, r, (r - 2) * lam + 2):
        sys = InvolutionSystem(lam, r, tuple(Permutation._wrap(acts[i]) for i in combo))
        yield tuple(preimage(rows[i]) for i in combo), sys


def check_inv(t: Triple, r: int = 3):
    """First INV witness system, or None when there is none.

    None is proved by the fixed-point certificate (r times the largest
    fixed count of an involution of H's image below (r-2) * n + 2) or by an
    exhausted search over the candidates; see ``transplant._tree_candidates``
    for the three cases of candidates and ``inv_witnesses`` for the tree
    identity and the class-first rule, under which the answer is the first
    witness of the full lexicographic sequence.
    """
    for _, sys in inv_witnesses(t, r):
        return sys
    return None


PROPERTIES = ("ac", "ec", "ff", "max", "pair", "inv")


@dataclass
class PropertyReport:
    """Outcome of the full property suite on one triple.

    ``checked`` holds the requested properties; PAIR and INV outside it
    were not run (``pair`` is then None) and read "not checked".
    """

    label: str
    ac: bool
    ec: bool
    ff: bool
    max: bool
    pair: PairStatus | None
    inv: InvolutionSystem | None
    witnesses: dict = field(default_factory=dict)
    checked: frozenset = frozenset(PROPERTIES)

    def __post_init__(self):
        if self.ac and not self.ec:
            raise ValueError("inconsistent report: AC holds but EC fails")

    def holds(self, props) -> bool:
        """Whether every property named in ``props`` passes: PAIR unless it
        failed (weak evidence passes), INV when a witness was found."""
        passes = {"ac": self.ac, "ec": self.ec, "ff": self.ff, "max": self.max,
                  "pair": self.pair != PairStatus.FAILED, "inv": self.inv is not None}
        return all(passes[p] for p in props)

    def _pair_text(self) -> str:
        return self.pair.value if "pair" in self.checked else "not checked"

    def lines(self):
        out = [
            f"AC:   {'true' if self.ac else 'false'}",
            f"EC:   {'true' if self.ec else 'false'}",
            f"FF:   {'true' if self.ff else 'false'}",
            f"MAX:  {'true' if self.max else 'false'}",
            f"PAIR: {self._pair_text()}",
        ]
        if "inv" not in self.checked:
            out.append("INV:  not checked")
        elif self.inv is None:
            out.append("INV:  none")
        else:
            out.append(f"INV:  found (sides={self.inv.r}, fixed={tuple(self.inv.traces())})")
        for prop, wit in sorted(self.witnesses.items()):
            out.append(f"witness[{prop}]: {wit}")
        return out

    def to_json_dict(self):
        inv = "not checked" if "inv" not in self.checked else None
        if self.inv is not None:
            from .transplant import format_involution_system

            inv = format_involution_system(self.inv)
        return {
            "schema": 1,
            "label": self.label,
            "ac": self.ac,
            "ec": self.ec,
            "ff": self.ff,
            "max": self.max,
            "pair": self._pair_text(),
            "inv": inv,
            "witnesses": dict(self.witnesses),
        }


def property_report(t: Triple, pair_candidate=None, r: int = 3,
                    props=PROPERTIES) -> PropertyReport:
    """Run the property suite, collecting witnesses for failures.

    AC, EC, FF and MAX always run; PAIR and INV run only when named in
    ``props``.  When AC fails, one ``_class_fixed_counts`` pass decides EC
    and gives both witnesses: for AC the least element of H or K whose
    fixed counts on the two coset tables differ, for EC the least one that
    fixes no coset of the other side.  A resource bound hit anywhere, INV's
    enumeration and subset search included, raises ``BoundExceeded``; no
    verdict is reported unproved.
    """
    witnesses = {}
    ac = is_ac(t)
    ec = True
    if not ac:
        counts = _class_fixed_counts(t)
        x, a, b = next(c for c in counts if c[1] != c[2])
        witnesses["ac"] = f"element {x} fixes {a} cosets of H, {b} of K"
        missing = [x for x, a, b in counts if not (a and b)]
        ec = not missing
        if missing:
            witnesses["ec"] = f"element {missing[0]} conjugate into one side only"
    ffw = ff_witness(t)
    if ffw is not None:
        side, sub = ffw
        witnesses["ff"] = f"core of {side} has order {sub.order}; generators {[str(g) for g in sub.generators]}"
    maxw = max_witness(t)
    if maxw is not None:
        side, sub = maxw
        witnesses["max"] = f"{side} is contained in a proper subgroup of order {sub.order}"
    pair = check_pair(t, pair_candidate) if "pair" in props else None
    inv = check_inv(t, r) if "inv" in props else None
    return PropertyReport(
        label=t.label,
        ac=ac,
        ec=ec,
        ff=ffw is None,
        max=maxw is None,
        pair=pair,
        inv=inv,
        witnesses=witnesses,
        checked=frozenset(props),
    )
