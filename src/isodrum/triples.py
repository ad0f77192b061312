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
|K\G/K| (equal permutation characters), FF by the order of each
subgroup's image, MAX by block closure; sides equal as sets share one
table, with its image, block verdict and element actions (``left_cosets``).
EC follows from AC; when AC fails, each class representative of one side
must fix a coset of the other.  G's conjugacy classes are built only for
the AC-failure witness (``ac_profile``) and ``permutation_character``.
PAIR verifies the swap automorphism by the order of its graph subgroup and
lists only H.  INV takes its candidates from H's involutions and lists G's
only when a witness may contain a fixed-point-free involution; one forest
search over the candidates, pruned by the fixed-point identity and by G's
conjugation classes, yields the witnesses.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceeded
from .groups import (
    PermGroup,
    _group_of_order_at_most,
    _row_keys,
    _take_rows,
    cached_classes,
    core,
    is_subgroup,
    left_cosets,
    same_group,
)
from .limits import INV_SEARCH_BOUND, enumeration_bound, index_bound
from .permutations import Permutation
from .transplant import InvolutionSystem, _conjugation_closure, involutions_of


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


def ac_profile(t: Triple, bound=None):
    """Per-class membership counts: list of (class rep, |class ∩ H|, |class ∩ K|)."""
    cap = enumeration_bound(bound)
    classes = cached_classes(t.G, cap)
    ch = Counter(classes.index_of(h) for h in t.H.elements(cap))
    ck = Counter(classes.index_of(k) for k in t.K.elements(cap))
    return [(rep, ch.get(i, 0), ck.get(i, 0)) for i, rep in enumerate(classes.reps)]


def rank(G: PermGroup, A: PermGroup, B: PermGroup) -> int:
    r"""|A\G/B|: the number of orbits of B on the cosets of A."""
    table = left_cosets(G, A)
    return len(PermGroup(len(table), [table.action_of(b) for b in B.generators]).orbits())


def is_ac(t: Triple, bound=None) -> bool:
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


def _conjugate_into(G: PermGroup, g: Permutation, K: PermGroup) -> bool:
    """Whether some G-conjugate of g lies in K, i.e. g fixes a coset Kx."""
    return left_cosets(G, K).action_of(g).fixed_point_count() > 0


def is_ec(t: Triple, bound=None) -> bool:
    """Elementwise conjugate in both directions.

    AC implies EC.  Otherwise every class representative of H must fix a
    coset of K and vice versa; this enumerates H and K (enumeration bound)
    but never G.
    """
    if same_group(t.H, t.K) or is_ac(t):
        return True
    cap = enumeration_bound(bound)
    return all(_conjugate_into(t.G, rep, other)
               for sub, other in ((t.H, t.K), (t.K, t.H))
               for rep in cached_classes(sub, cap).reps)


def ec_witness_element(t: Triple, bound=None):
    """Least element of H not conjugate into K, or of K not into H; None if EC."""
    cap = enumeration_bound(bound)
    bad = [next((x for x in sorted(sub.elements(cap), key=Permutation.key) if not _conjugate_into(t.G, x, other)), None)
           for sub, other in ((t.H, t.K), (t.K, t.H))]
    return min((x for x in bad if x is not None), default=None)


def check_ff(t: Triple, bound=None) -> bool:
    """Faithful coset actions: both cores trivial.

    Decided by the order of each subgroup's image on its cosets; no elements
    are enumerated, so only the index bound applies.
    """
    return all(left_cosets(t.G, sub).is_faithful() for sub in (t.H, t.K))


def ff_witness(t: Triple, bound=None):
    """The offending normal subgroup (with its side) when FF fails."""
    for name, sub in (("H", t.H), ("K", t.K)):
        if not left_cosets(t.G, sub).is_faithful():
            return name, core(t.G, sub)
    return None


def check_max(t: Triple, bound=None) -> bool:
    """Both subgroups maximal."""
    return max_witness(t, bound) is None


def max_witness(t: Triple, bound=None):
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


def compress(t: Triple, bound=None) -> Triple:
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


def permutation_character(G: PermGroup, H: PermGroup, bound=None):
    """Fixed-coset counts per conjugacy class representative."""
    cap = enumeration_bound(bound)
    classes = cached_classes(G, cap)
    table = left_cosets(G, H, index_bound())
    out = {}
    for rep in classes.reps:
        act = table.action_of(rep)
        out[rep] = act.fixed_point_count()
    return out


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


def check_pair(t: Triple, candidate=None, bound=None) -> PairStatus:
    """PAIR: confirmed via a verified swap automorphism, else the order test.

    The search for an inner square lists H only, so ``bound`` caps |H|:
    sigma^2 is inner on H when some h0 in H has h0^-1 * h * h0 ==
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
    rows = t.H.element_rows(enumeration_bound(bound))
    count, n = rows.shape
    inverses = np.empty_like(rows)
    inverses[np.arange(count)[:, None], rows] = np.arange(n, dtype=np.int32)
    inner = np.ones(count, dtype=bool)
    for h in t.H.generators:
        # row i of the gather is h0^-1 * h * h0 for h0 = rows[i]
        inner &= (_take_rows(rows, h.images[inverses]) == sigma(sigma(h)).images).all(axis=1)
    return PairStatus.CONFIRMED if inner.any() else PairStatus.WEAK_EVIDENCE


def _class_firsts(acts, gen_acts):
    """Whether each row of ``acts`` is the first of its class.

    ``acts`` holds pairwise distinct rows closed under conjugation by the
    rows ``gen_acts``; a class is an orbit under that conjugation.  Each
    generator's conjugation map (s^-1 * x * s is the row s[x[s^-1]]) is
    union-found with every class rooted at its smallest index, so a row is
    first exactly when it is its own root.
    """
    index = {key: i for i, key in enumerate(_row_keys(acts))}
    parent = list(range(len(acts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in gen_acts:
        for i, key in enumerate(_row_keys(s[acts[:, np.argsort(s)]])):
            a, b = find(i), find(index[key])
            parent[max(a, b)] = min(a, b)
    return [find(i) == i for i in range(len(acts))]


def _forest_search(cycles, fixes, first, r, target, degree):
    """Increasing r-tuples of candidate indices whose fixed counts sum to
    ``target`` and whose 2-cycles ``cycles[i]``, as edges on
    0..degree-1, form a forest; the first index must be marked in
    ``first``.

    One depth-first search in lexicographic order.  ``fixes`` must be
    non-increasing, so a partial sum prunes a whole tail.  A union-find
    over the points holds the forest of the chosen candidates; a candidate
    whose 2-cycle joins two connected points is rejected, and its unions
    are undone on the way back.  Raises BoundExceeded after
    ``INV_SEARCH_BOUND`` nodes.
    """
    parent = list(range(degree))
    chosen = []
    visited = 0

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def rec(start, total):
        nonlocal visited
        need = r - len(chosen)
        if need == 0:
            yield tuple(chosen)
            return
        for i in range(start, len(fixes) - need + 1):
            if not chosen and not first[i]:
                continue
            visited += 1
            if visited > INV_SEARCH_BOUND:
                raise BoundExceeded("involution subset search bound exceeded")
            if total + need * fixes[i] < target:
                break
            if total + fixes[i] + (need - 1) * fixes[-1] > target:
                continue
            joined = []
            for a, b in cycles[i]:
                a, b = find(a), find(b)
                if a == b:
                    break
                parent[b] = a
                joined.append(b)
            else:
                chosen.append(i)
                yield from rec(i + 1, total + fixes[i])
                chosen.pop()
            for b in joined:
                parent[b] = b

    yield from rec(0, 0)


def inv_witnesses(t: Triple, r: int = 3, bound=None):
    """Involution systems witnessing INV for the H-side coset action, at
    least one from each class of witnesses under conjugation by G.

    Yields (G-involution tuple, system on the coset space) in a fixed order:
    candidate involutions sorted by descending fixed-point count in the
    action, then by action key, subsets lexicographically.  For a faithful
    action the candidates are involutions of G, which keeps preimages
    available; otherwise they are involutions of G's image and the
    preimage slot is None.  In every case the candidates act by pairwise
    distinct rows and are closed under conjugation by G.

    The candidates come from H, not from a listing of G.  An involution x
    fixes the coset Hy exactly when y * x * y^-1 lies in H, so every
    involution with a fixed coset is G-conjugate to an involution of H's
    image (the stabilizer of coset 0), and the fixed count is constant on
    conjugacy classes.  With m the largest fixed count of an involution of
    H's image (0 if it has none) and target = (r-2) * n + 2 the sum a
    witness needs, there are three cases:

    * r * m < target: no r involutions reach the sum; nothing is yielded.
    * (r-1) * m < target: every member of a witness fixes at least
      target - (r-1) * m > 0 cosets, so the candidates are the closure of
      H's involutions under conjugation by G's generators
      (``transplant._conjugation_closure``), carried as rows of G and of
      the action side by side.  The enumeration bound caps H and the
      closure.  This is the sorted list of all involutions without its
      fixed-point-free tail, which no witness touches.
    * otherwise a witness may contain a fixed-point-free involution, and
      all of G's involutions are listed (``involutions_of``), their actions
      from one batched ``CosetTable.actions_of`` pass; the enumeration bound
      caps G.

    One depth-first search (``_forest_search``) walks the subsets, with
    two exact facts and one symmetry rule:

    * Tree identity.  Color i glues (n - Fix_i) / 2 pairs of tiles, so a
      subset meeting sum Fix = (r-2) * n + 2 has exactly n - 1 gluing
      edges, and its gluing graph is connected (the system is transitive)
      exactly when it is acyclic.  The search keeps a union-find over the
      cosets and rejects a candidate whose 2-cycles close a cycle; every
      leaf meeting the sum is a tree, and no transitivity test runs.
    * Class-first rule.  Conjugating a witness by g in G gives a witness:
      the candidates are closed under conjugation, fixed counts are class
      functions, and the gluing graph is relabeled by g's action on the
      cosets.  Let x_a, at position a, be the first member of the
      lexicographically first witness of its conjugation class.  Were x_a
      conjugate by some g to the candidate at a position a' < a,
      conjugating the whole witness by g would give a witness of the same
      class whose first position is at most a' < a.  So x_a is the first
      candidate of its G-class, and the first member is tried only among
      those (``_class_firsts``).  The yielded sequence is the subsequence
      of all witnesses whose first member is first in its class; its first
      witness, and whether it is empty, are those of the full sequence.
      ``gww`` takes the first witness that unfolds cleanly under some
      color order; cleanliness is kept by conjugation (a relabeling of
      tiles) and by reordering the colors, so the same argument makes that
      witness class-first, and ``gww`` chooses as it would from the full
      sequence.

    References: Buser-Conway-Doyle-Semmler, "Some planar isospectral
    domains", IMRN 1994 (the gluing trees); McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998 (orderly generation).
    """
    if r < 3:
        raise ValueError("need at least 3 sides")
    cap = enumeration_bound(bound)
    table = left_cosets(t.G, t.H, index_bound())
    lam = len(table)
    target = (r - 2) * lam + 2
    faithful = table.is_faithful()
    gen_acts = _rows([a.images for a in table.generator_actions], lam)
    if faithful:
        stab_invs = involutions_of(t.H, cap)
        stab_acts = table.actions_of(stab_invs)
        stab = _rows([p.images for p in stab_invs], t.G.degree)
    else:
        stab_acts = _rows([p.images for p in involutions_of(table.subgroup_image(), cap)], lam)
    m = int((stab_acts == np.arange(lam)).sum(axis=1).max(initial=0))
    if r * m < target:
        return
    if (r - 1) * m < target:
        if faithful:
            acts, g_rows = _conjugation_closure(
                [stab_acts, stab], [gen_acts, _rows([g.images for g in t.G.generators], t.G.degree)],
                cap)
            gs = [Permutation._wrap(row) for row in g_rows]
        else:
            (acts,) = _conjugation_closure([stab_acts], [gen_acts], cap)
            gs = [None] * len(acts)
    elif faithful:
        gs = involutions_of(t.G, cap)
        acts = table.actions_of(gs)
    else:
        invs = involutions_of(PermGroup(lam, table.generator_actions), cap)
        gs = [None] * len(invs)
        acts = _rows([p.images for p in invs], lam)
    fixes = (acts == np.arange(lam)).sum(axis=1).tolist()
    keys = _row_keys(acts)
    order = sorted(range(len(gs)), key=lambda i: (-fixes[i], keys[i]))
    acts, gs, fixes = acts[order], [gs[i] for i in order], [fixes[i] for i in order]
    # each candidate's 2-cycles as pairs (a, x[a]) with a < x[a]
    movers = acts > np.arange(lam)
    pairs = np.stack([np.nonzero(movers)[1], acts[movers]], axis=1).tolist()
    ends = np.cumsum(movers.sum(axis=1)).tolist()
    cycles = [pairs[a:b] for a, b in zip([0] + ends, ends)]
    first = _class_firsts(acts, gen_acts)
    for combo in _forest_search(cycles, fixes, first, r, target, lam):
        sys = InvolutionSystem(lam, r, tuple(Permutation._wrap(acts[i]) for i in combo))
        yield tuple(gs[i] for i in combo), sys


def _rows(images, degree):
    """Image rows as one (len(images), degree) int32 array, empty included."""
    return np.array(images, dtype=np.int32).reshape(-1, degree)


def check_inv(t: Triple, r: int = 3, bound=None):
    """First INV witness system, or None when there is none.

    None is proved by the fixed-point certificate (r times the largest
    fixed count of an involution of H's image below (r-2) * n + 2) or by an
    exhausted search over the candidates; see ``inv_witnesses`` for the
    three cases of candidates, the tree identity and the class-first rule.
    The class-first rule drops witnesses but never the first one, so the
    answer is the first witness of the full lexicographic sequence.
    """
    for _, sys in inv_witnesses(t, r, bound):
        return sys
    return None


@dataclass
class PropertyReport:
    """Outcome of the full property suite on one triple."""

    label: str
    ac: bool
    ec: bool
    ff: bool
    max: bool
    pair: PairStatus
    inv: InvolutionSystem | None
    witnesses: dict = field(default_factory=dict)
    inv_checked: bool = True

    def __post_init__(self):
        if self.ac and not self.ec:
            raise ValueError("inconsistent report: AC holds but EC fails")

    def holds(self, include_inv=True) -> bool:
        ok = self.ac and self.ec and self.ff and self.max and self.pair != PairStatus.FAILED
        if include_inv:
            ok = ok and self.inv is not None
        return ok

    def lines(self):
        out = [
            f"AC:   {'true' if self.ac else 'false'}",
            f"EC:   {'true' if self.ec else 'false'}",
            f"FF:   {'true' if self.ff else 'false'}",
            f"MAX:  {'true' if self.max else 'false'}",
            f"PAIR: {self.pair.value}",
        ]
        if not self.inv_checked:
            out.append("INV:  not checked")
        elif self.inv is None:
            out.append("INV:  none")
        else:
            out.append(f"INV:  found (sides={self.inv.r}, fixed={tuple(self.inv.traces())})")
        for prop, wit in sorted(self.witnesses.items()):
            out.append(f"witness[{prop}]: {wit}")
        return out

    def to_json_dict(self):
        inv = "not checked" if not self.inv_checked else None
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
            "pair": self.pair.value,
            "inv": inv,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
        }


def property_report(t: Triple, pair_candidate=None, r: int = 3, bound=None,
                    check_inv_property: bool = True) -> PropertyReport:
    """Run the whole property suite, collecting witnesses for failures.

    A resource bound hit anywhere, INV's enumeration and subset search
    included, raises ``BoundExceeded``; no verdict is reported unproved.
    """
    witnesses = {}
    ac = is_ac(t, bound)
    ec = ac or is_ec(t, bound)
    if not ac and t.G.order <= enumeration_bound(bound):
        prof = [(rep, nh, nk) for rep, nh, nk in ac_profile(t, bound) if nh != nk]
        if prof:
            rep, nh, nk = prof[0]
            witnesses["ac"] = f"class of {rep} meets H {nh} times, K {nk} times"
    if not ec:
        w = ec_witness_element(t, bound)
        if w is not None:
            witnesses["ec"] = f"element {w} conjugate into one side only"
    ffw = ff_witness(t, bound)
    if ffw is not None:
        side, sub = ffw
        witnesses["ff"] = f"core of {side} has order {sub.order}; generators {[str(g) for g in sub.generators]}"
        witnesses["ff_subgroup"] = sub
    maxw = max_witness(t, bound)
    if maxw is not None:
        side, sub = maxw
        witnesses["max"] = f"{side} is contained in a proper subgroup of order {sub.order}"
        witnesses["max_subgroup"] = sub
    pair = check_pair(t, pair_candidate, bound)
    inv = check_inv(t, r, bound) if check_inv_property else None
    return PropertyReport(
        label=t.label,
        ac=ac,
        ec=ec,
        ff=ffw is None,
        max=maxw is None,
        pair=pair,
        inv=inv,
        witnesses=witnesses,
        inv_checked=check_inv_property,
    )
