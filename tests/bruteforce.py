"""Independent brute-force oracles used to check the chain-based algorithms.

Everything here enumerates naively and, apart from ``brute_elements``
(which pins the order in which the library lists a group), ``brute_scan``
(which tests generation by a group order) and ``is_conjugate`` (which
tests membership), never touches stabilizer chains, so agreement with the
library is a meaningful check.  ``ReferenceChain`` builds a chain, but
with code of its own: the library's Schreier-Sims loop written on
``Permutation`` objects, which the library's row kernel must reproduce level
for level.  ``triangles_overlap`` and ``walk_self_crosses`` decide overlap
and crossing by exact pairwise geometry, without the tessellation argument
the library's unfolding relies on; ``brute_is_tree`` searches the gluing
graph instead of using the fixed-point identity.  ``brute_inv_witnesses``
lists every involution of G as an INV candidate instead of deriving the
candidates from H, runs the plain fixed-point subset search and tests each
subset for transitivity; ``brute_class_first`` filters those witnesses by
listing every G-conjugate of each first member, and ``brute_check_pair``
conjugates by one element of H at a time; all three use the library's
chains to list elements.
"""

import itertools
from collections import deque
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from isodrum.drums import _cross, _sign
from isodrum.errors import BoundExceeded
from isodrum.groups import PermGroup, _row_keys, is_transitive_on, left_cosets
from isodrum.limits import INV_SEARCH_BOUND, OKADA_SHUDO_NMAX, enumeration_bound, index_bound
from isodrum.permutations import Permutation
from isodrum.spectral import GridMask
from isodrum.transplant import InvolutionSystem, find_transplantation, involutions_of
from isodrum.triples import PairStatus, verify_automorphism


def mulclose(gens, maxsize=None):
    """Closure of a generator set under products, as a set of Permutations."""
    if not gens:
        return set()
    ident = Permutation.identity(gens[0].degree)
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    new.append(y)
                    if maxsize and len(els) > maxsize:
                        raise RuntimeError("closure exceeded maxsize")
        frontier = new
    return els


class ReferenceLevel:
    """One level of a ``ReferenceChain``: a base point, its strong
    generators, Schreier vector and transversals, all as Permutations."""

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens = []
        self.sv = {point: None}  # orbit point -> (parent point, generator index)
        self.trans = {point: Permutation.identity(degree)}
        self.trans_inv = {point: self.trans[point]}
        self.pending = deque()
        self.processed = set()

    def add_gen(self, g):
        gi = len(self.gens)
        self.gens.append(g)
        new_points = []
        for p in list(self.sv):
            q = g(p)
            if q not in self.sv:
                self.sv[q] = (p, gi)
                new_points.append(q)
        frontier = deque(new_points)
        while frontier:
            p = frontier.popleft()
            for gj, h in enumerate(self.gens):
                q = h(p)
                if q not in self.sv:
                    self.sv[q] = (p, gj)
                    frontier.append(q)
                    new_points.append(q)
        for p in self.sv:
            self.pending.append((p, gi))
        for p in new_points:
            for gj in range(len(self.gens)):
                self.pending.append((p, gj))

    def transversal(self, p):
        """u with u(point) == p: the generators along the Schreier tree's
        path from the point to p, in order."""
        path = []
        q = p
        while q not in self.trans:
            path.append(q)
            q = self.sv[q][0]
        for r in reversed(path):
            self.trans[r] = self.trans[self.sv[r][0]] * self.gens[self.sv[r][1]]
        return self.trans[p]

    def transversal_inv(self, p):
        if p not in self.trans_inv:
            self.trans_inv[p] = self.transversal(p).inverse()
        return self.trans_inv[p]


def _is_identity(p):
    return not p.moved_points()


class ReferenceChain:
    """Deterministic incremental Schreier-Sims on Permutation objects.

    The same loop as ``groups._Chain`` (same pending order, same sifts, same
    installs, same stop at a known order), one Permutation product at a time
    and with the identity tested by moved points, so the library's row
    kernel must give the same base, Schreier vectors and strong generators.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels = []

    def sift(self, p, start=0):
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            t = p(lvl.point)
            if t == lvl.point:
                continue
            if t not in lvl.sv:
                return j, p
            p = p * lvl.transversal_inv(t)
        return len(self.levels), (None if _is_identity(p) else p)

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.sv)
        return n

    def add_generator(self, g):
        if _is_identity(g):
            return False
        j, residue = self.sift(g)
        if residue is None:
            return False
        self._install(j, residue)
        return True

    def _install(self, j, r):
        if j == len(self.levels):
            self.levels.append(ReferenceLevel(min(r.moved_points()), self.degree))
        for lvl in self.levels[: j + 1]:
            lvl.add_gen(r)

    def complete(self, bound=None):
        if self.order() == bound:
            return
        while True:
            i = len(self.levels) - 1
            while i >= 0 and not self.levels[i].pending:
                i -= 1
            if i < 0:
                return
            lvl = self.levels[i]
            p, gi = lvl.pending.popleft()
            if (p, gi) in lvl.processed:
                continue
            lvl.processed.add((p, gi))
            u = lvl.transversal(p) * lvl.gens[gi]
            s = u * lvl.transversal_inv(u(lvl.point))
            if _is_identity(s):
                continue
            j, residue = self.sift(s, i + 1)
            if residue is not None:
                self._install(j, residue)
                if self.order() == bound:
                    return


def reference_chain(degree, gens, bound=None):
    """The chain ``PermGroup(degree, gens)`` builds (with ``bound``, the one
    ``_group_of_order_at_most(degree, gens, bound)`` builds)."""
    chain = ReferenceChain(degree)
    for g in gens:
        chain.add_generator(g)
    chain.complete(bound)
    return chain


def brute_canonical(H_elements, u, base):
    """The member of the coset Hu with the lexicographically least images of
    ``base``, scanning all of H."""
    return min((h * u for h in H_elements), key=lambda x: [x(b) for b in base])


def brute_elements(G):
    """G's elements in the library's listing order, one product at a time.

    Walks the stabilizer chain from the deepest level up; each level
    multiplies every element built so far by each transversal element,
    orbit points in increasing order.
    """
    elems = [Permutation.identity(G.degree)]
    for lvl in reversed(G.chain().levels):
        transversal = [lvl.transversal(p) for p in sorted(lvl.sv)]
        elems = [e * u for u in transversal for e in elems]
    return elems


def brute_involutions(elements):
    """The elements p with p * p == 1 != p, sorted by image key."""
    return sorted(p for p in elements if (p * p).is_identity() and not p.is_identity())


def brute_automorphism(degree, gens, images):
    """Extend generator images to an element map by closing the
    multiplication table, or raise ValueError.

    Every product w * g is paired with mapping[w] * image(g); a word reached
    twice with two different images means the images define no
    homomorphism, and fewer distinct images than elements means the map is
    not bijective.  Returns the map as a dict keyed by element.
    """
    ident = Permutation.identity(degree)
    mapping = {ident: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            img = mapping[w]
            for g, gim in zip(gens, images):
                w2 = w * g
                img2 = img * gim
                known = mapping.get(w2)
                if known is None:
                    mapping[w2] = img2
                    nxt.append(w2)
                elif known != img2:
                    raise ValueError("generator images do not define a homomorphism")
        frontier = nxt
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("generator images define a non-bijective map")
    return mapping


def brute_conjugators(elements, a, b):
    """All g with g^-1 a g == b, scanning the given element list."""
    return [g for g in elements if a.conjugate_by(g) == b]


def is_conjugate(G: PermGroup, a: Permutation, b: Permutation, bound=None):
    """A conjugator g in G with g^-1 a g == b, or None.

    Breadth-first search over the conjugation orbit of a, so the witness is
    the first conjugator in BFS order.
    """
    if a not in G or b not in G:
        raise ValueError("elements are not members of the group")
    if a.cycle_type() != b.cycle_type():
        return None
    if a == b:
        return Permutation.identity(G.degree)
    cap = enumeration_bound(bound)
    seen = {a.key(): Permutation.identity(G.degree)}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        w = seen[x.key()]
        for g in G.generators:
            y = x.conjugate_by(g)
            if y.key() not in seen:
                wg = w * g
                if y == b:
                    return wg
                seen[y.key()] = wg
                queue.append(y)
                if len(seen) > cap:
                    raise BoundExceeded("conjugation orbit exceeds enumeration bound")
    return None


def brute_classes(elements):
    """Conjugacy classes by scanning all conjugations; list of frozensets."""
    elements = list(elements)
    left = {e.key(): e for e in elements}
    classes = []
    while left:
        rep = left[min(left)]
        cls = {rep.conjugate_by(g) for g in elements}
        classes.append(frozenset(cls))
        for x in cls:
            left.pop(x.key(), None)
    return classes


def brute_core(G_elements, H_elements):
    """Largest normal subgroup of G inside H: elements whose whole G-class
    stays in H."""
    hset = set(H_elements)
    return {h for h in H_elements if all(h.conjugate_by(g) in hset for g in G_elements)}


def brute_is_ec(G_elements, H_elements, K_elements):
    kset = set(K_elements)
    hset = set(H_elements)
    for h in H_elements:
        if not any(h.conjugate_by(g) in kset for g in G_elements):
            return False
    for k in K_elements:
        if not any(k.conjugate_by(g) in hset for g in G_elements):
            return False
    return True


def brute_is_ac(G_elements, H_elements, K_elements):
    hset = set(H_elements)
    kset = set(K_elements)
    for cls in brute_classes(G_elements):
        if len(cls & hset) != len(cls & kset):
            return False
    return True


def brute_double_coset_count(G_elements, A_gens, B_gens):
    """|A\\G/B|: orbits of x -> a * x and x -> x * b on the elements of G,
    for a and b running over generators of A and B."""
    left = set(G_elements)
    count = 0
    while left:
        count += 1
        frontier = [left.pop()]
        while frontier:
            x = frontier.pop()
            for y in [a * x for a in A_gens] + [x * b for b in B_gens]:
                if y in left:
                    left.remove(y)
                    frontier.append(y)
    return count


def brute_same_character(A_perms, B_perms):
    """Whether two colorwise-matched permutation actions on n points have
    equal characters, i.e. are isomorphic representations.

    Closes the paired generators a_mu (+) b_mu on 2n points and compares the
    fixed-point counts of the two halves on every element of the closure.
    """
    n = A_perms[0].degree
    paired = [Permutation([int(x) for x in a.images] + [n + int(x) for x in b.images])
              for a, b in zip(A_perms, B_perms)]
    for w in mulclose(paired):
        fixed = [int(w.images[i]) == i for i in range(2 * n)]
        if sum(fixed[:n]) != sum(fixed[n:]):
            return False
    return True


def fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def all_subgroups(G_elements):
    """Every subgroup of the group with the given element set.

    Grows the lattice by closing each known subgroup with one extra element;
    every subgroup arises this way from the trivial one.
    """
    elements = sorted(G_elements)
    ident = [e for e in elements if e.is_identity()][0]
    trivial = frozenset([ident])
    seen = {trivial}
    queue = deque([trivial])
    while queue:
        sub = queue.popleft()
        for g in elements:
            if g in sub:
                continue
            bigger = frozenset(mulclose(sorted(sub | {g})))
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return seen


def brute_coset_table(G_gens, H_elements, base):
    """Cosets Hg by breadth-first search over G's generators, one element
    at a time.

    The canonical member of a coset Hu is found by scanning all of H for the
    element h * u with the least images of ``base``.  Returns the
    representatives, the map from canonical image key to coset index, and
    each generator's action as a list.
    """
    degree = G_gens[0].degree if G_gens else len(base)
    H_elements = list(H_elements) or [Permutation.identity(degree)]

    def key(u):
        return brute_canonical(H_elements, u, base).key()

    reps = [Permutation.identity(degree)]
    index_of = {key(reps[0]): 0}
    actions = [[] for _ in G_gens]
    i = 0
    while i < len(reps):
        for j, g in enumerate(G_gens):
            r2 = reps[i] * g
            k = key(r2)
            if k not in index_of:
                index_of[k] = len(reps)
                reps.append(r2)
            actions[j].append(index_of[k])
        i += 1
    return reps, index_of, actions


def brute_minimal_block(gens, m, beta):
    """Sorted points of the finest block containing 0 and beta (Atkinson).

    ``gens`` are the generator actions as lists.  Union-find closure of the
    pair under the generators; stops once the class of 0 holds more than
    half the points, since a block's size divides m, and then returns all
    m points.
    """
    parent = list(range(m))
    size = [1] * m

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        return True

    union(0, beta)
    queue = deque([(0, beta)])
    while queue and size[0] * 2 <= m:
        x, y = queue.popleft()
        for g in gens:
            gx, gy = g[x], g[y]
            if union(gx, gy):
                queue.append((gx, gy))
    if size[0] * 2 > m:
        return list(range(m))
    return [x for x in range(m) if find(x) == 0]


def brute_is_tree(sys: InvolutionSystem) -> bool:
    """Whether the colored gluing graph is a tree: n - 1 edges, and a
    breadth-first search from tile 0 reaches every tile."""
    n = sys.n_tiles
    edge_count = sum((n - t) // 2 for t in sys.traces())
    if edge_count != n - 1:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        t = queue.popleft()
        for p in sys.perms:
            u = int(p.images[t])
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Strict interior crossing of two segments."""
    d1 = _sign(_cross(q1, q2, p1))
    d2 = _sign(_cross(q1, q2, p2))
    d3 = _sign(_cross(p1, p2, q1))
    d4 = _sign(_cross(p1, p2, q2))
    return d1 * d2 < 0 and d3 * d4 < 0


def _strictly_inside(pt, tri) -> bool:
    s1 = _sign(_cross(tri[0], tri[1], pt))
    s2 = _sign(_cross(tri[1], tri[2], pt))
    s3 = _sign(_cross(tri[2], tri[0], pt))
    return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)


def _centroid(tri):
    three = 3
    return (
        (tri[0][0] + tri[1][0] + tri[2][0]) / three,
        (tri[0][1] + tri[1][1] + tri[2][1]) / three,
    )


def triangles_overlap(t1, t2) -> bool:
    """Whether two triangles share interior points.

    Touching along edges or vertices does not count.  Proper edge crossings,
    strict vertex containment and strict centroid containment together cover
    the congruent-tile configurations produced by unfolding.
    """
    edges1 = [(t1[i], t1[(i + 1) % 3]) for i in range(3)]
    edges2 = [(t2[i], t2[(i + 1) % 3]) for i in range(3)]
    for a, b in edges1:
        for c, d in edges2:
            if _segments_cross(a, b, c, d):
                return True
    for v in t1:
        if _strictly_inside(v, t2):
            return True
    for v in t2:
        if _strictly_inside(v, t1):
            return True
    return _strictly_inside(_centroid(t1), t2) or _strictly_inside(_centroid(t2), t1)


def brute_overlap(tiles) -> bool:
    """Whether any two of the placed tiles overlap, by the pairwise test on
    every pair whose bounding boxes share interior points."""
    boxes = [(min(x for x, _ in t), max(x for x, _ in t), min(y for _, y in t), max(y for _, y in t))
             for t in tiles]
    return any(triangles_overlap(tiles[i], tiles[j])
               for i, j in itertools.combinations(range(len(tiles)), 2)
               if boxes[i][0] < boxes[j][1] and boxes[j][0] < boxes[i][1]
               and boxes[i][2] < boxes[j][3] and boxes[j][2] < boxes[i][3])


def walk_self_crosses(walk) -> bool:
    """Whether two edges of a closed walk cross properly."""
    m = len(walk)
    return any(_segments_cross(walk[i], walk[(i + 1) % m], walk[j], walk[(j + 1) % m])
               for i in range(m) for j in range(i + 1, m))


def brute_scan(t, n_max, r=3, bound=None):
    """The census scan examining every r-subset of G's involutions.

    Same filters and deduplication as ``transplant.okada_shudo_scan``, with
    no orbit skipping: generation by a Schreier-Sims order per subset, both
    coset actions, tree test, invertible non-permutation intertwiner, and
    the first subset kept per pair of canonical keys.
    """
    if n_max > OKADA_SHUDO_NMAX:
        raise BoundExceeded(f"n_max {n_max} exceeds census bound {OKADA_SHUDO_NMAX}")
    G = t.G
    table_h = left_cosets(G, t.H)
    table_k = left_cosets(G, t.K)
    if len(table_h) > n_max:
        raise BoundExceeded(f"index {len(table_h)} exceeds n_max {n_max}")
    results = []
    seen = set()
    for combo in itertools.combinations(involutions_of(G, bound), r):
        if PermGroup(G.degree, combo).order != G.order:
            continue
        imgs_h = tuple(table_h.action_of(g) for g in combo)
        imgs_k = tuple(table_k.action_of(g) for g in combo)
        try:
            sys_h = InvolutionSystem(len(table_h), r, imgs_h)
            sys_k = InvolutionSystem(len(table_k), r, imgs_k)
        except ValueError:
            continue
        if not (brute_is_tree(sys_h) and brute_is_tree(sys_k)):
            continue
        sol = find_transplantation(sys_h, sys_k)
        if sol is None or not sol.invertible or sol.permutation_solution is not None:
            continue
        key = (sys_h.canonical_key(), sys_k.canonical_key())
        if key in seen:
            continue
        seen.add(key)
        results.append((sys_h, sys_k))
    results.sort(key=lambda pair: (pair[0].canonical_key(), pair[1].canonical_key()))
    return results


def brute_check_pair(t, candidate=None, bound=None):
    """PAIR with the inner-square search as a loop over H's elements in key
    order, conjugating one Permutation at a time."""
    if candidate is None:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    sigma = verify_automorphism(t.G, candidate)
    maps_h_to_k = (t.H.order == t.K.order
                   and all(sigma(h) in t.K for h in t.H.generators))
    if not maps_h_to_k:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    cap = enumeration_bound(bound)
    hgens = t.H.generators if t.H.generators else (t.G.identity,)
    squares = [sigma(sigma(h)) for h in hgens]
    for h0 in sorted(t.H.elements(cap), key=Permutation.key):
        if all(sq == h.conjugate_by(h0) for h, sq in zip(hgens, squares)):
            return PairStatus.CONFIRMED
    return PairStatus.WEAK_EVIDENCE


def _subset_search(fixes, r, target, cap):
    """Lexicographic r-subsets of indices with exact fixed-point sum.

    ``fixes`` must be sorted descending.  Prunes on partial sums; raises
    BoundExceeded when more than ``cap`` nodes are visited.
    """
    n = len(fixes)
    suffix_min = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = fixes[i] if i == n - 1 else min(fixes[i], suffix_min[i + 1])
    visited = 0
    chosen = []

    def rec(start, total):
        nonlocal visited
        need = r - len(chosen)
        if need == 0:
            if total == target:
                yield tuple(chosen)
            return
        for i in range(start, n - need + 1):
            visited += 1
            if visited > cap:
                raise BoundExceeded("involution subset search bound exceeded")
            # prune: remaining picks bounded by current (max) and suffix min
            hi = total + fixes[i] + (need - 1) * fixes[i]
            lo = total + fixes[i] + (need - 1) * suffix_min[i]
            if hi < target or lo > target:
                continue
            chosen.append(i)
            yield from rec(i + 1, total + fixes[i])
            chosen.pop()

    yield from rec(0, 0)


def brute_inv_witnesses(t, r=3, bound=None, search_bound=INV_SEARCH_BOUND):
    """INV's witnesses with every involution of G (or of its image) listed
    as a candidate, fixed-point-free ones included, in the library's order:
    descending fixed count, action key, element key; subsets
    lexicographically."""
    if r < 3:
        raise ValueError("need at least 3 sides")
    cap = enumeration_bound(bound)
    table = left_cosets(t.G, t.H, index_bound())
    lam = len(table)
    target = (r - 2) * lam + 2
    if table.is_faithful():
        gs = involutions_of(t.G, cap)
        acts = table.actions_of(gs)
    else:
        image_group = PermGroup(lam, [table.action_of(g) for g in t.G.generators])
        invs = involutions_of(image_group, cap)
        gs = [None] * len(invs)
        acts = np.array([p.images for p in invs], dtype=np.int32).reshape(-1, lam)
    fixes = (acts == np.arange(lam)).sum(axis=1).tolist()
    keys = _row_keys(acts)
    rows = acts.tolist()
    order = sorted(range(len(gs)), key=lambda i: (
        -fixes[i], keys[i], gs[i].key() if gs[i] is not None else b""))
    seen_image_sets = set()
    for combo in _subset_search([fixes[i] for i in order], r, target, search_bound):
        picked = [order[i] for i in combo]
        img_key = tuple(sorted(keys[i] for i in picked))
        if len(set(img_key)) < r or img_key in seen_image_sets:
            continue
        seen_image_sets.add(img_key)
        if not is_transitive_on(lam, [rows[i] for i in picked]):
            continue
        sys = InvolutionSystem(lam, r, tuple(Permutation._wrap(acts[i]) for i in picked))
        yield tuple(gs[i] for i in picked), sys


def brute_class_first(t, witnesses):
    """The witnesses whose first member no element of G conjugates to an
    earlier candidate.

    Lists G and images every element on the cosets of H.  Conjugation keeps
    the fixed count, so in the library's candidate order (descending fixed
    count, then action key) the earlier candidates of a class are those
    with a smaller action key; a witness is kept when the first member's
    action row has the least key of all its conjugates.  ``witnesses`` is
    consumed lazily, as pairs (G-involution tuple, system).
    """
    table = left_cosets(t.G, t.H, index_bound())
    elements = None
    least = {}
    for gs, sys in witnesses:
        x = sys.perms[0].images
        key = x.tobytes()
        if key not in least:
            if elements is None:
                elements = table.actions_of(t.G.elements(enumeration_bound()))
                inverses = np.argsort(elements, axis=1)
            conjugates = np.take_along_axis(elements, x[inverses], axis=1)
            least[key] = min(_row_keys(conjugates)) == _row_keys(x[None, :])[0]
        if least[key]:
            yield gs, sys


def brute_laplacian(mask):
    """The 5-point Dirichlet Laplacian assembled one node at a time: the
    diagonal, then the up, down, left and right neighbors that exist."""
    n = mask.occupied_count
    idx = -np.ones(mask.cells.shape, dtype=np.int64)
    pts = np.nonzero(mask.cells)
    idx[pts] = np.arange(n)
    rows, cols, vals = [], [], []
    h2 = float(mask.h) ** 2
    for ci, cj in zip(*pts):
        me = idx[ci, cj]
        rows.append(me)
        cols.append(me)
        vals.append(4.0 / h2)
        for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
            if 0 <= ni < idx.shape[0] and 0 <= nj < idx.shape[1] and idx[ni, nj] >= 0:
                rows.append(me)
                cols.append(idx[ni, nj])
                vals.append(-1.0 / h2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _row_crossings(poly, y: Fraction):
    """Exact strict-interior x-intervals of a horizontal line with a polygon.

    Returns (crossings, on_edge_intervals): crossing x's by half-open edge
    parity, plus x-intervals where the line runs along horizontal edges
    (those points are boundary, never interior).
    """
    crossings = []
    on_edges = []
    n = len(poly)
    for idx in range(n):
        (x1, y1), (x2, y2) = poly[idx], poly[(idx + 1) % n]
        if y1 == y2:
            if y1 == y:
                on_edges.append((min(x1, x2), max(x1, x2)))
            continue
        ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
        # half-open rule: count the low endpoint, not the high one
        if ylo <= y < yhi:
            t = (y - y1) / (y2 - y1)
            crossings.append(x1 + t * (x2 - x1))
    crossings.sort()
    return crossings, on_edges


def brute_rasterize(poly, h) -> GridMask:
    """Mask of lattice nodes strictly inside a simple polygon, in Fraction
    arithmetic: float seeds for each interval end corrected by exact
    comparisons, then every node of the interval tested against the
    horizontal edges on its row."""
    h = Fraction(h)
    if h <= 0:
        raise ValueError("spacing must be positive")
    if len(poly) < 3:
        raise ValueError("degenerate polygon")
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    i_min = int(np.ceil(float(min(xs) / h))) - 1
    i_max = int(np.floor(float(max(xs) / h))) + 1
    j_min = int(np.ceil(float(min(ys) / h))) - 1
    j_max = int(np.floor(float(max(ys) / h))) + 1
    cells = np.zeros((i_max - i_min + 1, j_max - j_min + 1), dtype=bool)
    for j in range(j_min, j_max + 1):
        y = j * h
        if y <= min(ys) or y >= max(ys):
            continue
        crossings, on_edges = _row_crossings(poly, y)
        if not crossings:
            continue
        for a, b in zip(crossings[0::2], crossings[1::2]):
            # float seeds corrected by exact comparisons from the safe side
            i_lo = int(np.floor(float(a / h))) - 1
            while i_lo * h <= a:
                i_lo += 1
            i_hi = int(np.ceil(float(b / h))) + 1
            while i_hi * h >= b:
                i_hi -= 1
            for i in range(i_lo, i_hi + 1):
                x = i * h
                if any(lo <= x <= hi for lo, hi in on_edges):
                    continue
                cells[i - i_min, j - j_min] = True
    return GridMask(h, i_min, j_min, cells)


def brute_eigenvalues(mask):
    """Every eigenvalue of ``brute_laplacian(mask)``, ascending, from a dense
    symmetric eigensolver."""
    return np.linalg.eigvalsh(brute_laplacian(mask).toarray())
