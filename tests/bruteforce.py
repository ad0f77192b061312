"""Independent brute-force oracles used to check the chain-based algorithms.

Everything here enumerates naively and, apart from ``brute_elements``
(which pins the order in which the library lists a group), ``brute_scan``
(which tests generation by a group order) and ``is_conjugate`` (which
tests membership), never touches stabilizer chains, so agreement with the
library is a meaningful check.  ``ReferenceChain`` builds a chain, but
with code of its own: the library's Schreier-Sims loop written on
``Permutation`` objects, which the library's row kernel must reproduce level
for level; ``brute_chain_faults`` checks any chain against the group's
closure on plain tuples (``tuple_closure``), with no chain of its own.
``triangles_overlap`` and ``walk_self_crosses`` decide overlap
and crossing by exact pairwise geometry, without the tessellation argument
the library's unfolding relies on; ``polygon_area`` and
``polygon_perimeter_sq_multiset`` measure a boundary by the shoelace
formula and its squared edge lengths, and ``brute_congruent`` compares two
boundaries vertex by vertex under every rigid motion.  ``brute_unfold``
places tiles by Euclidean reflection, depth first.  ``brute_laplacian``
assembles the Dirichlet Laplacian node by node on the nearest neighbors
that ``brute_neighbors`` finds by search.  ``brute_is_tree`` searches the
gluing graph instead of using the fixed-point identity, and
``brute_isomorphisms`` tries every tile bijection instead of labeling
breadth first.
``all_blocks_group`` builds a wreath subgroup with a copy of its base
generators on every block, where the constructions use block 0 alone.
``WreathElement`` multiplies wreath elements by the twisted law and realizes
them on blocks, the reference for the library's block permutations.
``brute_inv_witnesses`` lists every involution of G as an INV candidate
instead of deriving the candidates from H, runs the plain fixed-point subset
search and tests each subset for transitivity; ``brute_class_first`` filters those witnesses by
listing every G-conjugate of each first member, and ``brute_check_pair``
conjugates by one element of H at a time; all three use the library's
chains to list elements.  So do ``permutation_character`` and
``ac_profile``, which then count fixed cosets and class meets by definition,
without coset tables.  ``random_element`` is no oracle: it draws test
inputs from the library's chain.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from isodrum.errors import BoundExceeded
from isodrum.groups import PermGroup, _row_keys, left_cosets
from isodrum.limits import INV_SEARCH_BOUND, enumeration_bound
from isodrum.permutations import Permutation
from isodrum.spectral import GridMask
from isodrum.transplant import InvolutionSystem, find_transplantation, involutions_of
from isodrum.triples import PairStatus, verify_automorphism


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _euclidean_reflection(x, p, q):
    """Mirror image of x across the line through p and q, in Cartesian
    coordinates."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    vx, vy = x[0] - p[0], x[1] - p[1]
    t = (vx * dx + vy * dy) / (dx * dx + dy * dy)
    return (2 * (p[0] + t * dx) - x[0], 2 * (p[1] + t * dy) - x[1])


def brute_unfold(sys: InvolutionSystem, vertices):
    """Tiles of a tree system placed from the base triangle ``vertices``:
    tile j, glued to tile i by color mu, is tile i reflected across its side
    mu.  Depth-first, so the placing order differs from the library's
    breadth-first one; in a tree each tile's position is the same either
    way."""
    tiles = [None] * sys.n_tiles
    tiles[0] = tuple(vertices)
    stack = [0]
    while stack:
        i = stack.pop()
        for mu, p in enumerate(sys.perms):
            j = int(p.images[i])
            if tiles[j] is None:
                a, b = tiles[i][(mu + 1) % 3], tiles[i][(mu + 2) % 3]
                tiles[j] = tuple(_euclidean_reflection(v, a, b) for v in tiles[i])
                stack.append(j)
    return tiles


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


def closure_orbit(rows, x):
    """The orbit of point x under permutations given as image rows: the set
    {x} grown by every image of its points until it stops growing."""
    orbit = {x}
    while True:
        grown = orbit | {int(row[p]) for row in rows for p in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def all_blocks_group(gens, top, block_degree):
    """A wreath subgroup from its all-blocks generating set: each of ``gens``
    repeated on every run of its own degree, and ``top`` permuting the runs
    of ``block_degree`` points.  The library generates the same group from
    block 0 and the top alone; this places every copy, with plain lists."""
    total = top.degree * block_degree
    out = []
    for g in gens:
        m = g.degree
        for offset in range(0, total, m):
            images = list(range(total))
            images[offset:offset + m] = [offset + int(x) for x in g.images]
            out.append(Permutation(images))
    for t in top.generators:
        out.append(Permutation([int(t.images[x // block_degree]) * block_degree
                                + x % block_degree for x in range(total)]))
    return PermGroup(total, out)


@dataclass(frozen=True)
class WreathElement:
    """An element (base vector, top permutation) of a wreath product, with
    the twisted law ``(a, b) * (a', b') = ((a_w * a'_{b(w)})_w, b * b')``.

    With left-first permutation products this law is associative, and
    ``realize`` is the imprimitive action on blocks, (i, x) -> (b(i), a_i(x)):
    the oracle for the library's block permutations of the top group.
    """

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
        return WreathElement(tuple(Permutation.identity(base_degree) for _ in range(n)),
                             Permutation.identity(n))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        b = self.top
        return WreathElement(
            tuple(self.base[w] * other.base[int(b.images[w])] for w in range(len(self.base))),
            self.top * other.top)

    def inverse(self) -> "WreathElement":
        binv = self.top.inverse()
        return WreathElement(
            tuple(self.base[int(binv.images[w])].inverse() for w in range(len(self.base))),
            binv)

    def is_identity(self) -> bool:
        return self.top.is_identity() and all(p.is_identity() for p in self.base)

    def realize(self) -> Permutation:
        """Block i carries copy i, and the top permutes the blocks."""
        d = self.base[0].degree if self.base else 0
        return Permutation([int(self.top.images[i]) * d + int(a.images[x])
                            for i, a in enumerate(self.base) for x in range(d)])


class ReferenceLevel:
    """One level of a ``ReferenceChain``: a base point, its strong
    generators, Schreier vector and transversals, all as Permutations."""

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens = []
        self.sv = {point: None}  # orbit point -> (parent point, generator index)
        self.trans = {point: Permutation.identity(degree)}
        self.trans_inv = {point: self.trans[point]}
        self.pending = deque()  # (point, generator index), each pair queued once

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
            for gj in range(gi):
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
    installs: a residue of level i's Schreier generator on the levels after
    i only, same stop at a known order), one Permutation product at a time
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

    def _install(self, j, r, start=0):
        if j == len(self.levels):
            self.levels.append(ReferenceLevel(min(r.moved_points()), self.degree))
        for lvl in self.levels[start: j + 1]:
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
            u = lvl.transversal(p) * lvl.gens[gi]
            s = u * lvl.transversal_inv(u(lvl.point))
            if _is_identity(s):
                continue
            j, residue = self.sift(s, i + 1)
            if residue is not None:
                # the residue lies in level i's group, so only the levels
                # after i gain it
                self._install(j, residue, i + 1)
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


def tuple_closure(degree, gens):
    """The group generated by ``gens``, as a set of image tuples, closed
    under products one frontier at a time.

    ``mulclose`` on plain tuples: fast enough for the 9! elements of S9.
    """
    rows = [tuple(int(x) for x in g.images) for g in gens]
    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        frontier = [y for y in {tuple([g[a] for a in x]) for x in frontier for g in rows}
                    if y not in elements]
        elements.update(frontier)
    return elements


def brute_chain_faults(elements, chain):
    """What makes ``chain`` no stabilizer chain of the group ``elements``
    (``tuple_closure``), as a list of messages (empty for a valid chain).

    Level i must have as orbit the orbit of its base point b_i under the
    pointwise stabilizer of b_0..b_{i-1}, filtered from ``elements``, and
    strong generators fixing b_0..b_{i-1}; the order must be
    ``len(elements)``.
    """
    faults = []
    if chain.order() != len(elements):
        faults.append(f"order {chain.order()}, closure {len(elements)}")
    stabilizer = list(elements)
    base = chain.base()
    for i, lvl in enumerate(chain.levels):
        moved = [j for j, g in enumerate(lvl.gens) if any(g(b) != b for b in base[:i])]
        if moved:
            faults.append(f"level {i}: strong generators {moved} move an earlier base point")
        b = lvl.point
        if set(lvl.sv) != {x[b] for x in stabilizer}:
            faults.append(f"level {i}: orbit {sorted(lvl.sv)} is not the stabilizer's")
        stabilizer = [x for x in stabilizer if x[b] == b]
    return faults


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


def random_element(G, rng):
    """Uniform element of G: one transversal factor per level of its chain,
    each drawn with ``rng.randrange`` over the level's sorted orbit."""
    p = G.identity
    for lvl in G.chain().levels:
        pts = sorted(lvl.sv)
        p = lvl.transversal(pts[rng.randrange(len(pts))]) * p
    return p


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


def brute_conjugate_subgroups(G_elements, H_elements, K_elements) -> bool:
    """Whether g^-1 H g == K for some g in G, conjugating all of H by each g;
    H's and K's elements come as sets of Permutations (``mulclose``)."""
    return len(H_elements) == len(K_elements) and any(
        {h.conjugate_by(g) for h in H_elements} == K_elements for g in G_elements)


def is_conjugate(G: PermGroup, a: Permutation, b: Permutation):
    """A conjugator g in G with g^-1 a g == b, or None.

    Breadth-first search over the conjugation orbit of a, so the witness is
    the first conjugator in BFS order.
    """
    if a not in G or b not in G:
        raise ValueError("elements are not members of the group")
    if sorted(map(len, a.cycles(include_fixed=True))) != sorted(
            map(len, b.cycles(include_fixed=True))):
        return None
    if a == b:
        return Permutation.identity(G.degree)
    cap = enumeration_bound()
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


def brute_fixed_cosets(G_elements, H_set, x):
    """Cosets Hy of H fixed by x: x fixes Hy exactly when y * x * y^-1 lies
    in H, and |H| of the y in G name each coset."""
    return sum(y * x * y.inverse() in H_set for y in G_elements) // len(H_set)


def permutation_character(G, H):
    """The permutation character 1_H^G as {least member of a conjugacy class
    of G: cosets of H it fixes}."""
    ge = G.elements()
    hset = set(H.elements())
    return {min(cls): brute_fixed_cosets(ge, hset, min(cls)) for cls in brute_classes(ge)}


def ac_profile(t):
    """(least member, |class ∩ H|, |class ∩ K|) per conjugacy class of G."""
    hset, kset = set(t.H.elements()), set(t.K.elements())
    return [(min(cls), len(cls & hset), len(cls & kset)) for cls in brute_classes(t.G.elements())]


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


def brute_isomorphisms(A: InvolutionSystem, B: InvolutionSystem):
    """Every tile bijection phi with phi(a_mu(i)) == b_mu(phi(i)) for each
    tile i and color mu, as image tuples in lexicographic order, found by
    trying all n! bijections."""
    n = A.n_tiles
    phis = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    ok = np.ones(len(phis), dtype=bool)
    for a, b in zip(A.perms, B.perms):
        ok &= (phis[:, a.images] == b.images[phis]).all(axis=1)
    return [tuple(phi) for phi in phis[ok].tolist()]


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


def polygon_area(points):
    """Unsigned shoelace area, exact over rational coordinates."""
    n = len(points)
    s = sum(points[i][0] * points[(i + 1) % n][1] - points[(i + 1) % n][0] * points[i][1]
            for i in range(n))
    return (s if _sign(s) > 0 else -s) / 2


def polygon_perimeter_sq_multiset(points):
    """Squared edge lengths (exact), sorted; a congruence invariant."""
    out = []
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        dx, dy = x1 - x2, y1 - y2
        out.append(dx * dx + dy * dy)
    return sorted(out)


def _vertex_words(poly):
    """Per corner: (squared length of the outgoing edge, dot and cross
    product of the incoming and outgoing edges).  Straight vertices, where
    the two edges are collinear, are dropped first."""
    corners = [b for a, b, c in zip(poly[-1:] + poly[:-1], poly, poly[1:] + poly[:1])
               if _cross(a, b, c) != 0]
    edges = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(corners, corners[1:] + corners[:1])]
    return [(bx * bx + by * by, ax * bx + ay * by, ax * by - ay * bx)
            for (ax, ay), (bx, by) in zip(edges[-1:] + edges[:-1], edges)]


def brute_congruent(P, Q) -> bool:
    """Whether two simple polygons are congruent, exactly, in Fractions.

    Compares the cyclic sequences of (squared edge length, dot product,
    cross product) at each vertex of Q, read forward and backward, on Q and
    on its mirror image, against P's at every rotation.  Straight vertices
    are dropped first, so two drawings of one shape that subdivide an edge
    differently still agree.
    """
    target = _vertex_words(list(P))
    n = len(target)
    for mirror in (False, True):
        pts = [(x, -y) for x, y in Q] if mirror else list(Q)
        for walk in (pts, pts[::-1]):
            words = _vertex_words(walk)
            if len(words) == n and any(words[s:] + words[:s] == target for s in range(n)):
                return True
    return False


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


def brute_scan(t, n_max, r=3):
    """The census scan examining every r-subset of G's involutions.

    The output of ``transplant.okada_shudo_scan`` with every test run per
    subset, where the census decides AC and isometry once per triple and
    tests one subset per conjugation orbit: generation by a Schreier-Sims
    order, both coset actions, tree test, an invertible intertwiner that is
    not a permutation (``find_transplantation``, whose permutation solution
    is the per-tuple isometry test), and the first subset kept per pair of
    canonical keys.
    """
    G = t.G
    table_h = left_cosets(G, t.H)
    table_k = left_cosets(G, t.K)
    if len(table_h) > n_max:
        raise BoundExceeded(f"index {len(table_h)} exceeds n_max {n_max}")
    results = []
    seen = set()
    for combo in itertools.combinations(involutions_of(G), r):
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


def brute_check_pair(t, candidate=None):
    """PAIR with the inner-square search as a loop over H's elements in key
    order, conjugating one Permutation at a time."""
    if candidate is None:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    sigma = verify_automorphism(t.G, candidate)
    maps_h_to_k = (t.H.order == t.K.order
                   and all(sigma(h) in t.K for h in t.H.generators))
    if not maps_h_to_k:
        return PairStatus.WEAK_EVIDENCE if t.H.order == t.K.order else PairStatus.FAILED
    hgens = t.H.generators if t.H.generators else (t.G.identity,)
    squares = [sigma(sigma(h)) for h in hgens]
    for h0 in sorted(t.H.elements(), key=Permutation.key):
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


def brute_inv_witnesses(t, r=3, search_bound=INV_SEARCH_BOUND):
    """INV's witnesses with every involution of G (or of its image) listed
    as a candidate, fixed-point-free ones included, in the library's order:
    descending fixed count, action key, element key; subsets
    lexicographically."""
    if r < 3:
        raise ValueError("need at least 3 sides")
    table = left_cosets(t.G, t.H)
    lam = len(table)
    target = (r - 2) * lam + 2
    if table.is_faithful():
        gs = involutions_of(t.G)
        acts = table.actions_of(gs)
    else:
        image_group = PermGroup(lam, [table.action_of(g) for g in t.G.generators])
        invs = involutions_of(image_group)
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
        if len(closure_orbit([rows[i] for i in picked], 0)) < lam:
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
    table = left_cosets(t.G, t.H)
    elements = None
    least = {}
    for gs, sys in witnesses:
        x = sys.perms[0].images
        key = x.tobytes()
        if key not in least:
            if elements is None:
                elements = table.actions_of(t.G.elements())
                inverses = np.argsort(elements, axis=1)
            conjugates = np.take_along_axis(elements, x[inverses], axis=1)
            least[key] = min(_row_keys(conjugates)) == _row_keys(x[None, :])[0]
        if least[key]:
            yield gs, sys


def brute_neighbors():
    """The shortest nonzero vectors of Z^2, searched over every vector with
    entries from -2 to 2: the four axis steps."""
    norm = {v: v[0] ** 2 + v[1] ** 2
            for v in itertools.product(range(-2, 3), repeat=2) if v != (0, 0)}
    return [v for v in norm if norm[v] == min(norm.values())]


def brute_laplacian(mask):
    """The mask's Dirichlet Laplacian assembled one node at a time: the
    diagonal 4/h^2, then -4/(k*h^2) for each of the k nearest neighbors that
    exist."""
    n = mask.occupied_count
    idx = -np.ones(mask.cells.shape, dtype=np.int64)
    pts = np.nonzero(mask.cells)
    idx[pts] = np.arange(n)
    rows, cols, vals = [], [], []
    h2 = float(mask.h) ** 2
    steps = brute_neighbors()
    for ci, cj in zip(*pts):
        me = idx[ci, cj]
        rows.append(me)
        cols.append(me)
        vals.append(4.0 / h2)
        for ni, nj in ((ci + di, cj + dj) for di, dj in steps):
            if 0 <= ni < idx.shape[0] and 0 <= nj < idx.shape[1] and idx[ni, nj] >= 0:
                rows.append(me)
                cols.append(idx[ni, nj])
                vals.append(-(4 / len(steps)) / h2)
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
    """Mask of grid nodes strictly inside a simple polygon, in Fraction
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
