"""Finitely generated permutation groups with a stabilizer-chain backbone.

Orders, membership, element enumeration, orbits, stabilizers, conjugacy,
cosets, cores, maximality and normal closures.  Everything is deterministic:
searches run in a fixed order and witnesses are the first found in that
order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceeded
from .limits import enumeration_bound, index_bound
from .permutations import Permutation


class _Level:
    """One level of a stabilizer chain: a base point with its Schreier tree."""

    __slots__ = ("point", "gens", "sv", "_trans", "_trans_inv", "_orbit_rows",
                 "pending", "processed")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        # Schreier vector: orbit point -> (parent point, generator index)
        self.sv: dict[int, tuple] = {point: None}
        self._trans = {point: Permutation.identity(degree)}
        self._trans_inv = {point: self._trans[point]}
        self._orbit_rows = None
        self.pending: deque = deque()
        self.processed: set = set()

    def add_gen(self, g: Permutation):
        self._orbit_rows = None
        gi = len(self.gens)
        self.gens.append(g)
        new_points = []
        for p in list(self.sv):
            q = int(g.images[p])
            if q not in self.sv:
                self.sv[q] = (p, gi)
                new_points.append(q)
        frontier = deque(new_points)
        while frontier:
            p = frontier.popleft()
            for gj, h in enumerate(self.gens):
                q = int(h.images[p])
                if q not in self.sv:
                    self.sv[q] = (p, gj)
                    frontier.append(q)
                    new_points.append(q)
        for p in self.sv:
            self.pending.append((p, gi))
        for p in new_points:
            for gj in range(len(self.gens)):
                self.pending.append((p, gj))

    def transversal(self, p: int) -> Permutation:
        """Element u with u(point) == p, built along the Schreier tree."""
        cached = self._trans.get(p)
        if cached is not None:
            return cached
        path = []
        q = p
        while q not in self._trans:
            path.append(q)
            q = self.sv[q][0]
        u = self._trans[q]
        for r in reversed(path):
            parent, gi = self.sv[r]
            u = u * self.gens[gi]
            self._trans[r] = u
        return self._trans[p]

    def orbit_rows(self):
        """Orbit points (sorted) and the image rows of their transversals."""
        if self._orbit_rows is None:
            pts = sorted(self.sv)
            self._orbit_rows = (np.array(pts, dtype=np.intp),
                                np.stack([self.transversal(p).images for p in pts]))
        return self._orbit_rows

    def transversal_inv(self, p: int) -> Permutation:
        cached = self._trans_inv.get(p)
        if cached is None:
            cached = self.transversal(p).inverse()
            self._trans_inv[p] = cached
        return cached


class _Chain:
    """Deterministic incremental Schreier-Sims."""

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    def sift(self, p: Permutation, start: int = 0):
        """Reduce p by transversal elements.

        Returns (j, residue) where the residue fixes the first j base points,
        with residue None when p is a member.
        """
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            t = int(p.images[lvl.point])
            if t == lvl.point:
                continue
            if t not in lvl.sv:
                return j, p
            p = p * lvl.transversal_inv(t)
        return len(self.levels), (None if p.is_identity() else p)

    def contains(self, p: Permutation) -> bool:
        return self.sift(p)[1] is None

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.sv)
        return n

    def add_generator(self, g: Permutation) -> bool:
        if g.is_identity():
            return False
        j, residue = self.sift(g)
        if residue is None:
            return False
        self._install(j, residue)
        return True

    def _install(self, j: int, r: Permutation):
        # the residue fixes base points 0..j-1, so it is a strong generator
        # for every level up to j (lists are nested by construction)
        if j == len(self.levels):
            pt = min(r.moved_points())
            self.levels.append(_Level(pt, self.degree))
        for lvl in self.levels[: j + 1]:
            lvl.add_gen(r)

    def complete(self):
        """Process Schreier generators, deepest level first, to a fixpoint."""
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
            g = lvl.gens[gi]
            u = lvl.transversal(p) * g
            q = int(u.images[lvl.point])
            s = u * lvl.transversal_inv(q)
            if s.is_identity():
                continue
            j, residue = self.sift(s, i + 1)
            if residue is not None:
                self._install(j, residue)

    def base(self):
        return [lvl.point for lvl in self.levels]


class PermGroup:
    """A permutation group given by generators on 0..degree-1."""

    def __init__(self, degree: int, generators):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g.key() in seen:
                continue
            seen.add(g.key())
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None
        self._classes = None

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> _Chain:
        if self._chain is None:
            chain = _Chain(self.degree)
            for g in self.generators:
                chain.add_generator(g)
            chain.complete()
            self._chain = chain
        return self._chain

    @property
    def order(self) -> int:
        return self.chain().order()

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain().contains(p)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_transitive(self) -> bool:
        return is_transitive_on(self.degree, [g.images for g in self.generators])

    def orbit(self, x: int) -> frozenset:
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} out of range 0..{self.degree - 1}")
        seen = {x}
        queue = deque([x])
        while queue:
            p = queue.popleft()
            for g in self.generators:
                q = int(g.images[p])
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return frozenset(seen)

    def orbits(self):
        left = set(range(self.degree))
        out = []
        while left:
            x = min(left)
            orb = self.orbit(x)
            out.append(orb)
            left -= orb
        return out

    def stabilizer(self, x: int) -> "PermGroup":
        """Point stabilizer via Schreier generators, reduced by sifting."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} out of range 0..{self.degree - 1}")
        trans = {x: self.identity}
        queue = deque([x])
        order_pts = [x]
        while queue:
            p = queue.popleft()
            for g in self.generators:
                q = int(g.images[p])
                if q not in trans:
                    trans[q] = trans[p] * g
                    order_pts.append(q)
                    queue.append(q)
        sub = _Chain(self.degree)
        gens = []
        inv_cache = {}
        for p in order_pts:
            up = trans[p]
            for g in self.generators:
                q = int(g.images[p])
                tq_inv = inv_cache.get(q)
                if tq_inv is None:
                    tq_inv = trans[q].inverse()
                    inv_cache[q] = tq_inv
                s = up * g * tq_inv
                if not s.is_identity() and sub.add_generator(s):
                    sub.complete()
                    gens.append(s)
        H = PermGroup(self.degree, gens)
        H._chain = sub
        return H

    def element_rows(self, bound=None) -> np.ndarray:
        """All elements as an (order, degree) array of image rows.

        Chain traversal from the deepest level up: each level multiplies
        every row e built so far by each transversal element u (orbit
        points in increasing order) in one batch, giving one block of rows
        e * u per u.  Raises BoundExceeded when the order exceeds the
        enumeration bound.
        """
        cap = enumeration_bound(bound)
        if self.order > cap:
            raise BoundExceeded(f"group order {self.order} exceeds bound {cap}")
        n = self.degree
        rows = np.arange(n, dtype=np.int32)[None, :]
        for lvl in reversed(self.chain().levels):
            rows = lvl.orbit_rows()[1][:, rows].reshape(-1, n)
        return rows

    def elements(self, bound=None):
        """All elements, as Permutations in ``element_rows`` order."""
        return [Permutation._wrap(r) for r in self.element_rows(bound)]

    def random_element(self, rng) -> Permutation:
        """Uniform element: one transversal factor per level of the chain."""
        chain = self.chain()
        p = self.identity
        for lvl in chain.levels:
            pts = sorted(lvl.sv)
            p = lvl.transversal(pts[rng.randrange(len(pts))]) * p
        return p

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def is_transitive_on(degree: int, rows) -> bool:
    """Whether permutations of 0..degree-1, given as image rows, generate a
    transitive group.

    One search from point 0 over the rows as lists; no group or chain is
    built, so the test is cheap enough to run on every candidate of a
    search.
    """
    if degree == 0:
        return False
    rows = np.asarray(rows).reshape(-1, degree).tolist()
    seen = [False] * degree
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        p = stack.pop()
        for row in rows:
            q = row[p]
            if not seen[q]:
                seen[q] = True
                count += 1
                stack.append(q)
    return count == degree


def build_chain(G: PermGroup) -> PermGroup:
    """Force construction of the stabilizer chain; returns the same group."""
    G.chain()
    return G


def orbit(G: PermGroup, x: int) -> frozenset:
    return G.orbit(x)


def stabilizer(G: PermGroup, x: int) -> PermGroup:
    return G.stabilizer(x)


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    return H.degree == G.degree and all(g in G for g in H.generators)


def same_group(A: PermGroup, B: PermGroup) -> bool:
    return is_subgroup(A, B) and A.order == B.order


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


@dataclass
class ConjugacyClasses:
    """Partition of a group's element set into conjugacy classes."""

    group: PermGroup
    reps: list
    sizes: list
    class_of: dict = field(repr=False)
    elements: list = field(repr=False)

    def __len__(self):
        return len(self.reps)

    def index_of(self, p: Permutation) -> int:
        return self.class_of[p.key()]

    def members(self, i: int):
        return [e for e in self.elements if self.class_of[e.key()] == i]


def conjugacy_classes(G: PermGroup, bound=None) -> ConjugacyClasses:
    """Conjugacy classes by full enumeration; reps are lex-least members."""
    elems = G.elements(bound)
    by_key = {e.key(): e for e in elems}
    class_of = {}
    reps = []
    sizes = []
    for key in sorted(by_key):
        if key in class_of:
            continue
        rep = by_key[key]
        ci = len(reps)
        class_of[key] = ci
        size = 1
        queue = deque([rep])
        while queue:
            x = queue.popleft()
            for g in G.generators:
                y = x.conjugate_by(g)
                if y.key() not in class_of:
                    class_of[y.key()] = ci
                    size += 1
                    queue.append(y)
        reps.append(rep)
        sizes.append(size)
    return ConjugacyClasses(G, reps, sizes, class_of, elems)


def cached_classes(G: PermGroup, bound=None) -> ConjugacyClasses:
    if G._classes is None:
        G._classes = conjugacy_classes(G, bound)
    return G._classes


@dataclass
class CosetTable:
    """Right cosets Hg of a subgroup H of G, keyed canonically.

    Products apply the left factor first, so the coset of g is
    Hg = {h * g : h in H} and G acts on the cosets by right translation,
    Hr -> Hrg.  H is the stabilizer of coset 0.

    ``representatives[i]`` lies in coset i; representative 0 is the identity,
    so coset 0 is the subgroup itself.  Indices follow the breadth-first
    search from coset 0 over G's generators (the Schreier graph), in the
    order cosets are first found.  ``index_of`` maps the canonical signature
    of a coset (the image key of its canonical representative) to its index.
    ``generator_actions[j]`` is the action of ``parent.generators[j]``, read
    off the search; ``action_of`` returns it for a generator and otherwise
    canonicalizes the translates of all representatives in one batch.
    """

    parent: PermGroup
    subgroup: PermGroup
    representatives: list
    index_of: dict = field(repr=False)
    generator_actions: tuple = field(repr=False)
    rows: np.ndarray = field(repr=False)  # representative image rows, (index, degree)

    def __post_init__(self):
        self._by_generator = {g.key(): a for g, a in
                              zip(self.parent.generators, self.generator_actions)}
        self._subgroup_image = None

    def __len__(self):
        return len(self.representatives)

    def signature(self, g: Permutation) -> bytes:
        return _row_keys(_canonical_rows(self.subgroup, g.images[None, :]))[0]

    def index_of_element(self, g: Permutation) -> int:
        return self.index_of[self.signature(g)]

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation induced on coset indices by translation."""
        act = self._by_generator.get(g.key())
        if act is None:
            keys = _row_keys(_canonical_rows(self.subgroup, g.images[self.rows]))
            act = Permutation([self.index_of[k] for k in keys])
        return act

    def subgroup_image(self) -> PermGroup:
        """H's image on the cosets; its chain gives the order |H| / |core|."""
        if self._subgroup_image is None:
            self._subgroup_image = PermGroup(
                len(self), [self.action_of(h) for h in self.subgroup.generators])
        return self._subgroup_image

    def is_faithful(self) -> bool:
        """Whether G acts faithfully on the cosets, i.e. core(G, H) is trivial.

        The kernel lies inside H, the stabilizer of coset 0, so it is the
        kernel of H's action and the action is faithful exactly when H's
        image has order |H|.
        """
        return self.subgroup_image().order == self.subgroup.order


def _canonical_rows(H: PermGroup, rows: np.ndarray) -> np.ndarray:
    """Canonical representatives of the cosets Hu, one per row u of ``rows``.

    Minimizes the images of H's base over each coset, level by level: at
    each level the orbit point with the least image is carried to the base
    point by its transversal element.  The minimizing element is unique,
    which makes coset keys deterministic.
    """
    for lvl in H.chain().levels:
        points, trans = lvl.orbit_rows()
        choice = rows[:, points].argmin(axis=1)
        rows = np.take_along_axis(rows, trans[choice], axis=1)
    return rows


def _row_keys(rows: np.ndarray) -> list:
    """``Permutation.key()`` of every row."""
    width = 4 * rows.shape[1]
    data = rows.astype(">i4").tobytes()
    return [data[i:i + width] for i in range(0, len(data), width)] if width else [b""] * len(rows)


def left_cosets(G: PermGroup, H: PermGroup, bound=None) -> CosetTable:
    """Coset table of H in G, built breadth first over G's generators.

    Each step translates the whole frontier by every generator and
    canonicalizes the translates in one batch; the generators' actions are
    recorded on the way.  ``bound`` caps the number of cosets (default
    ``index_bound()``).  Tables are cached per (G, H) object pair; groups
    are immutable, so the cache never goes stale.
    """
    cache = getattr(G, "_coset_tables", None)
    if cache is None:
        cache = {}
        G._coset_tables = cache
    hit = cache.get(id(H))
    if hit is not None and hit.subgroup is H:
        return hit
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    cap = index_bound(bound)
    n, s = G.degree, len(G.generators)
    gens = np.array([g.images for g in G.generators], dtype=np.int32).reshape(s, n)
    rows = np.arange(n, dtype=np.int32)[None, :]
    index_of = {_row_keys(_canonical_rows(H, rows))[0]: 0}
    targets = []  # targets[i * s + j]: coset of representative i times generator j
    start = 0
    while start < len(rows):
        # translates[i, j] = rows[start + i] * generator j
        translates = gens[:, rows[start:]].transpose(1, 0, 2).reshape(-1, n)
        found = []
        for k, key in enumerate(_row_keys(_canonical_rows(H, translates))):
            c = index_of.get(key)
            if c is None:
                c = len(index_of)
                if c >= cap:
                    raise BoundExceeded(f"coset count exceeds index bound {cap}")
                index_of[key] = c
                found.append(k)
            targets.append(c)
        start = len(rows)
        rows = np.concatenate([rows, translates[found]])
    actions = np.ascontiguousarray(np.array(targets, dtype=np.int32).reshape(len(rows), s).T)
    table = CosetTable(G, H, [Permutation._wrap(r) for r in rows], index_of,
                       tuple(Permutation._wrap(a) for a in actions), rows)
    cache[id(H)] = table
    return table


def coset_action(G: PermGroup, H: PermGroup, bound=None):
    """Action of G on the cosets of H.

    Returns (image group, mapping from each generator to its image).  The
    image is transitive of degree [G:H] and the kernel of the map is
    core(G, H).
    """
    table = left_cosets(G, H, bound)
    mapping = dict(zip(G.generators, table.generator_actions))
    image = PermGroup(len(table), table.generator_actions)
    return image, mapping


def core(G: PermGroup, H: PermGroup, bound=None) -> PermGroup:
    """Largest normal subgroup of G inside H.

    This is the kernel of G's action on the cosets of H, and the kernel lies
    inside H, the stabilizer of coset 0.  A faithful action (``is_faithful``)
    gives the trivial group at once.  Otherwise H acts on the original
    points and the coset indices together, generated by its Schreier
    generators (``_schreier_generators``); the remaining coset points are
    stabilized one by one, and the surviving generators are restricted back
    to the points.  ``bound`` caps the coset count.
    """
    table = left_cosets(G, H, bound)
    n, m = G.degree, len(table)
    if m == 1:
        return PermGroup(n, G.generators)
    if table.is_faithful():
        return PermGroup(n, [])
    combined = PermGroup(
        n + m,
        [Permutation._wrap(np.concatenate([s.images, table.action_of(s).images + n]))
         for s in _schreier_generators(table)],
    )
    for c in range(n + 1, n + m):
        if all(int(g.images[c]) == c for g in combined.generators):
            continue
        combined = combined.stabilizer(c)
    return PermGroup(n, [Permutation(g.images[:n]) for g in combined.generators])


def _schreier_generators(table: CosetTable) -> list:
    """Generators of H by Schreier's lemma on the coset table.

    The candidates r_i * g * r_j^-1 (j the coset of r_i * g) run over cosets
    i in index order and G's generators g in order; a candidate is kept when
    it extends the stabilizer chain of those kept so far, until the chain
    reaches |H|.  The result depends on G's generators and on H as a set,
    not on how H's generators were written.
    """
    order = table.subgroup.order
    chain = _Chain(table.parent.degree)
    kept = []
    inverses = {}
    for i, r in enumerate(table.representatives):
        for g, act in zip(table.parent.generators, table.generator_actions):
            j = int(act.images[i])
            if j not in inverses:
                inverses[j] = table.representatives[j].inverse()
            s = r * g * inverses[j]
            if not s.is_identity() and chain.add_generator(s):
                chain.complete()
                kept.append(s)
                if chain.order() == order:
                    return kept
    return kept


def _minimal_block(gens, m: int, beta: int):
    """Sorted points of the finest block containing 0 and beta (Atkinson).

    ``gens`` are the generator actions as lists.  Union-find closure of the
    pair under the generators; stops once the class of 0 holds more than
    half the points, since a block's size divides m.
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


def _intermediate_block(table: CosetTable):
    """A block of G's action on the cosets that lies strictly between {0}
    and the whole coset space, or None when there is none.

    Such blocks are exactly the subgroups strictly between H and G (the
    union of the block's cosets).  The finest block through 0 and beta only
    depends on the H-orbit of beta, so the least coset of each H-orbit
    (suborbit) seeds one closure, in increasing order; the first proper
    block found is returned as a sorted list of coset indices.
    """
    m = len(table)
    gens = [a.images.tolist() for a in table.generator_actions]
    h_gens = [a.images.tolist() for a in table.subgroup_image().generators]
    seen = [False] * m
    seen[0] = True
    for beta in range(1, m):
        if seen[beta]:
            continue
        seen[beta] = True
        stack = [beta]
        while stack:
            x = stack.pop()
            for h in h_gens:
                y = h[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        block = _minimal_block(gens, m, beta)
        if len(block) < m:
            return block
    return None


def is_maximal(G: PermGroup, H: PermGroup, bound=None) -> bool:
    """Whether H is maximal in G: the coset action has no block strictly
    between {0} and everything (it is primitive).  ``bound`` caps the coset
    count."""
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    if H.order == G.order:
        raise ValueError("H equals G; maximality undefined")
    return _intermediate_block(left_cosets(G, H, bound)) is None


def normal_closure(G: PermGroup, S, bound=None) -> PermGroup:
    """Smallest normal subgroup of G containing the elements of S."""
    for s in S:
        if s not in G:
            raise ValueError("element is not a member of the group")
    chain = _Chain(G.degree)
    gens = []
    work = deque(s for s in S if not s.is_identity())
    cap = enumeration_bound(bound)
    while work:
        x = work.popleft()
        if chain.contains(x):
            continue
        chain.add_generator(x)
        chain.complete()
        gens.append(x)
        if chain.order() > cap:
            raise BoundExceeded("normal closure exceeds enumeration bound")
        for g in G.generators:
            work.append(x.conjugate_by(g))
    N = PermGroup(G.degree, gens)
    N._chain = chain
    return N


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    return all(n.conjugate_by(g) in N for n in N.generators for g in G.generators)


def is_simple(G: PermGroup, bound=None) -> bool:
    """Whether G is simple: no class representative generates a proper
    nontrivial normal closure."""
    if G.order == 1:
        return False
    classes = cached_classes(G, bound)
    for rep in classes.reps:
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep], bound)
        if N.order != G.order:
            return False
    return True
