"""Finitely generated permutation groups with a stabilizer-chain backbone.

Orders, membership, element enumeration, orbits, stabilizers, conjugacy,
cosets, cores, maximality and normal closures.  Everything is deterministic:
searches run in a fixed order and witnesses are the first found in that
order.

``_orbit_roots`` is the one routine for the orbits of a set of image rows:
transitivity, conjugacy classes (orbits under conjugation), the suborbits
of the block search, and elsewhere double-coset ranks and intertwiner
cells.  Searches that build more than an orbit (Schreier trees, the
stabilizer transversal, the coset search, the block closure) stay their own.
A conjugacy class is carried as its lex-least member only
(``_class_roots``): ``conjugacy_classes`` for simplicity and EC, and the
involution classes of ``transplant`` for INV and the census.  Beside
``_orbit_roots``, ``_conjugation_closure`` is the one routine that
conjugates rows by generators: it closes a set of rows and returns the
conjugation maps on it, which ``_class_roots`` and the class-first rule of
``transplant`` read.

The kernels work on raw int32 image rows, and ``Permutation`` objects stay
at the API boundary.  Schreier-Sims (``_Chain``) builds and sifts Schreier
generators as rows, with cached transversal and transversal-inverse rows
and an identity test by bytes; coset canonicalization (``_canonical_rows``)
is one flat gather per level of H's chain (``_take_rows``).  Only rows
that are handed out, such as strong generators, are wrapped.

Schreier-Sims is the textbook SCHREIERSIMS (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, section 4.4.2; Seress,
Permutation Group Algorithms, 2003, section 4.2): the residue of a Schreier
generator of level i joins levels i+1..j only, since it already lies in the
group of every level up to i, and Schreier-tree edges are skipped unformed.

A Schreier-Sims run may stop once its order reaches a proven upper bound
(Seress, Permutation Group Algorithms, 2003, section 4.5); the chain is the
same.  Only a group known to be a subgroup or quotient of a group of known
order gets such a bound (``_group_of_order_at_most``): H's image on its
cosets (bound |H|), and groups generated by elements of G (bound |G|).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceeded
from .limits import enumeration_bound, index_bound
from .permutations import Permutation, _arange, _identity_bytes


class _Level:
    """One level of a stabilizer chain: a base point with its Schreier tree.

    Transversal elements and their inverses are cached as int32 image rows;
    ``transversal`` wraps one on request.
    """

    __slots__ = ("point", "gens", "_gen_views", "sv", "_rows", "_inv_rows", "_orbit_rows",
                 "pending")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self._gen_views: list = []  # memoryviews of the gens' images: int lookups, no copy
        # Schreier vector: orbit point -> (parent point, generator index)
        self.sv: dict[int, tuple] = {point: None}
        self._rows = {point: _arange(degree)}
        self._inv_rows = {point: self._rows[point]}
        self._orbit_rows = None
        self.pending: deque = deque()  # (point, generator index), each pair queued once

    def add_gen(self, g: Permutation):
        self._orbit_rows = None
        gi = len(self.gens)
        self.gens.append(g)
        self._gen_views.append(g.images.data)
        image = self._gen_views[gi]
        sv = self.sv
        new_points = []
        for p in list(sv):
            q = image[p]
            if q not in sv:
                sv[q] = (p, gi)
                new_points.append(q)
        frontier = deque(new_points)
        while frontier:
            p = frontier.popleft()
            for gj, h in enumerate(self._gen_views):
                q = h[p]
                if q not in sv:
                    sv[q] = (p, gj)
                    frontier.append(q)
                    new_points.append(q)
        for p in sv:
            self.pending.append((p, gi))
        for p in new_points:
            for gj in range(gi):
                self.pending.append((p, gj))

    def row(self, p: int) -> np.ndarray:
        """Image row of the element u with u(point) == p, built along the
        Schreier tree."""
        cached = self._rows.get(p)
        if cached is not None:
            return cached
        path = []
        q = p
        while q not in self._rows:
            path.append(q)
            q = self.sv[q][0]
        u = self._rows[q]
        for r in reversed(path):
            u = self.gens[self.sv[r][1]].images[u]
            self._rows[r] = u
        return u

    def inv_row(self, p: int) -> np.ndarray:
        """Image row of the inverse of ``row(p)``."""
        cached = self._inv_rows.get(p)
        if cached is None:
            u = self.row(p)
            cached = np.empty_like(u)
            cached[u] = _arange(len(u))
            self._inv_rows[p] = cached
        return cached

    def transversal(self, p: int) -> Permutation:
        """Element u with u(point) == p."""
        return Permutation._wrap(self.row(p))

    def orbit_rows(self):
        """Orbit points (sorted) and the image rows of their transversals."""
        if self._orbit_rows is None:
            pts = sorted(self.sv)
            self._orbit_rows = (np.array(pts, dtype=np.intp),
                                np.stack([self.row(p) for p in pts]))
        return self._orbit_rows


class _Chain:
    """Deterministic incremental Schreier-Sims.

    Sifting and Schreier generators run on int32 image rows (a product
    ``p * q`` is ``q[p]``), and a row is tested for the identity by its
    bytes; only a residue that becomes a strong generator is wrapped as a
    ``Permutation``.

    Level l's group is the one its strong generators generate.  A generator
    added from outside (``add_generator``) joins every level its residue
    fixes the base points of, since it may be new to the group.  A residue
    found by ``complete`` at level i joins only the levels after i, as in
    Holt's SCHREIERSIMS (Handbook of Computational Group Theory, 2005,
    section 4.4.2): it is a product of elements of level i's group, so it
    already lies in the group of every level up to i, and adding it there
    would change no orbit, only queue Schreier generators that sift to the
    identity.  The strong-generator lists are therefore not nested, but
    each level's group still contains the next one's.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._identity = _identity_bytes(degree)

    def sift(self, p: Permutation, start: int = 0):
        """Reduce p by transversal elements.

        Returns (j, residue) where the residue fixes the first j base points,
        with residue None when p is a member.
        """
        j, row = self._sift_row(p.images, start)
        if row is None:
            return j, None
        return j, (p if row is p.images else Permutation._wrap(row))

    def _sift_row(self, row: np.ndarray, start: int = 0):
        """``sift`` on an image row: (j, residue row or None)."""
        levels = self.levels
        for j in range(start, len(levels)):
            lvl = levels[j]
            t = int(row[lvl.point])
            if t == lvl.point:
                continue
            if t not in lvl.sv:
                return j, row
            row = lvl.inv_row(t)[row]
        return len(levels), (None if row.tobytes() == self._identity else row)

    def contains(self, p: Permutation) -> bool:
        return self._sift_row(p.images)[1] is None

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

    def _install(self, j: int, r: Permutation, start: int = 0):
        # the residue fixes base points 0..j-1, so it is a strong generator
        # for every level up to j; it joins levels start..j, start > 0 only
        # when r already lies in the group of each level before start
        if j == len(self.levels):
            pt = min(r.moved_points())
            self.levels.append(_Level(pt, self.degree))
        for lvl in self.levels[start: j + 1]:
            lvl.add_gen(r)

    def complete(self, order_bound=None):
        """Process Schreier generators, deepest level first, to a fixpoint.

        The Schreier generator of orbit point p and strong generator g at a
        level with base point b is u_p * g * u_q^-1, q = g(p) the image of b
        under u_p * g; it is built and sifted as image rows.  It is the
        identity when (p, g) is the Schreier-tree edge into q (then
        u_p * g == u_q), and such pairs are skipped before any product.  A
        residue of level i's Schreier generator that stops at level j joins
        levels i+1..j only (see ``_Chain``; Seress, Permutation Group
        Algorithms, 2003, section 4.2).

        ``order_bound``, when given, must be a proven upper bound on the
        order of the group generated (for instance |H| for a quotient of H,
        or |G| for a subgroup of G).  The run stops as soon as ``order()``
        equals it, checked before the loop and after each install.  The
        chain's levels then already have the true basic orbits and a trivial
        last stabilizer, so every remaining Schreier generator would sift to
        the identity: the chain is the complete BSGS a full run builds, with
        the same levels, strong generators and Schreier vectors.  A bound
        that is never reached (an unfaithful action, say) costs nothing.
        """
        if self.order() == order_bound:
            return
        identity = self._identity
        while True:
            i = len(self.levels) - 1
            while i >= 0 and not self.levels[i].pending:
                i -= 1
            if i < 0:
                return
            lvl = self.levels[i]
            p, gi = lvl.pending.popleft()
            q = lvl._gen_views[gi][p]
            if lvl.sv[q] == (p, gi):  # a tree edge: u_p * g == u_q
                continue
            s = lvl.inv_row(q)[lvl.gens[gi].images[lvl.row(p)]]
            if s.tobytes() == identity:
                continue
            j, residue = self._sift_row(s, i + 1)
            if residue is not None:
                self._install(j, Permutation._wrap(residue), i + 1)
                if self.order() == order_bound:
                    return

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
        self._order_bound = None  # see _group_of_order_at_most
        self._coset_tables = {}  # see left_cosets

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> _Chain:
        if self._chain is None:
            chain = _Chain(self.degree)
            for g in self.generators:
                chain.add_generator(g)
            chain.complete(self._order_bound)
            self._chain = chain
        return self._chain

    @property
    def order(self) -> int:
        return self.chain().order()

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain().contains(p)

    def is_transitive(self) -> bool:
        return is_transitive_on(self.degree, [g.images for g in self.generators])

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

    def element_rows(self) -> np.ndarray:
        """All elements as an (order, degree) array of image rows.

        Chain traversal from the deepest level up: each level multiplies
        every row e built so far by each transversal element u (orbit
        points in increasing order) in one batch, giving one block of rows
        e * u per u.  Raises BoundExceeded when the order exceeds the
        enumeration bound.
        """
        cap = enumeration_bound()
        if self.order > cap:
            raise BoundExceeded(f"group order {self.order} exceeds bound {cap}")
        n = self.degree
        rows = np.arange(n, dtype=np.int32)[None, :]
        for lvl in reversed(self.chain().levels):
            rows = lvl.orbit_rows()[1][:, rows].reshape(-1, n)
        return rows

    def elements(self):
        """All elements, as Permutations in ``element_rows`` order."""
        return [Permutation._wrap(r) for r in self.element_rows()]

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _group_of_order_at_most(degree: int, generators, bound: int) -> PermGroup:
    """The group generated, with a Schreier-Sims run that stops at ``bound``.

    ``bound`` must be a proven upper bound on the order: the order of a
    group that the generated group is a subgroup or a quotient of.  The
    chain is the same complete chain either way (``_Chain.complete``); only
    the work after the order is reached is skipped.
    """
    group = PermGroup(degree, generators)
    group._order_bound = bound
    return group


def _orbit_roots(rows) -> np.ndarray:
    """The least point of each point's orbit under the permutations given as
    a (count, degree) array of image rows; a point is first in its orbit
    exactly when it is its own root.

    One depth-first search per orbit, from its least point, in increasing
    order; no group or chain is built.
    """
    images = rows.T.tolist()  # images[p]: p's image under each row
    roots = [-1] * rows.shape[1]
    for x, root in enumerate(roots):
        if root >= 0:
            continue
        roots[x] = x
        stack = [x]
        while stack:
            for q in images[stack.pop()]:
                if roots[q] < 0:
                    roots[q] = x
                    stack.append(q)
    return np.array(roots, dtype=np.intp)


def is_transitive_on(degree: int, rows) -> bool:
    """Whether permutations of 0..degree-1, given as image rows, generate a
    transitive group: every point has root 0 (``_orbit_roots``)."""
    return degree > 0 and not _orbit_roots(_rows(rows, degree)).any()


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    return H.degree == G.degree and all(g in G for g in H.generators)


def same_group(A: PermGroup, B: PermGroup) -> bool:
    return A is B or (is_subgroup(A, B) and A.order == B.order)


def _class_roots(rows, generators) -> np.ndarray:
    """The lex-least member of each class of ``rows`` under conjugation by
    ``generators`` (both arrays of image rows), sorted by key.

    ``rows`` must be pairwise distinct and closed under the conjugation.
    The classes are the orbits (``_orbit_roots``) of the rows, sorted by
    key, under the maps of their closure (``_conjugation_closure``), so
    each is rooted at its lex-least member.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    maps = _conjugation_closure([rows], [generators])[1]
    return rows[_orbit_roots(maps) == np.arange(len(rows))]


def conjugacy_classes(G: PermGroup) -> list:
    """The lex-least member of each conjugacy class of G, sorted by key
    (``_class_roots`` over G's element rows).  The enumeration bound caps
    G."""
    gens = _rows([g.images for g in G.generators], G.degree)
    return [Permutation._wrap(r) for r in _class_roots(G.element_rows(), gens)]


_UNSEARCHED = object()  # CosetTable._block before the block search has run


@dataclass
class CosetTable:
    """Right cosets Hg of a subgroup H of G, keyed canonically.

    Products apply the left factor first, so the coset of g is
    Hg = {h * g : h in H} and G acts on the cosets by right translation,
    Hr -> Hrg.  H is the stabilizer of coset 0.

    ``representatives[i]`` lies in coset i and is row i of ``rows``, wrapped
    as a Permutation on first access; representative 0 is the identity,
    so coset 0 is the subgroup itself.  Indices follow the breadth-first
    search from coset 0 over G's generators (the Schreier graph), in the
    order cosets are first found.  ``parents[i]`` and ``parent_gens[i]`` are
    the first (coset, generator index) pair of the search that reached coset
    i (-1 for coset 0), so representative i is representative ``parents[i]``
    times that generator, and the parents form a spanning tree of the
    Schreier graph.  ``index_of`` maps the canonical signature of a coset
    (the image key of its canonical representative) to its index.
    ``generator_actions[j]`` is the action of ``parent.generators[j]``, read
    off the search.  ``action_of`` canonicalizes the translates of all
    representatives in one batch and memoizes the action by the element's
    key (G's generators are memoized from the search); ``actions_of`` does
    the same for several elements in one pass, without the memo.

    One table serves every subgroup equal to ``subgroup`` as a set
    (``left_cosets``).  Rows, indices, generator actions and parents depend
    only on G's generators and on H as a set; so do the block found by
    ``intermediate_block`` and the order of ``subgroup_image``.  Only the
    generators of ``subgroup_image`` are those of the subgroup that built
    the table; a caller that hands out image generators builds them from
    its own subgroup's generators with ``action_of``.
    """

    parent: PermGroup
    subgroup: PermGroup
    index_of: dict = field(repr=False)
    generator_actions: tuple = field(repr=False)
    rows: np.ndarray = field(repr=False)  # representative image rows, (index, degree)
    parents: np.ndarray = field(repr=False)
    parent_gens: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._actions = {g.key(): a for g, a in
                         zip(self.parent.generators, self.generator_actions)}
        self._subgroup_image = None
        self._block = _UNSEARCHED
        self._representatives = None

    def __len__(self):
        return len(self.rows)

    @property
    def representatives(self) -> list:
        if self._representatives is None:
            self._representatives = [Permutation._wrap(r) for r in self.rows]
        return self._representatives

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation induced on coset indices by translation, computed
        once per element."""
        act = self._actions.get(g.key())
        if act is None:
            act = self._actions[g.key()] = Permutation(self.actions_of([g])[0])
        return act

    def actions_of(self, elements) -> np.ndarray:
        """The actions of several elements, as an (len(elements), index)
        array of image rows.

        All translates r * g, over representatives r and elements g, are
        canonicalized in one pass and looked up in ``index_of``, as in
        ``action_of``.  The pass holds len(elements) * index * degree
        entries, so it suits many elements on a small index.
        """
        m, n = self.rows.shape
        images = np.array([g.images for g in elements], dtype=np.int32).reshape(-1, n)
        keys = _row_keys(_canonical_rows(self.subgroup, images[:, self.rows].reshape(-1, n)))
        return np.array([self.index_of[k] for k in keys], dtype=np.int32).reshape(-1, m)

    def subgroup_image(self) -> PermGroup:
        """H's image on the cosets; its chain gives the order |H| / |core|.

        The image is a quotient of H, so its Schreier-Sims run stops once
        the order reaches |H| (``_group_of_order_at_most``).
        """
        if self._subgroup_image is None:
            self._subgroup_image = _group_of_order_at_most(
                len(self), [self.action_of(h) for h in self.subgroup.generators],
                self.subgroup.order)
        return self._subgroup_image

    def is_faithful(self) -> bool:
        """Whether G acts faithfully on the cosets, i.e. core(G, H) is trivial.

        The kernel lies inside H, the stabilizer of coset 0, so it is the
        kernel of H's action and the action is faithful exactly when H's
        image has order |H|.
        """
        return self.subgroup_image().order == self.subgroup.order

    def intermediate_block(self):
        """``_intermediate_block`` of this table, searched once."""
        if self._block is _UNSEARCHED:
            self._block = _intermediate_block(self)
        return self._block


def _canonical_rows(H: PermGroup, rows: np.ndarray) -> np.ndarray:
    """Canonical representatives of the cosets Hu, one per row u of ``rows``.

    Minimizes the images of H's base over each coset, level by level: at
    each level the orbit point with the least image is carried to the base
    point by its transversal element.  The minimizing element is unique,
    which makes coset keys deterministic.  Each level's products
    u -> rows[i][u] are one flat gather (``_take_rows``).
    """
    levels = H.chain().levels
    if not levels:
        return rows
    offsets = _row_offsets(*rows.shape)
    for lvl in levels:
        points, trans = lvl.orbit_rows()
        choice = rows[:, points].argmin(axis=1)
        rows = _take_rows(rows, trans[choice], offsets)
    return rows


def _row_offsets(count: int, width: int) -> np.ndarray:
    """Start of each row of a (count, width) array in its flattened form, as
    a column: int32 while count * width fits, else intp."""
    dtype = np.int32 if count * width < 2**31 else np.intp
    return (np.arange(count, dtype=dtype) * width)[:, None]


def _take_rows(rows: np.ndarray, index: np.ndarray, offsets=None) -> np.ndarray:
    """The array with entry (i, j) equal to rows[i, index[i, j]].

    One gather from the flattened rows, at index + ``_row_offsets``; for
    permutation rows, row i of the result is the product (index[i] applied
    first) of the two permutations.
    """
    if offsets is None:
        offsets = _row_offsets(*rows.shape)
    return rows.ravel()[index + offsets]


def _row_keys(rows: np.ndarray) -> list:
    """``Permutation.key()`` of every row: the big-endian rows viewed as one
    opaque (void) item each, whose ``tolist`` gives their bytes."""
    width = 4 * rows.shape[1]
    if not width:
        return [b""] * len(rows)
    return np.ascontiguousarray(rows, dtype=">i4").view(f"V{width}").ravel().tolist()


def _rows(images, degree):
    """Image rows as one (len(images), degree) int32 array, empty included."""
    return np.array(images, dtype=np.int32).reshape(len(images), degree)


def _conjugation_closure(seeds, generators):
    """Closure of a set of elements under conjugation by generators, with
    the conjugation action on it.

    Each element is carried as its image rows in one or more actions side
    by side: ``seeds[k]`` holds the elements' rows in action k, and
    ``generators[k]`` the generators' rows in the same action.  Products
    apply the left factor first, so s^-1 * x * s is the row s[x[s^-1]] in
    every action.  Elements are told apart by their rows in action 0
    (``_row_keys``), which must be faithful on the closure.  Returns one
    array per action, the seeds first and then each new conjugate in the
    order found, and the maps: ``maps[j, i]`` is the index of
    s_j^-1 * x_i * s_j.  Raises BoundExceeded when the closure exceeds
    ``enumeration_bound()`` elements.  No group element outside the closure
    is built.
    """
    cap = enumeration_bound()
    inverses = [np.argsort(g, axis=1).astype(np.int32) for g in generators]
    index = {key: i for i, key in enumerate(_row_keys(seeds[0]))}
    found = [[a] for a in seeds]
    maps = [np.zeros((len(generators[0]), 0), dtype=np.int32)]
    frontier = seeds
    while len(frontier[0]):
        new = [[x[:0]] for x in frontier]
        images = []
        for j in range(len(generators[0])):
            conj = [g[j][x[:, s_inv[j]]] for x, g, s_inv in zip(frontier, generators, inverses)]
            # conjugation is a bijection, so a batch holds each new row once
            start = len(index)
            images.append([index.setdefault(key, len(index)) for key in _row_keys(conj[0])])
            if len(index) > cap:
                raise BoundExceeded(f"conjugation closure exceeds bound {cap}")
            keep = np.array(images[-1], dtype=np.intp) >= start
            for k, c in enumerate(conj):
                new[k].append(c[keep])
        maps.append(_rows(images, len(frontier[0])))
        frontier = [np.concatenate(parts) for parts in new]
        for k, rows in enumerate(frontier):
            found[k].append(rows)
    return [np.concatenate(parts) for parts in found], np.concatenate(maps, axis=1)


def left_cosets(G: PermGroup, H: PermGroup) -> CosetTable:
    """Coset table of H in G, built breadth first over G's generators.

    Each step translates the whole frontier by every generator and
    canonicalizes the translates in one batch; the generators' actions are
    recorded on the way.  ``index_bound()`` caps the number of cosets.

    Tables are cached on G per subgroup as a set: a subgroup equal to one
    that already has a table (equal order, and its generators lie in the
    other) gets that table, and is recorded as an alias of it, so H's
    image, the block search and every memoized action serve both.  Groups
    are immutable, so the cache never goes stale; it holds each subgroup it
    has seen, so an id is never reused while its entry lives.
    """
    cache = G._coset_tables  # id(subgroup) -> (subgroup, table)
    hit = cache.get(id(H))
    if hit is not None:
        return hit[1]
    for S, table in cache.values():
        if S is table.subgroup and S.order == H.order and is_subgroup(H, S):
            cache[id(H)] = (H, table)
            return table
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    cap = index_bound()
    n, s = G.degree, len(G.generators)
    gens = np.array([g.images for g in G.generators], dtype=np.int32).reshape(s, n)
    rows = np.arange(n, dtype=np.int32)[None, :]
    index_of = {_row_keys(_canonical_rows(H, rows))[0]: 0}
    targets = []  # targets[i * s + j]: coset of representative i times generator j
    parents, parent_gens = [-1], [-1]
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
                parents.append(start + k // s)
                parent_gens.append(k % s)
            targets.append(c)
        start = len(rows)
        rows = np.concatenate([rows, translates[found]])
    actions = np.ascontiguousarray(np.array(targets, dtype=np.int32).reshape(len(rows), s).T)
    table = CosetTable(G, H, index_of,
                       tuple(Permutation._wrap(a) for a in actions), rows,
                       np.array(parents, dtype=np.intp), np.array(parent_gens, dtype=np.intp))
    cache[id(H)] = (H, table)
    return table


def core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G inside H.

    This is the kernel of G's action on the cosets of H, and the kernel lies
    inside H, the stabilizer of coset 0.  A faithful action (``is_faithful``)
    gives the trivial group at once.  Otherwise G acts on the coset indices
    and the original points together, each generator g as (action of g, g);
    the coset points are stabilized one by one (``PermGroup.stabilizer``,
    Schreier's lemma), and the surviving generators are restricted back to
    the points.  The coset actions depend only on G's generators and H as
    a set, and so does the result.  Only the index bound applies, to the
    coset table.
    """
    table = left_cosets(G, H)
    n, m = G.degree, len(table)
    if m == 1:
        return PermGroup(n, G.generators)
    if table.is_faithful():
        return PermGroup(n, [])
    graph = PermGroup(m + n, [Permutation._wrap(np.concatenate([a.images, g.images + m]))
                              for a, g in zip(table.generator_actions, G.generators)])
    for c in range(m):
        if any(int(g.images[c]) != c for g in graph.generators):
            graph = graph.stabilizer(c)
    return PermGroup(n, [Permutation(g.images[m:] - m) for g in graph.generators])


def _finest_block(table: CosetTable, beta: int):
    """Sorted cosets of the finest block containing cosets 0 and beta, or
    None when that block is the whole coset space.

    The blocks through coset 0 correspond to the subgroups L containing H,
    the block of L being the orbit of coset 0 under L (the cosets Hx with x
    in L).  So the finest block through 0 and beta (Atkinson's closure) is
    the orbit of coset 0 under <H, r_beta>, r_beta the representative of
    coset beta.  r_beta's action is composed from the generator actions
    along the search tree's path from coset 0 to beta; the orbit is grown
    under it and H's image generators one frontier at a time, and the
    growth stops once the orbit holds more than half the cosets, since a
    block's size divides the index.
    """
    m = len(table)
    path = []
    c = beta
    while c:
        path.append(table.parent_gens[c])
        c = table.parents[c]
    r_beta = np.arange(m, dtype=np.int32)
    for j in reversed(path):  # r_beta = g_1 * ... * g_t, g_1 applied first
        r_beta = table.generator_actions[j].images[r_beta]
    acts = np.stack([a.images for a in table.subgroup_image().generators] + [r_beta])
    in_block = np.zeros(m, dtype=bool)
    in_block[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    size = 1
    while frontier.size and 2 * size <= m:
        reached = np.zeros(m, dtype=bool)
        reached[acts[:, frontier]] = True
        frontier = np.flatnonzero(reached & ~in_block)
        in_block[frontier] = True
        size += frontier.size
    return np.flatnonzero(in_block).tolist() if 2 * size <= m else None


def _intermediate_block(table: CosetTable):
    """A block of G's action on the cosets that lies strictly between {0}
    and the whole coset space, or None when there is none.

    Such blocks are exactly the subgroups strictly between H and G (the
    union of the block's cosets).  The finest block through 0 and beta
    (``_finest_block``) only depends on the H-orbit of beta, so the least
    coset of each H-orbit (suborbit, ``_orbit_roots``) but {0} seeds one
    closure, in increasing order; the first proper block found is returned
    as a sorted list of coset indices.
    """
    m = len(table)
    roots = _orbit_roots(_rows([a.images for a in table.subgroup_image().generators], m))
    for beta in np.flatnonzero(roots == np.arange(m))[1:].tolist():
        block = _finest_block(table, beta)
        if block is not None:
            return block
    return None


def normal_closure(G: PermGroup, S) -> PermGroup:
    """Smallest normal subgroup of G containing the elements of S."""
    for s in S:
        if s not in G:
            raise ValueError("element is not a member of the group")
    chain = _Chain(G.degree)
    gens = []
    work = deque(s for s in S if not s.is_identity())
    while work:
        x = work.popleft()
        if chain.contains(x):
            continue
        chain.add_generator(x)
        chain.complete()
        gens.append(x)
        for g in G.generators:
            work.append(x.conjugate_by(g))
    N = PermGroup(G.degree, gens)
    N._chain = chain
    return N


def is_simple(G: PermGroup) -> bool:
    """Whether G is simple: no class representative generates a proper
    nontrivial normal closure."""
    if G.order == 1:
        return False
    for rep in conjugacy_classes(G):
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep])
        if N.order != G.order:
            return False
    return True
