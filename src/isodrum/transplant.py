"""Involution systems and exact transplantation.

An involution system records how copies of a base tile glue along colored
sides: color mu carries a symmetric 0/1 permutation matrix whose off-diagonal
ones are gluings and whose diagonal ones are boundary sides.  Everything in
this module is exact; no floating point.

Orbits come from ``groups._orbit_roots``: the transitivity of a system,
the involution classes behind the candidates and the class-first rule, and
the intertwiner basis, one 0/1 matrix per orbit of the cells (i, j) under
(i, j) -> (b(i), a(j)), in the order of their least cells.

One breadth-first labeling routine (``InvolutionSystem._labelings``) backs
``canonical_key`` and ``detect_isometry``.  The census decides
transplantation and isometry once per triple and filters INV's search.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceeded, SpecFormatError
from .groups import (
    PermGroup,
    _conjugation_maps,
    _group_of_order_at_most,
    _orbit_roots,
    _row_keys,
    _rows,
    _take_rows,
    is_transitive_on,
    left_cosets,
)
from .limits import INV_SEARCH_BOUND, enumeration_bound
from .permutations import Permutation


@dataclass(frozen=True)
class InvolutionSystem:
    """Tile gluings for one billiard: r involutions on n_tiles tiles."""

    n_tiles: int
    r: int
    perms: tuple

    def __post_init__(self):
        if len(self.perms) != self.r:
            raise ValueError("side count does not match permutation count")
        for p in self.perms:
            if p.degree != self.n_tiles:
                raise ValueError("tile count mismatch")
            if not (p * p).is_identity():
                raise ValueError("side permutation is not an involution")
        if not is_transitive_on(self.n_tiles, [p.images for p in self.perms]):
            raise ValueError("gluing system is not transitive on tiles")

    def traces(self):
        """Fixed tiles per color, i.e. boundary-side counts."""
        return [p.fixed_point_count() for p in self.perms]

    def relabel(self, p: Permutation) -> "InvolutionSystem":
        """Rename tile i to p(i)."""
        return InvolutionSystem(self.n_tiles, self.r, tuple(m.conjugate_by(p) for m in self.perms))

    def permute_colors(self, order) -> "InvolutionSystem":
        """New system whose color mu is old color order[mu]."""
        return InvolutionSystem(self.n_tiles, self.r, tuple(self.perms[mu] for mu in order))

    def _labelings(self, roots):
        """(order, encoding) of the breadth-first labeling from each root.

        The colored graph is deterministic (one neighbor per color per tile),
        so a root fixes the labeling: ``order`` lists the tiles as visited,
        and ``encoding`` per color the labels of their neighbors.  An
        isomorphism sends root a to b exactly when the encodings from a and
        b are equal, and it is then order_a[k] -> order_b[k].
        """
        images = [p.images.tolist() for p in self.perms]
        for root in roots:
            label = [-1] * self.n_tiles
            label[root] = 0
            order = [root]
            for t in order:  # grows while it is walked
                for img in images:
                    u = img[t]
                    if label[u] < 0:
                        label[u] = len(order)
                        order.append(u)
            yield order, tuple(tuple(label[img[t]] for t in order) for img in images)

    def canonical_key(self):
        """Label-independent encoding: the least BFS encoding over all roots
        (``_labelings``)."""
        return min(enc for _, enc in self._labelings(range(self.n_tiles)))


def is_tree(sys: InvolutionSystem) -> bool:
    """Whether the colored gluing graph is a tree (connected and acyclic),
    decided by the fixed-point identity (r-2) * tiles == sum of traces - 2.

    Color mu contributes (n - Fix_mu) / 2 edges, so the graph has n - 1
    edges exactly when the fixed-point identity holds.  An
    ``InvolutionSystem`` is transitive, so its graph is connected, and a
    connected graph on n vertices is a tree exactly when it has n - 1 edges.
    """
    return (sys.r - 2) * sys.n_tiles == sum(sys.traces()) - 2


@dataclass
class TransplantationSolution:
    """An exact solution of T*M = N*T for all colors; T is a tuple of rows
    of ints (the basis is 0/1 and combinations have integer coefficients)."""

    T: tuple
    solution_basis: list = field(repr=False)
    invertible: bool = False
    permutation_solution: Permutation | None = None
    certificate: str = ""

    def dimension(self):
        return len(self.solution_basis)


def intertwiner_basis(mats_a, mats_b, n):
    """Basis of {T : T*A_mu == B_mu*T} for permutation maps.

    The constraint is T[i][j] == T[b(i)][a(j)] cellwise, so the space has one
    0/1 indicator per orbit of the pair maps on cells.  Cell (i, j) is point
    i * n + j, each color maps it to (b(i), a(j)), and the orbits
    (``_orbit_roots``) come in the order of their least cell.
    """
    if len(mats_a) != len(mats_b):
        raise ValueError("color count mismatch")
    cells = _rows([(b.images[:, None] * n + a.images).ravel() for a, b in zip(mats_a, mats_b)],
                  n * n)
    roots = _orbit_roots(cells)
    grid = roots.reshape(n, n)
    return [tuple(map(tuple, (grid == root).astype(int).tolist()))
            for root in np.flatnonzero(roots == np.arange(n * n))]


def _int_det(rows):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for s in range(k + 1, n):
                if m[s][k] != 0:
                    m[k], m[s] = m[s], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _combine(basis, coeffs, n):
    out = [[0] * n for _ in range(n)]
    for c, mat in zip(coeffs, basis):
        if c == 0:
            continue
        for i in range(n):
            row = mat[i]
            oi = out[i]
            for j in range(n):
                if row[j]:
                    oi[j] += c
    return out


def find_transplantation(A: InvolutionSystem, B: InvolutionSystem):
    """Solve T*M = N*T exactly over the rationals.

    Returns None when the solution space is zero, otherwise a
    TransplantationSolution whose certificate says how invertibility was
    decided:

    - ``basis[k]``: basis vector k has nonzero determinant; basis vectors
      are tried in order.
    - ``proved-singular-by-character-mismatch``: the two permutation
      representations are not isomorphic, since dim End(A), dim Hom(A, B)
      and dim End(B) are not all equal, so every solution is singular.
    - ``combination(c_0, ..., c_d-1)``: the dimensions are equal, so the
      representations are isomorphic and an invertible solution exists
      (Band-Parzanchevski-Ben-Shach 2009); this combination of the basis,
      with coefficients drawn from S = {1, ..., 10n} by a fixed-seed
      generator, has nonzero determinant.  The determinant is a nonzero
      polynomial of degree n in the coefficients, so a draw fails with
      probability at most n/|S| = 1/10 (Schwartz-Zippel) and is redrawn,
      up to 64 draws.

    Every invertible certificate is an exact nonzero determinant over Z.
    """
    if A.n_tiles != B.n_tiles or A.r != B.r:
        raise ValueError("dimension mismatch between systems")
    n = A.n_tiles
    basis = intertwiner_basis(A.perms, B.perms, n)
    if not basis:
        return None
    perm_sol = detect_isometry(A, B)

    def solution(mat, invertible, certificate):
        T = tuple(map(tuple, mat))
        assert not invertible or verify_intertwiner(T, A, B)
        return TransplantationSolution(T=T, solution_basis=basis, invertible=invertible,
                                       permutation_solution=perm_sol, certificate=certificate)

    for k, mat in enumerate(basis):
        if _int_det(mat) != 0:
            return solution(mat, True, f"basis[{k}]")
    d = len(basis)
    dims = {d, len(intertwiner_basis(A.perms, A.perms, n)),
            len(intertwiner_basis(B.perms, B.perms, n))}
    if len(dims) > 1:
        return solution(basis[0], False, "proved-singular-by-character-mismatch")
    rng = random.Random(0)
    for _ in range(64):
        coeffs = tuple(rng.randint(1, 10 * n) for _ in range(d))
        cand = _combine(basis, coeffs, n)
        if _int_det(cand) != 0:
            return solution(cand, True, f"combination{coeffs}")
    raise AssertionError("equal intertwiner dimensions but no invertible combination")


def verify_intertwiner(T, A: InvolutionSystem, B: InvolutionSystem) -> bool:
    """Exact check of T*M == N*T for every color."""
    n = A.n_tiles
    for a, b in zip(A.perms, B.perms):
        for i in range(n):
            for j in range(n):
                # (T*M)[i][j] = T[i][a(j)] ; (N*T)[i][j] = T[b(i)][j]
                if T[i][int(a.images[j])] != T[int(b.images[i])][j]:
                    return False
    return True


def detect_isometry(A: InvolutionSystem, B: InvolutionSystem):
    """Color-preserving isomorphism of the gluing graphs, or None.

    Equivalent to a permutation-matrix intertwiner.  The BFS labeling of A
    from tile 0 is compared with B's from each root c in turn
    (``InvolutionSystem._labelings``); the least c with an equal encoding is
    the least image of tile 0, and the map is order_a[k] -> order_b[k].
    """
    if A.n_tiles != B.n_tiles or A.r != B.r:
        raise ValueError("dimension mismatch between systems")
    (order_a, enc_a), = A._labelings([0])
    for order_b, enc_b in B._labelings(range(B.n_tiles)):
        if enc_b == enc_a:
            images = np.empty(A.n_tiles, dtype=np.int32)
            images[order_a] = order_b
            return Permutation._wrap(images)
    return None


def involutions_of(G: PermGroup):
    """Order-2 elements of G, sorted by image key.

    Tests every row of ``G.element_rows()`` on the base of G's chain
    only.  The pointwise stabilizer of the base is trivial, so an element of
    G is the identity exactly when it fixes the base, and g is an
    involution exactly when g moves a base point and g^2 fixes them all.
    The base images of every square are one gather (``_take_rows``); the
    surviving rows are sorted lexicographically (the ``Permutation.key()``
    order) before wrapping.
    """
    rows = G.element_rows()
    base = np.array(G.chain().base(), dtype=np.intp)
    at_base = rows[:, base]
    invs = rows[(_take_rows(rows, at_base) == base).all(axis=1) & (at_base != base).any(axis=1)]
    if not len(invs):
        return []
    return [Permutation._wrap(r) for r in invs[np.lexsort(invs.T[::-1])]]


def _conjugation_closure(seeds, generators):
    """Closure of a set of elements under conjugation by generators.

    Each element is carried as its image rows in one or more actions side
    by side: ``seeds[k]`` holds the elements' rows in action k, and
    ``generators[k]`` the generators' rows in the same action.  Products
    apply the left factor first, so s^-1 * x * s is the row s[x[s^-1]] in
    every action.  Elements are told apart by their rows in action 0
    (``_row_keys``), which must be faithful on the closure.  Returns one
    array per action, the seeds first and then each new conjugate in the
    order found; raises BoundExceeded when the closure exceeds
    ``enumeration_bound()`` elements.  No group element outside the closure
    is built.
    """
    cap = enumeration_bound()
    inverses = [np.argsort(g, axis=1).astype(np.int32) for g in generators]
    seen = set(_row_keys(seeds[0]))
    found = [[a] for a in seeds]
    frontier = seeds
    while len(frontier[0]):
        new = [[] for _ in seeds]
        for j in range(len(generators[0])):
            conj = [g[j][x[:, s_inv[j]]] for x, g, s_inv in zip(frontier, generators, inverses)]
            keep = []
            for i, key in enumerate(_row_keys(conj[0])):
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            if len(seen) > cap:
                raise BoundExceeded(f"conjugation closure exceeds bound {cap}")
            for k, c in enumerate(conj):
                new[k].append(c[keep])
        frontier = [np.concatenate(parts) for parts in new]
        for k, rows in enumerate(frontier):
            found[k].append(rows)
    return [np.concatenate(parts) for parts in found]


def _involution_roots(group, tables):
    """The lex-least involution of each class of ``group`` (``_orbit_roots``):
    its rows, then its actions on each coset table in ``tables``, the only
    rows canonicalized.  The enumeration bound caps ``group``."""
    rows = _rows([p.images for p in involutions_of(group)], group.degree)
    maps = _conjugation_maps(rows, _rows([g.images for g in group.generators], group.degree))
    rows = rows[_orbit_roots(maps) == np.arange(len(rows))]
    elements = [Permutation._wrap(x) for x in rows]
    return [rows] + [table.actions_of(elements) for table in tables]


def _tree_candidates(G, H, tables, r):
    """The involutions of G that may lie in a gluing tree of r colors on the
    cosets of H, or None when the fixed-point certificate proves there is no
    tree.

    Returns one array per action, one row per candidate: the rows in G, then
    the actions on each coset table of G in ``tables``, the first H's.  With
    no tables G acts on the cosets itself, H being the stabilizer of point 0,
    as INV passes the images of an unfaithful action.  The candidates are
    distinct and closed under conjugation by G, in the order of the forest
    search (``_forest_search``): by descending fixed count on the cosets of
    H, then by the row on them, one stable ``np.lexsort`` (rows that an
    unfaithful action ties keep their closure order).

    An involution x fixes the coset Hy exactly when y * x * y^-1 lies in H,
    so every involution with a fixed coset is G-conjugate into H, and fixed
    counts are class functions.  So m, the largest fixed count of an
    involution of H (0 if none), is read on one involution per class of H
    (``_involution_roots``).  A tree on the n cosets needs fixed counts
    summing to target = (r-2) * n + 2, and there are three cases:

    * r * m < target: no r involutions reach the sum; None.
    * (r-1) * m < target: every member of a tree fixes at least
      target - (r-1) * m > 0 cosets, so it is conjugate into H.  The
      candidates are the closure of H's involutions under conjugation by
      G's generators (``_conjugation_closure``), which is the union of
      their G-classes, so it is seeded with the roots alone and carries
      every action side by side.  These are all involutions but the
      fixed-point-free ones, which no tree touches.  The enumeration bound
      caps H and the closure.
    * otherwise a tree may hold a fixed-point-free involution, and the
      candidates are all of G's: the closure of the roots of G's involution
      classes.  The enumeration bound caps G.
    """
    gens = [_rows([g.images for g in G.generators], G.degree)]
    gens += [_rows([a.images for a in table.generator_actions], len(table)) for table in tables]
    side = 1 if tables else 0
    n = gens[side].shape[1]
    seeds = _involution_roots(H, tables)
    m = int((seeds[side] == np.arange(n)).sum(axis=1).max(initial=0))
    target = (r - 2) * n + 2
    if r * m < target:
        return None
    if (r - 1) * m >= target:
        seeds = _involution_roots(G, tables)
    found = _conjugation_closure(seeds, gens)
    acts = found[side]
    order = np.lexsort((*acts.T[::-1], -(acts == np.arange(n)).sum(axis=1)))
    return [a[order] for a in found]


def _forest_search(acts, maps, r, target):
    """Increasing r-tuples of indices into the candidate rows ``acts``
    whose fixed counts sum to ``target`` and whose 2-cycles form a forest,
    each tuple's first index the first of its class.

    One depth-first search in lexicographic order over the candidates of
    ``_tree_candidates``, whose fixed counts are non-increasing, so a
    partial sum prunes a whole tail.  A union-find over the points holds the
    forest of the chosen rows; a row whose 2-cycle joins two connected
    points is rejected, and its unions are undone on the way back.  Raises
    BoundExceeded after ``INV_SEARCH_BOUND`` nodes.

    Class-first rule.  The first member is tried only among the first
    candidate of each class, the least index of its orbit
    (``groups._orbit_roots``) under ``maps``, G's generators' conjugation
    maps on the candidates.  Conjugating a tuple by g keeps its fixed
    counts and relabels its graph by g's action on the cosets, so it keeps
    both tests.  Were the first member x_a of the least passing tuple of a
    class conjugate by g to a candidate at a' < a, conjugating that tuple
    by g would give one of the same class starting at most at a'.  So the
    yielded tuples are all passing tuples whose first member is first in
    its class, the least of every class among them.
    """
    first = _orbit_roots(maps) == np.arange(len(acts))
    degree = acts.shape[1]
    fixes = (acts == np.arange(degree)).sum(axis=1).tolist()
    # each row's 2-cycles as pairs (a, x[a]) with a < x[a]
    movers = acts > np.arange(degree)
    pairs = np.stack([np.nonzero(movers)[1], acts[movers]], axis=1).tolist()
    ends = np.cumsum(movers.sum(axis=1)).tolist()
    cycles = [pairs[a:b] for a, b in zip([0] + ends, ends)]
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


def _orbit(maps, tup):
    """The orbit of an index tuple under the conjugation maps ``maps``
    applied to every entry at once, one ordered tuple per row."""
    seen = {tup}
    frontier = [tup]
    while frontier:
        frontier = list(set(map(tuple, maps[:, frontier].reshape(-1, len(tup)).tolist())) - seen)
        seen.update(frontier)
    return np.array(list(seen), dtype=np.intp)


def okada_shudo_scan(t, n_max: int, r: int = 3):
    """Transplantable nonisometric tree-system pairs from one triple.

    A pair comes from r involutions of G that give tree systems on the
    cosets of H and of K (sum Fix = (r-2) * n + 2 and transitive), generate
    G, and whose two systems have an invertible non-permutation
    intertwiner.  For each pair of canonical keys (independent tile
    relabelings of the two sides) the systems of the least such increasing
    tuple are kept, indices taken in the element-key order of
    ``involutions_of``: the pairs that examining every r-subset in
    lexicographic order would keep.  Pairs are sorted by keys.  ``n_max``
    is the caller's guard on the tile count: a larger index raises
    BoundExceeded before any search.

    The triple decides.  A tuple generating G gives the cells (i, j) of its
    two systems G's orbits, so its intertwiners are Hom_G(Q[G/H], Q[G/K]):
    an invertible one exists exactly when the triple is AC (Sunada 1985),
    and a permutation one (an isometry) exactly when G/H and G/K are
    isomorphic G-sets, that is when H and K are conjugate.  Both are
    decided once (``triples.is_ac``, ``triples.sides_conjugate``); without
    AC, or with conjugate sides, there is no pair and no search.

    Search.  The census filters INV's search.  ``_tree_candidates`` gives
    the involutions that may lie in an H-side tree, in the search order and
    with their actions on both coset spaces, or proves by the fixed-point
    certificate that there is none; ``_forest_search`` yields the H-side
    trees, the least of each orbit under conjugation by G among them.  One
    gather, rank = argsort(lexsort(rows)), takes a yielded tuple and its
    ordered orbit (``_orbit``) to element-key indices; all sets of the
    orbit are recorded so later ones are skipped, and the tuple is tested
    once, for generation (a Schreier-Sims run stopped at |G|).  AC and
    generation make the K side a tree: AC gives every element of G equal
    fixed counts on the cosets of H and of K, so the K-side counts meet the
    sum, and a tuple generating G is transitive on the cosets of K, as G
    is.  No K-side test runs.

    Exactness.  Conjugating a tuple by g relabels the tiles of both systems
    by g's actions on the cosets, and reordering it reorders the colors of
    both; every test is invariant under both, so an orbit of sets passes or
    fails as a whole, and the search reaches every orbit.  The color
    pattern of an ordered tuple v of the orbit, in element-key indices, is
    the permutation p sorting it (``argsort``).  Two increasing tuples v o p
    and w o p with one pattern come from ordered conjugates v and w, so
    they are conjugate as ordered tuples and share their key pair.  So the
    least passing increasing tuple with a given key pair is the least tuple
    of its pattern in its orbit; keeping the least tuple of each pattern of
    each passing orbit, then the least tuple of each key pair, keeps it.
    """
    if not 3 <= r:
        raise ValueError("need at least 3 sides")
    G = t.G
    table_h, table_k = left_cosets(G, t.H), left_cosets(G, t.K)
    n = len(table_h)
    if n != len(table_k):
        raise ValueError("coset spaces have different sizes")
    if n > n_max:
        raise BoundExceeded(f"index {n} exceeds n_max {n_max}")
    from .triples import is_ac, sides_conjugate  # triples imports this module
    if not is_ac(t) or sides_conjugate(t):
        return []
    found = _tree_candidates(G, t.H, [table_h, table_k], r)
    if found is None:
        return []
    rows, acts_h, acts_k = found
    maps = _conjugation_maps(rows, _rows([g.images for g in G.generators], G.degree))
    by_key = np.lexsort(rows.T[::-1])
    rank = np.argsort(by_key)

    def systems(tup):
        return tuple(InvolutionSystem(n, r, tuple(map(Permutation._wrap, a[by_key[list(tup)]])))
                     for a in (acts_h, acts_k))

    walked, kept = set(), {}
    for combo in _forest_search(acts_h, maps, r, (r - 2) * n + 2):
        if tuple(sorted(rank[list(combo)].tolist())) in walked:
            continue
        orbit = rank[_orbit(maps, combo)]
        patterns = np.argsort(orbit, axis=1)
        sets = np.take_along_axis(orbit, patterns, axis=1)
        walked.update(map(tuple, sets.tolist()))
        if _group_of_order_at_most(G.degree, list(map(Permutation._wrap, rows[list(combo)])),
                                   G.order).order != G.order:
            continue
        # the least increasing tuple of each color pattern
        pattern = np.unique(patterns, axis=0, return_inverse=True)[1].ravel()
        by_pattern = np.lexsort((*sets.T[::-1], pattern))
        least = sets[by_pattern[np.unique(pattern[by_pattern], return_index=True)[1]]]
        for u in map(tuple, least.tolist()):
            pair = systems(u)
            key = (pair[0].canonical_key(), pair[1].canonical_key())
            if key not in kept or u < kept[key][0]:
                kept[key] = (u, pair)
    return [kept[key][1] for key in sorted(kept)]


_SIDE_RE = re.compile(r"side\s+(\d+)\s*:(.*)$")


def format_involution_system(sys: InvolutionSystem) -> str:
    """Canonical text form: 1-based tiles, pairs sorted, boundary sorted."""
    lines = [f"tiles: {sys.n_tiles}", f"sides: {sys.r}"]
    for mu, p in enumerate(sys.perms):
        pairs = []
        boundary = []
        for i in range(sys.n_tiles):
            j = int(p.images[i])
            if j == i:
                boundary.append(i + 1)
            elif i < j:
                pairs.append((i + 1, j + 1))
        pair_txt = " ".join(f"({a} {b})" for a, b in pairs)
        bnd_txt = " ".join(str(x) for x in boundary)
        lines.append(f"side {mu + 1}: {pair_txt} ; boundary: {bnd_txt}".rstrip())
    return "\n".join(lines) + "\n"


def parse_involution_system(text: str) -> InvolutionSystem:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("tiles:") or not lines[1].startswith("sides:"):
        raise SpecFormatError("involution system must begin with tiles: and sides:")
    try:
        n = int(lines[0].split(":", 1)[1])
        r = int(lines[1].split(":", 1)[1])
    except ValueError as exc:
        raise SpecFormatError(f"bad tile or side count: {exc}") from exc
    perms = [None] * r
    for ln in lines[2:]:
        m = _SIDE_RE.match(ln)
        if not m:
            raise SpecFormatError(f"bad side line: {ln!r}")
        mu = int(m.group(1)) - 1
        if not 0 <= mu < r:
            raise SpecFormatError(f"side index out of range: {ln!r}")
        body = m.group(2)
        if ";" in body:
            pair_part, bnd_part = body.split(";", 1)
            if not bnd_part.strip().startswith("boundary:"):
                raise SpecFormatError(f"expected boundary: in {ln!r}")
            bnd_part = bnd_part.strip()[len("boundary:"):]
        else:
            pair_part, bnd_part = body, ""
        images = list(range(n))
        touched = set()
        for pm in re.finditer(r"\((\d+)\s+(\d+)\)", pair_part):
            a, b = int(pm.group(1)) - 1, int(pm.group(2)) - 1
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise SpecFormatError(f"bad gluing pair in {ln!r}")
            if a in touched or b in touched:
                raise SpecFormatError(f"tile repeated on side {mu + 1}")
            images[a], images[b] = b, a
            touched |= {a, b}
        boundary = [int(x) - 1 for x in bnd_part.split()] if bnd_part.strip() else []
        for x in boundary:
            if not 0 <= x < n or x in touched:
                raise SpecFormatError(f"bad boundary tile on side {mu + 1}")
            touched.add(x)
        if touched != set(range(n)):
            raise SpecFormatError(f"side {mu + 1} does not account for every tile")
        perms[mu] = Permutation(images)
    if any(p is None for p in perms):
        raise SpecFormatError("missing side line")
    try:
        return InvolutionSystem(n, r, tuple(perms))
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
