"""Involution systems and exact transplantation.

An involution system records how copies of a base tile glue along colored
sides: color mu carries a symmetric 0/1 permutation matrix whose off-diagonal
ones are gluings and whose diagonal ones are boundary sides.  Everything in
this module is exact; no floating point.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BoundExceeded, SpecFormatError
from .groups import (
    PermGroup,
    _class_roots,
    _conjugation_maps,
    _group_of_order_at_most,
    _row_keys,
    _rows,
    _take_rows,
    is_transitive_on,
    left_cosets,
)
from .limits import INV_SEARCH_BOUND, OKADA_SHUDO_NMAX, enumeration_bound
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

    def matrices(self):
        """The r symmetric 0/1 permutation matrices."""
        out = []
        for p in self.perms:
            m = np.zeros((self.n_tiles, self.n_tiles), dtype=np.int64)
            m[np.arange(self.n_tiles), p.images] = 1
            out.append(m)
        return out

    def traces(self):
        """Fixed tiles per color, i.e. boundary-side counts."""
        return [p.fixed_point_count() for p in self.perms]

    def edges(self):
        """Gluing edges (i, j, mu) with i < j."""
        out = []
        for mu, p in enumerate(self.perms):
            for i in range(self.n_tiles):
                j = int(p.images[i])
                if i < j:
                    out.append((i, j, mu))
        return out

    def relabel(self, p: Permutation) -> "InvolutionSystem":
        """Rename tile i to p(i)."""
        return InvolutionSystem(self.n_tiles, self.r, tuple(m.conjugate_by(p) for m in self.perms))

    def permute_colors(self, order) -> "InvolutionSystem":
        """New system whose color mu is old color order[mu]."""
        return InvolutionSystem(self.n_tiles, self.r, tuple(self.perms[mu] for mu in order))

    def canonical_key(self):
        """Label-independent encoding: minimum over BFS relabelings.

        The colored graph is deterministic (one neighbor per color per tile),
        so fixing a root fixes the labeling; minimizing over roots gives a
        canonical form.
        """
        best = None
        for root in range(self.n_tiles):
            label = {root: 0}
            order = [root]
            qi = 0
            while qi < len(order):
                t = order[qi]
                qi += 1
                for p in self.perms:
                    u = int(p.images[t])
                    if u not in label:
                        label[u] = len(order)
                        order.append(u)
            enc = tuple(
                tuple(label[int(p.images[t])] for t in order) for p in self.perms
            )
            if best is None or enc < best:
                best = enc
        return best


def fixeq_check(sys: InvolutionSystem) -> bool:
    """The fixed-point identity (r-2) * tiles == sum of traces - 2."""
    return (sys.r - 2) * sys.n_tiles == sum(sys.traces()) - 2


def is_tree(sys: InvolutionSystem) -> bool:
    """Whether the colored gluing graph is a tree (connected and acyclic).

    Color mu contributes (n - Fix_mu) / 2 edges, so the graph has n - 1
    edges exactly when the fixed-point identity holds.  An
    ``InvolutionSystem`` is transitive, so its graph is connected, and a
    connected graph on n vertices is a tree exactly when it has n - 1 edges.
    """
    return fixeq_check(sys)


@dataclass
class TransplantationSolution:
    """An exact solution of T*M = N*T for all colors."""

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
    0/1 indicator per orbit of the pair maps on cells.
    """
    if len(mats_a) != len(mats_b):
        raise ValueError("color count mismatch")
    orbit_of = [[-1] * n for _ in range(n)]
    orbits = []
    for i0 in range(n):
        for j0 in range(n):
            if orbit_of[i0][j0] >= 0:
                continue
            oid = len(orbits)
            cells = [(i0, j0)]
            orbit_of[i0][j0] = oid
            queue = deque(cells)
            while queue:
                i, j = queue.popleft()
                for a, b in zip(mats_a, mats_b):
                    i2, j2 = int(b.images[i]), int(a.images[j])
                    if orbit_of[i2][j2] < 0:
                        orbit_of[i2][j2] = oid
                        cells.append((i2, j2))
                        queue.append((i2, j2))
            orbits.append(cells)
    basis = []
    for cells in orbits:
        m = [[0] * n for _ in range(n)]
        for i, j in cells:
            m[i][j] = 1
        basis.append(tuple(tuple(row) for row in m))
    return basis


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
        T = _as_fraction_matrix(mat)
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


def _as_fraction_matrix(mat):
    return tuple(tuple(Fraction(x) for x in row) for row in mat)


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

    Equivalent to a permutation-matrix intertwiner.  Propagation from a root
    is forced (one neighbor per color), so each candidate image of tile 0 is
    checked directly; the least consistent image wins.
    """
    if A.n_tiles != B.n_tiles or A.r != B.r:
        raise ValueError("dimension mismatch between systems")
    n = A.n_tiles
    for c in range(n):
        mapping = {0: c}
        queue = deque([0])
        ok = True
        while queue and ok:
            i = queue.popleft()
            j = mapping[i]
            for pa, pb in zip(A.perms, B.perms):
                i2, j2 = int(pa.images[i]), int(pb.images[j])
                if i2 in mapping:
                    if mapping[i2] != j2:
                        ok = False
                        break
                else:
                    mapping[i2] = j2
                    queue.append(i2)
        if ok and len(mapping) == n and len(set(mapping.values())) == n:
            return Permutation([mapping[i] for i in range(n)])
    return None


def involutions_of(G: PermGroup, bound=None):
    """Order-2 elements of G, sorted by image key.

    Tests every row of ``G.element_rows(bound)`` on the base of G's chain
    only.  The pointwise stabilizer of the base is trivial, so an element of
    G is the identity exactly when it fixes the base, and g is an
    involution exactly when g moves a base point and g^2 fixes them all.
    The base images of every square are one gather (``_take_rows``); the
    surviving rows are sorted lexicographically (the ``Permutation.key()``
    order) before wrapping.
    """
    rows = G.element_rows(bound)
    base = np.array(G.chain().base(), dtype=np.intp)
    at_base = rows[:, base]
    invs = rows[(_take_rows(rows, at_base) == base).all(axis=1) & (at_base != base).any(axis=1)]
    if not len(invs):
        return []
    return [Permutation._wrap(r) for r in invs[np.lexsort(invs.T[::-1])]]


def _conjugation_closure(seeds, generators, bound):
    """Closure of a set of elements under conjugation by generators.

    Each element is carried as its image rows in one or more actions side
    by side: ``seeds[k]`` holds the elements' rows in action k, and
    ``generators[k]`` the generators' rows in the same action.  Products
    apply the left factor first, so s^-1 * x * s is the row s[x[s^-1]] in
    every action.  Elements are told apart by their rows in action 0
    (``_row_keys``), which must be faithful on the closure.  Returns one
    array per action, the seeds first and then each new conjugate in the
    order found; raises BoundExceeded when the closure exceeds ``bound``
    elements.  No group element outside the closure is built.
    """
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
            if len(seen) > bound:
                raise BoundExceeded(f"conjugation closure exceeds bound {bound}")
            for k, c in enumerate(conj):
                new[k].append(c[keep])
        frontier = [np.concatenate(parts) for parts in new]
        for k, rows in enumerate(frontier):
            found[k].append(rows)
    return [np.concatenate(parts) for parts in found]


def _involution_roots(group, tables, bound):
    """The lex-least involution of each class of ``group`` (``_class_roots``):
    its rows, then its actions on each coset table in ``tables``, the only
    rows canonicalized.  The enumeration bound caps ``group``."""
    rows = _rows([p.images for p in involutions_of(group, bound)], group.degree)
    maps = _conjugation_maps(rows, _rows([g.images for g in group.generators], group.degree))
    rows = rows[_class_roots(maps) == np.arange(len(rows))]
    elements = [Permutation._wrap(x) for x in rows]
    return [rows] + [table.actions_of(elements) for table in tables]


def _tree_candidates(G, H, tables, r, bound):
    """The involutions of G that may lie in a gluing tree of r colors on the
    cosets of H, or None when the fixed-point certificate proves there is no
    tree.

    Returns one array per action, one row per candidate: the rows in G, then
    the actions on each coset table of G in ``tables``, the first H's.  With
    no tables G acts on the cosets itself, H being the stabilizer of point 0,
    as INV passes the images of an unfaithful action.  The candidates are
    distinct and closed under conjugation by G, in closure order; each
    caller sorts them.

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
    cap = enumeration_bound(bound)
    gens = [_rows([g.images for g in G.generators], G.degree)]
    gens += [_rows([a.images for a in table.generator_actions], len(table)) for table in tables]
    side = 1 if tables else 0
    n = gens[side].shape[1]
    seeds = _involution_roots(H, tables, cap)
    m = int((seeds[side] == np.arange(n)).sum(axis=1).max(initial=0))
    target = (r - 2) * n + 2
    if r * m < target:
        return None
    if (r - 1) * m >= target:
        seeds = _involution_roots(G, tables, cap)
    return _conjugation_closure(seeds, gens, cap)


def _forest_search(acts, first, r, target):
    """Increasing r-tuples of indices into the involution rows ``acts``
    whose fixed counts sum to ``target`` and whose 2-cycles form a forest;
    the first index must be marked in ``first``.

    One depth-first search in lexicographic order.  The fixed counts of
    ``acts`` must be non-increasing, so a partial sum prunes a whole tail.
    A union-find over the points holds the forest of the chosen rows; a row
    whose 2-cycle joins two connected points is rejected, and its unions
    are undone on the way back.  Raises BoundExceeded after
    ``INV_SEARCH_BOUND`` nodes.
    """
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


def okada_shudo_scan(t, n_max: int, r: int = 3, bound=None):
    """Transplantable nonisometric tree-system pairs from one triple.

    A pair comes from r involutions of G that give tree systems on the
    cosets of H and of K (sum Fix = (r-2) * n + 2 and transitive), generate
    G, and whose two systems have an invertible non-permutation
    intertwiner.  For each pair of canonical keys (independent tile
    relabelings of the two sides) the systems of the least such increasing
    tuple are kept, indices taken in the element-key order of
    ``involutions_of``: the pairs that examining every r-subset in
    lexicographic order would keep.  Pairs are sorted by keys.

    Candidates.  ``_tree_candidates`` gives the involutions that may lie in
    an H-side tree, with their actions on both coset spaces side by side,
    or proves by the fixed-point certificate that the census is empty; it
    holds the three cases and their proof.  They are sorted by element key.

    Search.  ``_forest_search`` walks the H-side trees over the candidates
    ordered by descending fixed count (a stable sort, so by element key
    within a count), trying as first member only the first candidate of
    each class (``groups._class_roots`` on the conjugation maps of G's
    generators; a class has one fixed count, so its first in element-key
    order is its first in the search).  For the first set yielded from
    each orbit of sets, the ordered orbit of its tuple is walked
    (``_orbit``) and all its sets recorded, so later sets of the orbit are
    skipped; the tuple is tested once, for generation (a Schreier-Sims run
    stopped at |G|) and then transplantation.  Those two make the K side a
    tree: a tuple generating G is transitive on the cosets of K, as G is,
    and an invertible T with T * M_mu = N_mu * T makes each N_mu similar to
    M_mu, so the K-side fixed counts equal the H-side ones and meet the
    sum.  No K-side test runs.

    Exactness.  Conjugating a tuple by g relabels the tiles of both systems
    by g's actions on the cosets, and reordering it reorders the colors of
    both; every test is invariant under both, so an orbit of sets passes or
    fails as a whole, and the least set of each H-side tree orbit in search
    order starts with a class-first candidate, so the search reaches every
    orbit.  The color pattern of an ordered tuple v of the orbit is the
    permutation p sorting it (``argsort``).  Two increasing tuples v o p
    and w o p with one pattern come from ordered conjugates v and w, so
    they are conjugate as ordered tuples and share their key pair.  So the
    least passing increasing tuple with a given key pair is the least tuple
    of its pattern in its orbit; keeping the least tuple of each pattern of
    each passing orbit, then the least tuple of each key pair, keeps it.
    """
    if not 3 <= r:
        raise ValueError("need at least 3 sides")
    if n_max > OKADA_SHUDO_NMAX:
        raise BoundExceeded(f"n_max {n_max} exceeds census bound {OKADA_SHUDO_NMAX}")
    G = t.G
    table_h, table_k = left_cosets(G, t.H), left_cosets(G, t.K)
    n = len(table_h)
    if n != len(table_k):
        raise ValueError("coset spaces have different sizes")
    if n > n_max:
        raise BoundExceeded(f"index {n} exceeds n_max {n_max}")
    found = _tree_candidates(G, t.H, [table_h, table_k], r, bound)
    if found is None:
        return []
    by_key = np.lexsort(found[0].T[::-1])
    rows, acts_h, acts_k = (a[by_key] for a in found)
    invs = [Permutation._wrap(row) for row in rows]
    maps = _conjugation_maps(rows, _rows([g.images for g in G.generators], G.degree))
    first = _class_roots(maps) == np.arange(len(rows))
    target = (r - 2) * n + 2
    order = np.argsort(-(acts_h == np.arange(n)).sum(axis=1), kind="stable")

    def systems(tup):
        return tuple(InvolutionSystem(n, r, tuple(Permutation._wrap(a[i]) for i in tup))
                     for a in (acts_h, acts_k))

    walked, kept = set(), {}
    for combo in _forest_search(acts_h[order], first[order], r, target):
        tup = tuple(sorted(order[list(combo)].tolist()))
        if tup in walked:
            continue
        orbit = _orbit(maps, tup)
        patterns = np.argsort(orbit, axis=1)
        sets = np.take_along_axis(orbit, patterns, axis=1)
        walked.update(map(tuple, sets.tolist()))
        if _group_of_order_at_most(G.degree, [invs[i] for i in tup], G.order).order != G.order:
            continue
        sol = find_transplantation(*systems(tup))
        if sol is None or not sol.invertible or sol.permutation_solution is not None:
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
