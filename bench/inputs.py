"""Seeded input generator for the benchmark.

Builds every input spec with the benchmark's own arithmetic, independent of
the package under test:

* the point/hyperplane triples of PSL(n, q) for the four catalog cases, with
  the inverse-transpose automorphism as the ``pair:`` candidate;
* the same triple for (3, 2) on the 7 points alone (the compressed base of
  the type-1 wreath and of the census scan);
* (A5 x A5, diagonal, diagonal), the base of the type-2 and type-3 wreaths.

A seed relabels the points of each spec by a seeded permutation.  The A5^2
relabeling applies one permutation of 5 points inside every block and may
swap the blocks, so the blocks {1..5}, {6..10} that types 2 and 3 require
survive.  Every verdict the checker expects is invariant under relabeling.

Permutations are tuples of images on 0..n-1; products apply the left factor
first, as in the package.
"""

from __future__ import annotations

import random
from math import gcd

CATALOG = ((3, 2), (3, 3), (4, 2), (3, 4))
A5_GENS = ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0))  # (1 2 3), (1 2 3 4 5)


def mul(p, q):
    """p then q."""
    return tuple(q[x] for x in p)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def closure(gens, degree):
    """All elements of the group the generators span (breadth first)."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = mul(w, g)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen


def some_generators(elements, degree):
    """A few elements drawn in a fixed pseudo-random order that generate the
    whole group (usually two)."""
    pool = sorted(elements)
    rng = random.Random(0)
    gens, span = [], {tuple(range(degree))}
    while len(span) < len(pool):
        g = rng.choice(pool)
        if g not in span:
            gens.append(g)
            span = closure(gens, degree)
    return gens


def format_cycles(p):
    """1-based cycle notation; the identity is '()'."""
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = p[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def parse_cycles(text, degree):
    """Inverse of format_cycles for one permutation."""
    img = list(range(degree))
    for body in text.replace(")", " ").split("(")[1:]:
        cyc = [int(x) - 1 for x in body.split()]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img)


def perm_list(perms):
    return "[" + ", ".join(format_cycles(p) for p in perms) + "]"


# --- GF(q) and projective spaces ------------------------------------------


class Field:
    """GF(q) for q in {2, 3, 4}; GF(4) elements 0, 1, x, x+1 coded 0..3."""

    def __init__(self, q):
        self.q = q
        if q == 4:
            def pmul(a, b):
                r = (a if b & 1 else 0) ^ ((a << 1) if b & 2 else 0)
                return r ^ 7 if r & 4 else r  # x^2 = x + 1
            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            self.mul = [[pmul(a, b) for b in range(4)] for a in range(4)]
        else:
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]

    def dot(self, u, v):
        s = 0
        for a, b in zip(u, v):
            s = self.add[s][self.mul[a][b]]
        return s

    def normalize(self, v):
        lead = next(a for a in v if a)
        s = self.inv[lead]
        return tuple(self.mul[s][a] for a in v)

    def mat_inverse(self, A):
        n = len(A)
        m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
        for c in range(n):
            piv = next(r for r in range(c, n) if m[r][c])
            m[c], m[piv] = m[piv], m[c]
            s = self.inv[m[c][c]]
            m[c] = [self.mul[s][x] for x in m[c]]
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [self.add[x][self.neg[self.mul[f][y]]] for x, y in zip(m[r], m[c])]
        return [row[n:] for row in m]


def projective_points(F, n):
    vecs = set()
    for code in range(1, F.q ** n):
        v = tuple(code // F.q ** i % F.q for i in range(n))
        vecs.add(F.normalize(v))
    return sorted(vecs)


def sl_generators(F, n):
    """One transvection per nonzero scalar and a signed basis cycle."""
    mats = []
    for lam in range(1, F.q):
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        t[0][1] = lam
        mats.append(t)
    c = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = 1
    c[n - 1][0] = 1 if n % 2 else F.neg[1]
    mats.append(c)
    return mats


def realize(F, pts, A):
    """Points p -> pA then hyperplanes h -> A^-1 h, on 2m points."""
    n, m = len(A), len(pts)
    index = {p: i for i, p in enumerate(pts)}
    Ainv = F.mat_inverse(A)
    cols = [[A[k][j] for k in range(n)] for j in range(n)]
    img = [index[F.normalize(tuple(F.dot(p, c) for c in cols))] for p in pts]
    img += [m + index[F.normalize(tuple(F.dot(row, h) for row in Ainv))] for h in pts]
    return tuple(img)


def psl_order(n, q):
    order = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= q ** i - 1
    return order // gcd(n, q - 1)


def psl_spec(n, q, points_only=False):
    """(degree, G gens, H gens, K gens, pair images) for PSL(n, q).

    H fixes the first point, K the first hyperplane; the pair images are the
    generators' inverse transposes.  With ``points_only`` everything is
    restricted to the m points, which is the coset action on H.
    """
    F = Field(q)
    pts = projective_points(F, n)
    m = len(pts)
    mats = sl_generators(F, n)
    gens = [realize(F, pts, A) for A in mats]
    pair = [realize(F, pts, [list(r) for r in zip(*F.mat_inverse(A))]) for A in mats]
    elements = closure(gens, 2 * m)
    if len(elements) != psl_order(n, q):
        raise RuntimeError(f"generators of PSL({n},{q}) span {len(elements)} elements")
    H = some_generators({g for g in elements if g[0] == 0}, 2 * m)
    K = some_generators({g for g in elements if g[m] == m}, 2 * m)
    if not points_only:
        return 2 * m, gens, H, K, pair
    cut = lambda ps: [p[:m] for p in ps]
    return m, cut(gens), cut(H), cut(K), cut(pair)


def a5_squared_spec():
    """(A5 x A5, diagonal, diagonal) on the blocks {0..4}, {5..9}."""
    shift = lambda g, b: tuple(range(5 * b)) + tuple(5 * b + x for x in g) + tuple(range(5 * b + 5, 10))
    gens = [shift(g, b) for b in range(2) for g in A5_GENS]
    diag = [tuple(g) + tuple(5 + x for x in g) for g in A5_GENS]
    return 10, gens, diag, list(diag), None


# --- relabeling and spec text ---------------------------------------------


def relabel(p, pi):
    """Conjugate p by the renaming x -> pi[x]."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[pi[x]] = pi[y]
    return tuple(out)


def block_relabeling(rng, block, blocks):
    """One permutation inside every block, then a permutation of blocks."""
    inner = list(range(block))
    rng.shuffle(inner)
    outer = list(range(blocks))
    rng.shuffle(outer)
    return tuple(outer[x // block] * block + inner[x % block] for x in range(block * blocks))


def spec_text(label, spec, pi):
    degree, gens, H, K, pair = spec
    r = lambda ps: perm_list([relabel(p, pi) for p in ps])
    lines = [f"label: {label}", f"degree: {degree}", f"generators: {r(gens)}",
             f"H: {r(H)}", f"K: {r(K)}"]
    if pair is not None:
        lines.append(f"pair: {r(pair)}")
    return "\n".join(lines) + "\n"


def base_specs():
    """Seed-free specs, keyed by input file name (computed once per run)."""
    specs = {f"psl{n}{q}.spec": (f"psl({n},{q}) point-hyperplane", psl_spec(n, q))
             for n, q in CATALOG}
    specs["psl32c.spec"] = ("psl(3,2) on points", psl_spec(3, 2, points_only=True))
    specs["a5sq.spec"] = ("a5 squared diagonal", a5_squared_spec())
    return specs


def make_inputs(specs, seed):
    """File name -> spec text, relabeled by permutations drawn from ``seed``
    (an int or a string)."""
    out = {}
    for name, (label, spec) in sorted(specs.items()):
        rng = random.Random(f"{seed}:{name}")
        if name == "a5sq.spec":
            pi = block_relabeling(rng, 5, 2)
        else:
            pi = list(range(spec[0]))
            rng.shuffle(pi)
        out[name] = spec_text(label, spec, pi)
    return out
