"""Flagship triples from projective geometry over tiny fields.

The special linear group acts on the points and hyperplanes of the
associated projective space; point and hyperplane stabilizers form the
classical triples.  Supported field sizes are 2, 3 and 4 (the Galois field
of order 4 is realized as binary polynomials modulo x^2 + x + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import PermGroup
from .permutations import Permutation
from .triples import Triple

SUPPORTED = ((3, 2), (3, 3), (4, 2), (3, 4))


class _Field:
    """Arithmetic tables for GF(q), q in {2, 3, 4}."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        if q in (2, 3):
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
            self.neg = [(-a) % q for a in range(q)]
        else:
            # elements 0, 1, x, x+1 encoded 0..3; xor addition, x^2 = x + 1
            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            mul = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    mul[a][b] = self._poly_mul(a, b)
            self.mul = mul
            self.neg = [0, 1, 2, 3]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break

    @staticmethod
    def _poly_mul(a: int, b: int) -> int:
        out = 0
        if b & 1:
            out ^= a
        if b & 2:
            out ^= a << 1
        if out & 4:  # x^2 = x + 1
            out ^= 4 ^ 3
        return out & 3


def _dot(F: _Field, u, v):
    s = 0
    for a, b in zip(u, v):
        s = F.add[s][F.mul[a][b]]
    return s


def _mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_transpose(A):
    n = len(A)
    return tuple(tuple(A[j][i] for j in range(n)) for i in range(n))


def _mat_inverse(F: _Field, A):
    n = len(A)
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        s = F.inv[m[col][col]]
        m[col] = [F.mul[s][x] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [F.add[x][F.neg[F.mul[f][y]]] for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def _normalize(F: _Field, v):
    """Scale so the first nonzero coordinate is 1; canonical projective rep."""
    for a in v:
        if a != 0:
            s = F.inv[a]
            return tuple(F.mul[s][x] for x in v)
    raise ValueError("zero vector has no projective representative")


@dataclass
class ProjectiveSpace:
    """Points and hyperplanes of PG(n-1, q) with their incidence."""

    n: int
    q: int
    field: _Field
    points: list
    hyperplanes: list
    point_index: dict
    hyperplane_index: dict

    @staticmethod
    def create(n: int, q: int) -> "ProjectiveSpace":
        if n < 2:
            raise ValueError(f"unsupported dimension {n}")
        F = _Field(q)
        vectors = set()
        def rec(prefix):
            if len(prefix) == n:
                if any(prefix):
                    vectors.add(_normalize(F, tuple(prefix)))
                return
            for a in range(q):
                rec(prefix + [a])
        rec([])
        pts = sorted(vectors)
        return ProjectiveSpace(
            n=n, q=q, field=F,
            points=pts, hyperplanes=list(pts),
            point_index={p: i for i, p in enumerate(pts)},
            hyperplane_index={p: i for i, p in enumerate(pts)},
        )

    @property
    def point_count(self):
        return len(self.points)

    def incident(self, point_idx: int, hyperplane_idx: int) -> bool:
        return _dot(self.field, self.points[point_idx], self.hyperplanes[hyperplane_idx]) == 0

    def realize(self, matrix) -> Permutation:
        """Permutation of points then hyperplanes induced by a matrix.

        Points transform as row vectors (p -> p*A); hyperplanes by the
        inverse on the dual side, preserving incidence.  Point i maps within
        0..m-1 and hyperplane j within m..2m-1.
        """
        F = self.field
        m = self.point_count
        inv = _mat_inverse(F, matrix)
        images = [0] * (2 * m)
        n = self.n
        for i, p in enumerate(self.points):
            img = tuple(_dot(F, p, [matrix[k][j] for k in range(n)]) for j in range(n))
            images[i] = self.point_index[_normalize(F, img)]
        for i, h in enumerate(self.hyperplanes):
            img = tuple(_dot(F, [inv[j][k] for k in range(n)], h) for j in range(n))
            images[m + i] = m + self.hyperplane_index[_normalize(F, img)]
        return Permutation(images)


def _sl_generators(n: int, q: int):
    """Transvections (one per scalar, so subfields cannot absorb them) and a
    signed basis cycle; together they generate SL_n(q)."""
    F = _Field(q)
    mats = []
    for lam in range(1, q):
        t = [list(row) for row in _mat_identity(n)]
        t[0][1] = lam
        mats.append(tuple(tuple(r) for r in t))
    c = [[0] * n for _ in range(n)]
    sign = 1 if n % 2 == 1 else F.neg[1]
    for i in range(n - 1):
        c[i][i + 1] = 1
    c[n - 1][0] = sign
    mats.append(tuple(tuple(r) for r in c))
    return mats


def sl_order(n: int, q: int) -> int:
    order = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= q**i - 1
    return order


def psl_order(n: int, q: int) -> int:
    from math import gcd

    return sl_order(n, q) // gcd(n, q - 1)


def psl_group(n: int, q: int):
    """The image of SL_n(q) on points + hyperplanes, with its space."""
    space = ProjectiveSpace.create(n, q)
    gens = [space.realize(m) for m in _sl_generators(n, q)]
    G = PermGroup(2 * space.point_count, gens)
    return G, space


def psl_triple(n: int, q: int) -> Triple:
    """(image of SL_n(q), point stabilizer, hyperplane stabilizer)."""
    G, space = psl_group(n, q)
    m = space.point_count
    H = G.stabilizer(0)
    K = G.stabilizer(m)
    return Triple(G, H, K, label=f"psl({n},{q}) point-hyperplane")


def duality_automorphism(n: int, q: int):
    """Generator images of the inverse-transpose map on the realized group.

    Swaps the point and hyperplane orbits; squares to the identity map, so
    its square is inner trivially.
    """
    space = ProjectiveSpace.create(n, q)
    F = space.field
    return [space.realize(_mat_inverse(F, _mat_transpose(m))) for m in _sl_generators(n, q)]
