"""Discrete Dirichlet Laplacian spectra on rasterized domains.

Coordinates are Cartesian rationals.  The domain is sampled on the grid
h*Z^2: a node is occupied when it lies strictly inside the boundary polygon,
decided exactly, in integer arithmetic on coordinates scaled to a common
denominator.  The operator is the 5-point Laplacian with zero boundary
values: 4/h^2 on the diagonal and -1/h^2 for each of the four axis
neighbors.  The k smallest eigenvalues come from a shift-invert Lanczos
iteration with a fixed starting vector, so results are reproducible bit for
bit across runs.  The inverse is one sparse LU factorization with a
symmetric minimum-degree ordering and no pivoting, which the operator, a
positive definite M-matrix, permits.  scipy, needed only for the
factorization and the Lanczos iteration, is imported on first use, so
importing this module (and the package) loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

LANCZOS_MAXITER = 5000  # Arnoldi update iterations allowed to eigsh
STENCIL = ((-1, 0), (0, -1), (0, 1), (1, 0))  # the 5-point Laplacian's neighbor steps


@dataclass
class GridMask:
    """Occupied grid nodes (i, j), meaning the point (i*h, j*h)."""

    h: Fraction
    i0: int
    j0: int
    cells: np.ndarray  # boolean, indexed [i - i0, j - j0]

    @property
    def occupied_count(self) -> int:
        return int(self.cells.sum())


@dataclass
class SpectrumResult:
    """The k smallest Dirichlet eigenvalues, ascending, scaled by 1/h^2."""

    eigenvalues: list
    k: int
    h: Fraction

    def __post_init__(self):
        vals = list(self.eigenvalues)
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be ascending")
        if vals and vals[0] <= 0:
            raise ValueError("Dirichlet eigenvalues must be positive")


def rasterize(poly, h) -> GridMask:
    """Mask of the nodes of the grid h*Z^2 strictly inside a simple polygon.

    Exact, in integers.  Every vertex coordinate is divided by h and scaled
    by the lcm L of the resulting denominators, so the vertices become
    integer points (X, Y) and node (i, j) becomes (i*L, j*L).  Row j meets the non-horizontal edges at crossings
    X = num/den, counted by the half-open rule (an edge owns its low
    endpoint, not its high one); the interior runs between consecutive
    crossing pairs are the i with a < i*L < b, found by floor division and
    filled by one slice each.  Nodes on a horizontal edge that runs along
    the row are boundary, never interior, and are cleared afterwards.
    """
    h = Fraction(h)
    if h <= 0:
        raise ValueError("spacing must be positive")
    if len(poly) < 3:
        raise ValueError("degenerate polygon")
    scaled = [Fraction(c) / h for p in poly for c in p]
    L = math.lcm(*(c.denominator for c in scaled))
    ints = [c.numerator * (L // c.denominator) for c in scaled]
    xs, ys = ints[0::2], ints[1::2]
    pts = list(zip(xs, ys))
    i_min, i_max = -(-min(xs) // L) - 1, max(xs) // L + 1
    j_min, j_max = -(-min(ys) // L) - 1, max(ys) // L + 1
    cells = np.zeros((i_max - i_min + 1, j_max - j_min + 1), dtype=bool)
    slanted = []  # (y_lo, y_hi, x1, y1, x2 - x1, y2 - y1)
    flat = {}  # row Y -> [(x_lo, x_hi)] of the horizontal edges on it
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        if y1 == y2:
            flat.setdefault(y1, []).append((min(x1, x2), max(x1, x2)))
        else:
            slanted.append((min(y1, y2), max(y1, y2), x1, y1, x2 - x1, y2 - y1))
    by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    for j in range(min(ys) // L + 1, -(-max(ys) // L)):  # min(ys) < j*L < max(ys)
        y = j * L
        crossings = []
        for y_lo, y_hi, x1, y1, dx, dy in slanted:
            if y_lo <= y < y_hi:
                num = x1 * dy + (y - y1) * dx
                crossings.append((num, dy) if dy > 0 else (-num, -dy))
        crossings.sort(key=by_value)
        col = j - j_min
        for (a, da), (b, db) in zip(crossings[0::2], crossings[1::2]):
            i_lo = a // (da * L) + 1  # least i with i*L > a/da
            i_hi = -(-b // (db * L)) - 1  # greatest i with i*L < b/db
            cells[i_lo - i_min:i_hi - i_min + 1, col] = True  # empty if i_lo > i_hi
        for x_lo, x_hi in flat.get(y, ()):
            cells[-(-x_lo // L) - i_min:x_hi // L - i_min + 1, col] = False
    return GridMask(h, i_min, j_min, cells)


def _dirichlet_laplacian(mask: GridMask):
    """The 5-point Dirichlet Laplacian on the occupied nodes: 4/h^2 on the
    diagonal and -1/h^2 for each of the four stencil neighbors.

    Node k is the k-th occupied cell in ``np.nonzero`` order.  The entries
    are listed node by node, the diagonal first and then the stencil
    neighbors that are occupied; missing neighbors contribute zero (the
    Dirichlet condition).  All nodes are handled in one batch; the entries
    are those a node-by-node loop emits, so the CSR arrays, and with them
    the eigenvalues, equal the loop's bit for bit.
    """
    import scipy.sparse as sp

    n = mask.occupied_count
    ci, cj = np.nonzero(mask.cells)
    idx = -np.ones((mask.cells.shape[0] + 2, mask.cells.shape[1] + 2), dtype=np.int64)
    idx[ci + 1, cj + 1] = np.arange(n)
    cols = np.stack([idx[ci + 1, cj + 1]] + [idx[ci + 1 + di, cj + 1 + dj] for di, dj in STENCIL],
                    axis=1)
    h2 = float(mask.h) ** 2
    vals = np.full(cols.shape, -1.0 / h2)
    vals[:, 0] = 4.0 / h2
    keep = cols >= 0
    rows = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], cols.shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))


def dirichlet_eigenvalues(mask: GridMask, k: int, seed: int = 0) -> SpectrumResult:
    """k smallest eigenvalues of the mask's 5-point Dirichlet Laplacian.

    Missing neighbors contribute zero (the Dirichlet condition).  Solved in
    shift-invert mode about zero, which targets the smallest eigenvalues of
    the positive definite operator.  The operator is factored once by
    SuperLU: a minimum-degree ordering of A^T + A applied symmetrically
    (``SymmetricMode``), with diagonal pivots always taken
    (``diag_pivot_thresh=0``).  That is safe here: the Laplacian is a
    symmetric M-matrix whose off-diagonal weights sum to the diagonal, so it
    is diagonally dominant and strictly so at a boundary node of every
    connected component, hence positive definite, and Gaussian elimination
    on a symmetrically permuted positive definite matrix meets only positive
    pivots, so no row exchange is needed.  The factor's solve is Lanczos's
    inverse operator.  scipy is imported here, on first use, so the exact
    pipeline never loads it.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    n = mask.occupied_count
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n} occupied nodes")
    A = _dirichlet_laplacian(mask)
    if k >= n - 1:
        vals = np.linalg.eigvalsh(A.toarray())
        eigs = vals[:k]
    else:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        inverse = LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        eigs = eigsh(A, k=k, sigma=0.0, which="LM", v0=v0, maxiter=LANCZOS_MAXITER,
                     OPinv=inverse, return_eigenvectors=False)
        eigs = np.sort(eigs)
    return SpectrumResult([float(x) for x in eigs], k, mask.h)


def pairwise_relative_gaps(a: SpectrumResult, b: SpectrumResult):
    """|x - y| / max(x, y) for corresponding eigenvalues."""
    if a.k != b.k:
        raise ValueError("spectra have different lengths")
    return [abs(x - y) / max(x, y) for x, y in zip(a.eigenvalues, b.eigenvalues)]

