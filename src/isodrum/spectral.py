"""Discrete Dirichlet Laplacian spectra on rasterized domains.

The domain is sampled on the lattice h*Z^2: a node is occupied when it lies
strictly inside the boundary polygon (decided exactly with rational
arithmetic).  The operator is the standard 5-point Laplacian with zero
boundary values, scaled by 1/h^2; the k smallest eigenvalues come from a
shift-invert Lanczos iteration with a fixed starting vector, so results are
reproducible bit for bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass
class GridMask:
    """Occupied lattice nodes (i, j) meaning the point (i*h, j*h)."""

    h: Fraction
    i0: int
    j0: int
    cells: np.ndarray  # boolean, indexed [i - i0, j - j0]

    @property
    def occupied_count(self) -> int:
        return int(self.cells.sum())

    def area_estimate(self) -> float:
        return self.occupied_count * float(self.h) ** 2

    def component_count(self) -> int:
        """Connected components of the occupied set (4-neighborhood)."""
        cells = self.cells
        seen = np.zeros_like(cells)
        count = 0
        for si, sj in zip(*np.nonzero(cells)):
            if seen[si, sj]:
                continue
            count += 1
            stack = [(si, sj)]
            seen[si, sj] = True
            while stack:
                ci, cj = stack.pop()
                for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                    if (
                        0 <= ni < cells.shape[0]
                        and 0 <= nj < cells.shape[1]
                        and cells[ni, nj]
                        and not seen[ni, nj]
                    ):
                        seen[ni, nj] = True
                        stack.append((ni, nj))
        return count


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


def rasterize(poly, h) -> GridMask:
    """Mask of lattice nodes strictly inside a simple polygon."""
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


def _dirichlet_laplacian(mask: GridMask):
    """The 5-point Dirichlet Laplacian on the occupied nodes, scaled by 1/h^2.

    Node k is the k-th occupied cell in ``np.nonzero`` order.  The entries
    are listed node by node, the diagonal first and then the up, down, left
    and right neighbors that are occupied; missing neighbors contribute zero
    (the Dirichlet condition).  All nodes are handled in one batch; the
    entries come in the order a node-by-node loop emits them, so the CSR
    arrays, and with them the eigenvalues, equal the loop's bit for bit.
    """
    n = mask.occupied_count
    ci, cj = np.nonzero(mask.cells)
    idx = -np.ones((mask.cells.shape[0] + 2, mask.cells.shape[1] + 2), dtype=np.int64)
    idx[ci + 1, cj + 1] = np.arange(n)
    cols = np.stack([idx[ci + 1, cj + 1], idx[ci, cj + 1], idx[ci + 2, cj + 1],
                     idx[ci + 1, cj], idx[ci + 1, cj + 2]], axis=1)
    h2 = float(mask.h) ** 2
    vals = np.full(cols.shape, -1.0 / h2)
    vals[:, 0] = 4.0 / h2
    keep = cols >= 0
    rows = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], cols.shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))


def dirichlet_eigenvalues(mask: GridMask, k: int, seed: int = 0,
                          maxiter: int = 5000) -> SpectrumResult:
    """k smallest eigenvalues of the 5-point Dirichlet Laplacian on the mask.

    Missing neighbors contribute zero (the Dirichlet condition).  Solved in
    shift-invert mode about zero, which targets the smallest eigenvalues of
    the positive definite operator.
    """
    n = mask.occupied_count
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n} occupied nodes")
    A = _dirichlet_laplacian(mask)
    if k >= n - 1:
        vals = np.linalg.eigvalsh(A.toarray())
        eigs = vals[:k]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        eigs = spla.eigsh(A, k=k, sigma=0.0, which="LM", v0=v0,
                          maxiter=maxiter, return_eigenvectors=False)
        eigs = np.sort(eigs)
    return SpectrumResult([float(x) for x in eigs], k, mask.h)


def pairwise_relative_gaps(a: SpectrumResult, b: SpectrumResult):
    """|x - y| / max(x, y) for corresponding eigenvalues."""
    if a.k != b.k:
        raise ValueError("spectra have different lengths")
    return [abs(x - y) / max(x, y) for x, y in zip(a.eigenvalues, b.eigenvalues)]


def spectra_match(a: SpectrumResult, b: SpectrumResult, tol: float) -> bool:
    return all(g <= tol for g in pairwise_relative_gaps(a, b))
