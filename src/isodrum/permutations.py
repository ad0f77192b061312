"""Permutations on 0-based points.

Products apply the left factor first: ``(p * q)(x) == q(p(x))``.  That one
convention is used everywhere in the package, including cycle strings
(juxtaposed cycles compose left to right) and matrix realizations.

A ``Permutation`` wraps one int32 image row.  It is the type of the
package's API; the hot group kernels (Schreier-Sims, coset
canonicalization, involution listing) work on the raw int32 rows instead
and wrap only the rows they hand out.  On rows, ``p * q`` is ``q[p]`` and
the identity test compares bytes with ``_identity_bytes``.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import SpecFormatError

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")
_ARANGES: dict = {}
_IDENTITY_BYTES: dict = {}


def _arange(n: int) -> np.ndarray:
    """The identity row of degree n: one cached read-only array per degree."""
    row = _ARANGES.get(n)
    if row is None:
        row = np.arange(n, dtype=np.int32)
        row.flags.writeable = False
        _ARANGES[n] = row
    return row


def _identity_bytes(n: int) -> bytes:
    """The bytes of the int32 identity row of degree n, cached per degree.

    A row of native int32 images is the identity exactly when its
    ``tobytes()`` equals these bytes, a test far cheaper than an
    elementwise comparison on the short rows of the group kernels.
    """
    data = _IDENTITY_BYTES.get(n)
    if data is None:
        data = _IDENTITY_BYTES[n] = _arange(n).tobytes()
    return data


class Permutation:
    """An element of a symmetric group, stored as its image array.

    The sort key (big-endian image bytes) and the hash are computed when
    first needed, not on construction, so the many intermediate products of
    Schreier-Sims and of coset canonicalization never pay for them.  The
    image array is read-only, so a cached key never goes stale.
    """

    __slots__ = ("images", "_key", "_hash")

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1:
            raise ValueError("images must be one-dimensional")
        n = arr.shape[0]
        seen = np.zeros(n, dtype=bool)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("image out of range")
        seen[arr] = True
        if not seen.all():
            raise ValueError("images do not form a bijection")
        arr.flags.writeable = False
        self.images = arr
        self._key = None
        self._hash = None

    @staticmethod
    def _wrap(arr: np.ndarray) -> "Permutation":
        # internal fast path: arr is already a valid permutation array
        p = Permutation.__new__(Permutation)
        arr = arr.astype(np.int32, copy=False)
        arr.flags.writeable = False
        p.images = arr
        p._key = None
        p._hash = None
        return p

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation._wrap(np.arange(degree, dtype=np.int32))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        """Product of the given cycles (left to right) on 0-based points."""
        img = np.arange(degree, dtype=np.int32)
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {cyc}")
            step = np.arange(degree, dtype=np.int32)
            for a, b in zip(cyc, cyc[1:]):
                step[a] = b
            if cyc:
                step[cyc[-1]] = cyc[0]
            img = step[img]
        return Permutation._wrap(img)

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.images.shape[0] != other.images.shape[0]:
            raise ValueError("degree mismatch")
        return Permutation._wrap(other.images[self.images])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation._wrap(inv)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        ginv = np.empty_like(g.images)
        ginv[g.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation._wrap(g.images[self.images[ginv]])

    def is_identity(self) -> bool:
        return self.images.tobytes() == _identity_bytes(self.images.shape[0])

    def moved_points(self):
        return [int(x) for x in np.nonzero(self.images != _arange(self.images.shape[0]))[0]]

    def fixed_point_count(self) -> int:
        return int((self.images == _arange(self.images.shape[0])).sum())

    def cycles(self, include_fixed=False):
        """Disjoint cycle decomposition, each cycle led by its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = int(self.images[i])
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = int(self.images[j])
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def key(self) -> bytes:
        """Big-endian image bytes: byte order equals image-tuple lexicographic order."""
        key = self._key
        if key is None:
            key = self._key = self.images.astype(">i4").tobytes()
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.key() == other.key()

    def __lt__(self, other: "Permutation") -> bool:
        return self.key() < other.key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key())
        return h

    def __repr__(self) -> str:
        return f"Permutation({list(int(x) for x in self.images)})"

    def __str__(self) -> str:
        return format_cycles(self)


def parse_cycles(text: str, degree: int, one_based: bool = False) -> Permutation:
    """Parse cycle notation like ``(1 2)(3 4)``.

    Cycles hold whitespace- or comma-separated integers; juxtaposed cycles
    compose left to right.  An empty string or ``()`` is the identity.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return Permutation.identity(degree)
    cycles = []
    pos = 0
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise SpecFormatError(f"unparsed text in permutation: {text!r}")
        pos = m.end()
        body = m.group(1).strip()
        if not body:
            continue
        pts = [int(tok) for tok in re.split(r"[\s,]+", body)]
        if one_based:
            if any(p < 1 for p in pts):
                raise SpecFormatError(f"1-based cycle contains 0 or less: {text!r}")
            pts = [p - 1 for p in pts]
        if any(p < 0 or p >= degree for p in pts):
            raise SpecFormatError(f"point out of range 0..{degree - 1}: {text!r}")
        cycles.append(pts)
    if pos != len(stripped) and stripped[pos:].strip():
        raise SpecFormatError(f"unparsed text in permutation: {text!r}")
    try:
        return Permutation.from_cycles(cycles, degree)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def format_cycles(p: Permutation, one_based: bool = False) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    shift = 1 if one_based else 0
    return "".join("(" + " ".join(str(x + shift) for x in c) + ")" for c in cycles)
