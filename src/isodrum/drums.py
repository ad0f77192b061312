"""Planar unfolding of involution systems into tiled domains.

Tiles are placed by breadth-first reflection along the tree edges of the
gluing graph.  Side mu of a triangle is the edge opposite vertex mu.

Coordinates are exact Cartesian rationals, and the base tile must be a
half-square: squared side lengths in ratio 1:1:2.  That is the one Euclidean
reflection (Coxeter) triangle with rational vertices: the other two, with
squared sides 1:1:1 and 1:3:4, have sqrt(3) times a rational as area, and a
triangle with rational vertices has rational area.  Reflections in its sides
generate a kaleidoscopic, edge-to-edge tessellation of the plane, and every
unfolded tile is one of its cells (Coxeter, Ann. Math. 1934;
Buser-Conway-Doyle-Semmler, IMRN 1994).  Two cells either coincide or have
disjoint interiors, and two cell edges never cross properly.  So two placed
tiles overlap exactly when they have the same vertex set, and a boundary
made of tile edges cannot self-intersect; both are decided by these
identities, with no geometric search.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecFormatError
from .transplant import InvolutionSystem, is_tree


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class BaseTile:
    """A half-square with rational Cartesian coordinates, and one color per
    side."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) != 3:
            raise ValueError("a base tile has three vertices")
        if _cross(*self.vertices) == 0:
            raise ValueError("degenerate triangle")
        a, b, c = sorted((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
                         for p, q in map(self.side, range(3)))
        if not (a == b and c == 2 * a):
            raise ValueError("base tile is not a Coxeter triangle (squared sides 1:1:2)")

    def side(self, mu: int):
        """Endpoints of the side opposite vertex mu."""
        a, b = (mu + 1) % 3, (mu + 2) % 3
        return self.vertices[a], self.vertices[b]

    @staticmethod
    def half_square() -> "BaseTile":
        return BaseTile(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                         (Fraction(0), Fraction(1))))


def _reflect(points, p, q):
    """Mirror images of the points across the line through p and q."""
    d = (q[0] - p[0], q[1] - p[1])
    dd = d[0] * d[0] + d[1] * d[1]
    images = []
    for x in points:
        t = ((x[0] - p[0]) * d[0] + (x[1] - p[1]) * d[1]) / dd
        images.append((2 * (p[0] + t * d[0]) - x[0], 2 * (p[1] + t * d[1]) - x[1]))
    return tuple(images)


@dataclass
class TiledDomain:
    """Placed tiles of one unfolded billiard."""

    system: InvolutionSystem
    base: BaseTile
    tiles: list
    orientations: list
    adjacency: list
    overlap_flag: bool = False

    @property
    def n_tiles(self):
        return len(self.tiles)

    def tile_area(self):
        return _triangle_area(self.tiles[0])

    def total_area(self):
        return self.tile_area() * self.n_tiles


def _triangle_area(tri):
    return abs(_cross(*tri) * Fraction(1, 2))


def unfold(sys: InvolutionSystem, base: BaseTile) -> TiledDomain:
    """Place all tiles by reflecting along the gluing tree.

    Tile j, glued to tile i by color mu, is the mirror image of tile i across
    tile i's side mu; the shared side's endpoints are fixed by the
    reflection, so the two placed tiles share that full edge.  Every placed
    tile is a cell of the base tile's tessellation, so ``overlap_flag`` is
    set exactly when two tiles have the same vertex set.
    """
    if not is_tree(sys):
        raise ValueError("system is not a tree; unfolding undefined")
    n = sys.n_tiles
    tiles = [None] * n
    orientations = [0] * n
    tiles[0] = tuple(base.vertices)
    orientations[0] = 1
    adjacency = []
    queue = deque([0])
    placed = {0}
    while queue:
        i = queue.popleft()
        for mu, p in enumerate(sys.perms):
            j = int(p.images[i])
            if j == i or j in placed:
                continue
            a, b = (mu + 1) % 3, (mu + 2) % 3
            pa, pb = tiles[i][a], tiles[i][b]
            tiles[j] = _reflect(tiles[i], pa, pb)
            orientations[j] = -orientations[i]
            adjacency.append((i, j, mu))
            placed.add(j)
            queue.append(j)
    overlap = len({frozenset(tri) for tri in tiles}) < n
    return TiledDomain(sys, base, tiles, orientations, adjacency, overlap)


def boundary_polygon(domain: TiledDomain):
    """The closed boundary walk of a non-overlapping domain.

    Boundary edges are those lying in exactly one tile; edges shared by two
    tiles must come from a gluing.  Raises on overlaps, slits (coincident
    edges of unglued tiles) and non-manifold boundaries.  Tile edges are
    edges of one tessellation, so no two of them cross properly and the
    walk needs no crossing test.
    """
    if domain.overlap_flag:
        raise ValueError("domain has overlapping tiles; no boundary polygon")
    counts = {}
    for ti, tri in enumerate(domain.tiles):
        for mu in range(3):
            a, b = (mu + 1) % 3, (mu + 2) % 3
            key = frozenset((tri[a], tri[b]))
            counts.setdefault(key, []).append((ti, mu))
    glued = {frozenset((i, j)) for i, j, _ in domain.adjacency}
    edges = []
    for key, owners in counts.items():
        if len(owners) == 1:
            edges.append((key, owners[0]))
        elif len(owners) == 2:
            if frozenset((owners[0][0], owners[1][0])) not in glued:
                raise ValueError("coincident edges of unglued tiles (slit); non-manifold boundary")
        else:
            raise ValueError("edge shared by more than two tiles; non-manifold boundary")
    incident = {}
    for key, _ in edges:
        for pt in key:
            incident.setdefault(pt, []).append(key)
    for pt, ks in incident.items():
        if len(ks) != 2:
            raise ValueError("boundary vertex does not have exactly two boundary edges")
    start = min(incident)
    walk = [start]
    prev_edge = None
    current = start
    while True:
        options = [k for k in incident[current] if k != prev_edge]
        edge = options[0]
        nxt = next(p for p in edge if p != current)
        prev_edge = edge
        current = nxt
        if current == start:
            break
        walk.append(current)
    if len(walk) != len(edges):
        raise ValueError("boundary is not a single closed walk")
    if _polygon_signed_area(walk) < 0:
        walk.reverse()
    return walk


def _polygon_signed_area(points):
    s = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        s = s + (x1 * y2 - x2 * y1)
    return s / 2


def export_svg(domain: TiledDomain, path, boundary=None):
    """One path per tile, plus the boundary outline when one is given."""
    tiles = [[(float(x), float(y)) for x, y in tri] for tri in domain.tiles]
    xs = [x for tri in tiles for x, _ in tri]
    ys = [y for tri in tiles for _, y in tri]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    pad = 0.1 * max(maxx - minx, maxy - miny, 1.0)
    w = maxx - minx + 2 * pad
    h = maxy - miny + 2 * pad
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{minx - pad:.4f} '
        f'{-maxy - pad:.4f} {w:.4f} {h:.4f}" width="400" height="400">'
    ]
    for tri in tiles:
        p = " ".join(f"{x:.6f},{-y:.6f}" for x, y in tri)
        lines.append(f'  <polygon points="{p}" fill="#cfe2ff" stroke="#6688aa" stroke-width="0.01"/>')
    if boundary is not None:
        p = " ".join(f"{float(x):.6f},{-float(y):.6f}" for x, y in boundary)
        lines.append(f'  <polygon points="{p}" fill="none" stroke="#000000" stroke-width="0.03"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _frac_pair(x):
    f = Fraction(x)
    return [f.numerator, f.denominator]


def export_json(domain: TiledDomain, path, boundary=None):
    """Exact coordinates as numerator/denominator pairs."""
    if boundary is None and not domain.overlap_flag:
        boundary = boundary_polygon(domain)
    data = {
        "tiles": [
            {"vertices": [[_frac_pair(x), _frac_pair(y)] for x, y in tri]}
            for tri in domain.tiles
        ],
        "boundary": [[_frac_pair(x), _frac_pair(y)] for x, y in boundary]
        if boundary is not None
        else None,
        "area": _frac_pair(domain.total_area()),
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_domain_json(path):
    """Tiles and boundary polygon back from the exact JSON form.

    Files that earlier versions wrote for a tile with 60-degree angles carry a
    ``lattice`` field and coordinates in a basis that is not Cartesian; read
    as Cartesian they give a wrong domain, so any such field is refused."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        tiles = [
            tuple((Fraction(x[0], x[1]), Fraction(y[0], y[1])) for x, y in tri["vertices"])
            for tri in data["tiles"]
        ]
        boundary = None
        if data.get("boundary"):
            boundary = [
                (Fraction(x[0], x[1]), Fraction(y[0], y[1])) for x, y in data["boundary"]
            ]
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"bad domain json: {exc}") from exc
    if "lattice" in data:
        raise SpecFormatError("bad domain json: a lattice field; coordinates must be Cartesian")
    return tiles, boundary
