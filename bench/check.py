"""Known-answer checks for every operation the workloads run.

Nothing here calls the package under test.  The expected verdicts come from
theory, not from the code:

* catalog -- for PSL(n, q) on points and hyperplanes, H (point stabilizer)
  and K (hyperplane stabilizer) are almost conjugate by Gassmann's
  point/hyperplane theorem, so AC and EC hold; PSL(n, q) is simple and acts
  faithfully on points and on hyperplanes, so both cores are trivial (FF);
  parabolic subgroups are maximal (MAX); the inverse-transpose map is an
  automorphism swapping H and K whose square is the identity (PAIR
  confirmed).  INV asks for three involutions whose fixed points on the m
  cosets of H sum to (3 - 2) * m + 2 = m + 2 with a tree gluing graph; the
  witness is checked below for (3,2), (3,3), (4,2) (sums 9, 15, 17).
  INV is impossible on PSL(3,4): in characteristic 2 an involution of
  SL(3,4) is I + N with N^2 = 0, so N has rank 1 and the involution is a
  transvection.  A transvection fixes exactly the q + 1 = 5 points of its
  axis line, so three involutions fix 15 points, never the 23 needed.
  ``verify`` therefore exits 0, 0, 0 and 1 on the four triples.
* wreath -- the type 1, 2 and 3 constructions keep EC, FF and MAX (the
  paper's construction theorems); type 1 over an AC base and type 2 with
  H = K are AC as well.  Orders follow from the wreath product:
  |S wr T| = |S|^n |T|.
* drums -- every transplantation T found must satisfy T M_c = N_c T exactly
  for each colour c and have det T != 0 (checked here in exact rational
  arithmetic), and no relabeling of the 7 tiles may carry one system onto
  the other (checked over all 7! relabelings).  ``scan`` finds 14 pairs on
  the compressed PSL(3,2) triple.  The ``gww`` artifacts are pinned to the
  SHA-256 hashes of the files written at the commit that defined this
  benchmark (regression pins, not theory).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction

# psl triple -> (exit code, INV fixed-point sum or None when INV is impossible)
CATALOG_EXPECT = {"32": (0, 9), "33": (0, 15), "42": (0, 17), "34": (1, None)}

# construction -> (|G|, |H| = |K|, degree)
WREATH_ORDERS = {
    "type1": (168 ** 2 * 2, 24 ** 2 * 2, 14),
    "type2": (60 ** 2 * 2, 60 * 2, 10),
    "type3": (60 ** 4 * 8, 60 ** 2 * 8, 20),
}

SCAN_PAIRS = 14
GWW_MAX_GAP = 1e-2
GWW_SHA256 = {
    "gww/gww_a.ivs": "a6f34c6163bdd43bb87c8125a21413b4060df8938e968054787a338b0d80ba28",
    "gww/gww_b.ivs": "cc0edf581f6d8d9b4db61de04625d74381c9e384a19617c03fb008a04a4267b3",
    "gww/gww_a.svg": "0deb6ee2eebd0cce26ad7537e422b4655a6c6bd1c1bf1922dd3dbf9441f85d33",
    "gww/gww_b.svg": "7df41660ad623c2189607b11d4f13d6ece23c2dbd5d2bd2c2ea31a8b19131c8f",
    "gww/gww_a.json": "d50d4476bbcbcdd2ad14c2340ad07a102971b512b40f2c7e7feeb3e438abb9f4",
    "gww/gww_b.json": "2699aaabee98711d8281ea5b2791739da9521cd1a5fb0dd7b7518e531c3fdee7",
}

_SIDE = re.compile(r"side\s+(\d+)\s*:([^;]*)")


def parse_system(text):
    """Involution system text -> list of image tuples, one per side."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    n = int(lines[0].split(":")[1])
    r = int(lines[1].split(":")[1])
    sides = [None] * r
    for ln in lines[2:]:
        m = _SIDE.match(ln)
        img = list(range(n))
        for a, b in re.findall(r"\((\d+)\s+(\d+)\)", m.group(2)):
            img[int(a) - 1], img[int(b) - 1] = int(b) - 1, int(a) - 1
        sides[int(m.group(1)) - 1] = tuple(img)
    if any(s is None for s in sides):
        raise ValueError("missing side")
    return sides


def system_problems(sides, n_tiles, fixed_sum):
    """Why the sides are not an INV witness, or [] when they are one."""
    out = []
    if len(sides) != 3 or any(len(p) != n_tiles for p in sides):
        return [f"expected 3 sides on {n_tiles} tiles"]
    if any(p[p[x]] != x for p in sides for x in range(n_tiles)):
        out.append("a side is not an involution")
    fixed = sum(p[x] == x for p in sides for x in range(n_tiles))
    if fixed != fixed_sum:
        out.append(f"fixed points sum to {fixed}, not {fixed_sum}")
    edges = sum((n_tiles - sum(p[x] == x for x in range(n_tiles))) // 2 for p in sides)
    reach, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for p in sides:
            if p[x] not in reach:
                reach.add(p[x])
                todo.append(p[x])
    if len(reach) != n_tiles or edges != n_tiles - 1:
        out.append("gluing graph is not a tree")
    return out


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n) if A[i][k]) for j in range(n)]
            for i in range(n)]


def perm_matrix(p):
    """M[i][p(i)] = 1: the matrix of one side."""
    n = len(p)
    return [[Fraction(int(p[i] == j)) for j in range(n)] for i in range(n)]


def det(A):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(row) for row in A]
    n, d = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return d


def intertwiner_problems(T, sides_a, sides_b):
    """Exact check of T M_c = N_c T for every side c, and of det T != 0."""
    out = []
    for c, (a, b) in enumerate(zip(sides_a, sides_b)):
        if matmul(T, perm_matrix(a)) != matmul(perm_matrix(b), T):
            out.append(f"T M = N T fails on side {c + 1}")
    if det(T) == 0:
        out.append("T is singular")
    return out


def permutation_intertwiner(sides_a, sides_b):
    """A relabeling pi with pi(a_c(x)) == b_c(pi(x)) for all c, x; or None."""
    n = len(sides_a[0])
    for pi in itertools.permutations(range(n)):
        if all(pi[a[x]] == b[pi[x]] for a, b in zip(sides_a, sides_b) for x in range(n)):
            return pi
    return None


def _json_report(op, problems):
    try:
        return json.loads(op["stdout"])
    except (KeyError, ValueError):
        problems.append("no JSON report")
        return {}


def check_catalog(op, files):
    nq = op["name"].split()[1]
    rc, fixed_sum = CATALOG_EXPECT[nq]
    problems = []
    if op.get("rc") != rc:
        problems.append(f"exit code {op.get('rc')}, expected {rc}")
    rep = _json_report(op, problems)
    for prop in ("ac", "ec", "ff", "max"):
        if rep.get(prop) is not True:
            problems.append(f"{prop.upper()} is {rep.get(prop)!r}, expected true")
    if rep.get("pair") != "confirmed":
        problems.append(f"PAIR is {rep.get('pair')!r}, expected confirmed")
    if "inv" in rep.get("witnesses", {}):
        problems.append("INV search hit its bound")
    if fixed_sum is None:
        if rep.get("inv") is not None:
            problems.append("INV witness reported where none can exist")
    elif not isinstance(rep.get("inv"), str):
        problems.append("no INV witness")
    else:
        problems += system_problems(parse_system(rep["inv"]), fixed_sum - 2, fixed_sum)
    return problems


_WROTE = re.compile(r"\|G\| = (\d+), \|H\| = (\d+), \|K\| = (\d+), degree (\d+)")


def check_wreath(op, files):
    kind, which = op["name"].split()
    problems = []
    if kind == "check":
        verdicts = op.get("verdicts") or {}
        for prop in ("ec", "ff", "max"):
            if verdicts.get(prop) is not True:
                problems.append(f"{prop.upper()} is {verdicts.get(prop)!r}, expected true")
        return problems
    if op.get("rc") != 0:
        problems.append(f"exit code {op.get('rc')}, expected 0")
    if kind == "construct":
        g, h, deg = WREATH_ORDERS[which]
        m = _WROTE.search(op.get("stdout", ""))
        if not m or tuple(map(int, m.groups())) != (g, h, h, deg):
            problems.append(f"orders/degree {m.groups() if m else None}, expected {(g, h, h, deg)}")
    else:
        rep = _json_report(op, problems)
        for prop in ("ac", "ec", "ff", "max"):
            if rep.get(prop) is not True:
                problems.append(f"{prop.upper()} is {rep.get(prop)!r}, expected true")
    return problems


def check_drums(op, files):
    name = op["name"]
    problems = []
    if name == "gww":
        if op.get("rc") != 0:
            problems.append(f"exit code {op.get('rc')}, expected 0")
        rep = _json_report(op, problems)
        gap = rep.get("stages", {}).get("max_relative_gap")
        if not isinstance(gap, (int, float)) or not gap <= GWW_MAX_GAP:
            problems.append(f"max relative gap {gap!r}, expected <= {GWW_MAX_GAP}")
        for path, digest in GWW_SHA256.items():
            text = files.get(path)
            if text is None or hashlib.sha256(text.encode()).hexdigest() != digest:
                problems.append(f"{path} differs from its pinned hash")
        return problems
    if name == "scan":
        if op.get("rc") != 0:
            problems.append(f"exit code {op.get('rc')}, expected 0")
        if f"found {SCAN_PAIRS} " not in op.get("stdout", ""):
            problems.append(f"scan did not report {SCAN_PAIRS} pairs")
        written = [p for p in files if p.startswith("scan/")]
        if len(written) != 2 * SCAN_PAIRS:
            problems.append(f"{len(written)} system files, expected {2 * SCAN_PAIRS}")
        return problems
    # "solve gww" or "solve pairNNN"
    stem = name.split()[1]
    prefix = "gww/gww_" if stem == "gww" else f"scan/{stem}"
    sides_a = parse_system(files[prefix + "a.ivs"])
    sides_b = parse_system(files[prefix + "b.ivs"])
    sol = op.get("solution")
    if not sol or not sol.get("invertible"):
        return ["no invertible transplantation"]
    if sol.get("permutation_solution"):
        problems.append("package reports a permutation solution")
    T = [[Fraction(x) for x in row] for row in sol["T"]]
    problems += intertwiner_problems(T, sides_a, sides_b)
    if permutation_intertwiner(sides_a, sides_b) is not None:
        problems.append("a tile relabeling carries one system onto the other")
    return problems


CHECKERS = {"catalog": check_catalog, "wreath": check_wreath, "drums": check_drums}

# operations every pass of a workload must report
EXPECTED_OPS = {
    "catalog": [f"verify {nq}" for nq in CATALOG_EXPECT],
    "wreath": ["construct type1", "verify type1", "construct type2", "verify type2",
               "construct type3", "check type3"],
    "drums": ["gww", "scan", "solve gww"] + [f"solve pair{i:03d}" for i in range(SCAN_PAIRS)],
}


class Checker:
    """Checks passes; identical outputs are checked once per run."""

    def __init__(self, workload):
        self.workload = workload
        self._memo = {}

    def check_op(self, op, files):
        if "error" in op:
            return ["raised: " + op["error"].strip().splitlines()[-1]]
        try:
            return CHECKERS[self.workload](op, files)
        except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    def check_pass(self, ops, files):
        """(attempted, list of (op name, problems) for failed operations)."""
        failures = []
        names = [op["name"] for op in ops]
        missing = [n for n in EXPECTED_OPS[self.workload] if n not in names]
        for op in ops:
            key = hashlib.sha256(json.dumps(
                [{k: v for k, v in op.items() if k != "seconds"}, files],
                sort_keys=True).encode()).hexdigest()
            if key not in self._memo:
                self._memo[key] = self.check_op(op, files)
            if self._memo[key]:
                failures.append((op["name"], self._memo[key]))
        failures += [(n, ["operation did not run"]) for n in missing]
        return len(ops) + len(missing), failures
