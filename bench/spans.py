"""Span tracing of the package from outside, and the per-layer metrics.

``install(tracer)`` wraps the public functions of every layer module, two
methods that carry hot work (``CosetTable.action_of`` and the Schreier-Sims
build inside ``PermGroup.chain``), and counts permutation products and
conjugations.  Each wrapper is bound in every module of the package that
refers to the original, so calls made through ``from ... import`` names are
traced as well.

A span is (name, start, end, parent).  Spans stay in memory until the pass
ends; ``layer_metrics`` then turns them into self times: a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from math import comb

LAYERS = ("permutations", "groups", "triples", "constructions", "transplant",
          "drums", "spectral", "catalog", "specio", "cli")

# per-layer metric -> span names whose self times it sums ("layer.*": all)
SELF_TIME = {
    "groups.coset_table_s": ("groups.left_cosets",),
    "groups.coset_action_s": ("groups.CosetTable.action_of", "groups.coset_action"),
    "groups.core_s": ("groups.core",),
    "groups.classes_s": ("groups.conjugacy_classes", "groups.cached_classes"),
    "groups.chain_s": ("groups.PermGroup.chain",),
    "groups.is_conjugate_s": ("groups.is_conjugate",),
    "triples.ac_s": ("triples.is_ac", "triples.ac_profile"),
    "triples.ec_s": ("triples.is_ec", "triples.ec_witness_element"),
    "triples.ff_s": ("triples.check_ff", "triples.ff_witness"),
    "triples.max_s": ("triples.check_max", "triples.max_witness"),
    "triples.pair_s": ("triples.check_pair", "triples.verify_automorphism"),
    "triples.inv_s": ("triples.check_inv", "triples.inv_witnesses"),
    "transplant.involutions_s": ("transplant.involutions_of",),
    "transplant.solve_s": ("transplant.find_transplantation", "transplant.intertwiner_basis"),
    "transplant.isometry_s": ("transplant.detect_isometry",),
    "constructions.build_s": ("constructions.*",),
    "drums.unfold_s": ("drums.unfold", "drums.triangles_overlap"),
    "drums.boundary_s": ("drums.boundary_polygon",),
    "drums.export_s": ("drums.export_svg", "drums.export_json"),
    "spectral.rasterize_s": ("spectral.rasterize",),
    "spectral.eigensolve_s": ("spectral.dirichlet_eigenvalues",),
    "catalog.build_s": ("catalog.*",),
    "specio.parse_s": ("specio.parse_group_spec", "specio.parse_triple_spec",
                       "specio.construction_from_stanza"),
    "cli.self_s": ("cli.*",),
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "groups.coset_action_calls": "groups.CosetTable.action_of",
    "groups.core_calls": "groups.core",
    "groups.chains_built": "groups.PermGroup.chain",
    "groups.is_conjugate_calls": "groups.is_conjugate",
    "transplant.solve_calls": "transplant.find_transplantation",
}

# counts kept by hooks on results (see _hooks) or by the permutation counters
COUNTS = ("groups.cosets_built", "groups.class_elements", "permutations.products",
          "permutations.conjugations", "transplant.scan_tuples", "transplant.pairs_found",
          "spectral.grid_nodes")

RATIOS = ("transplant.useful_ratio", "trace_overhead_ratio")

UNITS = {**{m: "s" for m in SELF_TIME}, **{m: "count" for m in (*CALLS, *COUNTS)},
         **{m: "ratio" for m in RATIOS}}


class Tracer:
    """In-memory span store plus work counters for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.notes: dict[int, int] = {}  # span index -> value kept by a hook

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.name_of[i]]] += self.end[i] - self.start[i] - covered[i]
        return {k: v / 1e9 for k, v in out.items()}

    def has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_of[p] == nid:
                return True
            p = self.parent[p]
        return False


def _span_wrapper(tracer: Tracer, name: str, fn, hook=None):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        # one span per resumption, so the consumer's work between items is not
        # charged to the generator
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                yield item
        return gen_wrapper

    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            hook(i, result, args, kwargs)
        return result
    return wrapper


def _hooks(tracer: Tracer):
    """Span name -> function of (span index, result, args, kwargs)."""
    counts = tracer.counts
    tables = {}

    def left_cosets(i, table, args, kwargs):
        if id(table) not in tables:  # a cached table was not built again
            tables[id(table)] = table
            counts["groups.cosets_built"] += len(table)

    def classes(i, result, args, kwargs):
        counts["groups.class_elements"] += len(getattr(result, "elements", None) or ())

    def involutions(i, result, args, kwargs):
        tracer.notes[i] = len(result)

    def scan(i, result, args, kwargs):
        tracer.notes[i] = args[2] if len(args) > 2 else kwargs.get("r", 3)
        counts["transplant.pairs_found"] += len(result)

    def rasterize(i, mask, args, kwargs):
        counts["spectral.grid_nodes"] += mask.occupied_count

    return {
        "groups.left_cosets": left_cosets,
        "groups.conjugacy_classes": classes,
        "transplant.involutions_of": involutions,
        "transplant.okada_shudo_scan": scan,
        "spectral.rasterize": rasterize,
    }


def install(tracer: Tracer):
    """Wrap the imported package in place.  Once per process, before any work."""
    modules = {name: sys.modules[f"isodrum.{name}"] for name in LAYERS}
    everywhere = [m for k, m in sys.modules.items() if k.split(".")[0] == "isodrum"]
    hooks = _hooks(tracer)
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = _span_wrapper(tracer, name, fn, hooks.get(name))
            for other in everywhere:
                for key, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, key, wrapped)

    groups = modules["groups"]
    groups.CosetTable.action_of = _span_wrapper(
        tracer, "groups.CosetTable.action_of", groups.CosetTable.action_of)

    # PermGroup.chain() runs on every membership test; only a call that
    # builds the chain (one Schreier-Sims run) is a span.
    plain_chain = groups.PermGroup.chain
    traced_chain = _span_wrapper(tracer, "groups.PermGroup.chain", plain_chain)

    def chain(self):
        if getattr(self, "_chain", None) is not None:
            return plain_chain(self)
        return traced_chain(self)
    groups.PermGroup.chain = chain

    perm = modules["permutations"].Permutation
    counts = tracer.counts
    mul, conj = perm.__mul__, perm.conjugate_by

    def counted_mul(self, other):
        counts["permutations.products"] += 1
        return mul(self, other)

    def counted_conj(self, g):
        counts["permutations.conjugations"] += 1
        return conj(self, g)
    perm.__mul__ = counted_mul
    perm.conjugate_by = counted_conj


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the overhead ratio, from one pass."""
    self_s = tracer.self_times()
    out = {}
    for metric, names in SELF_TIME.items():
        total = 0.0
        for pattern in names:
            if pattern.endswith(".*"):
                total += sum(v for k, v in self_s.items() if k.startswith(pattern[:-1]))
            else:
                total += self_s.get(pattern, 0.0)
        out[metric] = total
    spans = Counter(tracer.names[n] for n in tracer.name_of)
    for metric, name in CALLS.items():
        out[metric] = float(spans[name])
    for metric in COUNTS:
        out[metric] = float(tracer.counts[metric])

    scan_id, inv_id, solve_id = (tracer.ids.get(n, -2) for n in (
        "transplant.okada_shudo_scan", "transplant.involutions_of",
        "transplant.find_transplantation"))
    tuples = 0
    for i, n_inv in tracer.notes.items():
        p = tracer.parent[i]
        if tracer.name_of[i] == inv_id and p in tracer.notes and tracer.name_of[p] == scan_id:
            tuples += comb(n_inv, tracer.notes[p])  # C(|involutions|, r)
    out["transplant.scan_tuples"] = float(tuples)
    scan_solves = sum(1 for i in range(len(tracer.start))
                      if tracer.name_of[i] == solve_id and tracer.has_ancestor(i, scan_id))
    out["transplant.useful_ratio"] = (out["transplant.pairs_found"] / scan_solves
                                      if scan_solves else 0.0)
    return out
