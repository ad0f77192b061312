"""Self-test of the benchmark's own code.

    python3 bench/selftest.py

Runs one real pass of the catalog and drums workloads (about 15 s), checks
that they pass, then feeds the checker corrupted copies: a wrong verdict, a
wrong exit code, a transposed intertwiner and a changed artifact byte must
each count as a failed operation.  Also checks the self-time arithmetic on
a synthetic nested trace, the psl(3,4) INV impossibility argument by brute
force, and the seeded relabeling.  Exits 1 if anything is off.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time
from pathlib import Path

import check
import inputs
import spans
from run import Runner

RESULTS = []


def expect(name, ok):
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def failed_count(workload, res):
    return len(check.Checker(workload).check_pass(res["ops"], res["files"])[1])


def op(res, name):
    return next(o for o in res["ops"] if o["name"] == name)


def test_self_time():
    tr = spans.Tracer()
    nid = {n: tr.name_id(n) for n in ("cli.main", "groups.core", "groups.left_cosets",
                                       "triples.is_ac")}
    # main [0, 100] > core [10, 40] > left_cosets [15, 25]; main > is_ac [50, 90]
    layout = [("cli.main", 0, 100), ("groups.core", 10, 40),
              ("groups.left_cosets", 15, 25), ("triples.is_ac", 50, 90)]
    idx = {}
    for name, _, _ in layout[:3]:
        idx[name] = tr.open(nid[name])
    for name in ("groups.left_cosets", "groups.core"):
        tr.close(idx[name])
    idx["triples.is_ac"] = tr.open(nid["triples.is_ac"])
    tr.close(idx["triples.is_ac"])
    tr.close(idx["cli.main"])
    for name, s, e in layout:
        tr.start[idx[name]], tr.end[idx[name]] = s * 10**9, e * 10**9
    got = tr.self_times()
    want = {"cli.main": 30, "groups.core": 20, "groups.left_cosets": 10, "triples.is_ac": 40}
    expect("self time = duration minus child spans", got == want)
    m = spans.layer_metrics(tr)
    expect("span names map to layer metrics",
           (m["groups.core_s"], m["groups.coset_table_s"], m["triples.ac_s"], m["cli.self_s"])
           == (20, 10, 40, 30))

    def gen(n):
        for i in range(n):
            time.sleep(0.01)
            yield i
    tr = spans.Tracer()
    wrapped = spans._span_wrapper(tr, "triples.inv_witnesses", gen)
    outer = tr.open(tr.name_id("cli.main"))
    for _ in wrapped(3):
        time.sleep(0.02)  # consumer work, not the generator's
    tr.close(outer)
    st = tr.self_times()
    expect("a generator is charged only while it runs",
           0.03 <= st["triples.inv_witnesses"] < 0.05 and st["cli.main"] >= 0.06)


def test_psl34_inv_impossible():
    degree, gens, _, _, _ = inputs.psl_spec(3, 4, points_only=True)
    elems = inputs.closure(gens, degree)
    fixes = {sum(g[x] == x for x in range(degree)) for g in elems
             if g != tuple(range(degree)) and inputs.mul(g, g) == tuple(range(degree))}
    expect(f"every involution of psl(3,4) fixes 5 of 21 points (seen {sorted(fixes)})",
           fixes == {5} and 3 * 5 != 21 + 2)


def test_relabeling():
    specs = inputs.base_specs()
    a, b, c = (inputs.make_inputs(specs, s) for s in (1, 1, 2))
    expect("same seed gives the same inputs", a == b)
    expect("another seed gives other inputs", a != c)
    ok = True
    for seed in range(20):
        text = inputs.make_inputs(specs, seed)["a5sq.spec"]
        for line in text.splitlines()[2:]:
            for cyc in line.split(":", 1)[1].strip()[1:-1].split(", "):
                p = inputs.parse_cycles(cyc, 10)
                ok &= all(p[x] // 5 == p[x - x % 5] // 5 for x in range(10))
    expect("A5^2 relabelings keep the blocks {1..5}, {6..10}", ok)
    for name, text in c.items():
        deg = int(text.splitlines()[1].split(":")[1])
        gens = [inputs.parse_cycles(s, deg) for s in
                text.splitlines()[2].split(":", 1)[1].strip()[1:-1].split(", ")]
        if name in ("psl32.spec", "psl32c.spec", "a5sq.spec"):
            order = {"psl32.spec": 168, "psl32c.spec": 168, "a5sq.spec": 3600}[name]
            expect(f"{name}: relabeled generators span order {order}",
                   len(inputs.closure(gens, deg)) == order)


def test_negative_controls(root: Path):
    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        for name, text in inputs.make_inputs(inputs.base_specs(), 1).items():
            (work / "inputs" / name).write_text(text)
        runs = {}
        for workload in ("catalog", "drums"):
            runner = Runner(root, work, workload, 1, time.monotonic() + 170)
            runs[workload] = runner.spawn()
            expect(f"{workload}: a real pass has no failed operation",
                   failed_count(workload, runs[workload]) == 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    cat = runs["catalog"]
    bad = copy.deepcopy(cat)
    rep = json.loads(op(bad, "verify 33")["stdout"])
    rep["max"] = False
    op(bad, "verify 33")["stdout"] = json.dumps(rep)
    expect("a wrong verdict counts as failed", failed_count("catalog", bad) == 1)
    bad = copy.deepcopy(cat)
    op(bad, "verify 34")["rc"] = 0
    expect("a wrong exit code counts as failed", failed_count("catalog", bad) == 1)

    drums = runs["drums"]
    bad = copy.deepcopy(drums)
    sol = op(bad, "solve gww")["solution"]
    sol["T"] = [list(row) for row in zip(*sol["T"])]
    expect("a transposed intertwiner counts as failed", failed_count("drums", bad) == 1)
    bad = copy.deepcopy(drums)
    svg = bad["files"]["gww/gww_a.svg"]
    bad["files"]["gww/gww_a.svg"] = svg[:100] + ("0" if svg[100] != "0" else "1") + svg[101:]
    expect("a changed artifact byte counts as failed", failed_count("drums", bad) >= 1)

    a = check.parse_system(drums["files"]["gww/gww_a.ivs"])
    pi = (3, 0, 6, 1, 5, 2, 4)
    a_relabeled = [tuple(pi[p[inputs.inverse(pi)[x]]] for x in range(7)) for p in a]
    expect("the 7! search finds a relabeling of an isometric copy",
           check.permutation_intertwiner(a, a_relabeled) is not None)

    wrong = [{"name": "check type3", "verdicts": {"ec": True, "ff": True, "max": False}},
             {"name": "construct type3", "rc": 0,
              "stdout": "wrote w3.spec (|G| = 1, |H| = 1, |K| = 1, degree 20)\n"}]
    checker = check.Checker("wreath")
    expect("wrong wreath verdicts and orders count as failed",
           all(checker.check_op(o, {}) for o in wrong))


def main():
    root = Path(__file__).resolve().parent.parent
    test_self_time()
    test_psl34_inv_impossible()
    test_relabeling()
    test_negative_controls(root)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
