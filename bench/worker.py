"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py JOB.json RESULT.json

The job names the repository root, the workload, the input and output
directories, the seed and whether to trace.  The worker times the import of
``isodrum`` and ``isodrum.cli`` (one set-up sample), runs the workload's
operations one after another, and writes every operation's outputs for the
checker together with the pass's wall time, peak RSS and, when traced, the
per-layer metrics.  With ``setup_only`` it stops after the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

D4_TOP = "[(1 2), (3 4), (1 3)(2 4)]"  # T = D4 on blocks {1,2}, {3,4}


def cli_op(argv):
    """A CLI invocation in this process: exit code and standard output."""
    def run():
        from isodrum import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        return {"rc": rc, "stdout": buf.getvalue()}
    return run


def read(path):
    with open(path) as fh:
        return fh.read()


def type3_op(path):
    """EC, FF and MAX of the type-3 triple through library calls.

    ``verify`` always runs AC, which on this triple takes the pairwise
    is_conjugate path and did not finish in 10 minutes when measured.
    """
    def run():
        from isodrum import specio, triples
        t, _, _ = specio.parse_triple_spec(read(path))
        return {"verdicts": {"ec": triples.is_ec(t), "ff": triples.check_ff(t),
                             "max": triples.check_max(t)}}
    return run


def solve_op(path_a, path_b):
    """The package's exact transplantation for one pair of systems."""
    def run():
        from isodrum import transplant
        a = transplant.parse_involution_system(read(path_a))
        b = transplant.parse_involution_system(read(path_b))
        sol = transplant.find_transplantation(a, b)
        if sol is None:
            return {"solution": None}
        return {"solution": {
            "T": [[str(x) for x in row] for row in sol.T],
            "invertible": bool(sol.invertible),
            "permutation_solution": sol.permutation_solution is not None,
        }}
    return run


def operations(workload, inp, out, seed):
    """(name, callable) pairs; later ones may read files earlier ones wrote."""
    s = ["--seed", str(seed)]
    j = lambda name: os.path.join(inp, name)
    o = lambda name: os.path.join(out, name)
    if workload == "catalog":
        return [(f"verify {nq}", cli_op(s + ["verify", j(f"psl{nq}.spec"), "--json"]))
                for nq in ("32", "33", "42", "34")]
    if workload == "wreath":
        t2 = ["--top-degree", "2", "--top-gens", "[(1 2)]"]
        props = ["--props", "ac,ec,ff,max", "--json"]
        return [
            ("construct type1", cli_op(s + ["construct", "--spec", j("psl32c.spec"), "--type", "1",
                                            "--n", "2", *t2, "--out", o("w1.spec")])),
            ("verify type1", cli_op(s + ["verify", o("w1.spec"), *props])),
            ("construct type2", cli_op(s + ["construct", "--spec", j("a5sq.spec"), "--type", "2",
                                            "--n", "2", *t2, "--out", o("w2.spec")])),
            ("verify type2", cli_op(s + ["verify", o("w2.spec"), *props])),
            ("construct type3", cli_op(s + ["construct", "--spec", j("a5sq.spec"), "--type", "3",
                                            "--l", "2", "--k", "2", "--top-degree", "4",
                                            "--top-gens", D4_TOP, "--out", o("w3.spec")])),
            ("check type3", type3_op(o("w3.spec"))),
        ]
    if workload == "drums":
        return [
            ("gww", cli_op(s + ["gww", "--outdir", o("gww"), "--json"])),
            ("scan", cli_op(s + ["scan", "--spec", j("psl32c.spec"), "--nmax", "7",
                                 "--outdir", o("scan")])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def solve_operations(out):
    """One transplantation per pair the drums operations wrote."""
    pairs = [("solve gww", os.path.join(out, "gww", "gww_a.ivs"),
              os.path.join(out, "gww", "gww_b.ivs"))]
    scan_dir = os.path.join(out, "scan")
    names = sorted(os.listdir(scan_dir)) if os.path.isdir(scan_dir) else []
    for name in names:
        if name.endswith("a.ivs") and name[:-5] + "b.ivs" in names:
            pairs.append((f"solve {name[:-5]}", os.path.join(scan_dir, name),
                          os.path.join(scan_dir, name[:-5] + "b.ivs")))
    return [(n, solve_op(a, b)) for n, a, b in pairs if os.path.exists(a) and os.path.exists(b)]


def run_op(name, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:  # recorded; the checker counts the operation as failed
        result = {"error": traceback.format_exc(limit=4)}
    result["seconds"] = time.perf_counter() - t0
    result["name"] = name
    return result


def collect_files(out):
    """Files the drums operations wrote, by path relative to the pass directory."""
    files = {}
    for sub in ("gww", "scan"):
        folder = os.path.join(out, sub)
        for name in sorted(os.listdir(folder)) if os.path.isdir(folder) else ():
            files[f"{sub}/{name}"] = read(os.path.join(folder, name))
    return files


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import isodrum
    import isodrum.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(isodrum.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"isodrum imported from {isodrum.__file__}, not from {src}")
    result = {"import_s": import_s}
    if not job.get("setup_only"):
        tracer = None
        if job["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        out = job["outdir"]
        os.makedirs(out, exist_ok=True)
        ops = operations(job["workload"], job["inputs"], out, job["seed"])
        results = [run_op(name, fn) for name, fn in ops]
        if job["workload"] == "drums":
            results += [run_op(name, fn) for name, fn in solve_operations(out)]
        result.update({
            "wall_s": sum(r["seconds"] for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops": results,
            "files": collect_files(out),
            "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")
                         if m in sys.modules},
        })
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
