"""isodrum benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload catalog|wreath|drums --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/isodrum``).  The
seed relabels every input spec (see inputs.py), afresh for each pass, and is
passed to ``--seed``.
Each pass of a workload runs in a fresh interpreter (worker.py), one
operation after another: a closed loop with one client.  Passes repeat until
the measuring time is used up; every operation's output is checked against
the known answers in check.py.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over the run:

* ``wall_s``      -- time to finish every operation of one pass, after import;
* ``setup_s``     -- time for a fresh interpreter to import isodrum and
                     isodrum.cli (the cost every CLI invocation pays);
* ``peak_rss_mb`` -- peak resident memory of the pass's process.

With ``--trace 1`` passes alternate untraced and traced; the metrics are the
per-layer ones from the traced passes (spans.py) plus
``trace_overhead_ratio``, traced over untraced ``wall_s``.  The lines before
the JSON give the environment, ``failed_ratio`` and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs
import spans

WORKLOADS = ("catalog", "wreath", "drums")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Spawns the worker processes of one run, one at a time."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, deadline: float):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.deadline = deadline
        self.count = 0

    def spawn(self, trace=False, setup_only=False) -> dict:
        self.count += 1
        job = {"root": str(self.root), "workload": self.workload, "seed": self.seed,
               "inputs": str(self.work / "inputs"), "outdir": str(self.work / f"pass{self.count}"),
               "trace": trace, "setup_only": setup_only}
        job_path = self.work / f"job{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        job_path.write_text(json.dumps(job))
        timeout = max(5.0, self.deadline - time.monotonic())
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               str(job_path), str(result_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(job["outdir"], ignore_errors=True)
        return result


def measure(args, root: Path, work: Path) -> int:
    start = time.monotonic()
    runner = Runner(root, work, args.workload, args.seed, start + RUN_LIMIT_S)
    (work / "inputs").mkdir(parents=True)
    specs = inputs.base_specs()

    runner.spawn(setup_only=True)  # warm the bytecode cache; not a sample
    setup = [runner.spawn(setup_only=True)["import_s"] for _ in range(SETUP_SAMPLES)]

    checker = check.Checker(args.workload)
    attempted, failures = 0, []
    walls = {False: [], True: []}
    rss, layers, versions = [], [], {}
    modes = [False, True] if args.trace else [False]
    t0 = time.monotonic()
    longest = 0.0
    k = 0
    # at least one pass per mode; another only if it should fit in the time
    while k < len(modes) or time.monotonic() - t0 + longest <= args.seconds:
        traced = modes[k % len(modes)]
        p0 = time.monotonic()
        # each pass (each traced/untraced pair) relabels afresh, so a run's
        # median spans several labelings
        for name, text in inputs.make_inputs(specs, f"{args.seed}:{k // len(modes)}").items():
            (work / "inputs" / name).write_text(text)
        res = runner.spawn(trace=traced)
        n, bad = checker.check_pass(res["ops"], res["files"])
        attempted += n
        failures += bad
        walls[traced].append(res["wall_s"])
        setup.append(res["import_s"])
        versions = res["versions"]
        if traced:
            layers.append(res["layers"])
        else:
            rss.append(res["peak_rss_mb"])
        longest = max(longest, time.monotonic() - p0)
        k += 1

    med = statistics.median
    if args.trace:
        metrics = {m: {"value": med(d[m] for d in layers), "unit": spans.UNITS[m]}
                   for m in layers[0]}
        metrics["trace_overhead_ratio"] = {"value": med(walls[True]) / med(walls[False]),
                                           "unit": "ratio"}
    else:
        metrics = {"wall_s": {"value": med(walls[False]), "unit": "s"},
                   "setup_s": {"value": med(setup), "unit": "s"},
                   "peak_rss_mb": {"value": med(rss), "unit": "MB"}}

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "passes": k, "operations_per_pass": len(check.EXPECTED_OPS[args.workload]),
           "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
           **versions, "commit": git_commit(root), "setup_samples": len(setup)}
    print("environment " + json.dumps(env))
    print("pass_wall_s " + json.dumps({"untraced": walls[False], "traced": walls[True]}))
    for name, problems in failures:
        print(f"FAILED {name}: {'; '.join(problems)}")
    print(f"failed_ratio {len(failures) / attempted:.4f} ratio ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "isodrum" / "__init__.py").is_file():
        print(f"no isodrum sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # on SIGTERM, unwind so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args, root, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
