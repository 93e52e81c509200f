#!/usr/bin/env python3
"""lamtool's benchmark: the CLI end to end, and layer by layer when traced.

Run it from the repository root::

    python3 perfbench/run.py --workload counting --seed 1 --seconds 30 --trace 0

The workloads are in ``workloads.py``; ``--seed`` relabels their inputs.

``--trace 0`` runs each op as its own ``python -m lamtool.cli`` child, one
at a time (a closed loop with a single client), in passes over the
workload's ops until ``--seconds`` have gone by.  It reports the median
pass's wall and CPU time, the peak RSS of any child in the run, and the
median start-up time of ``lamtool --version`` measured before the passes.

``--trace 1`` alternates an untraced and a traced in-process pass
(``inproc.py``, calling ``lamtool.cli.main``) and reports the per-layer
metrics of ``spans.py``, medians over the traced passes.

Every op's output is checked (``checks.py``).  A workload's known defects
(``workloads.PROBES``) are run once before the passes, untimed, and
reported on stdout; they count in neither ``attempted`` nor ``failed``,
but a failure of another kind than the known one marks the run incorrect.
The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units come from ``BENCHMARK.json``.
``--smoke`` runs every workload at tiny depths, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Settings every child runs with; recorded with the metrics.
PINNED = {
    "PYTHONHASHSEED": "0",
    "LAMTOOL_BACKEND": "python",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
UNSET = ("LAMTOOL_SIZE_CAP",)
SETUP_SAMPLES = 7
# children still running this long after the start are killed, so that a
# run ends within the 180 s its caller allows even if the program hangs
RUN_LIMIT_S = 165


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def pin_environment(root) -> dict:
    """Pin this process's environment, put the checkout's ``src`` first on
    its path, and return the environment for children."""
    src = os.path.join(root, "src")
    for name in UNSET:
        os.environ.pop(name, None)
    os.environ.update(PINNED)
    sys.path.insert(0, src)
    return dict(os.environ, PYTHONPATH=src)


class Runner:
    """Runs children one at a time from the checkout root, with the pinned
    environment, in a work directory, before a common deadline."""

    def __init__(self, root, env, work, limit_s=RUN_LIMIT_S):
        self.root = root
        self.env = env
        self.work = work
        self.deadline = time.perf_counter() + limit_s

    def run(self, cmd) -> Child:
        """Run one child to completion; its own rusage comes from wait4."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, stdout, stderr)

    def lamtool(self, *argv) -> Child:
        return self.run([sys.executable, "-m", "lamtool.cli", *argv])


class Judge:
    """Checks each op's outcome and keeps the tallies."""

    def __init__(self, ops, seed, smoke, path_sets, reference):
        self.seed = seed
        self.reference = reference
        self.tally = Tally()
        self.failures: dict[str, str] = {}
        self._oracle_done: set[str] = set()
        self._beta_metric: list[int] | None = None
        self._labellings = [[(op, workloads.argv_for(op, paths, smoke))
                             for op in ops]
                            for paths in path_sets]

    def ops_for(self, pass_index):
        """The (op, argv) pairs of one pass; passes take labellings in turn."""
        return self._labellings[pass_index % len(self._labellings)]

    def _reason(self, op, argv, rc, stdout, stderr) -> tuple[str | None, bool]:
        """(failure reason or None, whether the failure is a wrong answer
        rather than a known defect of the program)."""
        if "Traceback (most recent call last)" in stderr:
            return "traceback on stderr", True
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[:200]}", rc != op.known_exit
        if op.known_exit is not None:
            # the known refusal is gone; check the in-window numbers instead
            if self._beta_metric is None:
                return "no beta_metric column from an earlier op", True
            reason = checks.check_window(argv, stdout, self._beta_metric,
                                         _max_edge_length(argv[1]))
            return reason, reason is not None
        ref = self.reference.get(op.op_id)
        if ref is None:
            return "no reference recorded for this op", True
        bad = checks.check_reference(argv, stdout, ref, self.seed)
        if argv[0] == "complexity" and "form" not in bad:
            cols = checks.csv_columns(stdout, "n,p,beta,beta_metric")
            if "beta_metric" not in bad:
                self._beta_metric = [int(v) for v in cols["beta_metric"]]
            if argv[1] not in self._oracle_done:
                self._oracle_done.add(argv[1])
                with open(argv[1], encoding="utf-8") as handle:
                    reason = checks.check_oracle(stdout, handle.read())
                if reason is not None:
                    return reason, True
        if bad:
            return (f"differs from the reference in {', '.join(bad)}",
                    not set(bad) <= set(op.known_wrong))
        return None, False

    def record(self, op, argv, rc, stdout, stderr) -> bool:
        reason, wrong = self._reason(op, argv, rc, stdout, stderr)
        self.tally.attempted += 1
        if reason is None:
            return True
        self.tally.failed += 1
        self.failures.setdefault(op.op_id, reason)
        if wrong:
            self.tally.wrong.append(f"{op.op_id}: {reason}")
        return False


def _max_edge_length(path):
    from lamtool.fileformat import parse

    with open(path, encoding="utf-8") as handle:
        return parse(handle.read()).graph.max_length()


# ---------------------------------------------------------------------------
# untraced runs: one child per op
# ---------------------------------------------------------------------------

def measure_setup(runner) -> list[float]:
    runner.lamtool("--version")  # fills the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = runner.lamtool("--version")
        if child.rc != 0:
            raise RuntimeError(f"lamtool --version failed: {child.stderr}")
        samples.append(child.wall_s)
    return samples


def run_passes(judge, runner, seconds):
    passes = []
    per_op = {op.op_id: [] for op, _ in judge.ops_for(0)}
    start = time.perf_counter()
    while True:
        wall = cpu = rss = 0.0
        for op, argv in judge.ops_for(len(passes)):
            child = runner.lamtool(*argv)
            judge.record(op, argv, child.rc, child.stdout, child.stderr)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            per_op[op.op_id].append(child)
        passes.append((wall, cpu, rss))
        if time.perf_counter() - start >= seconds:
            return passes, per_op


def probe_known_defects(workload, runner, smoke, reference):
    """Run the workload's known-defect ops once, on the verbatim inputs, and
    return (report lines, failures of another kind than the known one)."""
    ops = workloads.PROBES.get(workload, [])
    if not ops:
        return [], []
    paths = workloads.write_inputs(ops, 0, os.path.join(runner.work, "probe"))
    judge = Judge(ops, 0, smoke, paths, reference)
    lines = []
    for op, argv in judge.ops_for(0):
        child = runner.lamtool(*argv)
        wrong = len(judge.tally.wrong)
        if judge.record(op, argv, child.rc, child.stdout, child.stderr):
            lines.append(f"known defect not shown: {op.op_id} passed its checks")
        elif len(judge.tally.wrong) == wrong:
            lines.append(f"known defect: {op.op_id}: {judge.failures[op.op_id]}")
    return lines, judge.tally.wrong


# ---------------------------------------------------------------------------
# traced runs: one in-process child per pass
# ---------------------------------------------------------------------------

def run_inproc(judge, ops, runner, trace):
    job_path = os.path.join(runner.work, "job.json")
    out_path = os.path.join(runner.work, "inproc.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump({"src": os.path.join(runner.root, "src"), "trace": trace,
                   "out": out_path,
                   "ops": [[op.op_id, argv] for op, argv in ops]}, handle)
    child = runner.run([sys.executable, os.path.join(HERE, "inproc.py"),
                        job_path])
    if child.rc != 0:
        raise RuntimeError(f"in-process runner failed: {child.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out_path)
    for (op, argv), res in zip(ops, result["ops"]):
        judge.record(op, argv, res["rc"], res["stdout"], res["stderr"])
    result["total_s"] = sum(res["wall_s"] for res in result["ops"])
    return result


def run_traced(judge, workload, runner, seconds):
    samples = []
    missing = set()
    start = time.perf_counter()
    while True:
        ops = judge.ops_for(len(samples))
        # alternate which side goes first, so drift does not favour one
        if len(samples) % 2:
            traced = run_inproc(judge, ops, runner, trace=True)
            plain = run_inproc(judge, ops, runner, trace=False)
        else:
            plain = run_inproc(judge, ops, runner, trace=False)
            traced = run_inproc(judge, ops, runner, trace=True)
        metrics = spans.layer_metrics(traced["spans"])
        metrics["cli.import_s"] = traced["import_s"]
        metrics["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
        samples.append(metrics)
        missing.update(spans.missing_spans(workload, traced["spans"]))
        if time.perf_counter() - start >= seconds:
            break
    medians = {key: statistics.median(s[key] for s in samples)
               for key in samples[0]}
    return medians, sorted(missing), len(samples)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _git_commit(root) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_record(root, args) -> dict:
    import numpy
    import lamtool.kernels

    return {
        "pinned": PINNED,
        "unset": list(UNSET),
        "lamtool.kernels.BACKEND": lamtool.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "smoke": args.smoke,
    }


def select_metrics(root, section, values) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny depths; exercises every part in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lamtool", "cli.py")):
        print(f"perfbench: no lamtool sources under {src}; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = pin_environment(root)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["smoke" if args.smoke else "full"]
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        ops = workloads.WORKLOADS[args.workload]
        path_sets = workloads.write_inputs(ops, args.seed, work)
        judge = Judge(ops, args.seed, args.smoke, path_sets,
                      reference[args.workload])
        runner = Runner(root, env, work)
        record = environment_record(root, args)
        defects, probe_wrong = probe_known_defects(
            args.workload, runner, args.smoke, reference[args.workload])
        judge.tally.wrong.extend(probe_wrong)
        for line in defects:
            print(line)
        if args.trace:
            values, missing, samples = run_traced(judge, args.workload, runner,
                                                  args.seconds)
            for name in missing:
                judge.tally.wrong.append(f"span {name} never fired")
            metrics = select_metrics(root, "per_layer", values)
            print(f"traced passes: {samples}")
        else:
            setup = measure_setup(runner)
            passes, per_op = run_passes(judge, runner, args.seconds)
            values = {
                "wall_s": statistics.median(p[0] for p in passes),
                "cpu_s": statistics.median(p[1] for p in passes),
                "peak_rss_mb": max(p[2] for p in passes),
                "setup_s": statistics.median(setup),
            }
            metrics = select_metrics(root, "end_to_end", values)
            print(f"pass wall times (s): {[round(p[0], 3) for p in passes]}; "
                  f"setup samples: {len(setup)}")
            for op_id, children in per_op.items():
                print(f"  {op_id:<24}"
                      f" wall {statistics.median(c.wall_s for c in children):8.3f} s"
                      f"  cpu {statistics.median(c.cpu_s for c in children):8.3f} s"
                      f"  rss {max(c.rss_mb for c in children):7.1f} MB"
                      f"  {judge.failures.get(op_id, 'ok')}")

    tally = judge.tally
    for line in tally.wrong:
        print(f"perfbench: wrong: {line}", file=sys.stderr)
    print(f"error_rate: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} ops failed)")
    print(json.dumps({"environment": record}, sort_keys=True))
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
