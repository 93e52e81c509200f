#!/usr/bin/env python3
"""Record ``reference.json`` from the program at seed 0.

Run from the repository root, and only when the benchmark's ops or the
program's intended output change::

    python3 perfbench/record_reference.py

Recording does not take the program's word for ``p``: each ``complexity``
op's ``p`` column is first compared with the factor-language oracle to
depth ``RECORD_ORACLE_DEPTH``.  Where the program is wrong and the op
declares that defect (``Op.known_wrong``), the oracle's columns are
recorded instead and the seed-0 stdout gets no digest; any other
disagreement, or a known refusal that no longer happens, stops recording.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

import checks
import run
import workloads

RECORD_ORACLE_DEPTH = 60


def _complexity_entry(op, argv, stdout) -> dict:
    cols = checks.csv_columns(stdout, "n,p,beta,beta_metric")
    depth = min(len(cols["p"]), RECORD_ORACLE_DEPTH)
    with open(argv[1], encoding="utf-8") as handle:
        truth = checks.oracle_p(handle.read(), depth)
    if [int(v) for v in cols["p"][:depth]] == truth:
        return {"stdout_sha256": checks.sha256(stdout),
                "fields": checks.extract(argv, stdout)}
    if depth < len(cols["p"]) or not {"p", "beta"} <= set(op.known_wrong):
        raise SystemExit(f"{op.op_id}: p differs from the oracle, "
                         "and the op declares no such defect")
    p = [str(v) for v in truth]
    beta = [str(v) for v in itertools.accumulate(truth)]
    return {"stdout_sha256": None,
            "fields": checks.complexity_fields(p, beta, cols["beta_metric"])}


def record(root) -> dict:
    env = run.pin_environment(root)
    reference = {}
    work_root = os.path.join(run.HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        runner = run.Runner(root, env, work, limit_s=3600)
        paths = workloads.write_inputs_all(work)
        for mode, smoke in (("full", False), ("smoke", True)):
            for workload, ops in workloads.WORKLOADS.items():
                entries = reference.setdefault(mode, {}).setdefault(workload, {})
                for op in ops + workloads.PROBES.get(workload, []):
                    argv = workloads.argv_for(op, paths, smoke)
                    child = runner.lamtool(*argv)
                    if op.known_exit is not None:
                        if child.rc != op.known_exit:
                            raise SystemExit(f"{mode}/{op.op_id} exited "
                                             f"{child.rc}, not {op.known_exit}")
                        continue
                    if child.rc != 0 or child.stderr:
                        raise SystemExit(f"{mode}/{op.op_id} failed: "
                                         f"{child.rc} {child.stderr}")
                    if argv[0] == "complexity":
                        entries[op.op_id] = _complexity_entry(op, argv,
                                                              child.stdout)
                    else:
                        entries[op.op_id] = {
                            "stdout_sha256": checks.sha256(child.stdout),
                            "fields": checks.extract(argv, child.stdout)}
                    print(f"{mode}/{workload}/{op.op_id}: recorded", flush=True)
    return reference


def main() -> int:
    root = os.getcwd()
    reference = record(root)
    with open(os.path.join(run.HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
