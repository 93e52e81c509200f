"""Tests of the benchmark itself, in smoke mode (tiny depths).

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in SPEC[section]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_smoke_run(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--smoke")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.WORKLOADS[workload])
    assert result["failed"] == 0
    # the known refusal is probed outside the timed ops, and reported
    for op in workloads.PROBES.get(workload, []):
        if op.known_exit is not None:
            assert (f"known defect: {op.op_id}: exit code {op.known_exit}"
                    in proc.stdout)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_trace(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", "1", "--smoke"))
    assert result["correct"] is True, "a predicted span did not fire"
    # one untraced and one traced in-process pass
    assert result["attempted"] == 2 * len(workloads.WORKLOADS[workload])
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_refuses_without_sources():
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("--workload", "counting", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_relabelling_changes_names_not_structure():
    import random

    text = workloads.SAMPLES["theta_collapse"]
    relabelled = workloads.relabel(text, random.Random(5))
    assert relabelled != text
    count = lambda t, head: sum(1 for line in t.splitlines()  # noqa: E731
                                if line.startswith(head))
    for head in ("vertex ", "edge ", "vmap ", "map "):
        assert count(relabelled, head) == count(text, head)


def test_checks_catch_a_wrong_column():
    argv = ["complexity", "x.lam", "--max-n", "3"]
    good = "language: x\nn,p,beta,beta_metric\n1,2,2,2\n2,3,5,5\n3,4,9,9\n"
    ref = {"stdout_sha256": checks.sha256(good),
           "fields": checks.extract(argv, good)}
    assert checks.check_reference(argv, good, ref, seed=0) == []
    bad = good.replace("2,3,5,5", "2,4,6,6")
    assert checks.check_reference(argv, bad, ref, seed=0) == [
        "stdout", "beta", "beta_metric", "p"]
    assert checks.check_reference(argv, bad, ref, seed=1) == [
        "beta", "beta_metric", "p"]


def test_oracle_rejects_a_wrong_p_column():
    sub = workloads.SAMPLES["fibonacci_sub"]
    right = "n,p,beta,beta_metric\n" + "".join(
        f"{n},{n + 1},0,0\n" for n in range(1, 6))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    assert checks.check_oracle(right, sub) is None
    assert checks.check_oracle(right.replace("3,4,", "3,5,"), sub) is not None
