"""Record the golden transcripts in ``tests/golden/``.

    PYTHONPATH=src python tests/record_golden.py

Each record is one JSON file: the argv given to ``lamtool``, the
environment it ran with, the exit code, and stdout and stderr as lists of
lines (``str.split("\\n")``, so a final newline shows as a last empty
line).  Every run gets a scratch directory, named ``{tmp}`` in its argv
and in its printed text; a run that writes files there (``--csv``) also
records the text of each, by name.  The text is stored, not a digest, so
a change in behaviour shows as a diff.  ``tests/test_golden.py`` replays
every record through ``cli.main`` in process, from the repository root,
and compares.

The corpus is every README command; on every sample input ``analyze``
(plain and ``--json``), ``complexity`` at ``--max-n`` 12 and 60,
``dimension`` plain and ``--json``, ``collapse`` and ``compare`` against
``fibonacci_sub``; ``complexity --csv`` and ``dimension --csv``, with one
delta and with two (one file each), on two samples; the benchmark inputs
at their smoke argvs; one case of each error exit code; and
``complexity``, ``dimension`` (plain and ``--json``), ``collapse`` and
``compare`` on listed ``lamlang`` languages (``LAMLANG`` below), at depths
inside their longest path and past it.
The ``lamlang`` files and copies of the benchmark-only inputs are written
to ``tests/golden/inputs/`` with the records.  Re-record only when a change
of the printed output is intended, and review the diff.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
SAMPLES = sorted(p.name for p in (ROOT / "sample_inputs").glob("*.lam"))
BENCH_ONLY = ("six_letter", "theta_metric")  # the others copy sample_inputs
TMP = "{tmp}"  # a scratch directory, in a record's argv and printed text

_WIDE = {f"e{i:03d}": "1" for i in range(130)} | {"e005": "1.5", "e129": "2"}
_THETA = {"e1": "1", "e2": "1", "e3": "1"}

# name -> (vertices, edge lengths, paths) of the listed lamlang languages;
# every edge runs from the first vertex to the last.  The rose ones are the
# fixtures of TestLamlangTables, the wide one TestWideAlphabet's.
LAMLANG = {
    "unit": (["v"], {"a": "1", "b": "1"},
             ["a b a b' a' b' a b", "b a b a b a"]),
    "lengths-1-3_2": (["v"], {"a": "1", "b": "1.5"},
                      ["a b a b' a'", "b a b a"]),
    "long-lengths-1-3_2": (["v"], {"a": "1", "b": "1.5"},
                           ["a b a b' a' b' a b a b a b'"]),
    "wide": (["v0", "v1"], _WIDE,
             ["e005 e129' e000 e064' e005", "e129 e005' e128 e000'",
              "e127 e126' e127"]),
    "theta": (["v0", "v1"], _THETA,
              ["e1 e2' e3 e1' e2 e3' e1", "e3 e2' e1 e3'"]),
    "theta-metric": (["v0", "v1"], {"e1": "1", "e2": "1.5", "e3": "2"},
                     ["e1 e2' e3 e1' e2 e3' e1 e2'", "e2 e1'"]),
    "theta-one-path": (["v0", "v1"], _THETA,
                       ["e2 e3' e1 e2' e3 e1' e2 e3' e1 e2'"]),
    # one length for every edge, other than 1: the uniform metric rule
    "halves": (["v"], {"a": "0.5", "b": "0.5"},
               ["a b a' b' a b a b' a' b a b", "b b a"]),
    "twos": (["v"], {"a": "2", "b": "2"}, ["a b a' b'", "b a"]),
}


def lamlang_text(vertices, lengths, paths, symmetric) -> str:
    first, last = vertices[0], vertices[-1]
    return ("graph\n" + "".join(f"vertex {v}\n" for v in vertices)
            + "".join(f"edge {e} {first} {last} {x}\n" for e, x in lengths.items())
            + f"lamlang demo symmetric={int(symmetric)}\n" + "\n".join(paths) + "\n")


def _lamlang_files():
    """name -> (text, depth): each language at symmetric=0 and 1."""
    files = {}
    for name, (vertices, lengths, paths) in LAMLANG.items():
        depth = max(len(path.split()) for path in paths)
        for symmetric in (0, 1):
            text = lamlang_text(vertices, lengths, paths, symmetric)
            files[f"{name}-sym{symmetric}.lam"] = text, depth
    return files


def _bench_files():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return {f"bench-{name}.lam": workloads.SAMPLES[name] for name in BENCH_ONLY}


def readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [line.split()[1:] for line in readme.splitlines()
            if re.match(r"lamtool \w+ sample_inputs/", line)]


def corpus() -> list[tuple[list[str], dict[str, str]]]:
    """Every (argv, environment) recorded."""
    runs = [(argv, {}) for argv in readme_commands()]
    fib_sub = "sample_inputs/fibonacci_sub.lam"
    dim = ["--a", "2", "--delta", "0.5,0.01"]
    for name in SAMPLES:
        path = f"sample_inputs/{name}"
        for argv in (["analyze", path], ["analyze", path, "--json"],
                     ["complexity", path, "--max-n", "12"],
                     ["complexity", path, "--max-n", "60"],
                     ["dimension", path, *dim, "--max-n", "30"],
                     ["dimension", path, *dim, "--max-n", "30", "--json"],
                     ["collapse", path, "--max-n", "8"],
                     ["compare", path, fib_sub, "--max-n", "20", "--max-c", "4"]):
            runs.append((argv, {}))
    for name in ("fibonacci_sub", "theta_collapse"):
        path = f"sample_inputs/{name}.lam"
        csv = ["--csv", f"{TMP}/{name}.csv"]
        runs += [(["complexity", path, "--max-n", "12", *csv], {}),
                 (["dimension", path, "--a", "2", "--delta", "0.5",
                   "--max-n", "30", *csv], {}),
                 (["dimension", path, *dim, "--max-n", "30", *csv], {})]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    paths = {name: (f"tests/golden/inputs/bench-{name}.lam" if name in BENCH_ONLY
                    else f"sample_inputs/{name}.lam") for name in workloads.SAMPLES}
    for ops in [*workloads.WORKLOADS.values(), *workloads.PROBES.values()]:
        for op in ops:
            runs.append((workloads.argv_for(op, paths, smoke=True), {}))
    runs += [
        (["--version"], {}),
        (["complexity", fib_sub], {}),  # usage: --max-n missing
        (["complexity", fib_sub, "--max-n", "0"], {}),
        (["complexity", "sample_inputs/missing.lam", "--max-n", "5"], {}),
        (["complexity", "tests/golden/inputs/bench-theta_metric.lam",
          "--max-n", "5"], {"LAMTOOL_SIZE_CAP": "x"}),
        (["complexity", "sample_inputs/thue_morse_sub.lam", "--max-n", "500"],
         {"LAMTOOL_SIZE_CAP": "1000"}),
        (["collapse", "sample_inputs/theta_collapse.lam", "--max-n", "40"],
         {"LAMTOOL_SIZE_CAP": "50"}),
        (["dimension", "sample_inputs/fibonacci_map.lam", *dim, "--max-n", "40"],
         {"LAMTOOL_SIZE_CAP": "3000"}),
        (["complexity", "tests/golden/inputs/parse-error.lam", "--max-n", "5"], {}),
        (["complexity", "tests/golden/inputs/invalid-graph.lam", "--max-n", "5"], {}),
    ]
    for name, (_, depth) in _lamlang_files().items():
        path = f"tests/golden/inputs/{name}"
        for n in sorted({max(1, depth // 2), depth, depth + 1}):
            runs += [(["complexity", path, "--max-n", str(n)], {}),
                     (["collapse", path, "--max-n", str(n)], {}),
                     (["compare", path, fib_sub, "--max-n", str(n),
                       "--max-c", "4"], {})]
        for n in sorted({max(1, depth // 2), depth, depth + 1, 2 * depth + 2}):
            runs += [(["dimension", path, *dim, "--max-n", str(n)], {}),
                     (["dimension", path, *dim, "--max-n", str(n), "--json"], {})]
    unique = []  # README runs recur among the sample and benchmark runs
    for argv, env in runs:
        if (argv, env) not in unique:
            unique.append((argv, env))
    return unique


def run(argv, env, tmp) -> tuple[int, str, str]:
    """``lamtool argv`` through ``cli.main`` in process, with ``env`` set
    over the current environment: the exit code, stdout and stderr.  The
    directory ``tmp`` stands in for ``TMP`` in the argv, and ``TMP`` for it
    in stdout and stderr."""
    from lamtool import cli

    argv = [arg.replace(TMP, str(tmp)) for arg in argv]
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # --version
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return (code, out.getvalue().replace(str(tmp), TMP),
            err.getvalue().replace(str(tmp), TMP))


def written(directory) -> dict:
    """The text of each file in ``directory``, by name, as lists of lines."""
    return {path.name: path.read_text(encoding="utf-8").split("\n")
            for path in sorted(Path(directory).iterdir())}


def record_name(argv, env) -> str:
    words = [f"{k}={v}" for k, v in sorted(env.items())] + [
        Path(a).stem if a.endswith(".lam") else a for a in argv]
    return re.sub(r"[^A-Za-z0-9.=,_-]+", "_", "_".join(words)).strip("_") + ".json"


def record(argv, env) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(argv, env, tmp)
        files = written(tmp)
    rec = {"argv": list(argv), "env": dict(env), "exit": code,
           "stdout": out.split("\n"), "stderr": err.split("\n")}
    if files:
        rec["files"] = files
    return rec


def main() -> int:
    INPUTS.mkdir(parents=True, exist_ok=True)
    files = {name: text for name, (text, _) in _lamlang_files().items()}
    files |= _bench_files()
    files["parse-error.lam"] = "graph\nvertex v\nedge a v v 1\nedge b v v one\n"
    files["invalid-graph.lam"] = ("graph\nvertex v\nedge a v v 1\n"
                                  "lamlang demo symmetric=1\na a\n")
    for name, text in files.items():
        (INPUTS / name).write_text(text, encoding="utf-8")
    os.chdir(ROOT)
    written = set()
    for argv, env in corpus():
        name = record_name(argv, env)
        if name in written:
            raise SystemExit(f"two runs record to {name}")
        written.add(name)
        text = json.dumps(record(argv, env), indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / name).write_text(text, encoding="utf-8")
    for stale in GOLDEN.glob("*.json"):
        if stale.name not in written:
            stale.unlink()
    print(f"{len(written)} records in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
