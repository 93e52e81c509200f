"""Run a list of lamtool CLI ops in one process by calling
``lamtool.cli.main(argv)``, with or without the layer spans of ``spans.py``.

run.py starts this script for its traced runs::

    python3 perfbench/inproc.py JOB.json

JOB.json names the ``src`` directory, the ops as ``[op_id, argv]`` pairs,
whether to trace, and the ``out`` file that receives, once at the end, each
op's exit code, wall time, stdout and stderr, plus the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import lamtool.cli
    import_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    for op_id, argv in job["ops"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lamtool.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is an op failure, not ours
                traceback.print_exc()
                rc = -1
        results.append({"op": op_id, "rc": rc,
                        "wall_s": time.perf_counter() - start,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})

    payload = {"import_s": import_s, "ops": results,
               "spans": tracer.spans if tracer else [],
               "bindings": tracer.bindings if tracer else {}}
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
