"""Output checks for the benchmark's ops.

Each command's stdout is reduced to the fields that relabelling leaves
unchanged; those must equal the seed-0 reference in ``reference.json``.  At
seed 0 the whole stdout must also match the stored digest.  Two further
checks do not trust the reference: the small-depth oracle
(``lamtool.factor_language``) for every printed ``p`` column, and, should
the known-failing op ever exit 0, its in-window numbers against
``lamtool.boundary`` applied to the preceding op's ``beta_metric`` column.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

ORACLE_DEPTH = 30
STRETCH_RTOL = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _yes(flag: str) -> bool:
    return flag == "yes"


def csv_columns(stdout: str, header: str) -> dict[str, list[str]]:
    """The columns of the CSV block that starts at the line ``header``."""
    lines = stdout.splitlines()
    start = lines.index(header)
    names = header.split(",")
    columns = {name: [] for name in names}
    for line in lines[start + 1:]:
        cells = line.split(",")
        if len(cells) != len(names) or not cells[0].isdigit():
            break
        for name, cell in zip(names, cells):
            columns[name].append(cell)
    return columns


def _digest(column: list[str]) -> str:
    return sha256(",".join(column))


def complexity_fields(p, beta, beta_metric) -> dict:
    """Fields of a ``complexity`` table given its columns as strings."""
    return {"rows": len(p), "p": _digest(p), "beta": _digest(beta),
            "beta_metric": _digest(beta_metric)}


def _complexity(stdout: str, argv) -> dict:
    cols = csv_columns(stdout, "n,p,beta,beta_metric")
    return complexity_fields(cols["p"], cols["beta"], cols["beta_metric"])


def _collapse(stdout: str, argv) -> dict:
    cols = csv_columns(stdout, "n,p_base,p_rose,lift_ok,fiber_ok")
    return {"all_ok": "all inequalities hold: yes" in stdout.splitlines(),
            "rows": len(cols["n"]),
            "p_base": _digest(cols["p_base"])}


def _analyze(stdout: str, argv) -> dict:
    if "--json" in argv:
        doc = json.loads(stdout)
        matrix = doc["matrix_analysis"]
        return {"train_track": doc["train_track"]["verdict"],
                "irreducible": matrix["irreducible"],
                "primitive": matrix["primitive"],
                "expanding": matrix["expanding"],
                "orientable": doc["orientability"]["orientable"],
                "stretch_factor": float(matrix["stretch_factor"])}
    tt = re.search(r"^train track: (yes|no)", stdout, re.M)
    flags = re.search(r"^irreducible: (yes|no); primitive: (yes|no).*; "
                      r"expanding: (yes|no)$", stdout, re.M)
    stretch = re.search(r"^stretch factor: (\S+)", stdout, re.M)
    orient = re.search(r"^orientable: (yes|no)", stdout, re.M)
    return {"train_track": _yes(tt.group(1)),
            "irreducible": _yes(flags.group(1)),
            "primitive": _yes(flags.group(2)),
            "expanding": _yes(flags.group(3)),
            "orientable": _yes(orient.group(1)),
            "stretch_factor": float(stretch.group(1))}


_DELTA = re.compile(r"^delta=(\S+): vanishing=(yes|no), first bound < 1e-06 at "
                    r"n\* = (\S+), final bound at n=\d+: ([^,]+)", re.M)


def dimension_report(stdout: str) -> dict:
    dim = re.search(r"^dim upper estimate on window n in \[\d+, \d+\]: (\S+)$",
                    stdout, re.M)
    return {"dim_estimate": dim.group(1),
            "deltas": [[d, _yes(v), star, final]
                       for d, v, star, final in _DELTA.findall(stdout)]}


def _dimension(stdout: str, argv) -> dict:
    report = dimension_report(stdout)
    return {"dim_estimate": report["dim_estimate"],
            "deltas": [[d, v, star] for d, v, star, _ in report["deltas"]]}


def _compare(stdout: str, argv) -> dict:
    return {"lines": stdout.splitlines()}


EXTRACTORS = {"complexity": _complexity, "collapse": _collapse,
              "analyze": _analyze, "dimension": _dimension, "compare": _compare}


def extract(argv, stdout: str) -> dict:
    """Relabelling-invariant fields of one op's stdout."""
    return EXTRACTORS[argv[0]](stdout, argv)


def mismatched_fields(got: dict, want: dict) -> list[str]:
    keys = sorted(got.keys() | want.keys())
    return [key for key in keys
            if key not in got or key not in want or not (
                math.isclose(got[key], want[key], rel_tol=STRETCH_RTOL)
                if key == "stretch_factor" else got[key] == want[key])]


def check_reference(argv, stdout: str, ref: dict, seed: int) -> list[str]:
    """What differs from the reference: field names, or "stdout" for the
    seed-0 digest, or "form" when the output cannot be read."""
    bad = []
    digest = ref["stdout_sha256"]
    if seed == 0 and digest is not None and sha256(stdout) != digest:
        bad.append("stdout")
    try:
        got = extract(argv, stdout)
    except (ValueError, AttributeError, KeyError):
        return bad + ["form"]
    return bad + mismatched_fields(got, ref["fields"])


# ---------------------------------------------------------------------------
# checks that do not rely on the recorded reference
# ---------------------------------------------------------------------------

def oracle_p(input_text: str, depth: int) -> list[int]:
    """p(1..depth) from the materializing factor-language route."""
    from lamtool.fileformat import parse
    from lamtool.laminations import attracting_language
    from lamtool.substitutions import factor_language

    ai = parse(input_text)
    if ai.substitution is not None:
        return factor_language(ai.substitution, depth).p_counts()
    return attracting_language(ai.graph_map, depth).p_counts()


def check_oracle(stdout: str, input_text: str) -> str | None:
    """The printed p column agrees with the oracle for n <= ORACLE_DEPTH."""
    printed = [int(v) for v in csv_columns(stdout, "n,p,beta,beta_metric")["p"]]
    depth = min(ORACLE_DEPTH, len(printed))
    expected = oracle_p(input_text, depth)
    if printed[:depth] != expected:
        return f"p(1..{depth}) differs from factor_language: {printed[:depth]}"
    return None


def check_window(argv, stdout: str, beta_metric: list[int], c0) -> str | None:
    """In-window numbers of a ``dimension`` op, recomputed by lamtool.boundary
    from a ``beta_metric`` column printed by an earlier op."""
    from lamtool.boundary import cover_bound_series, dim_upper_estimate

    opts = dict(zip(argv[2::2], argv[3::2]))
    a, max_n = float(opts["--a"]), int(opts["--max-n"])
    deltas = [float(d) for d in opts["--delta"].split(",") if d]
    table = beta_metric[:max_n]
    report = dimension_report(stdout)
    window = (max(1, math.ceil(max_n / 2)), max_n)
    if report["dim_estimate"] != f"{dim_upper_estimate(table, a, window):.12g}":
        return "dimension estimate disagrees with dim_upper_estimate"
    if len(report["deltas"]) != len(deltas):
        return "one report line per delta expected"
    for delta, (_, _, star, final) in zip(deltas, report["deltas"]):
        series = cover_bound_series(table, a, delta, float(c0))
        if final != f"{series.final_bound():.12g}":
            return f"final bound for delta={delta} disagrees with cover_bound_series"
        in_window = star != "-" and int(star) <= max_n
        if (int(star) if in_window else None) != series.first_below:
            return f"n* for delta={delta} disagrees with cover_bound_series"
    return None
