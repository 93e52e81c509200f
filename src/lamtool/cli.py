"""Command line interface.

Commands::

    lamtool analyze FILE [--json]
    lamtool complexity FILE --max-n N [--csv PATH]
    lamtool dimension FILE --a A --delta D[,D...] --max-n N [--json] [--csv PATH]
    lamtool collapse FILE --max-n N
    lamtool compare FILE1 FILE2 --max-n N --max-c C

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation,
3 resource cap, 4 under-enumeration.  LAMTOOL_SIZE_CAP, the only setting of
the size cap, counts int32 words (one per letter); the cap bounds expanded
words, the eigenray prefix the counting automaton reads, full-shift tables
and the depth of materialized strata.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .boundary import EPSILON, cover_bound_series, dim_upper_estimate
from .config import size_cap
from .errors import (DomainError, InsufficientDataError, LamtoolError,
                     MalformedInputError, ParseError, PreconditionError,
                     SizeCapExceeded, UnderEnumerationError, UsageError)
from .fileformat import AnalysisInput, build_language, parse
from .graphmaps import (analyze_matrix, is_train_track, orientability,
                        transition_matrix)
from .graphs import maximal_subtree, validate
from .laminations import (AttractingSource, FullShiftSource, LanguageSource,
                          MaterializedSource, SubstitutionSource)
from .substitutions import (from_train_track, growth_equivalence_witness,
                            linear_fit_constant)

_EXTENSION_LIMIT = 5000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _load(path: str) -> AnalysisInput:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _source(ai: AnalysisInput) -> LanguageSource:
    drivers = ai.drivers()
    if len(drivers) != 1:
        raise PreconditionError(
            "exactly one of map, sub, lamlang must drive the command; "
            f"found {drivers or 'none'}")
    if ai.graph_map is not None:
        return AttractingSource(ai.graph_map)
    if ai.substitution is not None:
        return SubstitutionSource(ai.substitution)
    if ai.language.closure == "fullshift":
        return FullShiftSource(ai.graph)
    return MaterializedSource(build_language(ai.language, ai.graph))


def _provenance(ai: AnalysisInput, **params):
    return {
        "input_sha256": ai.sha256,
        "tool": "lamtool",
        "version": __version__,
        "parameters": {k: v for k, v in sorted(params.items())},
    }


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    ai = _load(args.file)
    if ai.graph is None or ai.graph_map is None:
        raise PreconditionError("analyze needs a graph section and a map section")
    report = validate(ai.graph)
    if not report.ok:
        raise PreconditionError("invalid graph: " + "; ".join(report.violations))

    gsm = ai.graph_map
    tt = is_train_track(gsm)
    tm = transition_matrix(gsm)
    analysis = analyze_matrix(tm)
    orn = orientability(gsm, analysis, tt)
    alphabet = ai.graph.alphabet

    sub_rules = None
    if tt.is_train_track and analysis.primitive and analysis.expanding:
        sub = from_train_track(gsm, orn)
        sub_rules = {letter: " ".join(sub.letters[c] for c in img)
                     for letter, img in zip(sub.letters, sub.images)}

    payload = {
        "graph": {"rank": report.rank, "valid": True},
        "train_track": {
            "verdict": tt.is_train_track,
            "reason": tt.reason,
            "offending_turn": (None if tt.offending_turn is None else
                               [alphabet.token(d) for d in tt.offending_turn]),
            "offending_iterate": tt.offending_iterate,
            "legal_turns": (None if tt.legal_turns is None else
                            sorted(" ".join(alphabet.token(d) for d in turn)
                                   for turn in tt.legal_turns)),
        },
        "transition_matrix": {
            "edges": list(tm.edge_names),
            "rows": [[int(v) for v in row] for row in tm.matrix],
        },
        "matrix_analysis": {
            "irreducible": analysis.irreducible,
            "primitive": analysis.primitive,
            "primitivity_exponent": analysis.primitivity_exponent,
            "expanding": analysis.expanding,
            "stretch_factor": _fmt(analysis.stretch_factor),
            "residual": _fmt(analysis.residual),
            "converged": analysis.converged,
        },
        "orientability": {
            "orientable": orn.orientable,
            "positive_side": (None if orn.positive_letters is None else
                              sorted(alphabet.token(c) for c in orn.positive_letters)),
            "witness": (None if orn.witness is None else {
                "edge": alphabet.token(orn.witness[0]),
                "source": alphabet.token(orn.witness[1]),
                "power": orn.witness[2],
            }),
            "warnings": list(orn.warnings),
        },
        "substitution": sub_rules,
        "provenance": _provenance(ai),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"graph: valid, rank {report.rank}")
    print(f"train track: {'yes' if tt.is_train_track else 'no'} ({tt.reason})")
    for name, row in zip(tm.edge_names, tm.matrix):
        print(f"  A[{name}] = {' '.join(str(int(v)) for v in row)}")
    witness_k = analysis.primitivity_exponent
    print(f"irreducible: {_yn(analysis.irreducible)}; "
          f"primitive: {_yn(analysis.primitive)}"
          + (f" (witness k={witness_k})" if witness_k else "")
          + f"; expanding: {_yn(analysis.expanding)}")
    print(f"stretch factor: {_fmt(analysis.stretch_factor)} "
          f"(residual {_fmt(analysis.residual)})")
    if orn.orientable:
        side = " ".join(sorted(alphabet.token(c) for c in orn.positive_letters))
        print(f"orientable: yes, positive side: {side}")
    else:
        if orn.witness:
            e, src, k = orn.witness
            print(f"orientable: no, witness: {alphabet.token(e)} and "
                  f"{alphabet.token(e ^ 1)} both occur in f^{k}"
                  f"({alphabet.token(src)})")
        else:
            print("orientable: no")
    for warning in orn.warnings:
        print(f"warning: {warning}")
    if sub_rules:
        rules = "; ".join(f"{k} -> {v}" for k, v in sub_rules.items())
        print(f"substitution: {rules}")
    print(f"input sha256: {ai.sha256}")
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def _cmd_complexity(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    ai = _load(args.file)
    source = _source(ai)
    p = source.p_counts(args.max_n)
    beta = source.beta_counts(args.max_n)
    metric = source.metric_beta(args.max_n)

    lines = ["n,p,beta,beta_metric"]
    for n in range(1, args.max_n + 1):
        lines.append(f"{n},{p[n - 1]},{beta[n - 1]},{metric[n - 1]}")
    csv_text = "\n".join(lines) + "\n"

    print(f"language: {source.description}")
    print(f"depth: {args.max_n}, beta({args.max_n}) = {beta[-1]}")
    if source.substitutive:
        # C is the largest p(n)/n on the window, so the bound holds there by
        # construction; checking it again in floats can only err by rounding
        fit = linear_fit_constant(p)
        print(f"linear fit: p(n) <= C*n holds on the window with C = {_fmt(fit)} "
              "(pass; evidence, not a proof)")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"csv written to {args.csv}")
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"bad delta list {text!r}")
    if not deltas:
        raise UsageError("empty delta list")
    for d in deltas:
        if not math.isfinite(d) or d <= 0:
            raise UsageError("every delta must be finite and positive")
    return deltas


def _cmd_dimension(args) -> int:
    if not math.isfinite(args.a) or args.a <= 1:
        raise UsageError("--a must be finite and > 1")
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    deltas = _parse_deltas(args.delta)
    ai = _load(args.file)
    source = _source(ai)
    c0 = source.max_edge_length()
    table = source.metric_beta(args.max_n)

    window = (max(1, math.ceil(args.max_n / 2)), args.max_n)
    dim = dim_upper_estimate(table, args.a, window)

    reports = []
    all_series = [cover_bound_series(table, args.a, d, c0) for d in deltas]
    extend = source.extendable and args.max_n < _EXTENSION_LIMIT
    big = None  # the extension table, counted once for every delta
    for delta, series in zip(deltas, all_series):
        n_star = series.first_below
        vanishing = series.vanishing
        extended_to = None
        if not vanishing and extend and big is None:
            try:
                big = source.metric_beta(_EXTENSION_LIMIT)
            except SizeCapExceeded as exc:
                # the extension is optional: keep the window's answer
                print(f"note: search not extended to n={_EXTENSION_LIMIT}: "
                      f"size cap exceeded: {exc}", file=sys.stderr)
                extend = False
        if not vanishing and extend:
            extended = cover_bound_series(big, args.a, delta, c0)
            vanishing = extended.vanishing
            n_star = extended.first_below
            extended_to = _EXTENSION_LIMIT
        reports.append({
            "a": _fmt(args.a),
            "delta": _fmt(delta),
            "c0": _fmt(float(c0)),
            "vanishing": vanishing,
            "n_star": n_star,
            "final_bound": _fmt(series.final_bound()),
            "extended_to": extended_to,
            "dim_estimate": _fmt(dim),
        })

    if args.json:
        print(json.dumps({
            "language": source.description,
            "reports": reports,
            "window": list(window),
            "provenance": _provenance(ai, a=_fmt(args.a), delta=args.delta,
                                      max_n=args.max_n),
        }, sort_keys=True, indent=2))
    else:
        print(f"language: {source.description}")
        print(f"dim upper estimate on window n in [{window[0]}, {window[1]}]: "
              f"{_fmt(dim)}")
        for rep in reports:
            extra = (f", extended search to n={rep['extended_to']}"
                     if rep["extended_to"] else "")
            star = rep["n_star"] if rep["n_star"] is not None else "-"
            print(f"delta={rep['delta']}: vanishing={_yn(rep['vanishing'])}, "
                  f"first bound < {EPSILON:g} at n* = {star}, "
                  f"final bound at n={args.max_n}: {rep['final_bound']}{extra}")

    if args.csv:
        for i, series in enumerate(all_series):
            path = args.csv if len(deltas) == 1 else f"{args.csv}.delta{i}"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("n,beta,bound\n")
                for n, beta, bound in series.rows:
                    handle.write(f"{n},{beta},{_fmt(bound)}\n")
    return 0


# ---------------------------------------------------------------------------
# collapse / compare
# ---------------------------------------------------------------------------

def _cmd_collapse(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if args.max_c < 1:
        raise UsageError("--max-c must be >= 1")
    ai = _load(args.file)
    if ai.graph is None:
        raise PreconditionError("collapse needs a graph section")
    cd = maximal_subtree(ai.graph)
    report = _source(ai).transport(cd, args.max_n, c_max=args.max_c)

    tree_names = sorted(ai.graph.alphabet.names[i] for i in cd.subtree)
    print(f"spanning tree: {{{', '.join(tree_names)}}}" if tree_names
          else "spanning tree: single vertex (rose input)")
    print(f"tree diameter D = {report.diameter}, lift stretch = "
          f"{report.lift_stretch}, multiplicity bound C0 = "
          f"{report.multiplicity_bound}")
    print("n,p_base,p_rose,lift_ok,fiber_ok")
    for row in report.rows:
        print(f"{row.n},{row.p_base},{row.p_rose},"
              f"{_yn(row.lift_ok)},{_yn(row.fiber_ok)}")
    print(f"all inequalities hold: {_yn(report.all_ok)}")
    print(f"tightest empirical stretch: {report.tight_stretch}, "
          f"tightest empirical C0: {report.tight_c0}")
    if report.witness.equivalent:
        print(f"growth equivalence witness C = {report.witness.constant} "
              "(evidence on the window, not a proof)")
    else:
        print("growth equivalence: no constant up to "
              f"{args.max_c}; first violations per C:")
        for c, n, side in report.witness.frontier:
            print(f"  C={c}: n={n} {side}")
    return 0


def _cmd_compare(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if args.max_c < 1:
        raise UsageError("--max-c must be >= 1")
    first = _source(_load(args.file1)).rose_counts(args.max_n)
    second = _source(_load(args.file2)).rose_counts(args.max_n)
    witness = growth_equivalence_witness(first, second, args.max_c)
    print(f"tables compared to n = {witness.tested_to}")
    if witness.equivalent:
        print(f"growth equivalence witness C = {witness.constant} "
              "(evidence on the window, not a proof)")
    else:
        print(f"no equivalence constant up to C = {args.max_c}; "
              "first violations per C:")
        for c, n, side in witness.frontier:
            print(f"  C={c}: n={n} {side}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="lamtool", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"lamtool {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="train track and matrix analysis")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("complexity", help="complexity tables p, beta")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_complexity)

    p = subs.add_parser("dimension", help="covering bounds and dim estimate")
    p.add_argument("file")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_dimension)

    p = subs.add_parser("collapse", help="spanning-tree collapse comparison")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-c", type=int, default=64)
    p.set_defaults(func=_cmd_collapse)

    p = subs.add_parser("compare", help="growth equivalence of two inputs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-c", type=int, required=True)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        size_cap()  # a bad LAMTOOL_SIZE_CAP is a usage error for every command
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, DomainError, MalformedInputError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (UnderEnumerationError, InsufficientDataError) as exc:
        print(f"under-enumeration: {exc}", file=sys.stderr)
        return 4
    except LamtoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
