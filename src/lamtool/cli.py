"""Command line interface.

Commands::

    lamtool analyze FILE [--json]
    lamtool complexity FILE --max-n N [--csv PATH]
    lamtool dimension FILE --a A --delta D[,D...] --max-n N [--json] [--csv PATH]
    lamtool collapse FILE --max-n N
    lamtool compare FILE1 FILE2 --max-n N --max-c C

Exit codes: 0 success, 1 usage or parse error (or stdout closed early),
2 precondition violation, 3 resource cap (the size cap, or memory running
out), 4 under-enumeration.
LAMTOOL_SIZE_CAP, the only setting of the size cap, counts int32 words (one
per letter); it bounds expanded words, the automaton's input (by the
slices it reads, or by a lamlang language's paths), full-shift tables and
the depth of materialized strata.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .boundary import EPSILON, dim_upper_estimate
from .config import size_cap
from .errors import DomainError, LamtoolError, PreconditionError, UsageError
from .fileformat import AnalysisInput, build_language, format_length, parse
from .graphs import maximal_subtree
from .laminations import (IMPRIMITIVE_SUBSTITUTION, AttractingSource,
                          FullShiftSource, LanguageSource, SubstitutionSource,
                          certify)
from .substitutions import growth_equivalence_witness, linear_fit_constant


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_bound(bound: float, log_bound: float) -> str:
    """A covering bound as ``_fmt`` prints it, or, when it is past float
    range, from its natural log as a decimal mantissa and exponent."""
    if not math.isinf(bound) or not math.isfinite(log_bound):
        return _fmt(bound)
    exponent, fraction = divmod(log_bound / math.log(10), 1)
    mantissa = _fmt(10 ** fraction)
    if mantissa == "10":  # 10 ** fraction rounded up to the next decade
        mantissa, exponent = "1", exponent + 1
    return f"{mantissa}e+{int(exponent)}"


def _load(path: str) -> AnalysisInput:
    """Parse a file and check its graph, if it has one, against the paper's
    standing hypotheses: every command refuses an invalid graph here."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            ai = parse(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if ai.graph is not None and ai.graph.violations:
        raise PreconditionError("invalid graph: " + "; ".join(ai.graph.violations))
    return ai


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


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
    return build_language(ai.language, ai.graph)


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

    cert = certify(ai.graph_map)
    tt, tm, analysis, orn, _, sub = cert
    alphabet = ai.graph.alphabet

    sub_rules = None if sub is None else {
        letter: " ".join(sub.letters[c] for c in img)
        for letter, img in zip(sub.letters, sub.images)}

    payload = {
        "graph": {"rank": ai.graph.betti(), "valid": True},
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
            "rows": [list(row) for row in tm.matrix],
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
        import json  # loaded only for --json output
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"graph: valid, rank {ai.graph.betti()}")
    print(f"train track: {'yes' if tt.is_train_track else 'no'} ({tt.reason})")
    for name, row in zip(tm.edge_names, tm.matrix):
        print(f"  A[{name}] = {' '.join(map(str, row))}")
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
    elif IMPRIMITIVE_SUBSTITUTION in cert.failures:
        print(f"no substitution: {IMPRIMITIVE_SUBSTITUTION}")
    print(f"input sha256: {ai.sha256}")
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def _cmd_complexity(args) -> int:
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
        _write(args.csv, csv_text)
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
    deltas = _parse_deltas(args.delta)
    ai = _load(args.file)
    source = _source(ai)
    table = source.metric_beta(args.max_n)

    window = (max(1, math.ceil(args.max_n / 2)), args.max_n)
    try:
        dim = dim_upper_estimate(table, args.a, window)
    except DomainError:
        # a <= 1 is refused above, so a zero count in the window, whose log
        # the estimate takes, is the one cause
        empty = [n for n in range(window[0], window[1] + 1) if not table[n - 1]]
        raise PreconditionError(
            f"beta_metric({empty[-1]}) = 0 in the dimension window "
            f"[{window[0]}, {window[1]}]: no path of the language has metric "
            f"length <= {empty[-1]} (the shortest edge has length "
            f"{format_length(source.graph.min_length())}); raise --max-n") from None

    all_series, extended, note = source.cover_bounds(table, args.a, deltas)
    if note:
        print(f"note: {note}", file=sys.stderr)
    reports = []
    for delta, series, ext in zip(deltas, all_series, extended):
        reports.append({
            "a": _fmt(args.a),
            "delta": _fmt(delta),
            "c0": _fmt(float(source.max_edge_length())),
            "vanishing": (ext or series).vanishing,
            "n_star": (ext or series).first_below,
            "final_bound": _fmt_bound(series.final_bound(),
                                      series.log_bounds[-1]),
            "extended_to": ext and ext.rows[-1][0],
            "dim_estimate": _fmt(dim),
        })

    if args.json:
        import json
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
            _write(path, "n,beta,bound\n" + "".join(
                f"{n},{beta},{_fmt_bound(bound, log_bound)}\n"
                for (n, beta, bound), log_bound in zip(series.rows,
                                                       series.log_bounds)))
    return 0


# ---------------------------------------------------------------------------
# collapse / compare
# ---------------------------------------------------------------------------

def _cmd_collapse(args) -> int:
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
    if hasattr(sys, "set_int_max_str_digits"):  # print ints of any size
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            size_cap()  # a bad LAMTOOL_SIZE_CAP is a usage error for every command
            for flag in ("max_n", "max_c"):  # of the commands that take them
                if getattr(args, flag, 1) < 1:
                    raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
            try:
                return args.func(args)
            except MemoryError:  # memory ran out below the size cap
                print(f"resource cap: out of memory during {args.command}",
                      file=sys.stderr)
                return 3
        except LamtoolError as exc:
            print(f"{exc.label}: {exc}", file=sys.stderr)
            return exc.exit_code
        finally:
            sys.stdout.flush()  # here, so that a closed pipe is caught below
    except BrokenPipeError:  # the reader is gone: exit 1, flush at exit to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
