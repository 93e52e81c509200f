"""Timing spans around lamtool's public functions, installed from outside.

``Tracer.install`` wraps each function in ``TARGETS`` at every place it is
bound: the defining module, every ``lamtool`` module that imported the name,
and the class for methods.  Spans stay in memory as
``[name, start, end, parent, op, counts]`` and are written out once, by the
caller, when the run ends.  ``layer_metrics`` turns them into the per-layer
metrics; a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time


def _expand_counts(result, args):
    return {"letters_out": int(result.size),
            # int32 codes read plus int32 letters written
            "bytes_computed": 4 * (len(args[0]) + int(result.size))}


def _strata_total(lang):
    return sum(len(stratum) for stratum in lang.strata)


# target -> counter(result, args) giving the span's counts
TARGETS = {
    "kernels.expand_codes": _expand_counts,
    "kernels.substring_counts": lambda r, a: {"letters_in": len(a[0])},
    "substitutions.complexity_counts": None,
    "substitutions.eigenray_prefix": lambda r, a: {"letters_out": int(r.size)},
    "substitutions.factor_language":
        lambda r, a: {"factors_out": _strata_total(r)},
    "laminations.beta_metric": None,
    "laminations.project_language":
        lambda r, a: {"members_in": _strata_total(a[0])},
    "laminations.transport_compare": None,
    "laminations.AttractingSource.materialize": None,
    "graphs.project_path": None,
    "graphs.maximal_subtree": None,
    "graphmaps.is_train_track": None,
    "graphmaps.analyze_matrix": None,
    "graphmaps.orientability": None,
    "boundary.cover_bound_series": None,
    "boundary.dim_upper_estimate": None,
    "fileformat.parse": None,
    "cli.main": None,
}

# Spans that must fire on the workload each is predicted to move, so that a
# binding the tracer missed cannot pass as a zero.
EXPECTED = {
    "counting": ["kernels.expand_codes", "kernels.substring_counts",
                 "substitutions.complexity_counts",
                 "substitutions.eigenray_prefix",
                 "boundary.cover_bound_series", "boundary.dim_upper_estimate"],
    "materialize": ["substitutions.factor_language", "laminations.beta_metric",
                    "laminations.project_language",
                    "laminations.transport_compare",
                    "laminations.AttractingSource.materialize",
                    "graphs.project_path", "graphs.maximal_subtree"],
    "cli-short": ["graphmaps.is_train_track", "graphmaps.analyze_matrix",
                  "graphmaps.orientability", "fileformat.parse", "cli.main"],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.bindings = {}
        self.op = None
        self._stack = []

    def _wrap(self, name, original, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op, {}]
            if counter is not None:
                spans[index][5] = counter(result, args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        """Wrap every target at every binding site; raises on a target that
        no longer exists or is bound nowhere."""
        modules = [m for key, m in sys.modules.items()
                   if key == "lamtool" or key.startswith("lamtool.")]
        for name, counter in TARGETS.items():
            module, *path = name.split(".")
            owner = importlib.import_module("lamtool." + module)
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original, counter)
            sites = 0
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                sites = 1
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            sites += 1
            if not sites:
                raise RuntimeError(f"{name} is bound nowhere")
            self.bindings[name] = sites


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without cli.import_s and
    trace.overhead_s, which the caller measures)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = dict.fromkeys(TARGETS, 0)
    self_s = dict.fromkeys(TARGETS, 0.0)
    counts: dict[str, int] = {}
    rounds = regen_letters = 0
    for i, (name, start, end, _, _, span_counts) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - covered[i]
        for key, value in span_counts.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        above = set(_ancestors(spans, i))
        if (name == "kernels.substring_counts"
                and "substitutions.complexity_counts" in above):
            rounds += 1
        if (name == "kernels.expand_codes"
                and "substitutions.eigenray_prefix" in above):
            regen_letters += span_counts["letters_out"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("kernels.expand_codes", "kernels.substring_counts",
                 "substitutions.complexity_counts",
                 "substitutions.eigenray_prefix",
                 "substitutions.factor_language", "laminations.beta_metric",
                 "graphs.project_path", "boundary.cover_bound_series"):
        out[f"{name}.calls"] = calls[name]
    for name in TARGETS:
        out[f"{name}.self_s"] = self_s[name]
    for key in ("kernels.expand_codes.letters_out",
                "kernels.expand_codes.bytes_computed",
                "kernels.substring_counts.letters_in",
                "substitutions.eigenray_prefix.letters_out",
                "substitutions.factor_language.factors_out",
                "laminations.project_language.members_in"):
        out[key] = counts.get(key, 0)
    out["kernels.expand_codes.letters_per_s"] = ratio(
        out["kernels.expand_codes.letters_out"],
        self_s["kernels.expand_codes"])
    out["kernels.substring_counts.letters_per_s"] = ratio(
        out["kernels.substring_counts.letters_in"],
        self_s["kernels.substring_counts"])
    out["substitutions.complexity_counts.rounds"] = ratio(
        rounds, calls["substitutions.complexity_counts"])
    out["substitutions.eigenray.regen_ratio"] = ratio(
        regen_letters, out["substitutions.eigenray_prefix.letters_out"])
    return out


def missing_spans(workload: str, spans) -> list[str]:
    fired = {span[0] for span in spans}
    return [name for name in EXPECTED[workload] if name not in fired]
