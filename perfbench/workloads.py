"""The benchmark's workloads: named lists of lamtool CLI invocations.

Every input is a text file that the benchmark writes before a run; the CLI
sees only those files.  Seed 0 writes the texts below byte for byte (the
sample files are copies of ``sample_inputs/``).  Any other seed relabels
each input first:

* edge names (or substitution letters) are permuted;
* edge and rule declaration order is shuffled;
* each edge has its orientation flipped with probability 1/2;
* the map or substitution is conjugated to match.

Relabelling is an isomorphism of the language, so ``p``, ``beta`` and
``beta_metric`` do not change; it does change the default eigenletter, the
order in which letters enter the automaton and the choice of spanning tree,
and with them how much work an op does.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

LABELLINGS = 8

SAMPLES = {
    "fibonacci_map": """\
# golden-ratio map on the 2-rose: orientable expanding train track
graph
vertex v
edge a v v 1
edge b v v 1
map
vmap v = v
map a = a b
map b = a
""",
    "fibonacci_sub": """\
# Fibonacci substitution: complexity p(n) = n + 1
sub
sub a = a b
sub b = a
""",
    "fullshift_2rose": """\
# exponential contrast case: every reduced word on the unit 2-rose
graph
vertex v
edge a v v 1
edge b v v 1
lamlang fullshift symmetric=1 closure=fullshift
""",
    "nonorientable_map": """\
# 2-rose map with no preferred orientation: a and a' meet inside f^2(a)
graph
vertex v
edge a v v 1
edge b v v 1
map
vmap v = v
map a = a b
map b = a'
""",
    "permutation_map": """\
# finite-order edge swap: train track but neither primitive nor expanding
graph
vertex v
edge a v v 1
edge b v v 1
map
vmap v = v
map a = b
map b = a
""",
    "theta_collapse": """\
# theta graph (two vertices, three parallel edges) with a non-orientable
# expanding train track map of stretch factor 1 + sqrt(2); the direction map
# permutes the six oriented edges, so no iterate ever cancels
graph
vertex v0
vertex v1
edge e1 v0 v1 1
edge e2 v0 v1 1
edge e3 v0 v1 1
map
vmap v0 = v0
vmap v1 = v1
map e1 = e2
map e2 = e3 e2' e1
map e3 = e1 e2' e3
""",
    # theta_collapse's map on a non-uniform metric: beta_metric enumerates
    "theta_metric": """\
# theta_collapse's map with edge lengths 1, 3/2 and 2
graph
vertex v0
vertex v1
edge e1 v0 v1 1
edge e2 v0 v1 1.5
edge e3 v0 v1 2
map
vmap v0 = v0
vmap v1 = v1
map e1 = e2
map e2 = e3 e2' e1
map e3 = e1 e2' e3
""",
    # a 6-letter primitive substitution whose table needs 7 doubling rounds
    "six_letter": """\
# 6-letter primitive substitution
sub
sub a = a b c
sub b = c d
sub c = e a
sub d = f b
sub e = a f d
sub f = b a
""",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``@name`` in argv stands for an input file.

    ``known_exit`` and ``known_wrong`` describe a defect of the program that
    the op shows (see ``PROBES``): showing it is reported, but only a
    failure of another kind marks the run's output incorrect.
    """

    op_id: str
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]
    known_exit: int | None = None      # the exit code of a known refusal
    known_wrong: tuple[str, ...] = ()  # output fields known to be wrong

    def inputs(self) -> list[str]:
        return [a[1:] for a in self.argv + self.smoke_argv if a.startswith("@")]


def _op(op_id, argv, smoke_argv=None, **known):
    argv = tuple(argv.split())
    smoke = tuple(smoke_argv.split()) if smoke_argv else argv
    return Op(op_id, argv, smoke, **known)


# Why each workload was chosen is recorded in BENCHMARK.json; in short:
# counting runs the eigenray/automaton route at depth, materialize the
# enumerating route (factor sets, projection, Fraction metric counts), and
# cli-short the short README runs dominated by start-up and parsing.
WORKLOADS = {
    "counting": [
        _op("six-letter", "complexity @six_letter --max-n 2000",
            "complexity @six_letter --max-n 40"),
        _op("theta", "complexity @theta_collapse --max-n 1000",
            "complexity @theta_collapse --max-n 30"),
        _op("fib-dimension",
            "dimension @fibonacci_map --a 2 --delta 0.5,0.1,0.01 --max-n 200",
            "dimension @fibonacci_map --a 2 --delta 0.5,0.1,0.01 --max-n 20"),
    ],
    "materialize": [
        _op("collapse", "collapse @theta_collapse --max-n 30",
            "collapse @theta_collapse --max-n 6"),
        # below n = 43, where the probe's known wrong p(n) starts
        _op("metric", "complexity @theta_metric --max-n 40",
            "complexity @theta_metric --max-n 12"),
    ],
    "cli-short": [
        _op("readme-analyze", "analyze @fibonacci_map"),
        _op("readme-complexity", "complexity @fibonacci_sub --max-n 25"),
        _op("readme-dimension",
            "dimension @fibonacci_map --a 2 --delta 0.5,0.1,0.01 --max-n 200"),
        _op("readme-fullshift",
            "dimension @fullshift_2rose --a 3 --delta 0.5 --max-n 14"),
        _op("readme-collapse", "collapse @theta_collapse --max-n 15"),
        _op("readme-compare",
            "compare @fibonacci_sub @fullshift_2rose --max-n 40 --max-c 6"),
        _op("analyze-theta-json", "analyze @theta_collapse --json"),
        _op("analyze-nonorientable", "analyze @nonorientable_map"),
        _op("analyze-permutation", "analyze @permutation_map"),
    ],
}

# Known defects of the program, run once per run of the workload on the
# verbatim inputs, outside the timed passes, and reported on stdout.  They
# are kept out of the timed ops so that ``failed`` counts only new failures,
# and out of no run, so that a defect stays in sight until it is fixed.
PROBES = {
    "materialize": [
        # p(n) from the uncertified counting route ("the table stopped
        # changing") is too small from n = 43 on, at seed 0's labelling and
        # at some relabellings
        _op("metric-60", "complexity @theta_metric --max-n 60",
            "complexity @theta_metric --max-n 12", known_wrong=("p", "beta")),
        # the automatic extension to n = 5000 hits the materialization limit
        _op("metric-dimension",
            "dimension @theta_metric --a 2 --delta 0.5 --max-n 50",
            "dimension @theta_metric --a 2 --delta 0.5 --max-n 10",
            known_exit=4),
    ],
}


# ---------------------------------------------------------------------------
# relabelling
# ---------------------------------------------------------------------------

def _split_token(token: str) -> tuple[str, bool]:
    return (token[:-1], True) if token.endswith("'") else (token, False)


def _inverse(tokens: list[str]) -> list[str]:
    out = []
    for token in reversed(tokens):
        name, inv = _split_token(token)
        out.append(name if inv else name + "'")
    return out


def relabel(text: str, rng: random.Random) -> str:
    """A relabelled copy of one input text (the formats in ``SAMPLES``)."""
    vertices, edges, vmap, emap, subs, lamlang = [], [], [], [], [], None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens or tokens in (["graph"], ["map"], ["sub"]):
            continue
        head = tokens[0]
        if head == "vertex":
            vertices.append(tokens[1])
        elif head == "edge":
            edges.append(tokens[1:])
        elif head == "vmap":
            vmap.append(tokens[1:])
        elif head == "map":
            emap.append((tokens[1], tokens[3:]))
        elif head == "sub":
            subs.append((tokens[1], tokens[3:]))
        elif head == "lamlang":
            lamlang = " ".join(tokens)
        else:
            raise ValueError(f"relabel does not handle the line {raw!r}")

    out = ["# relabelled benchmark input"]
    if edges:
        names = [e[0] for e in edges]
        rename = dict(zip(names, rng.sample(names, len(names))))
        flip = {name: rng.random() < 0.5 for name in names}

        def token(tok):
            name, inv = _split_token(tok)
            return rename[name] + ("'" if inv != flip[name] else "")

        edge_lines = []
        for name, o, t, length in edges:
            if flip[name]:
                o, t = t, o
            edge_lines.append(f"edge {rename[name]} {o} {t} {length}")
        map_lines = []
        for name, image in emap:
            image = [token(tok) for tok in image]
            if flip[name]:
                image = _inverse(image)
            map_lines.append(f"map {rename[name]} = {' '.join(image)}")
        rng.shuffle(edge_lines)
        rng.shuffle(map_lines)
        out.append("graph")
        out.extend(f"vertex {v}" for v in vertices)
        out.extend(edge_lines)
        if emap:
            out.append("map")
            out.extend(f"vmap {v} = {w}" for v, _, w in vmap)
            out.extend(map_lines)
    if subs:
        letters = [letter for letter, _ in subs]
        rename = dict(zip(letters, rng.sample(letters, len(letters))))
        rules = [f"sub {rename[letter]} = {' '.join(rename[t] for t in image)}"
                 for letter, image in subs]
        rng.shuffle(rules)
        out.append("sub")
        out.extend(rules)
    if lamlang:
        out.append(lamlang)
    return "\n".join(out) + "\n"


def write_inputs(ops, seed: int, directory: str) -> list[dict[str, str]]:
    """Write the input files of ``ops``, one set per labelling, and return
    each set as name -> path.  Seed 0 has one set, the texts verbatim; any
    other seed has ``LABELLINGS`` relabelled sets, which a run uses in turn,
    one per pass, so that its median is not that of a single labelling."""
    names = sorted({name for op in ops for name in op.inputs()})
    if seed == 0:
        return [_write(names, directory, None)]
    return [_write(names, os.path.join(directory, f"labelling{k}"),
                   random.Random(f"{seed}/{k}"))
            for k in range(LABELLINGS)]


def write_inputs_all(directory: str) -> dict[str, str]:
    """Every input verbatim, for recording the reference."""
    return _write(sorted(SAMPLES), directory, None)


def _write(names, directory, rng):
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        text = SAMPLES[name] if rng is None else relabel(SAMPLES[name], rng)
        path = os.path.join(directory, f"{name}.lam")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    return paths


def argv_for(op: Op, paths: dict[str, str], smoke: bool) -> list[str]:
    argv = op.smoke_argv if smoke else op.argv
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]
