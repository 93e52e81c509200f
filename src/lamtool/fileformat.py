"""The plain-text input format.

One file carries up to one section of each kind::

    graph
    vertex v0
    edge a v0 v0 1
    map
    vmap v0 = v0
    map a = a b
    sub
    sub a = a b
    lamlang name symmetric=1
    a b'

``#`` starts a comment.  Section header lines are optional for ``map`` and
``sub`` (their content lines are self-describing) and accepted everywhere
for readability; ``lamlang`` requires its header, and its path lines run to
the next keyword.  Edge lengths are decimal literals, stored exactly.

Extension: a ``lamlang`` header may carry ``closure=fullshift`` to denote
the language of all reduced edge paths of the graph, with no path lines.
The default, ``closure=subwords``, closes the listed paths under subwords
(and inversion when ``symmetric=1``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import MalformedInputError, ParseError
from .graphs import MarkedMetricGraph
from .graphmaps import GraphSelfMap
from .laminations import LaminaryLanguage
from .substitutions import Substitution
from .words import NAME_RE, inverse_codes, iter_factors_raw

_KEYWORDS = {"graph", "vertex", "edge", "map", "vmap", "sub", "lamlang"}


@dataclass
class LanguageSpec:
    name: str
    symmetric: bool
    closure: str  # "subwords" | "fullshift"
    paths: list[str] = field(default_factory=list)


@dataclass
class AnalysisInput:
    graph: Optional[MarkedMetricGraph] = None
    graph_map: Optional[GraphSelfMap] = None
    substitution: Optional[Substitution] = None
    language: Optional[LanguageSpec] = None
    sha256: str = ""

    def drivers(self) -> list[str]:
        present = []
        if self.graph_map is not None:
            present.append("map")
        if self.substitution is not None:
            present.append("sub")
        if self.language is not None:
            present.append("lamlang")
        return present


def format_length(value: Fraction) -> str:
    """Exact decimal rendering of a parsed DECIMAL literal."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    while den % 5 == 0:
        den //= 5
        k += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    scale = 10 ** k
    scaled = value * scale
    while scaled.denominator != 1:
        scale *= 10
        scaled = value * scale
        k += 1
    digits = str(scaled.numerator).rjust(k + 1, "0")
    return (digits[:-k] + "." + digits[-k:]).rstrip("0").rstrip(".")


def _parse_decimal(token: str, line: int) -> Fraction:
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad decimal literal {token!r}", line)
    if value <= 0:
        raise ParseError(f"edge length must be positive, got {token!r}", line)
    return value


def parse(text: str) -> AnalysisInput:
    """Parse a complete input file; raises ParseError with line numbers."""
    vertices: list[str] = []
    edges: list[tuple] = []
    vmap: dict[str, str] = {}
    emap: dict[str, list[str]] = {}
    sub_rules: dict[str, list[str]] = {}
    language: Optional[LanguageSpec] = None
    in_lamlang = False
    saw_graph = False
    saw_map = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head not in _KEYWORDS:
            if in_lamlang:
                language.paths.append(" ".join(tokens))
                continue
            raise ParseError(f"unexpected token {head!r}", lineno)

        if head != "lamlang":
            in_lamlang = False

        if head == "graph":
            if len(tokens) != 1:
                raise ParseError("the graph header takes no arguments", lineno)
            saw_graph = True
        elif head == "vertex":
            if len(tokens) != 2 or not NAME_RE.match(tokens[1]):
                raise ParseError("expected: vertex NAME", lineno)
            vertices.append(tokens[1])
        elif head == "edge":
            if len(tokens) != 5:
                raise ParseError("expected: edge NAME ORIGIN TERMINUS LENGTH", lineno)
            _, name, o, t, ell = tokens
            for nm in (name, o, t):
                if not NAME_RE.match(nm):
                    raise ParseError(f"bad name {nm!r}", lineno)
            edges.append((name, o, t, _parse_decimal(ell, lineno)))
        elif head == "vmap":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError("expected: vmap NAME = NAME", lineno)
            vmap[tokens[1]] = tokens[3]
            saw_map = True
        elif head == "map":
            if len(tokens) == 1:
                saw_map = True
                continue
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: map NAME = TOKEN...", lineno)
            if tokens[1] in emap:
                raise ParseError(f"duplicate map rule for {tokens[1]!r}", lineno)
            emap[tokens[1]] = tokens[3:]
            saw_map = True
        elif head == "sub":
            if len(tokens) == 1:
                continue
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: sub NAME = NAME...", lineno)
            if tokens[1] in sub_rules:
                raise ParseError(f"duplicate sub rule for {tokens[1]!r}", lineno)
            sub_rules[tokens[1]] = tokens[3:]
        elif head == "lamlang":
            if language is not None:
                raise ParseError("only one lamlang section per file", lineno)
            if len(tokens) < 3 or not NAME_RE.match(tokens[1]):
                raise ParseError(
                    "expected: lamlang NAME symmetric=0|1 [closure=...]", lineno)
            symmetric = None
            closure = "subwords"
            for opt in tokens[2:]:
                if opt in ("symmetric=0", "symmetric=1"):
                    symmetric = opt.endswith("1")
                elif opt in ("closure=subwords", "closure=fullshift"):
                    closure = opt.split("=", 1)[1]
                else:
                    raise ParseError(f"unknown lamlang option {opt!r}", lineno)
            if symmetric is None:
                raise ParseError("lamlang header needs symmetric=0|1", lineno)
            language = LanguageSpec(tokens[1], symmetric, closure)
            in_lamlang = True

    result = AnalysisInput()
    result.sha256 = hashlib.sha256(text.encode()).hexdigest()

    try:
        if saw_graph or edges or vertices:
            result.graph = MarkedMetricGraph(vertices, edges)
        if saw_map or emap or vmap:
            if result.graph is None:
                raise ParseError("map section requires a graph section")
            result.graph_map = _build_map(result.graph, vmap, emap)
        if sub_rules:
            result.substitution = Substitution.from_tokens(sub_rules)
    except MalformedInputError as exc:
        raise ParseError(str(exc))

    if language is not None:
        if language.closure == "fullshift":
            if language.paths:
                raise ParseError("closure=fullshift takes no path lines")
        elif not language.paths:
            raise ParseError("lamlang section lists no paths")
        if result.graph is None:
            raise ParseError("lamlang section requires a graph section")
        result.language = language

    if result.graph is None and result.substitution is None:
        raise ParseError("file defines no graph and no substitution")
    return result


def _build_map(graph, vmap, emap) -> GraphSelfMap:
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    if len(graph.vertices) == 1 and not vmap:
        vmap = {graph.vertices[0]: graph.vertices[0]}
    images = []
    for name in graph.alphabet.names:
        if name not in emap:
            raise ParseError(f"map section misses edge {name!r}")
        images.append(graph.alphabet.parse(" ".join(emap[name])))
    for name in emap:
        if name not in graph.alphabet.names:
            raise ParseError(f"map rule for unknown edge {name!r}")
    vertex_image = []
    for v in graph.vertices:
        if v not in vmap:
            raise ParseError(f"map section misses vmap for vertex {v!r}")
        if vmap[v] not in vindex:
            raise ParseError(f"vmap target {vmap[v]!r} is not a vertex")
        vertex_image.append(vindex[vmap[v]])
    return GraphSelfMap(graph, vertex_image, images)


def build_language(spec: LanguageSpec, graph) -> LaminaryLanguage:
    """Materialize a lamlang section: close the listed paths under subwords,
    and under inversion when flagged symmetric."""
    members = set()
    for text in spec.paths:
        try:
            codes = graph.alphabet.parse(text)
        except MalformedInputError as exc:
            raise ParseError(str(exc))
        if not codes:
            raise ParseError("empty path literal in lamlang section")
        if not graph.is_reduced_path(codes):
            if not graph.is_edge_path(codes):
                raise ParseError(f"lamlang path {text!r} is not an edge path")
            raise ParseError(f"lamlang path {text!r} is not reduced")
        members.add(codes)
    closed = set(members)
    for m in members:
        closed.update(iter_factors_raw(m, len(m)))
    if spec.symmetric:
        closed.update(inverse_codes(m) for m in list(closed))
    depth = max(len(m) for m in closed)
    strata = [set() for _ in range(depth + 1)]
    for m in closed:
        strata[len(m)].add(m)
    return LaminaryLanguage(graph, strata, spec.symmetric,
                            origin=f"user-supplied({spec.name})")


def serialize(ai: AnalysisInput) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = []
    if ai.graph is not None:
        out.append("graph")
        for v in ai.graph.vertices:
            out.append(f"vertex {v}")
        for i, name in enumerate(ai.graph.alphabet.names):
            e = 2 * i
            out.append(f"edge {name} {ai.graph.vertices[ai.graph.origin(e)]} "
                       f"{ai.graph.vertices[ai.graph.terminus(e)]} "
                       f"{format_length(ai.graph.lengths[i])}")
    if ai.graph_map is not None:
        out.append("map")
        for i, v in enumerate(ai.graph.vertices):
            out.append(f"vmap {v} = {ai.graph.vertices[ai.graph_map.vertex_image[i]]}")
        for i, name in enumerate(ai.graph.alphabet.names):
            image = ai.graph.alphabet.format(ai.graph_map.edge_images[i])
            out.append(f"map {name} = {image}")
    if ai.substitution is not None:
        out.append("sub")
        sub = ai.substitution
        for letter, img in zip(sub.letters, sub.images):
            out.append(f"sub {letter} = {' '.join(sub.letters[c] for c in img)}")
    if ai.language is not None:
        spec = ai.language
        closure = "" if spec.closure == "subwords" else f" closure={spec.closure}"
        out.append(f"lamlang {spec.name} symmetric={1 if spec.symmetric else 0}"
                   f"{closure}")
        out.extend(sorted(spec.paths))
    return "\n".join(out) + "\n"
