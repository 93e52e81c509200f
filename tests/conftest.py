"""Shared fixtures and the independent oracles the example tests check
against.  Oracles are deliberately naive re-implementations: repeated-scan
cancellation, hand recursions for the classic words, exhaustive searches.
The helpers at the end (path lifting, map composition, language invariants,
projection fibers, Gromov products and visual distances of finite words)
are oracles that only tests need, so they live here and not in lamtool."""

from fractions import Fraction
from itertools import accumulate

import pytest

from lamtool import GraphSelfMap, MarkedMetricGraph, Substitution
from lamtool.errors import PreconditionError
from lamtool.graphs import project_path
from lamtool.substitutions import length2_factors
from lamtool.words import inverse_codes


@pytest.fixture
def rose2():
    return MarkedMetricGraph(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)])


@pytest.fixture
def fib_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("a")])


@pytest.fixture
def nonorientable_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("a'")])


@pytest.fixture
def permutation_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("b"), al.parse("a")])


@pytest.fixture
def mixed_sign_map(rose2):
    """Non-orientable expanding primitive train track map on the 2-rose:
    f(a) mixes both signs of a, and the direction map is a permutation."""
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b a' b"), al.parse("b a")])


@pytest.fixture
def theta():
    return MarkedMetricGraph(
        ["v0", "v1"],
        [("e1", "v0", "v1", 1), ("e2", "v0", "v1", 1), ("e3", "v0", "v1", 1)])


@pytest.fixture
def silver_map(theta):
    al = theta.alphabet
    return GraphSelfMap(theta, [0, 1], [al.parse("e2"),
                                        al.parse("e3 e2' e1"),
                                        al.parse("e1 e2' e3")])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def is_reduced(codes):
    """No letter is followed by its inverse."""
    return all(codes[i] != codes[i + 1] ^ 1 for i in range(len(codes) - 1))


def naive_tighten(codes):
    """Repeated full scans; cancels one adjacent inverse pair per pass."""
    word = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1] ^ 1:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def naive_cyclic_tighten(codes):
    """Reduce, then repeatedly strip mutually inverse end letters."""
    word = list(naive_tighten(codes))
    while len(word) >= 2 and word[0] == word[-1] ^ 1:
        word = word[1:-1]
    return tuple(word)


def fibonacci_word(length):
    """Hand recursion w_{k+1} = w_k w_{k-1} over the letters a, b."""
    w0, w1 = "a", "ab"
    while len(w1) < length:
        w0, w1 = w1, w1 + w0
    return w1[:length]


def thue_morse_word(length):
    w = "a"
    swap = {"a": "ab", "b": "ba"}
    while len(w) < length:
        w = "".join(swap[c] for c in w)
    return w[:length]


def string_factors(word, n_max):
    """Brute-force distinct substrings of length 1..n_max of a string."""
    return {word[i:i + k]
            for k in range(1, n_max + 1)
            for i in range(len(word) - k + 1)}


def iter_factors_raw(codes, n_max: int):
    """Every factor of length 1..n_max of a code sequence, as tuples, with
    repeats: a brute-force enumeration."""
    codes = tuple(codes)
    for length in range(1, min(n_max, len(codes)) + 1):
        for start in range(len(codes) - length + 1):
            yield codes[start:start + length]


def sorted_blocks(words, depth: int) -> list[list[str]]:
    """Distinct code-point words of length at most ``depth`` as the sorted
    rows ``rows[0..depth]`` of a ``Stratified`` language."""
    strata = [[] for _ in range(depth + 1)]
    for word in sorted(words):
        strata[len(word)].append(word)
    return strata


def random_reduced_word(rng, alphabet_size, length):
    """Uniform-ish reduced word over an involutive alphabet of 2*size letters."""
    word = []
    for _ in range(length):
        choices = [c for c in range(2 * alphabet_size)
                   if not word or c != word[-1] ^ 1]
        word.append(rng.choice(choices))
    return tuple(word)


def lamlang_tables(paths, lengths, n_max, symmetric=True):
    """p, beta and beta_metric for n = 1..n_max of the lamlang language of
    ``paths`` (token strings such as "a b'"): every factor of a path, and
    of its inverse when ``symmetric``, spelled as tokens; ``lengths`` maps
    edge names to lengths."""
    def inverse(word):
        return tuple(t[:-1] if t.endswith("'") else t + "'" for t in reversed(word))

    members = set()
    for text in paths:
        word = tuple(text.split())
        members |= {word[i:j] for i in range(len(word))
                    for j in range(i + 1, len(word) + 1)}
    if symmetric:
        members |= {inverse(m) for m in members}
    metric = [sum(Fraction(lengths[t.rstrip("'")]) for t in m) for m in members]
    p = [sum(1 for m in members if len(m) == n) for n in range(1, n_max + 1)]
    return (p, list(accumulate(p)),
            [sum(1 for x in metric if x <= n) for n in range(1, n_max + 1)])


def thue_morse_complexity(n):
    """p(n) of the Thue-Morse language in closed form (Brlek 1989; de Luca
    and Varricchio 1989): for n >= 3, n = 2^r + q + 1 with 0 < q <= 2^r,
    p(n) = 6 * 2^(r-1) + 4q when q <= 2^(r-1), else 8 * 2^(r-1) + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def arnoux_rauzy_substitution(rng, k, extra=3):
    """A random composition of the Arnoux-Rauzy maps sigma_i: i -> i,
    j -> j i (j != i) on k letters, each i used at least once, with up to
    ``extra`` more factors.  Its language has p(n) = (k - 1) n + 1
    (Arnoux and Rauzy, Bull. SMF 119, 1991)."""
    order = list(range(k)) + [rng.randrange(k) for _ in range(rng.randint(0, extra))]
    rng.shuffle(order)
    images = [(c,) for c in range(k)]
    for i in order:  # compose on the left: sigma_i after the product so far
        sigma = [(j,) if j == i else (j, i) for j in range(k)]
        images = [tuple(x for y in img for x in sigma[y]) for img in images]
    return Substitution([chr(ord("a") + c) for c in range(k)], images)


def random_word(rng, alphabet_size, length):
    return tuple(rng.randrange(2 * alphabet_size) for _ in range(length))


def naive_iterate_image(gsm, code, k):
    """f^k(e) by literal substitution, no tightening."""
    word = [code]
    for _ in range(k):
        word = [c for y in word for c in gsm.image(y)]
    return tuple(word)


def ray_slices_walk(prefix, lengths, n_max):
    """The merged windows of theta^k(Q) that ``counting_certificate`` names,
    by one walk over the tuple Q: the block of the first occurrence of each
    letter, and n_max - 1 letters on each side of the boundary at the first
    occurrence of each pair, in order of their starts."""
    reach = n_max - 1
    windows = []
    seen = set()
    stop = 0
    for i, q in enumerate(prefix):
        start, stop = stop, stop + lengths[q]
        if q not in seen:
            seen.add(q)
            windows.append((start, stop))
        pair = prefix[i:i + 2]
        if reach and len(pair) == 2 and pair not in seen:
            seen.add(pair)
            windows.append((stop - reach, stop + reach))
    merged = []
    for start, stop in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


def certificate_oracle(sub, n_max):
    """``counting_certificate``'s (images, seed, power, prefix, slices),
    derived step by step: the eigen exponent and the ray by tuple expansion,
    Q by a scan for the pairs still missing, the block lengths |theta^k(c)|
    anew for each seed, and the slices by :func:`ray_slices_walk`; the
    fewest slice letters win, ties going to the first found.  None when no
    letter generates an eigenray."""
    best = None
    for images in (sub.images, tuple(img[::-1] for img in sub.images)):
        side = Substitution(sub.letters, images)

        def step(word):
            return tuple(c for x in word for c in images[x])

        pairs = length2_factors(side)
        for seed in range(sub.sigma):
            e, first = 1, images[seed][0]
            while first != seed and e <= sub.sigma:
                first, e = images[first][0], e + 1
            word = (seed,)
            for _ in range(e):
                word = step(word)
            if first != seed or len(word) < 2:
                continue
            word = (seed,)
            while not pairs <= set(zip(word, word[1:])):
                for _ in range(e):
                    word = step(word)
            missing, end = set(pairs), 0
            while missing:
                missing.discard(word[end:end + 2])
                end += 1
            lengths, k = [1] * sub.sigma, 0
            while min(lengths) < n_max:
                lengths = [sum(lengths[x] for x in img) for img in images]
                k += 1
            prefix = word[:end + 1]
            slices = ray_slices_walk(prefix, lengths, n_max)
            key = sum(stop - start for start, stop in slices)
            if best is None or key < best[0]:
                best = key, (images, seed, k, prefix, slices)
    return best and best[1]


def _image_table(gsm):
    """Images padded with -1 into one array, for vectorized substitution."""
    import numpy as np

    letters = list(gsm.graph.alphabet.letters())
    pad = max(len(gsm.image(c)) for c in letters)
    table = np.full((len(letters), pad), -1, dtype=np.int32)
    for c in letters:
        img = gsm.image(c)
        table[c, :len(img)] = img
    return table


def brute_force_train_track(gsm, k_max=12):
    """tighten(f^k(e)) must equal f^k(e) for all k <= k_max and every edge.

    Iterates the literal substitution; as long as no cancellation has
    appeared the word is already reduced, so one adjacency scan per level is
    exactly the tighten comparison.
    """
    import numpy as np

    table = _image_table(gsm)
    for code in gsm.graph.alphabet.letters():
        word = np.array([code], dtype=np.int32)
        for _ in range(k_max):
            expanded = table[word].ravel()
            word = expanded[expanded >= 0]
            if np.any(word[1:] == (word[:-1] ^ 1)):
                return False
    return True


def brute_force_orientation(gsm):
    """Try all sign assignments; return a preferred positive side or None."""
    m = gsm.graph.num_topological_edges
    for mask in range(1 << m):
        positive = frozenset((2 * cls) | ((mask >> cls) & 1) for cls in range(m))
        if all(all(y in positive for y in gsm.image(e)) for e in positive):
            return positive
    return None


def random_rose_map(rng, petals, max_image_len=4):
    """A random graph self-map of the unit rose with reduced nonempty images."""
    rose = MarkedMetricGraph(
        ["v"], [(f"e{i}", "v", "v", 1) for i in range(1, petals + 1)])
    images = [random_reduced_word(rng, petals, rng.randint(1, max_image_len))
              for _ in range(petals)]
    return GraphSelfMap(rose, [0], images)


def metric_length(graph, codes):
    """Exact metric length of a word: its weight over the length unit."""
    return Fraction(graph.weight(codes), graph.length_unit)


def compose(outer, inner):
    """Formal composition e -> outer(inner(e)), without tightening."""
    images = [tuple(c for y in img for c in outer.image(y))
              for img in inner.edge_images]
    return GraphSelfMap(inner.graph,
                        [outer.vertex_image[v] for v in inner.vertex_image],
                        images)


def as_row(codes):
    """A code tuple as a code-point ``str`` (``chr(code)`` a letter), the
    form of a language row and of ``project_path``'s input and image."""
    return "".join(map(chr, codes))


def rose_to_base(cd):
    """The letter of ``cd.base`` that each rose letter collapses from."""
    return {r: b for b, r in cd.base_to_rose.items() if r is not None}


def tree_geodesic(cd, u, v):
    """The reduced path from vertex u to vertex v inside the subtree, by a
    breadth-first search over the tree letters."""
    paths = {u: ()}
    frontier = [u]
    while frontier:
        frontier_next = []
        for w in frontier:
            for c in cd.base.alphabet.letters():
                if (c >> 1 in cd.subtree and cd.base.origin(c) == w
                        and cd.base.terminus(c) not in paths):
                    paths[cd.base.terminus(c)] = paths[w] + (c,)
                    frontier_next.append(cd.base.terminus(c))
        frontier = frontier_next
    return paths[v]


def lift_path(cd, codes):
    """Reinsert the tree geodesic between consecutive rose letters of a
    reduced rose path; the inverse of ``project_path`` on its image."""
    codes = tuple(codes)
    if not cd.rose.is_reduced_path(codes):
        if not cd.rose.is_edge_path(codes):
            raise PreconditionError("lift_path expects an edge path in the rose")
        raise PreconditionError("lift_path expects a reduced path")
    to_base = rose_to_base(cd)
    out = []
    for i, c in enumerate(codes):
        letter = to_base[c]
        if i:
            previous = to_base[codes[i - 1]]
            out.extend(tree_geodesic(cd, cd.base.terminus(previous),
                                     cd.base.origin(letter)))
        out.append(letter)
    return tuple(out)


def check_invariants(lang):
    """Problems with a laminary language: an empty, unreduced or broken
    member, a missing subword, or, if symmetric, a missing inverse."""
    problems = []
    members = set(lang.all_members())
    for m in members:
        if not m:
            problems.append("empty member")
        if not is_reduced(m):
            problems.append(f"member {m} is not reduced")
        if not lang.graph.is_edge_path(m):
            problems.append(f"member {m} is not an edge path")
        if len(m) > 1 and (m[1:] not in members or m[:-1] not in members):
            problems.append(f"member {m} misses a subword")
        if lang.symmetric and inverse_codes(m) not in members:
            problems.append(f"member {m} misses its inverse")
    return problems


def fiber_counts(lang, cd):
    """How many enumerated members project onto each nonempty rose word."""
    counts = {}
    for m in lang.all_members():
        image = project_path(cd, as_row(m))
        if image:
            counts[image] = counts.get(image, 0) + 1
    return counts


def gromov_product(graph, u, v):
    """(u|v) at the base of the universal cover for two reduced words read
    from it: the metric length of their longest common prefix."""
    common = 0
    while common < min(len(u), len(v)) and u[common] == v[common]:
        common += 1
    return metric_length(graph, u[:common])


def visual_distance(graph, u, v, a):
    """a^-(u|v): two boundary points that extend u and v, after u and v have
    split, are this far apart in the visual metric of parameter a."""
    return float(a) ** -float(gromov_product(graph, u, v))
