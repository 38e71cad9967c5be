"""Generalized-torsion certificates and bounded normal-subsemigroup searches.

Everything here is finite and bounded: NSS balls are truncations of the
(generally infinite) normal subsemigroup generated by a set, and searches
over conjugator tuples run in a fixed canonical order under a node cap.
A "none-found" outcome corroborates a freeness statement inside the stated
bounds; it never proves it.  Certificates, in contrast, are exact: each is
re-verified by normalization before being surfaced.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .amalgam import (
    AbelianFactor,
    Amalgam,
    AmalgamElement,
    EdgeIdentification,
    FreeFactor,
    _outside_edge_balls,
    _product,
    normalize,
)
from .errors import InternalInvariantError, PreconditionError
from .stallings import SubgroupAutomaton, _witness_gen
from .word import (
    Generator,
    HomSpec,
    Word,
    _concat,
    _product_ball,
    cancelled_letters,
    conjugacy_key,
    gen,
    json_list,
    parse_word,
    sort_words,
)


@dataclass(frozen=True)
class SearchBounds:
    """Bounds for balls and searches.

    radius: conjugator size (components for amalgam balls, letters for
    free-group balls, factors for subgroup-product balls).
    max_n: maximal number of terms in a product (of conjugates, or of
    g h_i blocks).
    max_elt_letters: letter bound for single factor elements.
    node_cap: hard bound on examined candidates; exceeding it flags the
    result as capped/partial rather than aborting.
    """

    radius: int = 2
    max_n: int = 3
    max_elt_letters: int = 2
    node_cap: int = 10 ** 6

    def __post_init__(self):
        if min(self.radius, self.max_elt_letters) < 0:
            raise PreconditionError("radius and max_elt_letters must be non-negative")
        if self.max_n < 1 or self.node_cap < 1:
            raise PreconditionError("max_n and node_cap must be positive")

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "max_n": self.max_n,
            "max_elt_letters": self.max_elt_letters,
            "node_cap": self.node_cap,
        }


@dataclass
class GtCertificate:
    """A witness g^{h_1} ... g^{h_n} = 1 with g != 1."""

    base: AmalgamElement
    conjugators: list

    def __post_init__(self):
        if not self.conjugators:
            raise PreconditionError("certificate needs n >= 1 conjugators")

    def to_json(self) -> dict:
        return {
            "base": self.base.serialize(),
            "conjugators": [h.serialize() for h in self.conjugators],
        }

    @classmethod
    def from_json(cls, G: Amalgam, data) -> "GtCertificate":
        return cls(
            G.parse_element(data["base"]),
            [G.parse_element(t) for t in json_list(data["conjugators"], "conjugators")],
        )


def verify_gt_certificate(G: Amalgam, cert: GtCertificate) -> bool:
    """True iff the conjugate product normalizes to 1 and the base does not."""
    if cert.base.is_identity:
        return False
    return _product(G, (cert.base.conj(h) for h in cert.conjugators)).is_identity


@dataclass
class NclWitness:
    """target = product of conjugated signed relators, as a free identity."""

    target: Word
    terms: list  # (relator index, sign, conjugator Word)

    def to_json(self) -> dict:
        return {
            "target": str(self.target),
            "terms": [[i, s, str(c)] for i, s, c in self.terms],
        }

    @classmethod
    def from_json(cls, data) -> "NclWitness":
        terms = []
        for i, s, c in json_list(data["terms"], "terms"):
            # a bool is an int to Python, and a float sign would build x^1.0
            if type(i) is not int or type(s) is not int or s not in (1, -1):
                raise PreconditionError(
                    f"an ncl term needs an int relator index and a sign 1 or -1: {[i, s, c]!r}")
            terms.append((i, s, parse_word(c)))
        return cls(parse_word(data["target"]), terms)


def verify_ncl_witness(relators: Sequence[Word], w: NclWitness) -> bool:
    """Free-reduction check that the conjugated relator product is the target."""
    for idx, _, _ in w.terms:
        if not 0 <= idx < len(relators):
            raise PreconditionError(f"relator index out of range: {idx}")
    return w.target == _concat((relators[idx] ** sign).conj(conj).syls
                               for idx, sign, conj in w.terms)


# ---------------------------------------------------------------------------
# Balls
# ---------------------------------------------------------------------------

def free_ball(alphabet: Sequence[Generator], max_letters: int,
              include_identity: bool = True) -> list:
    """Reduced words of letter length <= max_letters, in canonical order."""
    letters = [Word([(g, s)]) for g in sorted(alphabet, key=lambda g: g.sort_key())
               for s in (1, -1)]
    return _product_ball(letters, max_letters, include_identity)


def amalgam_conjugator_ball(G: Amalgam, bounds: SearchBounds) -> list:
    """Identity, edge heads, and alternating products of <= radius components.

    Components are drawn from the factor balls (letter length bounded by
    max_elt_letters) minus the edge subgroup.  Deterministic order: by
    component count, then by factor index and factor-ball order at each
    added component (search_gt re-sorts its copy by serialization).
    """
    factor_balls = _outside_edge_balls(G, bounds.max_elt_letters)
    out = [G.identity()]
    if G.edge.alphabet:
        for ew in free_ball(G.edge.alphabet, bounds.max_elt_letters,
                            include_identity=False):
            out.append(AmalgamElement(G, ew, ()))
    level = [()]
    for _ in range(bounds.radius):
        nxt = []
        for comps in level:
            last = comps[-1][0] if comps else None
            for fi in range(len(G.factors)):
                if fi == last:
                    continue
                for x in factor_balls[fi]:
                    nxt.append(comps + ((fi, x),))
        out.extend(AmalgamElement(G, Word(), comps) for comps in nxt)
        level = nxt
    return out


def _nss_closure(seeds: Sequence, is_identity, level1, products, bounds: SearchBounds,
                 max_elements: int):
    """The bounded NSS closure behind every NSS ball.

    Level 1 is the lazy iterable ``level1`` (the conjugates of the seeds);
    levels 2..max_n are each ``products(frontier, first)``, a lazy iterable
    of the previous level's new elements times the level-1 elements.  Every
    candidate counts as a node; the node cap and the element cap stop the
    closure and flag it as capped (a partial but sound inner approximation)
    rather than failing.  Returns (the elements as the keys of a dict, in
    order of first appearance, capped).
    """
    if not seeds or any(is_identity(s) for s in seeds):
        raise PreconditionError("seeds must be nonempty and avoid the identity")
    seen = {}
    nodes = 0

    def grow(candidates):
        nonlocal nodes
        new = []
        for z in candidates:
            nodes += 1
            if nodes > bounds.node_cap or len(seen) >= max_elements:
                return new, True
            if z not in seen:
                seen[z] = None
                new.append(z)
        return new, False

    first, capped = grow(level1)
    frontier = first
    for _ in range(bounds.max_n - 1):
        if capped:
            break
        frontier, capped = grow(products(frontier, first))
    return seen, capped


def nss_ball_free(alphabet: Sequence[Generator], seeds: Sequence[Word],
                  bounds: SearchBounds,
                  conjugators: Optional[Sequence[Word]] = None,
                  max_elements: int = 200_000):
    """Free-group NSS ball over Word values; returns ({word: letter length},
    capped), the words in order of first appearance.

    Each length is found as its word is formed: a level-1 conjugate is
    measured, and a product x y has |x| + |y| - 2 cancelled_letters(x, y),
    which costs only the syllables that cancel at the junction.  Both the
    node cap and the element cap flag the result as capped (partial) rather
    than failing; a capped ball is still a sound inner approximation of the
    normal subsemigroup.
    """
    seeds = list(seeds)
    if conjugators is None:
        conjugators = free_ball(alphabet, bounds.radius)
    lengths = {}   # every candidate formed -> its letter length

    def level1():
        for s in seeds:
            for h in conjugators:
                z = s.conj(h)
                lengths[z] = z.letter_len
                yield z

    def products(frontier, first):
        for x in frontier:
            lx = lengths[x]
            for y in first:
                z = x * y
                lengths[z] = lx + lengths[y] - 2 * cancelled_letters(x, y)
                yield z

    seen, capped = _nss_closure(seeds, lambda w: w.is_identity, level1(), products,
                                bounds, max_elements)
    if len(lengths) > len(seen):
        # a cap stops the closure after forming at most one candidate that
        # it does not keep, and such a candidate is new, so stored last
        lengths.popitem()
    return lengths, capped


def _nss_members(aut: SubgroupAutomaton, alphabet: Sequence[Generator], alpha: Word,
                 bounds: SearchBounds, max_elements: int = 200_000):
    """Which elements of nss_ball_free(alphabet, [alpha], bounds,
    max_elements=max_elements) lie in C = <aut.generators>, and their
    expressions over C's generators: ({member: expression}, capped).

    Both are read off cosets (see ``SubgroupAutomaton.coset``): a level-1
    y lies in C iff C y^-1 = C and is spelled by the inverse of the tags of
    y^-1's read; a product x y lies in C iff C x = C y^-1 and is spelled by
    the tags of x's read times that.  So each level-1 element's inverse and
    each frontier element is read once.  Each member's expression is
    checked by evaluation.

    At the last level a product is formed only if it lies in C; the others
    are yielded as None, which counts each as a node and adds at most one
    element (None) to the closure's set.  That leaves nodes, capped and the
    members exact only while the element cap cannot fire during the level,
    i.e. while the nodes before it plus its candidates stay below
    max_elements; otherwise every product is formed.
    """
    home = (aut.base, ())
    level1 = (alpha.conj(h) for h in free_ball(alphabet, bounds.radius))
    inverse_reads = {}   # level-1 candidate y -> (coset of y^-1, inverse of its tag word)
    exprs = {}           # candidates in C -> expression; the one a cap stopped at included
    nodes, level = 0, 1  # candidates before the current level; its number

    def first_level():
        nonlocal nodes
        for y in level1:
            nodes += 1
            tags = []
            c = aut.coset(y.inverse(), tags)
            right = aut._tag_word(tags).inverse()
            inverse_reads[y] = c, right
            if c == home:
                exprs.setdefault(y, right)
            yield y

    def products(frontier, first):
        nonlocal nodes, level
        level += 1
        count = len(frontier) * len(first)
        form_all = level < bounds.max_n or nodes + count >= max_elements
        nodes += count
        reads = [inverse_reads[y] for y in first]
        for x in frontier:
            tags = []
            cx = aut.coset(x, tags)
            left = aut._tag_word(tags)
            for y, (cy, right) in zip(first, reads):
                if cx == cy:
                    z = x * y
                    if z not in exprs:
                        exprs[z] = left * right
                    yield z
                else:
                    yield x * y if form_all else None

    seen, capped = _nss_closure([alpha], lambda w: w.is_identity, first_level(),
                                products, bounds, max_elements)
    members = {z: e for z, e in exprs.items() if z in seen}
    for z, e in members.items():
        if aut.evaluate(e) != z:
            raise InternalInvariantError(f"expression of NSS member {z} failed evaluation check")
    return members, capped


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    certificate: Optional[GtCertificate]
    capped: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def _cancel_key(x: AmalgamElement):
    """An invariant of the element x: its factor sequence, or at length 0
    its head.  By the normal form theorem every reduced form of x has the
    same factor sequence, and edge words are reduced words over a free
    alphabet, so the key does not depend on where the head was placed."""
    return x.index_vector if x.comps else x.head


def _inverse_key(x: AmalgamElement):
    """_cancel_key of x's inverse, read off x without inverting it."""
    return x.index_vector[::-1] if x.comps else x.head.inverse()


def search_gt(G: Amalgam, g: AmalgamElement, bounds: SearchBounds) -> SearchResult:
    """Search for a product of conjugates of g equal to 1.

    The search runs in layers of (n, total conjugator component count), in
    increasing order, and depth-first inside each layer (_first_product),
    so tuples are tried by (n, total, lexicographic in ball order) and the
    first certificate found is canonical.  A none-found outcome with
    capped=False exhausts the stated bounds; it is not a proof of
    generalized-torsion-freeness.

    The last slot is a bucket lookup: partial * g^h is 1 only when g^h is
    partial's inverse, so only the conjugates whose _cancel_key is
    partial's _inverse_key are multiplied out, in ball order.  ``nodes``
    and the cap count every candidate of that slot as _first_product does.
    """
    if g.is_identity:
        raise PreconditionError("the base element must be nontrivial")
    ball = amalgam_conjugator_ball(G, bounds)
    ball.sort(key=lambda x: (x.length, x.serialize()))
    conj_cache = [g.conj(h) for h in ball]
    buckets = {}  # _cancel_key -> indices of the conjugates with it, ascending
    for idx, c in enumerate(conj_cache):
        buckets.setdefault(_cancel_key(c), []).append(idx)
    lens = [h.length for h in ball]
    top = lens[-1]
    nodes = 0

    # windows[slots][left]: the conjugators, in ball order, that leave a
    # length the other slots can still fill; row n is built for layer n
    windows = [None]
    for n in range(1, bounds.max_n + 1):
        windows.append([range(bisect_left(lens, left - (n - 1) * top), bisect_right(lens, left))
                        for left in range(top * n + 1)])
        for total in range(0, top * n + 1):
            path, _, used = _first_product(
                G.identity(),
                lambda p: windows[n - len(p)][total - sum(map(lens.__getitem__, p))],
                lambda x, i: x * conj_cache[i], lambda x, m: m == n and x.is_identity,
                n, bounds.node_cap - nodes, lambda x: buckets.get(_inverse_key(x), ()))
            nodes += used
            if path is not None:
                cert = GtCertificate(g, [ball[i] for i in path])
                if not verify_gt_certificate(G, cert):
                    raise InternalInvariantError("found certificate fails verification")
                return SearchResult(cert, False, nodes)
            if nodes > bounds.node_cap:
                return SearchResult(None, True, nodes)
    return SearchResult(None, False, nodes)


def _first_product(start, units, step, accept, depth: int, budget: int, last=None):
    """Depth-first search over unit index sequences i_1 ... i_m, m <= depth.

    The slot after a prefix ``path`` tries the unit indices of the range
    units(path), in order.  The products x_m = step(x_{m-1}, i_m), from
    x_0 = start, are tried in lexicographic order of their index sequences,
    one node each, and the first with accept(x_m, m) ends the search.
    Returns (its index tuple, x_m, nodes used), or (None, None, nodes used)
    when none is accepted; a search stopped by the budget has used
    budget + 1 nodes.

    ``last``, when given, maps a product x one unit short of depth to the
    ascending unit indices i for which alone accept(step(x, i), depth) can
    hold.  The deepest slot, range(lo, hi), then multiplies out only those,
    and its nodes are counted as the unit-by-unit scan counts them:
    i - lo + 1 for a hit at i, hi - lo for a miss, and a budget that the
    scan would exhaust first stops the search the same way.
    """
    # (product, its indices, the next slot's range, the rest of it to try)
    r = units(())
    stack = [(start, (), r, iter(r))]
    nodes = 0
    while stack:
        x, path, r, rest = stack[-1]
        if last is not None and len(path) == depth - 1:
            stack.pop()
            lo = r.start
            stop = min(r.stop, lo + budget - nodes)
            hits = last(x)
            for i in hits[bisect_left(hits, lo):bisect_left(hits, stop)]:
                y = step(x, i)
                if accept(y, depth):
                    return path + (i,), y, nodes + i - lo + 1
            if stop < r.stop:
                return None, None, budget + 1
            nodes += len(r)
            continue
        for i in rest:
            nodes += 1
            if nodes > budget:
                return None, None, nodes
            y = step(x, i)
            p = path + (i,)
            if accept(y, len(p)):
                return p, y, nodes
            if len(p) < depth:
                r = units(p)
                stack.append((y, p, r, iter(r)))
                break
        else:
            stack.pop()
    return None, None, nodes


# ---------------------------------------------------------------------------
# Explicit certificate constructions
# ---------------------------------------------------------------------------

def _primed(alphabet: Sequence[str], w: Word) -> Word:
    """The copy of w in A': each generator a of the alphabet becomes a'."""
    return HomSpec({gen(a): Word([(gen(a + "'"), 1)]) for a in alphabet}).apply(w)


def doubled_amalgam(alphabet: Sequence[str], edge_gens: Sequence[Word]) -> Amalgam:
    """A *_C A' : two copies of a free group glued along <edge_gens>."""
    primed = [_primed(alphabet, w) for w in edge_gens]
    f1 = FreeFactor("A", [gen(a) for a in alphabet])
    f2 = FreeFactor("A'", [gen(a + "'") for a in alphabet])
    edge_alpha = tuple(gen("e", i + 1) for i in range(len(edge_gens)))
    return Amalgam(
        [f1, f2],
        EdgeIdentification(edge_alpha, (tuple(edge_gens), tuple(primed))),
    )


def bergman_witness(alphabet: Sequence[str], edge_gens: Sequence[Word],
                    a: Word, cs: Sequence[Word]):
    """Certificate for a' a^-1 in A *_C A' from an RTF violation in (A, C).

    Requires a outside C, each c_i in C, n >= 2, and the alternating
    product a c_1 a c_2 ... a c_n to land in C.  The conjugators are the
    suffix products (a c_i)(a c_{i+1})...(a c_n), which telescope the two
    spellings of the C-element against each other.
    """
    cs = list(cs)
    if len(cs) < 2:
        raise PreconditionError("need n >= 2 conjugating constants")
    G0 = doubled_amalgam(alphabet, edge_gens)
    A = G0.factors[0]
    if A.in_edge(a):
        raise PreconditionError("a must lie outside C")
    for c in cs:
        if not A.in_edge(c):
            raise PreconditionError(f"not an element of C: {c}")
    # suffixes[k] = (a c_{n-k+1}) ... (a c_n), built right to left
    suffixes = [Word()]
    for c in reversed(cs):
        suffixes.append(a * c * suffixes[-1])
    if not A.in_edge(suffixes[-1]):
        raise PreconditionError(f"a c_1 ... a c_n lies outside C: {suffixes[-1]}")
    base = normalize(G0, [(1, _primed(alphabet, a)), (0, a.inverse())])
    conjugators = [normalize(G0, [(0, w)]) for w in reversed(suffixes[1:])]
    cert = GtCertificate(base, conjugators)
    if not verify_gt_certificate(G0, cert):
        raise InternalInvariantError("constructed certificate fails verification")
    return G0, cert


def bs_amalgam(m: int) -> Amalgam:
    """<a> *_{a^m = c} <b, c | bc = cb>."""
    if m < 2:
        raise PreconditionError("need m >= 2")
    fa = FreeFactor("A", [gen("a")])
    fb = AbelianFactor("B", [gen("b"), gen("c")])
    e = gen("e")
    return Amalgam(
        [fa, fb],
        EdgeIdentification((e,), ((parse_word(f"a^{m}"),), (parse_word("c"),))),
    )


def bs_commutator_witness(m: int):
    """m-term certificate for [a, b] from expanding [a^m, b] = 1.

    Iterating [xy, z] = [y, z]^{x^-1} [x, z] on [a^m, b] gives conjugators
    a^{-(m-1)}, ..., a^{-1}, 1.
    """
    G = bs_amalgam(m)
    a, b = parse_word("a"), parse_word("b")
    base = normalize(G, [(0, a), (1, b), (0, a.inverse()), (1, b.inverse())])
    conjugators = [
        normalize(G, [(0, a ** (-(m - i)))]) for i in range(1, m + 1)
    ]
    cert = GtCertificate(base, conjugators)
    if not verify_gt_certificate(G, cert):
        raise InternalInvariantError("constructed certificate fails verification")
    return G, cert


# ---------------------------------------------------------------------------
# Bounded freeness checks (RTF, multi-malnormality, families)
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    kind: str
    data: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.data}


@dataclass
class SuiteReport:
    """Outcome of a bounded or randomized property check."""

    name: str
    trials: int
    violations: list = field(default_factory=list)
    skips: int = 0
    inconclusive: int = 0
    capped: bool = False
    seed: Optional[int] = None  # set by run_suite; searches take no seed
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "trials": self.trials,
            "violations": [v.to_json() for v in self.violations],
            "skips": self.skips,
            "inconclusive": self.inconclusive,
            "capped": self.capped,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(params=self.params, ok=self.ok)
        return out


def subgroup_product_ball(generators: Sequence[Word], radius: int,
                          include_identity: bool = True) -> list:
    """Products of <= radius generators (and inverses), deduplicated."""
    units = list(generators) + [w.inverse() for w in generators]
    return _product_ball(units, radius, include_identity)


def _outside_ball(aut: SubgroupAutomaton, alphabet: Sequence[Generator],
                  max_letters: int) -> list:
    """The letter ball of free_ball minus the subgroup, which must not be empty."""
    ball = [w for w in free_ball(alphabet, max_letters) if not aut.contains(w)]
    if not ball:
        raise PreconditionError("subgroup contains the whole ball; not proper here")
    return ball


def check_rtf(alphabet: Sequence[Generator], subgroup_gens: Sequence[Word],
              bounds: SearchBounds) -> SuiteReport:
    """Bounded search for g h_1 g h_2 ... g h_k = 1 with g outside H.

    g runs over the letter ball minus H; the h_i over products of at most
    ``radius`` subgroup generators; k <= max_n.  Finding such a product
    refutes relative torsion-freeness; none-found within bounds (possibly
    capped) merely corroborates it.

    The last slot is a lookup: x g h_k = 1 only for h_k = (x g)^-1, so
    each product x one block short of max_n looks that word up among the
    h candidates instead of multiplying out every x g h.  Nodes and the cap
    count every candidate of that slot up to the hit (or all of them), as
    trying each in turn would (see _first_product).
    """
    aut = SubgroupAutomaton(subgroup_gens)
    gball = _outside_ball(aut, alphabet, bounds.max_elt_letters)
    hball = subgroup_product_ball(subgroup_gens, bounds.radius)
    index = {h: (i,) for i, h in enumerate(hball)}
    report = SuiteReport("rtf", 0, params={
        "bounds": bounds.to_json(),
        "g_candidates": len(gball),
        "h_candidates": len(hball),
    })
    nodes = 0
    for g in gball:
        report.trials += 1
        path, _, used = _first_product(
            Word(), lambda _p: range(len(hball)), lambda x, i: x * g * hball[i],
            lambda x, _m: x.is_identity, bounds.max_n, bounds.node_cap - nodes,
            lambda x: index.get((x * g).inverse(), ()))
        nodes += used
        if path is not None:
            report.violations.append(Violation("rtf-violation", {
                "g": str(g), "h": [str(hball[i]) for i in path],
            }))
            break
        if nodes > bounds.node_cap:
            report.capped = True
            break
    report.params["nodes"] = nodes
    return report


def check_multimalnormal(alphabet: Sequence[Generator],
                         subgroup_gens: Sequence[Word],
                         seeds: Sequence[Word],
                         bounds: SearchBounds) -> SuiteReport:
    """Bounded search for c_1^{a_1} ... c_n^{a_n} in C with all a_i outside C.

    The c_i run over the bounded normal subsemigroup of C generated by the
    seeds (conjugators are products of subgroup generators); products that
    normalize into C are violations of the defining condition.
    """
    aut = SubgroupAutomaton(subgroup_gens)
    for s in seeds:
        if not aut.contains(s):
            raise PreconditionError(f"seed lies outside C: {s}")
    conj_in_c = subgroup_product_ball(subgroup_gens, bounds.radius)
    cball, capped = nss_ball_free(alphabet, seeds, bounds, conjugators=conj_in_c,
                                  max_elements=20_000)
    if any(w.is_identity for w in cball):
        raise PreconditionError("the identity lies in the seed ball; invalid C'")
    cball = sort_words(cball, lengths=cball)
    aball = _outside_ball(aut, alphabet, bounds.max_elt_letters)
    report = SuiteReport("multimalnormal", 0, capped=capped, params={
        "bounds": bounds.to_json(),
        "c_candidates": len(cball),
        "a_candidates": len(aball),
    })
    na = len(aball)
    report.trials = 1
    path, product, nodes = _first_product(
        Word(), lambda _p: range(len(cball) * na),
        lambda x, i: x * cball[i // na].conj(aball[i % na]),
        lambda x, _m: aut.contains(x), bounds.max_n, bounds.node_cap)
    if path is not None:
        report.violations.append(Violation("multimalnormal-violation", {
            "terms": [str((cball[i // na], aball[i % na])) for i in path],
            "product": str(product),
        }))
    elif nodes > bounds.node_cap:
        report.capped = True
    report.params["nodes"] = nodes
    return report


def check_nss_intersection(alphabet: Sequence[Generator],
                           subgroup_gens: Sequence[Word],
                           alpha: Word,
                           bounds: SearchBounds) -> SuiteReport:
    """Check NSS_A({alpha}) cap C inside NSS_C({alpha}) on a bounded ball.

    The ambient side is the bounded NSS ball of alpha in the free group A
    (nss_ball_free).  Which of its elements lie in C, and their expressions
    over C's free basis (the subgroup generators must be one), are read off
    cosets as the ball is built (_nss_members): one coset read per level-1
    element's inverse and per frontier element, not one read per element.
    Each member w is decided over that basis, where alpha and w read as
    words A and W.  A product of k conjugates of A maps to k ab(A) in C's
    abelianization, which fixes the level k:
    - exact refutation by abelianization: if ab(W) is no positive multiple
      k ab(A) (when ab(A) = 0: if ab(W) != 0), w lies outside
      NSS_C({alpha}) and is reported as a violation.  If ab(A) != 0, k is
      forced; if ab(A) = 0, k runs over 1..2 max_n;
    - exact level 1: W is a conjugate of A in C iff their cyclic
      reductions are rotations of each other; when k = 1 is forced and
      they are not, w is a violation;
    - bounded levels 2 <= k <= 2 max_n: W is at level k if W (A^c)^-1 is
      at level k - 1 for some c among the products of at most 2 radius
      basis letters; each such test is one node under node_cap.  A member
      that no bounded level explains (a forced k > 2 max_n included) is
      inconclusive, and the report is capped if the node cap stopped it.
    """
    aut = SubgroupAutomaton(subgroup_gens)
    if aut.rank != len(aut.generators):
        raise PreconditionError(
            f"the {len(aut.generators)} subgroup generators must be a free basis "
            f"of C, which has rank {aut.rank}")
    if not aut.contains(alpha) or alpha.is_identity:
        raise PreconditionError("alpha must be a nontrivial element of C")
    exprs, capped = _nss_members(aut, alphabet, alpha, bounds)
    members = sort_words(exprs)
    report = SuiteReport("nss-intersection", len(members), capped=capped,
                         params={"bounds": bounds.to_json(), "alpha": str(alpha)})
    levels = _NssLevels(aut.express(alpha), aut.rank, 2 * bounds.radius,
                        2 * bounds.max_n, bounds.node_cap)
    for w in members:
        verdict = levels.decide(exprs[w])
        if verdict is False:
            report.violations.append(
                Violation("nss-intersection-violation", {"member": str(w)}))
        elif verdict is None:
            report.inconclusive += 1
    report.capped = report.capped or levels.nodes > bounds.node_cap
    report.params["nodes"] = levels.nodes
    return report


@functools.lru_cache(maxsize=16)
def _witness_ball(rank: int, radius: int) -> tuple:
    """``subgroup_product_ball`` over the witness letters g[1]..g[rank].

    It depends on (rank, radius) alone, so every NSS level search with the
    same shape shares one copy.
    """
    return tuple(subgroup_product_ball(
        [Word([(_witness_gen(i), 1)]) for i in range(rank)], radius))


class _NssLevels:
    """Membership in NSS_C({A}) for a word A over C's basis g[1]..g[rank],
    level by level as check_nss_intersection describes.  All level searches
    share one node cap; the conjugator ball of ``radius`` basis letters
    (from _witness_ball) and the (A^c)^-1 are taken when a search first
    needs them."""

    def __init__(self, A: Word, rank: int, radius: int, max_level: int,
                 node_cap: int):
        self.letters = [_witness_gen(i) for i in range(rank)]
        self.ab_a = [A.exponent_sum(g) for g in self.letters]
        self.pivot = next((i for i, x in enumerate(self.ab_a) if x), None)
        self.key = conjugacy_key(A)
        self.a_inv = A.inverse()
        self.radius = radius
        self.max_level = max_level
        self.node_cap = node_cap
        self.nodes = 0
        self.conjugators = None
        self.inv_conj = []

    def decide(self, W: Word) -> Optional[bool]:
        """True if W is found in NSS_C({A}), False if it provably lies
        outside, None if neither is settled within the bounds."""
        ab_w = [W.exponent_sum(g) for g in self.letters]
        if self.pivot is None:
            if any(ab_w):
                return False
            if conjugacy_key(W) == self.key:
                return True
            ks = range(2, self.max_level + 1)
        else:
            k, r = divmod(ab_w[self.pivot], self.ab_a[self.pivot])
            if k < 1 or r or ab_w != [k * x for x in self.ab_a]:
                return False
            if k == 1:
                return conjugacy_key(W) == self.key
            ks = [k] if k <= self.max_level else []
        for k in ks:
            if self.nodes > self.node_cap:
                break
            if self.conjugators is None:
                self.conjugators = _witness_ball(len(self.letters), self.radius)
            # W is at level k if some W (A^c_k)^-1 ... (A^c_2)^-1 is a conjugate of A
            path, _, used = _first_product(
                W, lambda _p: range(len(self.conjugators)), self._unconjugate,
                lambda y, m: m == k - 1 and conjugacy_key(y) == self.key,
                k - 1, self.node_cap - self.nodes)
            self.nodes += used
            if path is not None:
                return True
        return None

    def _unconjugate(self, x: Word, i: int) -> Word:
        """x (A^c)^-1 for the i-th conjugator c."""
        if i == len(self.inv_conj):
            self.inv_conj.append(self.a_inv.conj(self.conjugators[i]))
        return x * self.inv_conj[i]


@dataclass
class FamilySpec:
    """Per factor, a list of named seed sets, each generating an NSS."""

    seeds: list  # seeds[i] = list of (name, [Word, ...]) for factor i

    def __post_init__(self):
        for per_factor in self.seeds:
            if not per_factor:
                raise PreconditionError("every factor needs at least one seed set")


def _factor_nss_ball(f, seeds: Sequence[Word], bounds: SearchBounds):
    if f.kind == "free":
        return nss_ball_free(f.alphabet, seeds, bounds)
    # abelian: conjugation is trivial, the NSS is the set of sums
    seeds = list(seeds)
    return _nss_closure(seeds, f.is_identity, (f.canonical(s) for s in seeds),
                        lambda frontier, first: (f.mul(x, y) for x in frontier for y in first),
                        bounds, 200_000)


def check_family(G: Amalgam, fam: FamilySpec, bounds: SearchBounds) -> SuiteReport:
    """Ball check of the two family conditions for the GTF criterion.

    (1) every nontrivial factor-ball element lies in some seed set's NSS
    ball; (2) for each seed set P of factor i and each other factor j, some
    seed set Q of factor j has the same edge trace: P-ball cap C equals
    Q-ball cap C as sets of edge words.
    """
    if len(fam.seeds) != len(G.factors):
        raise PreconditionError("one seed family per factor required")
    report = SuiteReport("family", 0, params={"bounds": bounds.to_json()})
    balls = []
    capped = False
    for f, per_factor in zip(G.factors, fam.seeds):
        named = {}
        for name, seeds in per_factor:
            ball, c = _factor_nss_ball(f, seeds, bounds)
            capped = capped or c
            named[name] = ball
        balls.append(named)
    report.capped = capped
    # condition (1)
    for fi, f in enumerate(G.factors):
        for w in f.ball(bounds.max_elt_letters):
            if f.is_identity(w):
                continue
            report.trials += 1
            if not any(w in ball for ball in balls[fi].values()):
                report.violations.append(Violation("family-coverage", {
                    "factor": f.name, "element": str(w),
                }))
    # condition (2): matching edge traces
    traces = []
    for fi, f in enumerate(G.factors):
        tr = {}
        for name, ball in balls[fi].items():
            tr[name] = frozenset(
                str(f.to_edge(w)) for w in ball if f.in_edge(w)
            )
        traces.append(tr)
    for fi in range(len(G.factors)):
        for name, trace in traces[fi].items():
            for fj in range(len(G.factors)):
                if fj == fi:
                    continue
                report.trials += 1
                if not any(trace == other for other in traces[fj].values()):
                    report.violations.append(Violation("family-edge-mismatch", {
                        "factor": G.factors[fi].name,
                        "seed_set": name,
                        "against_factor": G.factors[fj].name,
                        "trace": sorted(trace),
                    }))
    return report

