"""Elements and arithmetic of free products with amalgamation G = *_C G_i.

Factor groups are either free (membership and expression in the edge
subgroup delegated to Stallings automata) or free-abelian (exact integer
lattice arithmetic; supported with a rank-one edge, which is what the
Baumslag-Solitar style examples need).  Elements are kept in alternating
normal form: an edge-word head c followed by components g_1..g_n from
alternating factors, none lying in the edge subgroup.  Equality is decided
by normalizing x * y^-1, never via canonical coset representatives.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalInvariantError, PreconditionError
from .stallings import SubgroupAutomaton
from .word import (
    Generator,
    Word,
    _concat,
    _product_ball,
    _word,
    gen,
    json_alphabet,
    json_list,
    json_str,
    parse_word,
    sort_words,
    substitute,
)

EDGE_TAG = "C"

# A factor's junction table is emptied wholesale when it holds this many entries.
JUNCTION_TABLE_SIZE = 1 << 16

# The outcomes of _Factor.junction, each paired with a word (see there).
DISSOLVED, POPPED, MERGED, SETTLED = range(4)

# one block "[tag: word]"; the word may use indexed generators such as a[2]
_BLOCK = r"\[([^:\[\]]+):((?:[^\[\]]|\[-?\d+\])*)\]"
_BLOCK_RE = re.compile(_BLOCK)
_ELEMENT_RE = re.compile(rf"\s*(?:{_BLOCK}\s*)*")


class _Factor:
    """What both factor kinds share: the edge alphabet, its images here and
    the junction step of the normal form."""

    def _attach_edge(self, alphabet: Sequence[Generator], images: Sequence[Word]):
        gens = frozenset(self.alphabet)
        for w in images:
            _check_alphabet(w, gens, f"the alphabet of factor {self.name}")
        self._edge_alphabet = tuple(alphabet)
        self.edge_images = tuple(self.canonical(w) for w in images)
        self._edge_image = dict(zip(self._edge_alphabet, self.edge_images)).__getitem__
        # junction outcomes hold for this edge only: a new edge starts new tables
        self._junctions = {}
        # few distinct outcomes recur over many junctions: each is stored once
        self._outcomes = {}

    def from_edge(self, ew: Word) -> Word:
        return self.canonical(substitute(ew, self._edge_image))

    def junction(self, y: Word, head: Word, top: Optional[Word]) -> tuple:
        """Absorb the canonical component y across the edge word head into
        top, the component of this factor to its right (None if there is none).

        Returns one of four outcomes, each with a word:
          (DISSOLVED, e)  y head lies in the edge subgroup, as the edge word e
                          (e is the identity when y head is; top is kept);
          (POPPED, e)     y head top lies in the edge subgroup as e: top goes;
          (MERGED, z)     z = y head top lies outside it and replaces top;
          (SETTLED, z)    z = y head lies outside it and becomes a component.
        Outcomes are memoized per factor, so each distinct junction is
        computed (and its edge expression checked) once; the tables are
        emptied when they reach JUNCTION_TABLE_SIZE junctions.
        """
        # keyed by the syllable tuples: they hash and compare in C
        key = (y.syls, head.syls, None if top is None else top.syls)
        table = self._junctions
        out = table.get(key)
        if out is None:
            if not head.is_identity:
                y = self.mul(y, self.from_edge(head))
            if y.is_identity:  # y is canonical
                out = (DISSOLVED, y)
            elif top is not None:
                z = self.mul(y, top)
                e = self.to_edge(z)
                out = (MERGED, z) if e is None else (POPPED, e)
            else:
                e = self.to_edge(y)
                out = (SETTLED, y) if e is None else (DISSOLVED, e)
            if len(table) >= JUNCTION_TABLE_SIZE:
                table.clear()
                self._outcomes.clear()
            out = table[key] = self._outcomes.setdefault(out, out)
        return out

    def parse(self, text: str) -> Word:
        return self.canonical(parse_word(text, self.alphabet))


class FreeFactor(_Factor):
    """A free factor group together with its edge-subgroup data.

    `automaton` is the folded edge subgroup, or None while there is no edge.
    """

    kind = "free"

    def __init__(self, name: str, alphabet: Sequence[Generator]):
        self.name = name
        self.alphabet = tuple(alphabet)
        self.edge_images: tuple = ()
        self.automaton: Optional[SubgroupAutomaton] = None

    def _attach_edge(self, alphabet: Sequence[Generator], images: Sequence[Word]):
        super()._attach_edge(alphabet, images)
        if alphabet:
            self.automaton = SubgroupAutomaton(self.edge_images)
            if self.automaton.rank != len(alphabet):
                raise PreconditionError(
                    f"edge images in factor {self.name} do not freely generate: "
                    f"rank {self.automaton.rank} != {len(alphabet)}"
                )

    # group operations on elements (plain reduced words)
    def canonical(self, x: Word) -> Word:
        return x

    def mul(self, x: Word, y: Word) -> Word:
        return x * y

    def inv(self, x: Word) -> Word:
        return x.inverse()

    def is_identity(self, x: Word) -> bool:
        return x.is_identity

    # edge subgroup
    def in_edge(self, x: Word) -> bool:
        if x.is_identity:
            return True
        if self.automaton is None:
            return False
        return self.automaton.contains(x)

    def to_edge(self, x: Word) -> Optional[Word]:
        """Expression of x over the edge alphabet, or None when x is outside."""
        if x.is_identity:
            return Word()
        expr = None if self.automaton is None else self.automaton.try_express(x)
        if expr is None:
            return None
        return Word([(self._edge_alphabet[g.index - 1], e) for g, e in expr.syls])

    def ball(self, max_letters: int):
        """All nontrivial reduced words with letter length <= max_letters."""
        letters = [Word([(g, s)]) for g in self.alphabet for s in (1, -1)]
        return _product_ball(letters, max_letters, include_identity=False)


class AbelianFactor(_Factor):
    """A finitely generated free-abelian factor; elements are sorted words."""

    kind = "free-abelian"

    def __init__(self, name: str, alphabet: Sequence[Generator]):
        self.name = name
        self.alphabet = tuple(sorted(alphabet, key=lambda g: g.sort_key()))
        self._rank = {g: i for i, g in enumerate(self.alphabet)}
        self.edge_images: tuple = ()

    def _attach_edge(self, alphabet: Sequence[Generator], images: Sequence[Word]):
        if len(alphabet) > 1:
            raise PreconditionError(
                "free-abelian factors support a rank-one edge subgroup only"
            )
        super()._attach_edge(alphabet, images)
        if not alphabet:
            return
        if self.edge_images[0].is_identity:
            raise PreconditionError("edge image in abelian factor must be nontrivial")
        # a nontrivial word over the alphabet: its vector is nonzero
        self._edge_vec = u = self._vec(self.edge_images[0])
        self._edge_lead = next(i for i, b in enumerate(u) if b)

    def canonical(self, x: Word) -> Word:
        """x with its exponents summed per generator, in alphabet order.

        A word whose generators are distinct alphabet letters in alphabet
        order is canonical already and is returned as it is.
        """
        rank = self._rank
        prev = -1
        for g, _e in x.syls:
            r = rank.get(g, -1)
            if r <= prev:
                return self._collect(x.syls)
            prev = r
        return x

    def _collect(self, syls) -> Word:
        """Exponents summed per generator, zeros dropped, in sort_key order."""
        sums = {}
        for g, e in syls:
            sums[g] = sums.get(g, 0) + e
        return _word(tuple(sorted(
            ((g, e) for g, e in sums.items() if e),
            key=lambda p: p[0].sort_key(),
        )))

    def mul(self, x: Word, y: Word) -> Word:
        return self._collect(x.syls + y.syls)

    def inv(self, x: Word) -> Word:
        return self.canonical(x.inverse())

    def is_identity(self, x: Word) -> bool:
        return self.canonical(x).is_identity

    def _vec(self, x: Word) -> tuple:
        """Exponent sums per alphabet letter; other generators are ignored."""
        rank = self._rank
        v = [0] * len(rank)
        for g, e in x.syls:
            r = rank.get(g)
            if r is not None:
                v[r] += e
        return tuple(v)

    def in_edge(self, x: Word) -> bool:
        return self.to_edge(x) is not None

    def to_edge(self, x: Word) -> Optional[Word]:
        x = self.canonical(x)
        if x.is_identity:
            return Word()
        if not self.edge_images:
            return None
        v = self._vec(x)
        u, i = self._edge_vec, self._edge_lead
        k, r = divmod(v[i], u[i])
        if r or tuple(b * k for b in u) != v:
            return None
        return Word([(self._edge_alphabet[0], k)])

    def ball(self, max_letters: int):
        rng = range(-max_letters, max_letters + 1)
        out = []
        for combo in itertools.product(rng, repeat=len(self.alphabet)):
            if 0 < sum(abs(c) for c in combo) <= max_letters:
                out.append(Word([(g, c) for g, c in zip(self.alphabet, combo) if c]))
        return out


FACTOR_KINDS = {klass.kind: klass for klass in (FreeFactor, AbelianFactor)}


@dataclass
class EdgeIdentification:
    """Edge alphabet plus, for each factor, the images of its generators."""

    alphabet: tuple
    images: tuple  # images[i][j]: Word in factor i for edge generator j


class Amalgam:
    """A free product of factor groups amalgamated over a common subgroup."""

    def __init__(self, factors: Sequence, edge: EdgeIdentification, name: str = "G"):
        self.name = name
        self.factors = tuple(factors)
        self.edge = edge
        if len(edge.images) != len(self.factors):
            raise PreconditionError("one edge image tuple per factor required")
        for f, images in zip(self.factors, edge.images):
            if len(images) != len(edge.alphabet):
                raise PreconditionError("edge image tuple has wrong arity")
            f._attach_edge(edge.alphabet, images)
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise PreconditionError("factor names must be distinct")
        self._by_name = {f.name: i for i, f in enumerate(self.factors)}
        self._edge_gens = frozenset(edge.alphabet)
        self._factor_gens = tuple(frozenset(f.alphabet) for f in self.factors)

    # -- element construction ------------------------------------------------

    def identity(self) -> "AmalgamElement":
        return AmalgamElement(self, Word(), ())

    def factor_index(self, ref) -> int:
        if isinstance(ref, int):
            if 0 <= ref < len(self.factors):
                return ref
        elif ref in self._by_name:
            return self._by_name[ref]
        raise PreconditionError(
            f"unknown factor {ref!r}; known factors: "
            + ", ".join(f"{i} ({f.name})" for i, f in enumerate(self.factors))
        )

    # -- parsing / formatting -------------------------------------------------

    def parse_element(self, text: str) -> "AmalgamElement":
        """Parse blocks ``[tag: word]`` (or ``1``); anything else is an error."""
        if not _ELEMENT_RE.fullmatch(text) and text.strip() != "1":
            raise PreconditionError(f"cannot parse element: {text!r}")
        raw = []
        for tag, body in _BLOCK_RE.findall(text):
            tag = tag.strip()
            if tag == EDGE_TAG and tag not in self._by_name:
                raw.append((EDGE_TAG, parse_word(body, self.edge.alphabet)))
            else:
                i = self.factor_index(tag)
                raw.append((i, self.factors[i].parse(body)))
        return normalize(self, raw)

    def to_json(self) -> dict:
        return {
            "kind": "amalgam",
            "name": self.name,
            "factors": [
                {
                    "kind": f.kind,
                    "name": f.name,
                    "alphabet": [str(g) for g in f.alphabet],
                }
                for f in self.factors
            ],
            "edge": {
                "alphabet": [str(g) for g in self.edge.alphabet],
                "images": [
                    [str(w) for w in images] for images in self.edge.images
                ],
            },
        }

    @classmethod
    def from_json(cls, data) -> "Amalgam":
        factors = []
        for fd in json_list(data["factors"], "factors"):
            alphabet = json_alphabet(fd["alphabet"], "alphabet")
            klass = FACTOR_KINDS.get(fd["kind"])
            if klass is None:
                raise PreconditionError(f"unknown factor kind {fd['kind']!r}; known kinds: "
                                        + ", ".join(FACTOR_KINDS))
            factors.append(klass(json_str(fd["name"], "factor name"), alphabet))
        edge = data["edge"]
        edge_alpha = tuple(json_alphabet(edge["alphabet"], "edge alphabet"))
        rows = json_list(edge["images"], "edge images")
        if len(rows) != len(factors):
            raise PreconditionError("one edge image tuple per factor required")
        images = tuple(
            tuple(parse_word(w, f.alphabet) for w in json_list(row, "edge images"))
            for f, row in zip(factors, rows)
        )
        return cls(factors, EdgeIdentification(edge_alpha, images),
                   name=json_str(data.get("name", "G"), "group name"))


def _outside_edge_balls(G: Amalgam, max_letters: int) -> list:
    """Per factor, its ball minus the edge subgroup, sorted by sort_key."""
    return [sort_words(x for x in f.ball(max_letters) if not f.in_edge(x))
            for f in G.factors]


class AmalgamElement:
    """Alternating normal form: head edge word, then components (factor, word).

    Invariant: consecutive components lie in different factors, every
    component word is canonical in its factor and none lies in the edge
    subgroup.  Products and inverses rely on it and touch only the junction;
    raw input goes through normalize, and a hand-built element must already
    be in this form.
    """

    __slots__ = ("amalgam", "head", "comps")

    def __init__(self, amalgam: Amalgam, head: Word, comps: tuple):
        self.amalgam = amalgam
        self.head = head
        self.comps = comps

    # -- structure -------------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.comps)

    @property
    def is_identity(self) -> bool:
        return not self.comps and self.head.is_identity

    @property
    def index_vector(self) -> tuple:
        # from a list, not a generator: tuple(generator) allocates a spare
        # tuple and shrinks it, and the shrunk tuples pile up in CPython's
        # per-size tuple free lists
        return tuple([i for i, _ in self.comps])

    @property
    def lei(self) -> Optional[int]:
        return self.comps[0][0] if self.comps else None

    @property
    def rei(self) -> Optional[int]:
        return self.comps[-1][0] if self.comps else None

    def raw(self) -> list:
        out = []
        if not self.head.is_identity:
            out.append((EDGE_TAG, self.head))
        out.extend(self.comps)
        return out

    # -- group operations --------------------------------------------------------

    def __mul__(self, other: "AmalgamElement") -> "AmalgamElement":
        G, a, b = self.amalgam, self.comps, other.comps
        j, fi, w, k = _junction_walk(G.factors, a, other.head, b)
        if fi is None:
            return AmalgamElement(G, self.head * w, b[k:])
        return AmalgamElement(G, self.head, a[:j] + ((fi, w),) + b[k:])

    def inverse(self) -> "AmalgamElement":
        G = self.amalgam
        if not self.comps:
            return AmalgamElement(G, self.head.inverse(), ())
        comps = [(i, G.factors[i].inv(x)) for i, x in reversed(self.comps)]
        if not self.head.is_identity:
            i, y = comps[-1]
            f = G.factors[i]
            comps[-1] = (i, f.mul(y, f.from_edge(self.head.inverse())))
        return AmalgamElement(G, Word(), tuple(comps))

    __invert__ = inverse

    def __pow__(self, n: int) -> "AmalgamElement":
        """The |n|-fold left product (_product) of self, or of its inverse
        for n < 0.  No squaring: normal forms are not canonical, and another
        association order may place the heads differently."""
        if type(n) is not int:
            raise PreconditionError(f"an element's power must be an int: {n!r}")
        base = self if n > 0 else self.inverse()
        return _product(self.amalgam, itertools.repeat(base, abs(n)))

    def conj(self, h: "AmalgamElement") -> "AmalgamElement":
        return h.inverse() * self * h

    def equals(self, other: "AmalgamElement") -> bool:
        """Group-element equality, decided by normalizing self * other^-1."""
        return (self * other.inverse()).is_identity

    # -- structural identity (for dicts / dedup keys) ------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AmalgamElement)
            and self.head == other.head
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.head, self.comps))

    def serialize(self) -> str:
        parts = []
        if not self.head.is_identity:
            parts.append(f"[{EDGE_TAG}: {self.head}]")
        for i, x in self.comps:
            parts.append(f"[{self.amalgam.factors[i].name}: {x}]")
        return "".join(parts) if parts else "1"

    __str__ = serialize
    __repr__ = serialize


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

def normalize(G: Amalgam, raw) -> AmalgamElement:
    """Alternating normal form of a raw (factor, element) sequence.

    Edge entries may be interleaved with the tag EDGE_TAG.  The form is the
    right fold of the product over the entries, each taken as an edge head
    or as one canonical component; it is built in one list, in time linear
    in the number of entries.  Two raw sequences representing the same
    group element normalize to forms that compare equal under
    AmalgamElement.equals (the head placement itself is not canonical).  A
    word over a generator outside its factor's alphabet (or, for an edge
    entry, outside the edge alphabet) raises PreconditionError.
    """
    # the fold's junction is at the front of its accumulator, so the
    # components are held reversed (front last); each entry is a
    # one-component left operand, whose walk reads only that front
    head, comps = Word(), []
    for tag, x in reversed(list(raw)):
        if tag == EDGE_TAG:
            _check_alphabet(x, G._edge_gens, "the edge alphabet")
            head = x * head
            continue
        fi = G.factor_index(tag)
        f = G.factors[fi]
        _check_alphabet(x, G._factor_gens[fi], f"the alphabet of factor {f.name}")
        _, fi, w, k = _junction_walk(G.factors, ((fi, f.canonical(x)),), head, comps[-1:])
        del comps[len(comps) - k:]
        if fi is None:
            head = w
        else:  # head went into the new component
            comps.append((fi, w))
            head = Word()
    return AmalgamElement(G, head, tuple(reversed(comps)))


def _product(G: Amalgam, elems) -> AmalgamElement:
    """The left product (((1 * x_1) * x_2) ... ) * x_n of the elements, built
    in one list whose tail each factor replaces: linear in their total
    length, where a fold through * copies the gathered components per step."""
    factors, head, comps = G.factors, Word(), []
    for x in elems:
        b = x.comps
        j, fi, w, k = _junction_walk(factors, comps, x.head, b)
        del comps[j:]
        if fi is None:
            head = head * w
        else:
            comps.append((fi, w))
        comps += b[k:]
    return AmalgamElement(G, head, tuple(comps))


def _junction_walk(factors: tuple, a, head: Word, b) -> tuple:
    """The junction of a product (head_a, a) * (head, b) of normal forms.

    a's components are absorbed from the right across the edge word head
    into b's, read from the left, by the factors' junction step.  Returns
    (j, fi, w, k): the product's components are a[:j], then (fi, w), then
    b[k:].  When every component of a is absorbed, fi is None, j is 0 and w
    is the edge word that head_a multiplies on its right.  The callers own
    their containers: the product slices tuples, and _product and
    normalize update one list each.  The junction step dissolves a word in
    the edge subgroup, so a one-component a needs only a canonical
    component.
    """
    k = 0
    for j in range(len(a) - 1, -1, -1):
        fi, x = a[j]
        top = b[k][1] if k < len(b) and b[k][0] == fi else None
        outcome, w = factors[fi].junction(x, head, top)
        if outcome == SETTLED:
            return j, fi, w, k
        if outcome == MERGED:
            return j, fi, w, k + 1
        if outcome == POPPED:
            k += 1
        head = w
    return 0, None, head, k


def _check_alphabet(x: Word, alphabet: frozenset, where: str) -> None:
    for g, _e in x.syls:
        if g not in alphabet:
            raise PreconditionError(f"generator {g} of {x} is not in {where}")


# ---------------------------------------------------------------------------
# Cancellation calculus
# ---------------------------------------------------------------------------

def cancellation_number(g: AmalgamElement, h: AmalgamElement) -> int:
    """The maximal k >= 0 with x_k..x_1 y_1..y_k in C.

    Computed incrementally from the normalized forms, consuming matched
    component pairs at the junction while their product stays in the edge
    subgroup, that is while the factor's junction step (_Factor.junction)
    pops.  Representative independent (h's head is absorbed into the
    running edge element; g's head cannot affect any proper suffix).
    """
    G = g.amalgam
    gs, hs = g.comps, h.comps
    cur = h.head
    k = 0
    m = min(len(gs), len(hs))
    while k < m:
        fi, x = gs[len(gs) - 1 - k]
        fj, y = hs[k]
        if fi != fj:
            break
        outcome, cur = G.factors[fi].junction(x, cur, y)
        if outcome != POPPED:
            break
        k += 1
    return k


def is_reduced(elems: Sequence[AmalgamElement]) -> bool:
    """Whether l(g_1...g_n) = l(g_1) + ... + l(g_n)."""
    elems = list(elems)
    if not elems:
        return True
    return _product(elems[0].amalgam, elems).length == sum(x.length for x in elems)


def end_preserving(elems: Sequence[AmalgamElement], side: str = "both") -> bool:
    """Whether the extremal nontrivial entry's end index survives the product."""
    elems = list(elems)
    nontrivial = [i for i, x in enumerate(elems) if x.length >= 1]
    if not nontrivial:
        raise PreconditionError("all entries have length 0")
    prod = _product(elems[0].amalgam, elems)
    if prod.length == 0:
        return False
    left_ok = prod.lei == elems[nontrivial[0]].lei
    right_ok = prod.rei == elems[nontrivial[-1]].rei
    if side == "left":
        return left_ok
    if side == "right":
        return right_ok
    if side == "both":
        return left_ok and right_ok
    raise PreconditionError(f"side must be left, right or both: {side!r}")


def factors(g: AmalgamElement, side: str = "left"):
    """All l(g)+1 reduced splittings g = g' g'' as (factor, cofactor) pairs.

    side selects which part is reported first: the left parts for
    side="left", the right parts for side="right".  One canonical
    representative per splitting position is returned; edge-subgroup
    translates of a factor behave identically in every membership test.
    """
    if side == "left":
        return list(zip(left_factors(g), right_factors(g)))
    if side == "right":
        return list(zip(right_factors(g), left_factors(g)))
    raise PreconditionError(f"side must be left or right: {side!r}")


def left_factors(g: AmalgamElement):
    """The left parts g' of the splittings, of lengths 0, ..., l(g)."""
    G = g.amalgam
    return [AmalgamElement(G, g.head, g.comps[:j]) for j in range(g.length + 1)]


def right_factors(g: AmalgamElement):
    """The right parts g'' of the splittings, of lengths l(g), ..., 0."""
    G = g.amalgam
    return [AmalgamElement(G, Word(), g.comps[j:]) for j in range(g.length + 1)]


# ---------------------------------------------------------------------------
# Sandwich nontriviality (two-sided cancellation bound)
# ---------------------------------------------------------------------------

@dataclass
class SandwichDecomposition:
    """A product T = g_0 a_1 g_1 a_2 ... a_n g_n, n >= 1."""

    g: list
    alphas: list

    def __post_init__(self):
        if len(self.g) != len(self.alphas) + 1 or not self.alphas:
            raise PreconditionError("need n >= 1 alphas and n+1 g entries")

    def product(self) -> AmalgamElement:
        rest = (x for pair in zip(self.alphas, self.g[1:]) for x in pair)
        return _product(self.g[0].amalgam, itertools.chain(self.g[:1], rest))


@dataclass
class SandwichResult:
    verified: bool
    violation_index: Optional[int] = None
    witness: Optional[tuple] = None
    product_trivial: bool = False

    def __bool__(self):
        return self.verified


def check_sandwich_nontrivial(d: SandwichDecomposition) -> SandwichResult:
    """Verify the two-sided cancellation condition and conclude T != 1.

    For each interior index i, the maximum of K(R a_i, g_i) over right
    factors R of g_{i-1} plus the maximum of K(g_i, a_{i+1} L) over left
    factors L of g_{i+1} must not exceed l(g_i) - 2 (exhaustive over the
    canonical factor enumerations).  When the condition holds the product is
    also normalized and confirmed nontrivial.
    """
    n = len(d.alphas)
    for i in range(1, n):
        gi = d.g[i]
        li, l_wit = 0, None
        for r in right_factors(d.g[i - 1]):
            k = cancellation_number(r * d.alphas[i - 1], gi)
            if k >= li:
                li, l_wit = k, r
        ri, r_wit = 0, None
        for lf in left_factors(d.g[i + 1]):
            k = cancellation_number(gi, d.alphas[i] * lf)
            if k >= ri:
                ri, r_wit = k, lf
        if li + ri > gi.length - 2:
            return SandwichResult(False, i, (l_wit, r_wit))
    t = d.product()
    if t.is_identity:
        if n >= 2:
            raise InternalInvariantError(
                "sandwich condition held for n >= 2 but the product is trivial"
            )
        return SandwichResult(False, 1, None, product_trivial=True)
    return SandwichResult(True)


# ---------------------------------------------------------------------------
# Common constructions
# ---------------------------------------------------------------------------

def free_product_of_free(alphabets: Sequence[Sequence[str]],
                         names: Optional[Sequence[str]] = None) -> Amalgam:
    """Free product of free groups (trivial edge subgroup)."""
    names = names or [chr(ord("A") + i) for i in range(len(alphabets))]
    factors = [
        FreeFactor(nm, [gen(a) for a in alpha])
        for nm, alpha in zip(names, alphabets)
    ]
    edge = EdgeIdentification((), tuple(() for _ in factors))
    return Amalgam(factors, edge)


def free_as_free_product(alphabet: Sequence[str]) -> Amalgam:
    """A free group seen as the free product of its cyclic generator subgroups."""
    return free_product_of_free([[a] for a in alphabet],
                                names=[a.upper() for a in alphabet])


def element_from_free_word(G: Amalgam, w: Word) -> AmalgamElement:
    """Interpret a free-group word in a free product of cyclics."""
    by_gen = {}
    for i, f in enumerate(G.factors):
        for a in f.alphabet:
            by_gen[a] = i
    for g, _e in w.syls:
        if g not in by_gen:
            raise PreconditionError(f"generator {g} of {w} is not in the alphabet of any factor")
    return normalize(G, [(by_gen[g], Word([(g, e)])) for g, e in w.syls])


def free_word_from_element(g: AmalgamElement) -> Word:
    if not g.head.is_identity:
        raise PreconditionError("nontrivial head has no free-word image")
    return _concat(x.syls for _, x in g.comps)
