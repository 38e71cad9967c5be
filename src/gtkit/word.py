"""Exact reduced-word algebra in free groups.

Words are stored run-length, as tuples of (generator, exponent) syllables
with adjacent generators distinct and exponents nonzero.  All operations are
pure; Word and Generator values are immutable and hashable.  Syllable length
(the number of syllables) and letter length (the number of letters) are kept
distinct throughout: ``l(w)`` in the alternating-product sense is
``w.syllable_len``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import NotMemberError, PreconditionError, UnknownGeneratorError


class Generator(str):
    """A named generator, optionally carrying an integer index (a[i] families).

    A Generator is a str equal to its display form, ``"a"`` or ``"a[2]"``,
    so hashing, equality and tuple comparison of syllables run in C and the
    hash is str's cached one.  Hence ``gen("a") == "a"``.  ``name``,
    ``index`` and the ``sort_key()`` tuple are attributes set once, at
    construction; gen() interns.
    """

    def __new__(cls, name: str, index: Optional[int] = None):
        # "[" stays out of names so that equal strings mean equal (name, index)
        if not name or "[" in name:
            raise ValueError(f"generator name must be nonempty and bracket-free: {name!r}")
        self = super().__new__(cls, name if index is None else f"{name}[{index}]")
        vars(self).update(name=name, index=index,
                          _key=(name, index is not None, index or 0))
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"Generator is immutable: cannot set {attr!r}")

    def __reduce__(self):
        # unpickle through the interning constructor
        return (gen, (self.name, self.index))

    def sort_key(self):
        return self._key

    __repr__ = str.__str__


_GEN_CACHE: dict[tuple[str, Optional[int]], Generator] = {}


def gen(name: str, index: Optional[int] = None) -> Generator:
    """Interned Generator constructor."""
    key = (name, index)
    g = _GEN_CACHE.get(key)
    if g is None:
        g = Generator(name, index)
        _GEN_CACHE[key] = g
    return g


class Syllable(NamedTuple):
    generator: Generator
    exponent: int


def _normalize_syllables(pairs) -> tuple:
    out = []
    for g, e in pairs:
        if type(e) is not int:
            raise PreconditionError(f"exponent of {g} must be an int: {e!r}")
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


class Word:
    """A freely reduced word, represented by its syllable decomposition.

    The hash is computed on the first __hash__ call and cached; a pickled
    Word carries its syllables only.
    """

    __slots__ = ("syls", "_hash")

    def __init__(self, syls: Iterable[tuple] = ()):
        self.syls = _normalize_syllables(syls)
        self._hash = None

    def __reduce__(self):
        return (_word, (self.syls,))

    # -- basic structure ---------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.syls

    @property
    def syllable_len(self) -> int:
        return len(self.syls)

    @property
    def letter_len(self) -> int:
        return sum(abs(e) for _, e in self.syls)

    def letters(self) -> Iterator[tuple]:
        """Yield (generator, sign) letter by letter."""
        for g, e in self.syls:
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, s)

    def generators(self) -> set:
        return {g for g, _ in self.syls}

    def exponent_sum(self, g: Generator) -> int:
        return sum(e for h, e in self.syls if h == g)

    # -- 1-based syllable accessors (components of the alternating form) ---

    def component(self, i: int) -> Syllable:
        """The i-th component B_i, 1-based."""
        return Syllable(*self.syls[i - 1])

    def component_from_right(self, i: int) -> Syllable:
        """RB_i, the i-th component counted from the right end."""
        return Syllable(*self.syls[len(self.syls) - i])

    def left(self, i: int) -> "Word":
        """L_i: the first i syllables."""
        return _word(self.syls[:i])

    def right(self, i: int) -> "Word":
        """R_i: the last i syllables."""
        return _word(self.syls[len(self.syls) - i:])

    def segment(self, i: int, j: int) -> "Word":
        """B_[i,j]: syllables i..j inclusive, 1-based."""
        return _word(self.syls[i - 1:j])

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.syls, other.syls
        if not a:
            return other
        if not b:
            return self
        # k syllables cancel at the junction, and the next pair may merge
        n, k, m = len(a), 0, min(len(a), len(b))
        while k < m:
            g, e = a[n - 1 - k]
            h, f = b[k]
            if g != h:
                break
            if e + f:
                return _word(a[:n - 1 - k] + ((g, e + f),) + b[k + 1:])
            k += 1
        return _word(a[:n - k] + b[k:])

    def inverse(self) -> "Word":
        if not self.syls:
            return self
        return _word(tuple([(g, -e) for g, e in reversed(self.syls)]))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Word":
        """Repeated squaring; reduced words are canonical, so the result
        equals the |n|-fold product.  A one-syllable word multiplies its
        exponent."""
        if type(n) is not int:
            raise PreconditionError(f"a word's power must be an int: {n!r}")
        if len(self.syls) == 1 and n:
            g, e = self.syls[0]
            return _word(((g, e * n),))
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return IDENTITY if out is None else out

    def conj(self, g: "Word") -> "Word":
        """The conjugate g^{-1} * self * g."""
        return g.inverse() * self * g

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Word) and self.syls == other.syls

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.syls)
        return h

    def __str__(self):
        if not self.syls:
            return "1"
        parts = []
        for g, e in self.syls:
            parts.append(str(g) if e == 1 else f"{g}^{e}")
        return " ".join(parts)

    __repr__ = __str__

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.letter_len, tuple([(g._key, e) for g, e in self.syls]))


def _word(syls: tuple) -> Word:
    """The Word with the given syllables, which must already be reduced."""
    w = object.__new__(Word)
    w.syls = syls
    w._hash = None
    return w


IDENTITY = Word()


class _SyllableOrder:
    """A syllable tuple ordered as in ``Word.sort_key`` among words of equal
    letter length: compared up to the first differing syllable, by generator
    key and then exponent; a proper prefix comes first."""

    __slots__ = ("syls",)

    def __init__(self, syls: tuple):
        self.syls = syls

    def __lt__(self, other: "_SyllableOrder") -> bool:
        a, b = self.syls, other.syls
        for (g, e), (h, f) in zip(a, b):
            if g != h:
                return g._key < h._key
            if e != f:
                return e < f
        return len(a) < len(b)


def sort_words(words: Iterable[Word],
               lengths: Optional[Mapping[Word, int]] = None) -> list:
    """The words in ``Word.sort_key`` order, without building a key per syllable.

    Letter length decides most comparisons; only words of equal letter
    length compare syllables, and only up to their first difference.
    ``lengths`` maps each word to its letter length when the caller already
    has them (``nss_ball_free`` returns its ball that way); without it each
    length is summed over the word's syllables.
    """
    if lengths is None:
        decorated = sorted([(w.letter_len, _SyllableOrder(w.syls), w) for w in words])
    else:
        decorated = sorted([(lengths[w], _SyllableOrder(w.syls), w) for w in words])
    return [w for _, _, w in decorated]


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def cancellation_syllables(g: Word, h: Word) -> int:
    """Number of syllables that annihilate exactly at the junction of g*h.

    This is the cancellation number of the product when the free group is
    viewed as the free product of its cyclic generator subgroups.
    """
    gs, hs = g.syls, h.syls
    m = min(len(gs), len(hs))
    k = 0
    while k < m:
        g1, e1 = gs[len(gs) - 1 - k]
        g2, e2 = hs[k]
        if g1 == g2 and e1 + e2 == 0:
            k += 1
        else:
            break
    return k


def cancelled_letters(g: Word, h: Word) -> int:
    """Number of letters of g that cancel in g*h, so that
    |g h| = |g| + |h| - 2 cancelled_letters(g, h) in letter lengths.

    Costs one step per syllable that cancels whole, plus the partial
    cancellation of the next pair of syllables when their signs differ.
    """
    gs, hs = g.syls, h.syls
    i, m, out = len(gs) - 1, min(len(gs), len(hs)), 0
    for k in range(m):
        g1, e1 = gs[i - k]
        g2, e2 = hs[k]
        if g1 != g2:
            break
        if e1 + e2:
            if (e1 > 0) != (e2 > 0):
                out += min(abs(e1), abs(e2))
            break
        out += abs(e1)
    return out


def _concat(blocks: Iterable[tuple]) -> Word:
    """The reduced word of the concatenated syllable tuples ``blocks``, each
    already reduced.

    Blocks can only cancel or merge where they meet, so each block is
    reduced against the output's tail until its first syllable that does
    neither, and the rest of the block is copied at once.  A block may
    cancel whole earlier blocks.
    """
    out = []
    for b in blocks:
        i, n = 0, len(b)
        while i < n and out:
            g, e = b[i]
            h, f = out[-1]
            if g != h:
                break
            out.pop()
            i += 1
            if e + f:
                out.append((g, e + f))
                break
        out.extend(b[i:])
    return _word(tuple(out))


def conjugacy_key(w: Word) -> tuple:
    """A syllable tuple equal for two words iff they are conjugate.

    w is cyclically reduced (end syllables that cancel are stripped, and a
    last syllable on the first one's generator is merged into it), and the
    key is the least rotation of what remains.  Cyclically reduced words
    are conjugate iff they are cyclic permutations of each other
    (Lyndon-Schupp, *Combinatorial Group Theory*, ch. I.1), so this decides
    conjugacy in a free group exactly.
    """
    s = w.syls
    i, j = 0, len(s) - 1
    while i < j and s[i][0] == s[j][0] and s[i][1] + s[j][1] == 0:
        i += 1
        j -= 1
    core = list(s[i:j + 1])
    if len(core) > 1 and core[0][0] == core[-1][0]:
        g, e = core.pop()
        core[0] = (g, core[0][1] + e)
    if len(core) < 2:
        return tuple(core)
    # the least rotation starts at a least syllable
    least = min(core)
    return min(tuple(core[k:] + core[:k]) for k, syl in enumerate(core) if syl == least)


def _product_ball(units: Sequence[Word], radius: int,
                  include_identity: bool = True) -> list:
    """Distinct products of at most ``radius`` units, breadth-first.

    Each level extends the previous one by every unit in the given order;
    a product seen before (the identity included) is dropped, so the list
    is in order of first appearance.
    """
    seen = {IDENTITY}
    out = [IDENTITY] if include_identity else []
    frontier = [IDENTITY]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for u in units:
                w2 = w * u
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        out.extend(nxt)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Construction, parsing, formatting
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_']*)(?:\[(-?\d+)\])?(?:\^(-?\d+))?$"
)


def parse_word(text: str, alphabet: Optional[Iterable[Generator]] = None) -> Word:
    """Parse whitespace-separated tokens ``g``, ``g^k``, ``g^-k``, ``g[i]^k``."""
    allowed = set(alphabet) if alphabet is not None else None
    pairs = []
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise UnknownGeneratorError(f"cannot parse token {tok!r}")
        name, idx, exp = m.groups()
        g = gen(name, int(idx) if idx is not None else None)
        if allowed is not None and g not in allowed:
            raise UnknownGeneratorError(f"generator {g} not in alphabet")
        pairs.append((g, int(exp) if exp is not None else 1))
    return Word(pairs)


def parse_generator(token: str) -> Generator:
    """Parse one generator token, ``g`` or ``g[i]``; anything else is rejected."""
    w = parse_word(token)
    if w.syllable_len != 1 or w.syls[0][1] != 1:
        raise PreconditionError(f"not a generator token: {token!r}")
    return w.syls[0][0]


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

def substitute(w: Word, image: Callable[[Generator], Word]) -> Word:
    """The image of w under the homomorphism sending each generator g to image(g).

    The powers image(g)**e, each a reduced word, are concatenated in order
    of w's syllables and reduced only where two of them meet (``_concat``).
    """
    syls = w.syls
    if len(syls) == 1:
        g, e = syls[0]
        return image(g) ** e
    return _concat((image(g) ** e).syls for g, e in syls)


class HomSpec:
    """A homomorphism between free groups given by generator images."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)

    @classmethod
    def identity(cls, alphabet: Iterable[Generator]) -> "HomSpec":
        return cls({g: Word([(g, 1)]) for g in alphabet})

    def __contains__(self, g: Generator) -> bool:
        return g in self.mapping

    def image(self, g: Generator) -> Word:
        try:
            return self.mapping[g]
        except KeyError:
            raise UnknownGeneratorError(f"generator {g} outside hom domain") from None

    def apply(self, w: Word) -> Word:
        return substitute(w, self.image)


def weight(w: Word, t: Generator, basis: Optional[HomSpec] = None) -> int:
    """Exponent sum of t after rewriting w over the given free basis.

    With no basis (or an identity basis) this is the plain exponent sum.
    Otherwise ``basis`` maps a basis alphabet to words of the ambient group;
    the images must be a free basis of the subgroup they generate
    (PreconditionError otherwise), and w must lie in that subgroup; w is
    rewritten over the basis before summing exponents of t.  A homomorphism
    to the integers in either case.
    """
    if basis is None:
        return w.exponent_sum(t)
    items = sorted(basis.mapping.items(), key=lambda kv: kv[0].sort_key())
    if all(_is_single_positive(g, img) for g, img in items):
        return w.exponent_sum(t)
    if t not in basis:
        raise UnknownGeneratorError(f"{t} is not a basis generator")
    from .stallings import SubgroupAutomaton

    basis_gens = [g for g, _ in items]
    aut = SubgroupAutomaton([img for _, img in items])
    if aut.rank != len(basis_gens):
        raise PreconditionError(
            f"the {len(basis_gens)} basis images must be a free basis of the "
            f"subgroup they generate, which has rank {aut.rank}")
    try:
        expr = aut.express(w)
    except NotMemberError:
        raise NotMemberError(
            f"word is not expressible over the given basis: {w}"
        ) from None
    total = 0
    for wg, e in expr.syls:
        if basis_gens[wg.index - 1] == t:
            total += e
    return total


def _is_single_positive(g: Generator, img: Word) -> bool:
    return img.syls == ((g, 1),)


# ---------------------------------------------------------------------------
# Presentations and abelianization
# ---------------------------------------------------------------------------

@dataclass
class Presentation:
    """A finite presentation: generators plus relator words."""

    generators: list
    relators: list

    def to_json(self) -> dict:
        return {
            "generators": [str(g) for g in self.generators],
            "relators": [str(r) for r in self.relators],
        }

    @classmethod
    def from_json(cls, data) -> "Presentation":
        gens = [parse_generator(g) for g in data["generators"]]
        rels = [parse_word(r, gens) for r in data["relators"]]
        return cls(gens, rels)


@dataclass(frozen=True)
class AbelianInvariants:
    """Smith-normal-form summary of an abelianized presentation."""

    free_rank: int
    torsion: tuple

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "1"


def smith_invariants(matrix: list) -> list:
    """Invariant factors of an integer matrix, exact arithmetic throughout.

    Returns the positive diagonal entries d_1 | d_2 | ... of the Smith
    normal form (zeros dropped).  Entries may be arbitrarily large Python
    ints; no magnitude cap.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(rows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(a[t][t]))
        t += 1
    # enforce divisibility d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if x and y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return [d for d in diag if d]


def abelianize_snf(presentation: Presentation) -> AbelianInvariants:
    """Abelianization invariants from the relator exponent matrix."""
    gens = list(presentation.generators)
    matrix = [[r.exponent_sum(g) for g in gens] for r in presentation.relators]
    if not matrix:
        return AbelianInvariants(len(gens), ())
    diag = smith_invariants(matrix)
    free_rank = len(gens) - len(diag)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(free_rank, torsion)
