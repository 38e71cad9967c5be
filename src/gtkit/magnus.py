"""Truncated integer noncommutative power series for the Magnus embedding.

Words over an indexed generator family x_i map to units of Z<<X_i>> via
x_i -> 1 + X_i, truncated at a degree cap.  Images are built one
homogeneous degree at a time, each degree from the lower ones over the
word's syllable prefixes, and a series is kept that way, one dict per
degree.  Leading terms (lowest nonzero homogeneous part)
exist for every nontrivial word at degree at most its letter length, so
raising the degree one step at a time until the part is nonzero is exact.
Two relation families are supported for annihilation checks: zeroing a set
of variables and identifying variables along an index map; both are
quotient maps, so annihilation of words is decided exactly at the
letter-length cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Optional, Union

from .errors import InternalInvariantError, PreconditionError
from .stallings import SubgroupAutomaton, _witness_gen
from .word import Generator, Word, gen

Monomial = tuple  # tuple of variable indices, possibly empty


class TruncatedSeries:
    """Integer series sum of c_m * X_{i_1}..X_{i_k}, degrees <= cap.

    The series is kept by degree: ``parts[d]`` maps each degree-d monomial
    to its nonzero coefficient, for d = 0..cap.  ``coeffs`` is a read-only
    view of all coefficients, merged in degree order.
    """

    __slots__ = ("cap", "parts")

    def __init__(self, cap: int, coeffs: Optional[dict] = None):
        if cap < 1:
            raise PreconditionError("cap must be >= 1")
        self.cap = cap
        self.parts = [{} for _ in range(cap + 1)]
        if coeffs:
            for m, c in coeffs.items():
                if c and len(m) <= cap:
                    self.parts[len(m)][tuple(m)] = c

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls(cap, {(): 1})

    @property
    def coeffs(self) -> MappingProxyType:
        return MappingProxyType({m: c for part in self.parts for m, c in part.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.cap == other.cap
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.cap, frozenset(mc for part in self.parts for mc in part.items())))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Degree D of the product pairs parts[d] with other.parts[D - d]."""
        res = TruncatedSeries(min(self.cap, other.cap))
        left, right = self.parts, other.parts
        for deg, out in enumerate(res.parts):
            for d in range(deg + 1):
                p, q = left[d], right[deg - d]
                if not (p and q):
                    continue
                q = q.items()
                for m1, c1 in p.items():
                    for m2, c2 in q:
                        m = m1 + m2
                        s = out.get(m, 0) + c1 * c2
                        if s:
                            out[m] = s
                        else:
                            del out[m]
        return res

    def homogeneous_part(self, d: int) -> dict:
        return dict(self.parts[d]) if 0 <= d <= self.cap else {}

    def variables(self) -> set:
        out = set()
        for m in self.coeffs:
            out.update(m)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        parts = []
        for m, c in items:
            mono = "".join(f"X_{i}" for i in m) or "1"
            parts.append(f"{c}*{mono}" if mono != "1" else str(c))
        return " + ".join(parts)

    __repr__ = __str__


def _variable_index(g: Generator) -> int:
    if g.index is None:
        raise PreconditionError(f"generator {g} carries no index for the embedding")
    return g.index


@lru_cache(maxsize=1024)
def _binomials(k: int, d: int) -> tuple:
    """The coefficients of X^1..X^d in (1 + X)^k, k >= 1; they stop at X^k."""
    return tuple(math.comb(k, j) for j in range(1, min(k, d) + 1))


def _syllables(w: Word) -> list:
    """The (variable index, exponent) pairs of w's syllables."""
    if len({g.name for g, _ in w.syls}) > 1:
        raise PreconditionError("the embedding needs one indexed family; "
                                "relabel mixed alphabets first")
    return [(_variable_index(g), k) for g, k in w.syls]


def _add_row(syls: list, rows: list) -> dict:
    """Append row D = len(rows) and return its last entry.

    Row D holds the degree-D part of the image of each syllable prefix,
    prefix p at entry p; rows[0] is all 1.  Prefix p + 1 is prefix p times
    (1 + X_i)^k, so entry p + 1 is entry p plus C(k, j) rows[D - j][p] X_i^j
    over j >= 1.  For k < 0 prefix p is prefix p + 1 times (1 + X_i)^-k, so
    entry p + 1 is entry p minus C(-k, j) rows[D - j][p + 1] X_i^j: a
    syllable costs |k| terms at most, not the D of the binomial series.  An
    entry whose source entries are all empty is the previous entry's dict.
    """
    deg = len(rows)
    level: dict = {}
    row = [level]
    for p, (i, k) in enumerate(syls):
        prev = level
        if k > 0:
            src, sign = p, 1
        else:
            src, sign, k = p + 1, -1, -k
        j = 0
        for c in _binomials(k, deg):
            j += 1
            part = rows[deg - j][src]
            if not part:
                continue
            if level is prev:
                level = dict(prev)
            run = (i,) * j
            c *= sign
            for m, a in part.items():
                m += run
                v = level.get(m, 0) + a * c
                if v:
                    level[m] = v
                else:
                    del level[m]
        row.append(level)
    rows.append(row)
    return level


def mu(w: Word, d: int) -> TruncatedSeries:
    """Magnus image of w truncated at degree d: multiplicative on products.

    Words must be spelled over a single indexed generator family; the
    generator index is the variable index.  The image is built one
    homogeneous degree at a time by `_add_row`; its degree-D part is the
    last entry of row D.
    """
    syls = _syllables(w)
    out = TruncatedSeries(d)
    rows = [[{(): 1}] * (len(syls) + 1)]
    for _ in range(d):
        _add_row(syls, rows)
    out.parts = [row[-1] for row in rows]
    return out


def relabel_for_embedding(w: Word) -> Word:
    """Map an arbitrary finite alphabet onto one indexed family, canonically."""
    order = {g: i for i, g in
             enumerate(sorted({g for g, _ in w.syls}, key=lambda g: g.sort_key()))}
    return Word((gen("x", order[g]), e) for g, e in w.syls)


@dataclass(frozen=True)
class LeadingTerm:
    """Lowest-degree nonzero homogeneous part of a Magnus image."""

    degree: int
    coeffs: dict

    variables = TruncatedSeries.variables

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        return str(TruncatedSeries(max(self.degree, 1), self.coeffs))


def leading_term(w: Word) -> Optional[LeadingTerm]:
    """Leading term of mu(w), or None for the trivial word.

    Rows of degree 1, 2, ... are added until the full word's entry is
    nonzero, so no degree is built twice.  The letter length L bounds the
    search: a nontrivial word of letter length L never lies in the (L+1)-st
    lower central term, so its leading degree is <= L.
    """
    syls = _syllables(w)
    if not syls:
        return None
    rows = [[{(): 1}] * (len(syls) + 1)]
    limit = w.letter_len
    for degree in range(1, limit + 1):
        top = _add_row(syls, rows)
        if top:
            return LeadingTerm(degree, top)
    raise InternalInvariantError(
        f"no leading term for nontrivial word at cap {limit}: {w}"
    )


class _Images(dict):
    """A variable map's images, each computed once, at its first lookup."""

    __slots__ = ("image",)

    def __init__(self, image):
        self.image = image

    def __missing__(self, i):
        v = self[i] = self.image(i)
        return v


def _project(coeffs: dict, images: _Images) -> dict:
    """Coefficients with each monomial's variables mapped through images;
    a monomial with a variable sent to None drops, equal images add up.
    Mapping keeps the degree, so a series projects part by part."""
    lookup = images.__getitem__
    out: dict = {}
    for m, c in coeffs.items():
        key = tuple(map(lookup, m))
        if None in key:
            continue
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def apply_sigma(s, sigma) -> "TruncatedSeries | LeadingTerm":
    """Monomial substitution X_{i_1}..X_{i_k} -> X_{s(i_1)}..X_{s(i_k)}."""
    images = _Images(sigma if callable(sigma) else (lambda i: sigma.get(i, i)))
    if isinstance(s, LeadingTerm):
        return LeadingTerm(s.degree, _project(s.coeffs, images))
    res = TruncatedSeries(s.cap)
    res.parts = [_project(part, images) for part in s.parts]
    return res


# ---------------------------------------------------------------------------
# Relation families and annihilation
# ---------------------------------------------------------------------------
# Each family is a variable map: image(i) is None for a zeroed variable and
# otherwise the representative of i's class.  The quotient sends the letter
# x_i to x_image(i), or deletes it, and X_i to X_image(i), or to 0.

@dataclass(frozen=True)
class ZeroVars:
    """Relations X_i = 0 for i in the index set."""

    indices: frozenset

    def __init__(self, indices):
        object.__setattr__(self, "indices", frozenset(indices))

    def image(self, i: int) -> Optional[int]:
        return None if i in self.indices else i


@dataclass(frozen=True)
class Identify:
    """Relations X_i - X_{sigma(i)} = 0 along an index map."""

    sigma: tuple  # sorted (i, sigma(i)) pairs

    def __init__(self, sigma):
        if callable(sigma):
            raise PreconditionError("Identify needs an explicit finite index map")
        object.__setattr__(self, "sigma", tuple(sorted(sigma.items())))
        # the classes of i ~ sigma(i), each named by its least index
        classes: dict = {}
        for i, j in self.sigma:
            merged = classes.get(i, {i}) | classes.get(j, {j})
            classes.update(dict.fromkeys(merged, merged))
        object.__setattr__(self, "_reps", {i: min(c) for i, c in classes.items()})

    def image(self, i: int) -> int:
        return self._reps.get(i, i)


RelationSpec = Union[ZeroVars, Identify]


def annihilates(rel: RelationSpec, target) -> bool:
    """Whether the relation family kills the target in the quotient ring.

    For a Word: the projection of its Magnus image equals the image of the
    quotient word, so annihilation holds iff that word freely reduces to
    the identity; this is exact at every degree.  The degree-capped series
    comparison is kept as a cross-check at low cost.  For a LeadingTerm
    (a homogeneous part) the projection is compared with 0 directly.
    """
    if isinstance(target, LeadingTerm):
        return not _project(target.coeffs, _Images(rel.image))
    w: Word = target
    if w.is_identity:
        return True
    quotient = Word((gen(g.name, j), e) for g, e in w.syls
                    if (j := rel.image(g.index)) is not None)
    result = quotient.is_identity
    cap = min(3, max(1, w.letter_len))
    series_view = apply_sigma(mu(w, cap), rel.image) == TruncatedSeries.one(cap)
    if result and not series_view:
        raise InternalInvariantError("series projection disagrees with quotient word")
    return result


# ---------------------------------------------------------------------------
# Magnus (graded-lex) positivity and the basis-variables check
# ---------------------------------------------------------------------------

def magnus_positive(w: Word) -> bool:
    """Positivity in the graded-lexicographic Magnus bi-ordering.

    The sign of the coefficient of the graded-lex least monomial of the
    leading term.  Defines a positive cone: closed under products and
    conjugation, and partitions nontrivial elements with their inverses.
    Arbitrary alphabets are relabeled canonically first.
    """
    if w.is_identity:
        raise PreconditionError("the identity is neither positive nor negative")
    lt = leading_term(relabel_for_embedding(w))
    key = min(lt.coeffs)
    return lt.coeffs[key] > 0


@lru_cache(maxsize=16)
def _basis_automaton(v0: Word, v1: Word) -> SubgroupAutomaton:
    """The folded automaton of <v0, v1>, folded once per basis."""
    return SubgroupAutomaton([v0, v1])


def check_c_leading_vars(alpha: Word, v0: Word, v1: Word) -> bool:
    """For weight-zero members of <v0, v1>: X_0, X_1, X_2 all appear in L(alpha).

    v0 and v1 must be a free basis of the subgroup they generate, and alpha
    must lie in it with both basis weights zero (checked; PreconditionError
    otherwise).  A False return value contradicts the quotient-transfer
    argument and is reported by the property suites as a violation.
    """
    aut = _basis_automaton(v0, v1)
    if aut.rank != 2:
        raise PreconditionError(
            f"v0 and v1 must be a free basis of <v0, v1>, which has rank {aut.rank}")
    expr = None if alpha.is_identity else aut.try_express(alpha)
    if expr is None:
        raise PreconditionError("alpha must be a nontrivial member of <v0, v1>")
    w0 = expr.exponent_sum(_witness_gen(0))
    w1 = expr.exponent_sum(_witness_gen(1))
    if (w0, w1) != (0, 0):
        raise PreconditionError(f"basis weights must vanish, got ({w0}, {w1})")
    lt = leading_term(alpha)
    return {0, 1, 2} <= lt.variables()
