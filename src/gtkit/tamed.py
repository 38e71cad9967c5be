"""Tamedness of conjugate tuples and the length bound for tamed products.

A conjugate tuple ((t_1, g_1), ..., (t_n, g_n)) in an amalgam represents the
product of conjugates t_1^{g_1} ... t_n^{g_n}; boundary entries t_0, t_{n+1},
g_0, g_{n+1} are the identity.  Tamedness (single-syllable reduced
conjugates, no adjacent collapse, no cancellable t_i) forces the product's
alternating length to grow linearly, which is what rules out products of
conjugates collapsing to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .amalgam import (
    Amalgam,
    AmalgamElement,
    _outside_edge_balls,
    _product,
    left_factors,
    right_factors,
)
from .errors import NotTamedError, PreconditionError
from .word import Word


@dataclass(frozen=True)
class ConjTuple:
    """Entries (t_i, g_i); the associated product is prod of t_i^{g_i}.

    Immutable: entries is stored as a tuple, and the inverses g_i^{-1}, the
    conjugates t_i^{g_i}, the differences g_i g_{i+1}^{-1} and the
    tamedness verdict are formed once, on first use, and kept on the tuple.
    """

    amalgam: Amalgam
    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise PreconditionError("conjugate tuple needs n >= 1 entries")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def t(self, i: int) -> AmalgamElement:
        """t_i with the boundary convention t_0 = t_{n+1} = 1."""
        if 1 <= i <= self.n:
            return self.entries[i - 1][0]
        return self.amalgam.identity()

    def g(self, i: int) -> AmalgamElement:
        if 1 <= i <= self.n:
            return self.entries[i - 1][1]
        return self.amalgam.identity()

    @cached_property
    def _g_invs(self) -> tuple:
        return tuple(g.inverse() for _, g in self.entries)

    @cached_property
    def _conjugates(self) -> tuple:
        # the left-associated product AmalgamElement.conj forms
        return tuple(
            g_inv * t * g for (t, g), g_inv in zip(self.entries, self._g_invs)
        )

    @cached_property
    def _differences(self) -> tuple:
        # g_i g_{i+1}^{-1} for i = 1, ..., n - 1
        return tuple(g * g_inv for (_, g), g_inv in zip(self.entries, self._g_invs[1:]))

    @cached_property
    def _verdict(self) -> "TamedReport":
        return _tamedness(self)

    def _at(self, values: tuple, i: int) -> AmalgamElement:
        return values[i - 1] if 1 <= i <= self.n else self.amalgam.identity()

    def g_inv(self, i: int) -> AmalgamElement:
        """g_i^{-1}, with g_0^{-1} = g_{n+1}^{-1} = 1."""
        return self._at(self._g_invs, i)

    def conjugate(self, i: int) -> AmalgamElement:
        """C_i = t_i^{g_i}."""
        return self._at(self._conjugates, i)

    def product(self) -> AmalgamElement:
        return _product(self.amalgam, self._conjugates)

    def to_json(self) -> dict:
        return {
            "entries": [
                {"t": t.serialize(), "g": g.serialize()} for t, g in self.entries
            ]
        }

    @classmethod
    def from_json(cls, G: Amalgam, data) -> "ConjTuple":
        entries = [
            (G.parse_element(e["t"]), G.parse_element(e["g"]))
            for e in data["entries"]
        ]
        return cls(G, entries)


@dataclass
class Cancellability:
    kind: str  # "LHS" | "RHS" | "two-sided" | "none"
    witness: Optional[tuple] = None

    @property
    def cancellable(self) -> bool:
        return self.kind != "none"


def cancellability(v: ConjTuple, i: int) -> Cancellability:
    """Classify whether t_i is cancellable, with witnessing factors.

    Tests the three membership conditions R g_i^{-1} t_i in C,
    t_i g_i L in C and R t_i^{g_i} L in C over the canonical right factors R
    of g_{i-1} and left factors L of g_{i+1}^{-1}.  The factors of g hold
    one element of each length 0, ..., l(g), and l(xy) >= |l(x) - l(y)|, so
    xy lies in C only if l(x) = l(y): each test forms only the product with
    the factor of its other operand's length.  The witness is the one a scan
    over all factors, and all pairs of them, would find first.
    """
    if not 1 <= i <= v.n:
        raise PreconditionError(f"index out of range: {i}")
    t_i, g_i = v.t(i), v.g(i)
    rights = right_factors(v.g(i - 1))  # lengths l(g_{i-1}), ..., 0
    lefts = left_factors(v.g_inv(i + 1))  # lengths 0, ..., l(g_{i+1})
    nr = len(rights) - 1
    gi_inv_ti = v.g_inv(i) * t_i
    k = gi_inv_ti.length
    if k <= nr and (rights[nr - k] * gi_inv_ti).length == 0:
        return Cancellability("LHS", (rights[nr - k], None))
    ti_gi = t_i * g_i
    k = ti_gi.length
    if k < len(lefts) and (ti_gi * lefts[k]).length == 0:
        return Cancellability("RHS", (None, lefts[k]))
    ci = v.conjugate(i)
    for r in rights:
        rci = r * ci
        k = rci.length
        if k < len(lefts) and (rci * lefts[k]).length == 0:
            return Cancellability("two-sided", (r, lefts[k]))
    return Cancellability("none")


@dataclass
class TamedReport:
    tamed: bool
    violated_clause: Optional[int] = None
    detail: str = ""

    def __bool__(self):
        return self.tamed


def is_tamed(v: ConjTuple) -> TamedReport:
    """Check the three tamedness clauses, reporting the first failure.

    (1) every l(t_i) = 1 with g_i^{-1} t_i g_i reduced as a 3-term product;
    (2) l(g_i g_{i+1}^{-1}) = 0 implies l(t_i t_{i+1}) = 2;
    (3) no t_i is cancellable.

    The verdict is computed on the first call for a tuple and kept on it.
    """
    return v._verdict


def _tamedness(v: ConjTuple) -> TamedReport:
    for i in range(1, v.n + 1):
        t_i, g_i = v.t(i), v.g(i)
        if t_i.length != 1:
            return TamedReport(False, 1, f"l(t_{i}) = {t_i.length} != 1")
        # with l(t_i) = 1 this is exactly is_reduced([g_i^-1, t_i, g_i])
        if v.conjugate(i).length != 2 * g_i.length + 1:
            return TamedReport(False, 1, f"t_{i}^g_{i} is not reduced")
    for i in range(1, v.n):
        if v._differences[i - 1].length == 0:
            if (v.t(i) * v.t(i + 1)).length != 2:
                return TamedReport(
                    False, 2, f"g_{i} g_{i+1}^-1 in C but l(t_{i} t_{i+1}) != 2"
                )
    for i in range(1, v.n + 1):
        c = cancellability(v, i)
        if c.cancellable:
            return TamedReport(False, 3, f"t_{i} cancellable from {c.kind}")
    return TamedReport(True)


@dataclass
class DeltaFactorization:
    """Per index i: delta_i and the reduced triple assembling T_i."""

    deltas: list
    triples: list  # (T_{i-1} g_{i-1}^-1 d_i, d_i^-1 g_{i-1} g_i^-1 t_i, g_i)
    partials: list  # T_1 .. T_n


def _first_component(g: AmalgamElement) -> AmalgamElement:
    """The first component of the alternating form, head absorbed into it."""
    G = g.amalgam
    fi, x = g.comps[0]
    f = G.factors[fi]
    if not g.head.is_identity:
        x = f.mul(f.from_edge(g.head), x)
    return AmalgamElement(G, Word(), ((fi, x),))


def delta_factorize(v: ConjTuple) -> DeltaFactorization:
    """The iterative three-term reduced factorization of partial products.

    delta_i is the leading component e_{i,1} of g_{i-1} g_i^{-1} exactly when
    that product has positive length and l(t_{i-1} e_{i,1}) = 1, and is the
    identity otherwise.  Every returned triple is verified reduced and the
    triples telescope to the partial products of conjugates.
    """
    rep = is_tamed(v)
    if not rep:
        raise NotTamedError(f"tuple is not tamed: clause {rep.violated_clause}, {rep.detail}")
    G = v.amalgam
    deltas, triples, partials = [], [], []
    prev_T = G.identity()
    for i in range(1, v.n + 1):
        g_prev, g_i, t_i = v.g(i - 1), v.g(i), v.t(i)
        g_prev_inv, g_i_inv = v.g_inv(i - 1), v.g_inv(i)
        diff = v._differences[i - 2] if i > 1 else g_prev * g_i_inv
        delta = G.identity()
        if diff.length >= 1:
            e1 = _first_component(diff)
            if (v.t(i - 1) * e1).length == 1:
                delta = e1
        a = prev_T * g_prev_inv * delta
        b = delta.inverse() * g_prev * g_i_inv * t_i
        T_i = a * b * g_i
        if T_i.length != a.length + b.length + g_i.length:
            raise NotTamedError(f"triple at index {i} failed to be reduced")
        if not T_i.equals(prev_T * v.conjugate(i)):
            raise NotTamedError(f"triple at index {i} does not telescope")
        deltas.append(delta)
        triples.append((a, b, g_i))
        partials.append(T_i)
        prev_T = T_i
    return DeltaFactorization(deltas, triples, partials)


def _rand_alternating(G: Amalgam, rng, balls: list, max_len: int) -> AmalgamElement:
    """A random alternating element with at most max_len components.

    Draws rng.randint(0, max_len) components; each is rng.choice of a factor
    other than the previous one, then rng.randrange into that factor's ball.
    """
    comps = []
    for _ in range(rng.randint(0, max_len)):
        last = comps[-1][0] if comps else None
        fi = rng.choice([i for i in range(len(G.factors)) if i != last])
        comps.append((fi, balls[fi][rng.randrange(len(balls[fi]))]))
    return AmalgamElement(G, Word(), tuple(comps))


class TamedSampler:
    """Rejection sampler for tamed conjugate tuples.

    Draws random g_i from alternating components, then t_i as a length-one
    component chosen so that t_i^{g_i} is reduced, and rejects until the
    remaining tamedness clauses hold.
    """

    MAX_G_LEN = 3
    ELT_LETTERS = 3
    MAX_TRIES = 500

    def __init__(self, G: Amalgam, rng):
        self.G = G
        self.rng = rng
        self.balls = _outside_edge_balls(G, self.ELT_LETTERS)

    def _rand_t(self, g: AmalgamElement) -> AmalgamElement:
        banned = g.lei
        fi = self.rng.choice(
            [i for i in range(len(self.G.factors)) if i != banned]
        )
        ball = self.balls[fi]
        return AmalgamElement(
            self.G, Word(), ((fi, ball[self.rng.randrange(len(ball))]),)
        )

    def raw_tuple(self, n: int) -> ConjTuple:
        """One n-tuple drawn as above, tamed or not."""
        entries = []
        for _ in range(n):
            g = _rand_alternating(self.G, self.rng, self.balls, self.MAX_G_LEN)
            entries.append((self._rand_t(g), g))
        return ConjTuple(self.G, entries)

    def sample(self, n: Optional[int] = None) -> ConjTuple:
        target = n or self.rng.randint(1, 3)
        for _ in range(self.MAX_TRIES):
            v = self.raw_tuple(target)
            if is_tamed(v):
                return v
        raise PreconditionError("tamed sampler exhausted its retry budget")


def tamed_length_bound(v: ConjTuple):
    """Exact evaluation of l(T_n) against l(g_1) + n + l(g_n).

    Returns (lhs, rhs, holds).  A False value contradicts the tamed-product
    length bound and is treated as a fatal invariant breach by callers.
    """
    rep = is_tamed(v)
    if not rep:
        raise NotTamedError(f"tuple is not tamed: clause {rep.violated_clause}, {rep.detail}")
    lhs = v.product().length
    rhs = v.g(1).length + v.n + v.g(v.n).length
    return lhs, rhs, lhs >= rhs
