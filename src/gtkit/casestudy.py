"""Builders and verifiers for three example constructions.

1. A closed manifold glued from two figure-eight knot exteriors: its
   fundamental-group presentation and the perfectness check.
2. A one-relator group realized as an amalgam of two free groups of rank
   two along rank-two subgroups, plus the rewriting tools for the kernel
   of the b-weight (indexed generator families, Magnus-ready words).
3. A non-left-orderable amalgam of two free groups glued along a
   small-cancellation subgroup: exponent sampling and validation, the
   cancellation apparatus (prefix map, C-simplification, standard forms)
   and left-first products with per-component provenance.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .amalgam import Amalgam, EdgeIdentification, FreeFactor, normalize
from .errors import (
    InternalInvariantError,
    NotMemberError,
    PreconditionError,
)
from .stallings import SubgroupAutomaton, lambda_value, rho_value
from .word import (
    Generator,
    HomSpec,
    Presentation,
    Syllable,
    Word,
    _word,
    cancellation_syllables,
    gen,
    substitute,
)

A_GEN, B_GEN = gen("a"), gen("b")
C_GEN, D_GEN = gen("c"), gen("d")


# ===========================================================================
# Exponent matrices for the small-cancellation subgroup
# ===========================================================================

@dataclass
class ExponentMatrix:
    """Exponents k[i][j][t] of the generators a^{k1} b^{k2} ... blocks.

    a_exp[i][j] and b_exp[i][j] are the exponents of the j-th a-power and
    b-power of the i-th generator (0-based storage, 1-based math indexing).
    """

    s: int
    m: int
    a_exp: list
    b_exp: list

    def to_json(self) -> dict:
        return {"s": self.s, "m": self.m, "a_exp": self.a_exp, "b_exp": self.b_exp}

    @classmethod
    def from_json(cls, data) -> "ExponentMatrix":
        return cls(data["s"], data["m"], data["a_exp"], data["b_exp"])


def _spread_magnitudes(signs: Sequence[int]) -> list:
    """Greedy magnitudes whose signed pairwise differences are all distinct.

    For row signs eps_i, the numbers |eps_i m_i - eps_j m_j| (differences
    within a sign class, sums across classes) must be pairwise distinct and
    distinct from every magnitude chosen anywhere.  Greedy by magnitude.
    """
    mags: list = []
    pairwise: set = set()
    x = 0
    while len(mags) < len(signs):
        x += 1
        w = signs[len(mags)] * x
        new = {abs(w - signs[j] * m) for j, m in enumerate(mags)}
        if len(new) != len(mags) or (new & pairwise):
            continue
        if x in pairwise or (new & {*mags, x}):
            continue
        pairwise |= new
        mags.append(x)
    return mags


def validate_exponent_matrix(e: ExponentMatrix) -> None:
    """Re-verify the distinctness and sign conditions by exhaustive count."""
    s, m = e.s, e.m
    if type(s) is not int or type(m) is not int:
        raise PreconditionError(f"s and m must be ints, got s={s!r}, m={m!r}")
    if s < 10 or m < 8:
        raise PreconditionError(f"need s >= 10 and m >= 8, got s={s}, m={m}")
    for grid, col in ((e.a_exp, 0), (e.b_exp, s - 1)):
        if len(grid) != m or any(len(row) != s for row in grid):
            raise PreconditionError("exponent grid has wrong shape")
        if any(type(v) is not int for row in grid for v in row):
            raise PreconditionError("exponents must be ints")
        if any(v == 0 for row in grid for v in row):
            raise PreconditionError("exponents must be nonzero")
        values = {abs(v) for row in grid for v in row}
        diffs = {
            abs(grid[i][col] - grid[k][col])
            for i in range(m)
            for k in range(i + 1, m)
        }
        if len(values | diffs) != s * m + m * (m - 1) // 2:
            raise PreconditionError("distinctness condition fails")
    for i in range(min(m, 8)):
        sa = {1 if v > 0 else -1 for v in e.a_exp[i]}
        sb = {1 if v > 0 else -1 for v in e.b_exp[i]}
        if len(sa) != 1 or len(sb) != 1:
            raise PreconditionError(f"sign constancy fails in row {i + 1}")
        ea, eb = sa.pop(), sb.pop()
        want = (1, 1) if i < 4 else (1, -1)
        if (ea, eb) != want:
            raise PreconditionError(f"sign pattern fails in row {i + 1}")


def sample_exponents(s: int, m: int, seed: int = 0) -> ExponentMatrix:
    """A deterministic valid exponent matrix for the given seed.

    The first a-column (and last b-column) absolute values form a shifted
    Sidon block, making the required pairwise differences distinct and
    disjoint from all magnitudes; the remaining slots take fresh values
    from a block above everything else, shuffled by the seed.
    """
    if s < 10 or m < 8:
        raise PreconditionError(f"need s >= 10 and m >= 8, got s={s}, m={m}")
    rng = random.Random(seed)
    a_signs = [1] * m
    b_signs = [1 if i < 4 or i >= 8 else -1 for i in range(m)]

    def family(special_col: int, signs) -> list:
        block = _spread_magnitudes(signs)
        # permuting magnitudes within a sign class keeps the pairwise set
        for cls in (1, -1):
            idx = [i for i in range(m) if signs[i] == cls]
            vals = [block[i] for i in idx]
            rng.shuffle(vals)
            for i, v in zip(idx, vals):
                block[i] = v
        lo = 2 * max(block) + 1
        fresh = list(range(lo, lo + (s - 1) * m))
        rng.shuffle(fresh)
        grid = [[0] * s for _ in range(m)]
        pos = 0
        for i in range(m):
            for j in range(s):
                if j == special_col:
                    grid[i][j] = block[i] * signs[i]
                else:
                    grid[i][j] = fresh[pos] * signs[i]
                    pos += 1
        return grid

    a_exp = family(0, a_signs)
    b_exp = family(s - 1, b_signs)
    e = ExponentMatrix(s, m, a_exp, b_exp)
    validate_exponent_matrix(e)
    return e


def generator_words(e: ExponentMatrix) -> list:
    """The words a^{k_{i1}} b^{l_{i1}} ... a^{k_{is}} b^{l_{is}}."""
    out = []
    for i in range(e.m):
        syls = []
        for j in range(e.s):
            syls.append((A_GEN, e.a_exp[i][j]))
            syls.append((B_GEN, e.b_exp[i][j]))
        out.append(Word(syls))
    return out


# ===========================================================================
# The subgroup C with its cancellation apparatus
# ===========================================================================

class CSubgroup:
    """C given by its folded automaton, plus the prefix/compatibility machinery.

    The generators of C are the automaton's generators.
    """

    def __init__(self, s: int, automaton: SubgroupAutomaton):
        self.s = s
        self.automaton = automaton
        self.gens = list(automaton.generators)
        self.m = len(self.gens)

    @classmethod
    def from_matrix(cls, e: ExponentMatrix) -> "CSubgroup":
        validate_exponent_matrix(e)
        return cls(e.s, SubgroupAutomaton(generator_words(e)))

    def gen_set(self) -> list:
        """S together with the inverses, generators first."""
        return self.gens + [u.inverse() for u in self.gens]

    def contains(self, w: Word) -> bool:
        return self.automaton.contains(w)

    def lam(self, w: Word) -> int:
        """Largest i with L_i(w) in L_i(C)."""
        return lambda_value(self.automaton, w)

    def rho(self, w: Word) -> int:
        return rho_value(self.automaton, w)

    def is_left_simplified(self, w: Word) -> bool:
        """l(w) <= s, or L_s(w) is not in L_s(C)."""
        return w.syllable_len <= self.s or self.lam(w.left(self.s)) < self.s

    def is_right_simplified(self, w: Word) -> bool:
        """l(w) <= s, or R_s(w) is not in R_s(C)."""
        return w.syllable_len <= self.s or self.rho(w.right(self.s)) < self.s

    def is_simplified(self, w: Word) -> bool:
        return self.is_left_simplified(w) and self.is_right_simplified(w)

    # -- the prefix map on components of C ---------------------------------

    @functools.cached_property
    def _tables(self) -> tuple:
        """(comp, merge): comp maps each component of a unit u to (u, k), its
        position in u; merge maps the merge of v's last and u's first
        component to (v, u).  Both are checked to be unique."""
        comp, merge = {}, {}
        units = self.gen_set()
        for u in units:
            for k in range(1, u.syllable_len + 1):
                g, ex = u.component(k)
                if (g, ex) in comp:
                    raise InternalInvariantError(
                        f"component {g}^{ex} occurs twice across the generators"
                    )
                comp[(g, ex)] = (u, k)
        for v in units:
            for u in units:
                if (v * u).is_identity:
                    continue
                gv, ev = v.component(v.syllable_len)
                gu, eu = u.component(1)
                if gv != gu:
                    continue
                tot = ev + eu
                if tot == 0:
                    raise InternalInvariantError("generator ends annihilate")
                if (gv, tot) in comp or (gv, tot) in merge:
                    raise InternalInvariantError(
                        f"merge component {gv}^{tot} is not unique"
                    )
                merge[(gv, tot)] = (v, u)
        return comp, merge

    def component_of(self, syl) -> Optional[tuple]:
        """(u, k) when the syllable is the k-th component of the unit u
        (a generator or an inverse), else None.  No component occurs in two
        units (_tables checks it), so at most one unit holds it."""
        return self._tables[0].get(syl)

    def prefix(self, E) -> Word:
        """The prefix p(E) of a component of C.

        E is a single-syllable word (or Syllable): either a component A_k of
        a unique generator u (then p = A_1..A_{k-1}) or the merge of the
        last component of v and the first component of u for a unique pair
        (then p = B_1..B_{2s-1} from v).  The defining containment
        p(E) E p(E^{-1})^{-1} in C is verified before returning.
        """
        E = self._as_syllable_word(E)
        p = self._prefix_raw(E)
        p_inv = self._prefix_raw(E.inverse())
        if p is None or p_inv is None:
            raise PreconditionError(f"{E} is not a component of an element of C")
        if not self.contains(p * E * p_inv.inverse()):
            raise InternalInvariantError("prefix containment failed")
        return p

    def _prefix_raw(self, E: Word) -> Optional[Word]:
        """p(E) unchecked, or None when E is not a component of C."""
        syl = E.syls[0]
        hit = self.component_of(syl)
        if hit is not None:
            u, k = hit
            return u.left(k - 1)
        merge = self._tables[1]
        if syl in merge:
            v, _u = merge[syl]
            return v.left(v.syllable_len - 1)
        return None

    @staticmethod
    def _as_syllable_word(E) -> Word:
        if isinstance(E, Syllable):
            return Word([tuple(E)])
        if isinstance(E, Word):
            if E.syllable_len != 1:
                raise PreconditionError("a component is a single syllable")
            return E
        raise PreconditionError(f"not a component: {E!r}")

    def in_sc(self, E) -> bool:
        """Whether the single syllable E is a component of an element of C."""
        return self._prefix_raw(self._as_syllable_word(E)) is not None


def c_simplify(csub: CSubgroup, alpha: Word):
    """Write alpha = c1 alpha' c2 with alpha' C-simplified, greedily.

    Strips a unit on the left while alpha is not left C-simplified, then one
    on the right, and checks the left again; each strip shortens alpha.  The
    unit stripped shares alpha's first (last) s syllables, so it is the one
    holding alpha's first (last) syllable as its first (last) component.
    alpha must lie outside C.
    """
    if csub.contains(alpha):
        raise PreconditionError("alpha lies in C; nothing to simplify")
    c1 = Word()
    c2 = Word()
    cur = alpha
    s = csub.s
    while True:
        right = csub.is_left_simplified(cur)
        if right and csub.is_right_simplified(cur):
            break
        end = cur.syls[-s:] if right else cur.syls[:s]
        hit = csub.component_of(end[-1] if right else end[0])
        if hit is None or (hit[0].syls[-s:] if right else hit[0].syls[:s]) != end:
            side = "suffix" if right else "prefix"
            raise InternalInvariantError(f"no generator matches an acceptable {side}")
        u = hit[0]
        nxt = cur * u.inverse() if right else u.inverse() * cur
        if nxt.syllable_len >= cur.syllable_len:
            raise InternalInvariantError("stripping did not shorten")
        if right:
            c2 = u * c2
        else:
            c1 = c1 * u
        cur = nxt
    if not (c1 * cur * c2 == alpha):
        raise InternalInvariantError("c-simplification lost the element")
    return c1, cur, c2


@dataclass
class StandardFormDecomp:
    """c^g = gamma^-1 chi gamma = lam mu rho with matched outer lengths."""

    chi: Word
    gamma: Word
    lam: Word
    mu: Word
    rho: Word
    xi1: Word
    xi2: Word
    i: int
    j: int
    k: int

    def conjugate(self) -> Word:
        return self.lam * self.mu * self.rho


def standard_form(csub: CSubgroup, c: Word, g: Word) -> StandardFormDecomp:
    """Standard form of the conjugate c^g for left C-simplified g.

    k = max(K(g^-1, c), K(c, g)); chi = c conjugated by L_k(g); gamma the
    remaining tail of g; xi's absorb a merged component into the outer
    parts.  The structural facts (reduced three-part product, equal outer
    lengths, the length and cancellation bounds) are asserted.
    """
    if c.is_identity or not csub.contains(c):
        raise PreconditionError("c must be a nontrivial element of C")
    if csub.contains(g):
        raise PreconditionError("g must lie outside C")
    if not csub.is_left_simplified(g):
        raise PreconditionError("g must be left C-simplified")
    i = cancellation_syllables(g.inverse(), c)
    j = cancellation_syllables(c, g)
    k = max(i, j)
    lk = g.left(k)
    gamma = lk.inverse() * g
    chi = lk.inverse() * c * lk
    if cancellation_syllables(gamma.inverse(), chi) or cancellation_syllables(chi, gamma):
        raise InternalInvariantError("unexpected cancellation against chi")
    xi1 = Word()
    if not _reduced_pair(gamma.inverse(), chi):
        xi1 = chi.left(1)
    xi2 = Word()
    if not _reduced_pair(chi, gamma):
        xi2 = chi.right(1)
    lam = gamma.inverse() * xi1
    mu = xi1.inverse() * chi * xi2.inverse()
    rho = xi2 * gamma
    d = StandardFormDecomp(chi, gamma, lam, mu, rho, xi1, xi2, i, j, k)
    _check_standard_form(csub, c, g, d)
    return d


def _reduced_pair(x: Word, y: Word) -> bool:
    """l(xy) = l(x) + l(y)."""
    return (x * y).syllable_len == x.syllable_len + y.syllable_len


def _check_standard_form(csub: CSubgroup, c: Word, g: Word, d: StandardFormDecomp):
    s = csub.s
    lg = d.gamma.syllable_len
    conj = g.inverse() * c * g
    prod = d.conjugate()
    if prod != conj:
        raise InternalInvariantError("standard form does not multiply back")
    if not (
        _reduced_pair(d.lam, d.mu)
        and _reduced_pair(d.mu, d.rho)
        and prod.syllable_len
        == d.lam.syllable_len + d.mu.syllable_len + d.rho.syllable_len
    ):
        raise InternalInvariantError("standard form is not a reduced product")
    if not (d.lam.syllable_len == lg == d.rho.syllable_len):
        raise InternalInvariantError("outer lengths mismatch")
    if d.chi.syllable_len < 2 * s:
        raise InternalInvariantError("chi is too short")
    if d.mu.syllable_len < 2 * s - 1:
        raise InternalInvariantError("mu is too short")
    if d.i + d.j > c.syllable_len - s:
        raise InternalInvariantError("cancellation exceeds l(c) - s")
    if conj.syllable_len < 2 * s - 1 + 2 * lg:
        raise InternalInvariantError("conjugate is too short")


# ===========================================================================
# Left-first and right-first products with provenance
# ===========================================================================

@dataclass
class ComponentStatus:
    kind: str  # "unaltered" | "canceled" | "merged"
    partner: Optional[tuple] = None  # (input index, position), 1-based


class LfpTrace:
    """Iterated left-to-right product with per-component provenance.

    Components are addressed as (i, pos): position pos of the i-th input
    word, both 1-based.  Cancellation pairs are recorded exactly when an
    unaltered original component annihilates a component of the incoming
    word, which is the pairwise rule applied iteratively.
    """

    def __init__(self, inputs: Sequence[Word]):
        self.inputs = list(inputs)
        self.partials: list = []
        self.status: dict = {}
        self.cancel_pairs: set = set()
        self._run()

    # -- queries -------------------------------------------------------------

    def product(self) -> Word:
        return self.partials[-1]

    def is_unaltered(self, i: int, pos: int) -> bool:
        return self.status[(i, pos)].kind == "unaltered"

    def cancels(self, a: tuple, b: tuple) -> bool:
        return (a, b) in self.cancel_pairs or (b, a) in self.cancel_pairs

    def to_json(self) -> dict:
        statuses = {}
        for (i, p), st in sorted(self.status.items()):
            statuses[f"{i}:{p}"] = {"kind": st.kind,
                                    "partner": list(st.partner) if st.partner else None}
        return {
            "inputs": [str(w) for w in self.inputs],
            "partials": [str(w) for w in self.partials],
            "status": statuses,
            "cancel_pairs": sorted(
                [list(a), list(b)] for a, b in self.cancel_pairs
            ),
        }

    # -- construction ----------------------------------------------------------

    def _run(self):
        cells: list = []  # [syllable (g, e), members list of (i,pos)]
        for t, w in enumerate(self.inputs, start=1):
            for p in range(1, w.syllable_len + 1):
                self.status[(t, p)] = ComponentStatus("unaltered")
            if t == 1:
                cells = [[list(w.syls[p - 1]), [(1, p)]] for p in range(1, w.syllable_len + 1)]
                self.partials.append(w)
                continue
            j = 0
            syls = w.syls
            # cancellation run
            while cells and j < len(syls):
                (g1, e1) = cells[-1][0]
                (g2, e2) = syls[j]
                if g1 != g2 or e1 + e2 != 0:
                    break
                members = cells[-1][1]
                incoming = (t, j + 1)
                if len(members) == 1:
                    self.cancel_pairs.add((members[0], incoming))
                    self.status[members[0]] = ComponentStatus("canceled", incoming)
                    self.status[incoming] = ComponentStatus("canceled", members[0])
                else:
                    self.status[incoming] = ComponentStatus("canceled")
                cells.pop()
                j += 1
            # merge at the junction
            if cells and j < len(syls) and cells[-1][0][0] == syls[j][0]:
                members = cells[-1][1]
                incoming = (t, j + 1)
                if len(members) == 1:
                    self.status[members[0]] = ComponentStatus("merged", incoming)
                self.status[incoming] = ComponentStatus("merged", members[0])
                cells[-1][0][1] += syls[j][1]
                members.append(incoming)
                j += 1
            for p in range(j, len(syls)):
                cells.append([list(syls[p]), [(t, p + 1)]])
            self.partials.append(_word(tuple((g, e) for (g, e), _ in cells)))


def lfp_trace(inputs: Sequence[Word]) -> LfpTrace:
    """Left-first product of the inputs with provenance statuses."""
    if not inputs:
        raise PreconditionError("need at least one input")
    return LfpTrace(inputs)


class RfpTrace(LfpTrace):
    """Right-first product, realized by tracing reversed inverses.

    The queries are LfpTrace's; only the construction differs.
    """

    def __init__(self, inputs: Sequence[Word]):
        self.inputs = list(inputs)
        self._mirror = LfpTrace([w.inverse() for w in reversed(self.inputs)])
        self.partials = [p.inverse() for p in self._mirror.partials]
        self.status = {}
        self.cancel_pairs = set()
        for (mi, mp), st in self._mirror.status.items():
            key = self._back(mi, mp)
            partner = self._back(*st.partner) if st.partner else None
            self.status[key] = ComponentStatus(st.kind, partner)
        for a, b in self._mirror.cancel_pairs:
            self.cancel_pairs.add(tuple(sorted((self._back(*a), self._back(*b)))))

    def _back(self, mi: int, mp: int) -> tuple:
        n = len(self.inputs)
        i = n - mi + 1
        return (i, self.inputs[i - 1].syllable_len - mp + 1)


def rfp_trace(inputs: Sequence[Word]) -> RfpTrace:
    if not inputs:
        raise PreconditionError("need at least one input")
    return RfpTrace(inputs)


# ===========================================================================
# The non-left-orderable amalgam
# ===========================================================================

# phi sends alpha_i (1-based) to beta_{PAIRING[i][0]} ^ PAIRING[i][1]
PAIRING = {1: (1, 1), 2: (2, -1), 3: (5, 1), 4: (6, -1),
           5: (3, 1), 6: (4, -1), 7: (7, 1), 8: (8, -1)}

SIGN_SETS = {
    1: {("a", 1), ("b", 1), ("c", -1), ("d", -1)},
    2: {("a", 1), ("b", 1), ("c", 1), ("d", 1)},
    3: {("a", 1), ("b", 1), ("c", -1), ("d", 1)},
    4: {("a", 1), ("b", 1), ("c", 1), ("d", -1)},
    5: {("a", 1), ("b", -1), ("c", -1), ("d", -1)},
    6: {("a", 1), ("b", -1), ("c", 1), ("d", 1)},
    7: {("a", 1), ("b", -1), ("c", -1), ("d", 1)},
    8: {("a", 1), ("b", -1), ("c", 1), ("d", -1)},
}


@dataclass
class NonLoGroup:
    exponents: ExponentMatrix
    csub: CSubgroup
    amalgam: Amalgam
    alphas: list
    betas: list
    phi_images: list  # phi(alpha_i) as words over {c, d}

    def to_json(self) -> dict:
        return nonlo_json(self.exponents)

    @classmethod
    def from_json(cls, data) -> "NonLoGroup":
        return build_nonlo(ExponentMatrix.from_json(data["exponents"]))


def nonlo_json(e: ExponentMatrix) -> dict:
    """The group file of the nonlo group glued along C(e)."""
    return {"kind": "nonlo", "exponents": e.to_json()}


def build_nonlo(e: ExponentMatrix) -> NonLoGroup:
    """Glue two rank-two free groups along C via the sign-mixing pairing."""
    validate_exponent_matrix(e)
    alphas = generator_words(e)
    to_cd = HomSpec({A_GEN: Word([(C_GEN, 1)]), B_GEN: Word([(D_GEN, 1)])})
    betas = [to_cd.apply(a) for a in alphas]
    phi_images = []
    for i in range(1, e.m + 1):
        jdx, sign = PAIRING.get(i, (i, 1))
        phi_images.append(betas[jdx - 1] ** sign)
    factor_a = FreeFactor("A", [A_GEN, B_GEN])
    factor_b = FreeFactor("B", [C_GEN, D_GEN])
    edge_alpha = tuple(gen("e", i) for i in range(1, e.m + 1))
    amal = Amalgam(
        [factor_a, factor_b],
        EdgeIdentification(edge_alpha, (tuple(alphas), tuple(phi_images))),
    )
    # factor A's edge automaton is C's: it is folded from the same alphas
    csub = CSubgroup(e.s, factor_a.automaton)
    return NonLoGroup(e, csub, amal, alphas, betas, phi_images)


def verify_nonlo_witnesses(g: NonLoGroup) -> list:
    """The eight identity-plus-sign-set checks.

    For i = 1..8, alpha_i phi(alpha_i)^-1 must normalize to the identity in
    the amalgam, and the letters of the spelled word alpha_i * phi(alpha_i)^-1
    must lie in the i-th sign set.
    """
    out = []
    for i in range(1, 9):
        alpha = g.alphas[i - 1]
        image = g.phi_images[i - 1]
        elem = normalize(g.amalgam, [(0, alpha), (1, image.inverse())])
        # the letter signs of alpha, and those of image^-1: image's negated
        letters = {(gn.name, 1 if e > 0 else -1) for gn, e in alpha.syls}
        letters |= {(gn.name, -1 if e > 0 else 1) for gn, e in image.syls}
        out.append({
            "i": i,
            "identity": elem.is_identity,
            "signs_ok": letters <= SIGN_SETS[i],
            "letters": sorted(letters),
        })
    return out


# ===========================================================================
# The glued figure-eight manifold presentation
# ===========================================================================

def _knot_words(x: Word, y: Word):
    w = x * y.inverse() * x.inverse() * y
    relator = w * x * w.inverse() * y.inverse()  # w x = y w
    longitude = (y * x.inverse() * y.inverse() * x * x
                 * y.inverse() * x.inverse() * y)
    return relator, x, longitude  # relator, meridian, longitude


def knot_group_presentation() -> Presentation:
    """One figure-eight exterior group: <x, y | w x (y w)^-1>."""
    x, y = Word([(gen("x"), 1)]), Word([(gen("y"), 1)])
    relator, _, _ = _knot_words(x, y)
    return Presentation([gen("x"), gen("y")], [relator])


def build_w_presentation() -> Presentation:
    """The glued manifold group: two knot-exterior copies with the boundary
    gluing meridian_1 = meridian_2 and longitude_1 = meridian_2 longitude_2."""
    gens = [gen("x", 1), gen("y", 1), gen("x", 2), gen("y", 2)]
    x1, y1, x2, y2 = (Word([(g, 1)]) for g in gens)
    r1, mu1, lam1 = _knot_words(x1, y1)
    r2, mu2, lam2 = _knot_words(x2, y2)
    glue_mu = mu1 * mu2.inverse()
    glue_lam = lam1 * (mu2 * lam2).inverse()
    return Presentation(gens, [r1, r2, glue_mu, glue_lam])


# ===========================================================================
# The one-relator amalgam and the indexed-kernel rewriting tools
# ===========================================================================

def a_i(i: int) -> Generator:
    """The indexed family a_i = a^{b^i} of the b-weight kernel."""
    return gen("a", i)


def v_i(i: int) -> Generator:
    return gen("v", i)


def rewrite_to_indexed(w: Word) -> Word:
    """Rewrite a b-weight-zero word over {a, b} as a word in the a_i."""
    lvl = 0
    out = []
    for g, sg in w.letters():
        if g == B_GEN:
            lvl += sg
        elif g == A_GEN:
            out.append((a_i(-lvl), sg))
        else:
            raise NotMemberError(f"unexpected generator {g}")
    if lvl != 0:
        raise NotMemberError("word has nonzero b-weight")
    return Word(out)


def expand_indexed(w: Word) -> Word:
    """Inverse of rewrite_to_indexed: a_i -> b^-i a b^i."""
    return substitute(w, _indexed_image)


def _indexed_image(g: Generator) -> Word:
    if g.name != "a" or g.index is None:
        raise NotMemberError(f"not an indexed generator: {g}")
    return Word([(B_GEN, -g.index), (A_GEN, 1), (B_GEN, g.index)])


def shift_indexed(w: Word, k: int) -> Word:
    """a_i -> a_{i+k}; conjugation by the stable letter."""
    return Word([(a_i(g.index + k), e) for g, e in w.syls])


def indexed_to_v(w: Word) -> Word:
    """Rewrite a word in the a_i over the alternative basis v_i.

    v_1 = a_2 a_1^-1 and v_i = a_i otherwise, so a_1 = v_1^-1 v_2 and
    a_i = v_i otherwise.
    """
    return substitute(w, _v_image)


def _v_image(g: Generator) -> Word:
    if g.index == 1:
        return Word([(v_i(1), -1), (v_i(2), 1)])
    return Word([(v_i(g.index), 1)])


def sprime_weights(w: Word) -> dict:
    """Exponent sums over the v-basis (keyed by index)."""
    vw = indexed_to_v(w)
    out: dict = {}
    for g, e in vw.syls:
        out[g.index] = out.get(g.index, 0) + e
    return {i: c for i, c in out.items() if c}


def onerelator_c_generators() -> list:
    """Free generators of the edge subgroup on the {a, b} side."""
    a = Word([(A_GEN, 1)])
    b = Word([(B_GEN, 1)])
    second = a.conj(b ** 2) * a.conj(b).inverse() * a
    return [a, second]


def onerelator_d_generators() -> list:
    c = Word([(C_GEN, 1)])
    d = Word([(D_GEN, 1)])
    second = c.conj(d ** 2) * c.conj(d).inverse() * c
    return [c.inverse(), second]


@dataclass
class OneRelatorAmalgam:
    amalgam: Amalgam
    c_gens: list
    d_gens: list

    def presentation_three_generators(self) -> Presentation:
        """<a, b, d | a^{b^2} (a^b)^-1 a = (a^{d^2})^-1 a^d a^-1>."""
        a = Word([(A_GEN, 1)])
        b = Word([(B_GEN, 1)])
        d = Word([(D_GEN, 1)])
        lhs = a.conj(b ** 2) * a.conj(b).inverse() * a
        rhs = a.conj(d ** 2).inverse() * a.conj(d) * a.inverse()
        return Presentation([A_GEN, B_GEN, D_GEN], [lhs * rhs.inverse()])

    def presentation_four_generators(self) -> Presentation:
        a = Word([(A_GEN, 1)])
        b = Word([(B_GEN, 1)])
        c = Word([(C_GEN, 1)])
        d = Word([(D_GEN, 1)])
        lhs = a.conj(b ** 2) * a.conj(b).inverse() * a
        rhs = c.conj(d ** 2) * c.conj(d).inverse() * c
        return Presentation(
            [A_GEN, B_GEN, C_GEN, D_GEN],
            [a * c, lhs * rhs.inverse()],
        )


def build_onerelator_amalgam() -> OneRelatorAmalgam:
    """The amalgam A *_phi B with phi(a) = c^-1 on rank-two edge subgroups."""
    c_gens = onerelator_c_generators()
    d_gens = onerelator_d_generators()
    factor_a = FreeFactor("A", [A_GEN, B_GEN])
    factor_b = FreeFactor("B", [C_GEN, D_GEN])
    edge_alpha = (gen("e", 1), gen("e", 2))
    amal = Amalgam(
        [factor_a, factor_b],
        EdgeIdentification(edge_alpha, (tuple(c_gens), tuple(d_gens))),
    )
    return OneRelatorAmalgam(amal, c_gens, d_gens)


# -- the earlier one-relator group and its conjugate identities -------------

def gamma_relator() -> Word:
    """a_1 (a_0 a_2) a_1^-1 (a_0 a_2)^-2, the kernel form of the relator."""
    a0a2 = Word([(a_i(0), 1), (a_i(2), 1)])
    a1 = Word([(a_i(1), 1)])
    return a1 * a0a2 * a1.inverse() * (a0a2 ** -2)


def gamma_alpha() -> Word:
    """a_0 a_2 a_1 (a_0 a_2)^-1 a_1^-1 a_0 a_2."""
    a0a2 = Word([(a_i(0), 1), (a_i(2), 1)])
    a1 = Word([(a_i(1), 1)])
    return a0a2 * a1 * a0a2.inverse() * a1.inverse() * a0a2


def gamma_beta_parts():
    """beta = alpha^{shift} alpha^{a_2^-1 a_1 a_3} and its four-conjugate form.

    Returns (beta, displayed) where displayed is the product
    a_2^{(a_1 a_3)^-1} a_1^{(a_0 a_2)^-1} a_0^{a_1} a_3; the two words are
    equal as free words.
    """
    alpha = gamma_alpha()
    shifted = shift_indexed(alpha, 1)
    conjugator = Word([(a_i(2), -1), (a_i(1), 1), (a_i(3), 1)])
    beta = shifted * alpha.conj(conjugator)
    a0 = Word([(a_i(0), 1)])
    a1 = Word([(a_i(1), 1)])
    a2 = Word([(a_i(2), 1)])
    a3 = Word([(a_i(3), 1)])
    displayed = (
        a2.conj((a1 * a3).inverse())
        * a1.conj((a0 * a2).inverse())
        * a0.conj(a1)
        * a3
    )
    return beta, displayed
