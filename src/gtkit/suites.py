"""Registered randomized and exhaustive property suites.

Each suite samples hypothesis instances for one structural fact and checks
the conclusion exactly, reporting violations with reproducer data.
`run_suite` builds each suite's report (named by its registry key, with the
trials, seed and params) and its `random.Random(seed)`, so all randomness
flows from the suite seed; a suite appends violations to the report and
counts the instances whose hypotheses cannot be established as skips.
"""

from __future__ import annotations

import functools
import inspect
import random
from typing import Optional, Sequence

from . import casestudy
from .amalgam import (
    Amalgam,
    AmalgamElement,
    EdgeIdentification,
    FreeFactor,
    SandwichDecomposition,
    _outside_edge_balls,
    _product,
    cancellation_number,
    check_sandwich_nontrivial,
    end_preserving,
    factors as amalgam_factors,
    free_as_free_product,
    free_product_of_free,
    normalize,
)
from .errors import PreconditionError
from .gentorsion import SuiteReport, Violation, subgroup_product_ball
from .magnus import (
    Identify,
    TruncatedSeries,
    ZeroVars,
    annihilates,
    check_c_leading_vars,
    leading_term,
    mu,
)
from .stallings import SubgroupAutomaton
from .tamed import (
    ConjTuple,
    TamedSampler,
    _rand_alternating,
    cancellability,
    delta_factorize,
    tamed_length_bound,
)
from .word import (
    Generator,
    HomSpec,
    Presentation,
    Word,
    _word,
    abelianize_snf,
    cancellation_syllables,
    commutator,
    gen,
    parse_word,
)


# ---------------------------------------------------------------------------
# Shared fixtures and samplers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _groups() -> tuple:
    """F2 and Z *_{2Z} Z, each paired with its outside-edge balls of 3 letters."""
    z2z = Amalgam(
        [FreeFactor("A", [gen("a")]), FreeFactor("B", [gen("b")])],
        EdgeIdentification((gen("e"),), ((parse_word("a^2"),), (parse_word("b^2"),))),
    )
    return tuple((G, _outside_edge_balls(G, 3))
                 for G in (free_as_free_product(["a", "b"]), z2z))


@functools.lru_cache(maxsize=None)
def _csystem(s: int = 10, m: int = 8, seed: int = 0):
    e = casestudy.sample_exponents(s, m, seed)
    return casestudy.CSubgroup.from_matrix(e)


def _rand_word(rng, alphabet: Sequence[Generator], max_letters: int,
               nonempty: bool = False) -> Word:
    """A reduced word of randint(lo, max_letters) letters, lo = 1 if nonempty
    else 0: random letters are appended until the reduced word is that long."""
    n = rng.randint(1 if nonempty else 0, max_letters)
    syls: list = []  # the reduced syllables so far
    length = 0  # their letter length
    while length < n:
        g = alphabet[rng.randrange(len(alphabet))]
        s = rng.choice((1, -1))
        if syls and syls[-1][0] == g:
            # the letter merges into the last syllable or cancels against it
            e = syls[-1][1]
            length += 1 if e * s > 0 else -1
            if e + s:
                syls[-1] = (g, e + s)
            else:
                syls.pop()
        else:
            syls.append((g, s))
            length += 1
    return _word(tuple(syls))


_AB = (gen("a"), gen("b"))


def _rand_gens(rng, max_count: int, max_letters: int) -> list:
    """randint(1, max_count) nonempty random words over a, b."""
    return [_rand_word(rng, _AB, max_letters, nonempty=True)
            for _ in range(rng.randint(1, max_count))]


def _member(rng, gens: Sequence[Word], lo: int, hi: int) -> Word:
    """A product of randint(lo, hi) random generators, each to the power +-1."""
    w = Word()
    for _ in range(rng.randint(lo, hi)):
        w = w * (gens[rng.randrange(len(gens))] ** rng.choice((1, -1)))
    return w


_INDEXED = tuple(casestudy.a_i(i) for i in range(-2, 3))


def _indexed_word(rng, max_letters: int, nonempty: bool = False) -> Word:
    return _rand_word(rng, _INDEXED, max_letters, nonempty)


# ---------------------------------------------------------------------------
# Oracle-equivalence suites
# ---------------------------------------------------------------------------

def suite_oracle_cancellation_number(rep: SuiteReport, rng: random.Random) -> None:
    """cancellation_number against the brute-force prefix oracle."""
    for t in range(rep.trials):
        G, balls = _groups()[t % 2]
        g = _rand_alternating(G, rng, balls, 4)
        h = _rand_alternating(G, rng, balls, 4)
        got = cancellation_number(g, h)
        want = _brute_cancellation(G, g, h)
        if got != want:
            rep.violations.append(Violation("k-mismatch", {
                "g": str(g), "h": str(h), "got": got, "want": want,
            }))


def _brute_cancellation(G: Amalgam, g: AmalgamElement, h: AmalgamElement) -> int:
    best = 0
    for k in range(min(g.length, h.length) + 1):
        suffix = AmalgamElement(G, Word(), g.comps[g.length - k:])
        prefix = AmalgamElement(G, h.head, h.comps[:k])
        if (suffix * prefix).length == 0:
            best = k
    return best


def suite_oracle_normalize_shuffle(rep: SuiteReport, rng: random.Random) -> None:
    """Normal-form soundness and index-vector invariance under shuffles."""
    for t in range(rep.trials):
        G, balls = _groups()[t % 2]
        raw = []
        for _ in range(rng.randint(0, 5)):
            fi = rng.randrange(len(G.factors))
            ball = balls[fi]
            raw.append((fi, ball[rng.randrange(len(ball))]))
        x = normalize(G, raw)
        rev = []
        for fi, w in reversed(raw):
            rev.append((fi, G.factors[fi].inv(w)))
        if not (normalize(G, raw + rev).is_identity):
            rep.violations.append(Violation("inverse-not-trivial", {
                "raw": [(fi, str(w)) for fi, w in raw]}))
            continue
        # C-shuffle: distribute a random edge element across a cut
        if G.edge.alphabet and raw:
            cut = rng.randrange(len(raw))
            ew = Word([(G.edge.alphabet[0], rng.choice((1, -1)))])
            shuffled = list(raw)
            fi, w = shuffled[cut]
            f = G.factors[fi]
            shuffled[cut] = (fi, f.mul(w, f.from_edge(ew)))
            shuffled.insert(cut + 1, ("C", ew.inverse()))
            y = normalize(G, shuffled)
            if y.index_vector != x.index_vector or not x.equals(y):
                rep.violations.append(Violation("shuffle-changed-element", {
                    "raw": [(fi, str(w)) for fi, w in raw]}))


def suite_oracle_prefix_acceptable(rep: SuiteReport, rng: random.Random) -> None:
    """prefix_acceptable against constructive and enumerative brute force."""
    for _ in range(rep.trials):
        gens = _rand_gens(rng, 3, 4)
        aut = SubgroupAutomaton(gens)
        i = rng.randint(1, 3)
        # candidate prefix: either from a member, or random
        if rng.random() < 0.5:
            c = _member(rng, gens, 1, 3)
            if c.syllable_len < i:
                rep.skips += 1
                continue
            p = c.left(i)
        else:
            p = _rand_word(rng, _AB, i * 2, nonempty=True)
            if p.syllable_len != i:
                rep.skips += 1
                continue
        got = aut.prefix_acceptable(p, i, "left")
        witness = _prefix_witness(aut, p, i)
        if got != (witness is not None):
            rep.violations.append(Violation("acceptance-vs-witness", {
                "gens": [str(g) for g in gens], "p": str(p), "i": i, "got": got,
            }))
            continue
        if witness is not None:
            if not (aut.contains(witness) and witness.syllable_len >= i
                    and witness.left(i) == p):
                rep.violations.append(Violation("bad-witness", {
                    "gens": [str(g) for g in gens], "p": str(p), "i": i,
                    "witness": str(witness),
                }))
        else:
            # enumerative cross-check: no short member product has prefix p
            for c in subgroup_product_ball(gens, i + 2, include_identity=False):
                if c.syllable_len >= i and c.left(i) == p:
                    rep.violations.append(Violation("rejected-but-present", {
                        "gens": [str(g) for g in gens], "p": str(p), "i": i,
                        "member": str(c),
                    }))
                    break


def _prefix_witness(aut: SubgroupAutomaton, p: Word, i: int) -> Optional[Word]:
    """Construct a member c with l(c) >= i and L_i(c) = p, if any exists."""
    q = aut.trace(p)
    if q is None:
        return None
    if q == aut.base:
        return p
    last_gen = p.syls[-1][0]
    for (g, s), _nxt in aut.successors(q):
        if g == last_gen:
            continue
        path = _immersed_path_to_base(aut, q, (g, s))
        if path is not None:
            return p * path
    return None


def _immersed_path_to_base(aut, state, first_lab) -> Optional[Word]:
    """BFS over (state, last label) for a reduced path with a forced first edge."""
    start = (aut.step(state, *first_lab), first_lab)
    seen = {start}
    queue = [(start, Word([(first_lab[0], first_lab[1])]))]
    while queue:
        (cur, last), w = queue.pop(0)
        if cur == aut.base:
            return w
        for lab, nxt in aut.successors(cur):
            if lab == (last[0], -last[1]):
                continue
            key = (nxt, lab)
            if key in seen:
                continue
            seen.add(key)
            queue.append((key, w * Word([(lab[0], lab[1])])))
    return None


def suite_express_soundness(rep: SuiteReport, rng: random.Random) -> None:
    """Every returned witness evaluates back to the queried word."""
    for _ in range(rep.trials):
        gens = _rand_gens(rng, 3, 4)
        aut = SubgroupAutomaton(gens)
        w = _member(rng, gens, 0, 4)
        expr = aut.express(w)
        if aut.evaluate(expr) != w:
            rep.violations.append(Violation("bad-expression", {
                "gens": [str(g) for g in gens], "w": str(w), "expr": str(expr),
            }))


def suite_fold_confluence(rep: SuiteReport, rng: random.Random) -> None:
    """Shuffling the generator tuple yields an isomorphic automaton."""
    for _ in range(rep.trials):
        gens = _rand_gens(rng, 4, 5)
        base = SubgroupAutomaton(gens).canonical_form()
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if SubgroupAutomaton(shuffled).canonical_form() != base:
            rep.violations.append(Violation("fold-order-dependent", {
                "gens": [str(g) for g in gens]}))


def suite_subgroup_closure(rep: SuiteReport, rng: random.Random) -> None:
    """Membership is closed under products (many products per automaton)."""
    per_automaton = 50
    for _ in range(max(1, rep.trials // per_automaton)):
        gens = _rand_gens(rng, 3, 4)
        aut = SubgroupAutomaton(gens)
        for _ in range(per_automaton):
            u = _member(rng, gens, 0, 3)
            v = _member(rng, gens, 0, 3)
            if not (aut.contains(u) and aut.contains(v) and aut.contains(u * v)):
                rep.violations.append(Violation("closure", {
                    "gens": [str(g) for g in gens], "u": str(u), "v": str(v)}))


def suite_snf_row_invariance(rep: SuiteReport, rng: random.Random) -> None:
    """Abelianization invariants are stable under relator Tietze moves."""
    gens = [gen("x"), gen("y"), gen("z")]
    for _ in range(rep.trials):
        relators = [
            _rand_word(rng, gens, 6, nonempty=True)
            for _ in range(rng.randint(1, 3))
        ]
        base = abelianize_snf(Presentation(gens, relators))
        moved = list(relators)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(moved))
            j = rng.randrange(len(moved))
            move = rng.randrange(3)
            if move == 0:
                moved[k] = moved[k].inverse()
            elif move == 1 and j != k:
                conj = _rand_word(rng, gens, 3)
                moved[k] = moved[k] * moved[j].conj(conj) ** rng.choice((1, -1))
            else:
                rng.shuffle(moved)
        got = abelianize_snf(Presentation(gens, moved))
        if got != base:
            rep.violations.append(Violation("snf-not-invariant", {
                "relators": [str(r) for r in relators],
                "moved": [str(r) for r in moved],
                "base": str(base), "got": str(got),
            }))


# ---------------------------------------------------------------------------
# Amalgam cancellation lemma suites
# ---------------------------------------------------------------------------

def suite_lemma_end_preserving(rep: SuiteReport, rng: random.Random) -> None:
    """End-preservation iff k < l(alpha), and inheritance by left factors."""
    for t in range(rep.trials):
        G, balls = _groups()[t % 2]
        alpha = _rand_alternating(G, rng, balls, 4)
        beta = _rand_alternating(G, rng, balls, 4)
        if alpha.length == 0:
            rep.skips += 1
            continue
        k = cancellation_number(alpha, beta)
        lhs = end_preserving([alpha, beta], "left")
        if lhs != (k < alpha.length):
            rep.violations.append(Violation("iff-failed", {
                "alpha": str(alpha), "beta": str(beta), "k": k}))
            continue
        if lhs:
            for b1, _ in amalgam_factors(beta, "left"):
                if alpha.length > 0 or b1.length > 0:
                    if not end_preserving([alpha, b1], "left"):
                        rep.violations.append(Violation("left-factor-failed", {
                            "alpha": str(alpha), "beta": str(beta), "b1": str(b1)}))
                        break


def suite_length_subadditivity(rep: SuiteReport, rng: random.Random) -> None:
    """l(gh) <= l(g) + l(h) and l(gh) >= l(g) + l(h) - 2K(g,h) - 1."""
    for t in range(rep.trials):
        G, balls = _groups()[t % 2]
        g = _rand_alternating(G, rng, balls, 4)
        h = _rand_alternating(G, rng, balls, 4)
        k = cancellation_number(g, h)
        n = (g * h).length
        if not (n <= g.length + h.length and n >= g.length + h.length - 2 * k - 1):
            rep.violations.append(Violation("length-bound", {
                "g": str(g), "h": str(h), "k": k, "l": n}))


def suite_sandwich_nontrivial(rep: SuiteReport, rng: random.Random) -> None:
    """When the two-sided condition holds the sandwich product is nontrivial."""
    G, balls = _groups()[0]
    for _ in range(rep.trials):
        n = rng.randint(1, 3)
        gs = [_rand_alternating(G, rng, balls, 3) for _ in range(n + 1)]
        alphas = [_rand_alternating(G, rng, balls, 2) for _ in range(n)]
        d = SandwichDecomposition(gs, alphas)
        res = check_sandwich_nontrivial(d)
        if res.verified and d.product().is_identity:
            rep.violations.append(Violation("verified-but-trivial", {
                "g": [str(x) for x in gs], "alphas": [str(x) for x in alphas]}))
        if not res.verified:
            rep.skips += 1


# ---------------------------------------------------------------------------
# Tamedness suites
# ---------------------------------------------------------------------------

def suite_lemma_cancellable_one_side(rep: SuiteReport, rng: random.Random) -> None:
    """One-sided cancellability shortens the adjacent conjugated g."""
    for G, _ in _groups():
        sampler = TamedSampler(G, rng)
        for _ in range(rep.trials // 2):
            v = sampler.raw_tuple(rng.randint(1, 3))
            for i in range(1, v.n + 1):
                if v.t(i).length == 0:
                    continue
                c = cancellability(v, i)
                ci = v.conjugate(i)
                if c.kind == "LHS":
                    if not (v.g(i - 1) * ci).length < v.g(i - 1).length:
                        rep.violations.append(Violation("lhs-not-shorter", {
                            "tuple": v.to_json(), "i": i}))
                elif c.kind == "RHS":
                    if not (v.g(i + 1) * ci.inverse()).length < v.g(i + 1).length:
                        rep.violations.append(Violation("rhs-not-shorter", {
                            "tuple": v.to_json(), "i": i}))
                else:
                    rep.skips += 1


def suite_prop_two_sided(rep: SuiteReport, rng: random.Random) -> None:
    """Two-sided cancellability with non-shortening forces exact equalities."""
    G, balls = _groups()[0]
    for _ in range(rep.trials):
        # reverse construction: pick c in C (trivial here: c = 1), L, t, g
        t_pick = _rand_alternating(G, rng, balls, 1)
        while t_pick.length != 1:
            t_pick = _rand_alternating(G, rng, balls, 1)
        g_mid = _rand_alternating(G, rng, balls, 2)
        if g_mid.length and g_mid.lei == t_pick.lei:
            rep.skips += 1
            continue
        x = t_pick.conj(g_mid)
        lf = _rand_alternating(G, rng, balls, 2)
        rf_val = x.inverse() * lf.inverse()
        g_prev = _rand_alternating(G, rng, balls, 2) * rf_val
        g_next = (lf * _rand_alternating(G, rng, balls, 2)).inverse()
        v = ConjTuple(G, [
            (t_pick, g_prev),
            (t_pick, g_mid),
            (t_pick, g_next),
        ])
        # l(t) = 1, so this is exactly is_reduced([g_mid^-1, t, g_mid])
        if x.length != 2 * g_mid.length + 1:
            rep.skips += 1
            continue
        c = cancellability(v, 2)
        if not c.cancellable:
            rep.skips += 1
            continue
        ci = v.conjugate(2)
        gp = v.g(1) * ci
        gn = v.g(3) * ci.inverse()
        if gp.length < v.g(1).length or gn.length < v.g(3).length:
            rep.skips += 1
            continue
        ok = (
            gp.length == v.g(1).length > v.g(2).length
            and gn.length == v.g(3).length > v.g(2).length
        )
        if not ok:
            rep.violations.append(Violation("two-sided-equalities", {
                "tuple": v.to_json()}))


def suite_prop_length_bound(rep: SuiteReport, rng: random.Random) -> None:
    """Tamed products in F2 and Z *_2Z Z satisfy l(T) >= l(g_1) + n + l(g_n)."""
    rep.params["group"] = "both"
    samplers = [TamedSampler(G, rng) for G, _ in _groups()]
    for t in range(rep.trials):
        v = samplers[t % 2].sample()
        lhs, rhs, holds = tamed_length_bound(v)
        if not holds:
            rep.violations.append(Violation("length-bound", {
                "tuple": v.to_json(), "lhs": lhs, "rhs": rhs}))


def suite_delta_factorization(rep: SuiteReport, rng: random.Random) -> None:
    """Delta triples are reduced and telescope to the conjugate product."""
    samplers = [TamedSampler(G, rng) for G, _ in _groups()]
    for t in range(rep.trials):
        v = samplers[t % 2].sample()
        try:
            fact = delta_factorize(v)
        except Exception as exc:  # NotTamedError covers failed assertions
            rep.violations.append(Violation("delta-failed", {
                "tuple": v.to_json(), "error": str(exc)}))
            continue
        if not fact.partials[-1].equals(v.product()):
            rep.violations.append(Violation("delta-product-mismatch", {
                "tuple": v.to_json()}))


# ---------------------------------------------------------------------------
# Magnus suites
# ---------------------------------------------------------------------------

def suite_magnus_homomorphism(rep: SuiteReport, rng: random.Random) -> None:
    cap = rep.params["cap"] = 4
    for _ in range(rep.trials):
        u = _indexed_word(rng, 5)
        v = _indexed_word(rng, 5)
        if mu(u, cap) * mu(v, cap) != mu(u * v, cap):
            rep.violations.append(Violation("hom", {"u": str(u), "v": str(v)}))


def suite_magnus_inverse(rep: SuiteReport, rng: random.Random) -> None:
    cap = rep.params["cap"] = 4
    one = TruncatedSeries.one(cap)
    for _ in range(rep.trials):
        w = _indexed_word(rng, 6)
        if mu(w, cap) * mu(w.inverse(), cap) != one:
            rep.violations.append(Violation("inverse", {"w": str(w)}))


def suite_magnus_leading_conjugation(rep: SuiteReport, rng: random.Random) -> None:
    for _ in range(rep.trials):
        alpha = _indexed_word(rng, 5, nonempty=True)
        g = _indexed_word(rng, 4)
        if leading_term(alpha.conj(g)) != leading_term(alpha):
            rep.violations.append(Violation("conjugation", {
                "alpha": str(alpha), "g": str(g)}))


def suite_magnus_degree1(rep: SuiteReport, rng: random.Random) -> None:
    """Degree-1 part of mu equals the weight functional."""
    for _ in range(rep.trials):
        w = _indexed_word(rng, 6)
        got = mu(w, 2).homogeneous_part(1)
        want = {}
        for g in w.generators():
            c = w.exponent_sum(g)
            if c:
                want[(g.index,)] = c
        if got != want:
            rep.violations.append(Violation("degree1", {"w": str(w)}))


def suite_magnus_ideal_transfer(rep: SuiteReport, rng: random.Random) -> None:
    """Relations annihilating a word annihilate its leading term."""
    for t in range(rep.trials):
        if t % 2 == 0:
            rel = ZeroVars({0})
            seed_word = Word([(casestudy.a_i(0), rng.choice((1, -1)))])
        else:
            rel = Identify({1: 2})
            seed_word = Word([(casestudy.a_i(1), 1), (casestudy.a_i(2), -1)]) \
                ** rng.choice((1, -1))
        alpha = Word()
        for _ in range(rng.randint(1, 3)):
            conj = _indexed_word(rng, 3)
            alpha = alpha * seed_word.conj(conj)
        if alpha.is_identity:
            rep.skips += 1
            continue
        if not annihilates(rel, alpha):
            rep.violations.append(Violation("construction-not-annihilated", {
                "alpha": str(alpha)}))
            continue
        if not annihilates(rel, leading_term(alpha)):
            rep.violations.append(Violation("leading-term-not-annihilated", {
                "alpha": str(alpha)}))


def suite_magnus_c_degree1(rep: SuiteReport, rng: random.Random) -> None:
    """Weights against the basis v_0 = a_0, v_1 = a_2 a_1^-1 shape L(alpha)."""
    v_alphabet = [casestudy.v_i(0), casestudy.v_i(1)]
    expand = HomSpec({
        casestudy.v_i(0): Word([(casestudy.a_i(0), 1)]),
        casestudy.v_i(1): Word([(casestudy.a_i(2), 1), (casestudy.a_i(1), -1)]),
    })
    for _ in range(rep.trials):
        vw = _rand_word(rng, v_alphabet, 6, nonempty=True)
        alpha = expand.apply(vw)
        if alpha.is_identity:
            rep.skips += 1
            continue
        w0 = vw.exponent_sum(casestudy.v_i(0))
        w1 = vw.exponent_sum(casestudy.v_i(1))
        lt = leading_term(alpha)
        if (w0, w1) != (0, 0):
            want = {}
            if w0:
                want[(0,)] = w0
            if w1:
                want[(2,)] = w1
                want[(1,)] = -w1
            if lt.degree != 1 or lt.coeffs != want:
                rep.violations.append(Violation("degree1-formula", {
                    "vw": str(vw), "w0": w0, "w1": w1, "lt": str(lt)}))
        elif lt.degree < 2:
            rep.violations.append(Violation("unexpected-degree1", {
                "vw": str(vw)}))


def suite_magnus_c_leading_vars(rep: SuiteReport, rng: random.Random) -> None:
    """Weight-zero members of <v0, v1> show X_0, X_1, X_2 in the leading term."""
    v0 = Word([(casestudy.a_i(0), 1)])
    v1 = Word([(casestudy.a_i(2), 1), (casestudy.a_i(1), -1)])
    for _ in range(rep.trials):
        # zero-weight words: products of commutators of random v-words
        alpha = Word()
        for _ in range(rng.randint(1, 2)):
            x = (v0 ** rng.randint(1, 2)) * (v1 ** rng.randint(1, 2))
            y = (v1 ** rng.randint(1, 2)) * (v0 ** rng.randint(1, 2))
            alpha = alpha * commutator(x, y)
        if alpha.is_identity:
            rep.skips += 1
            continue
        if not check_c_leading_vars(alpha, v0, v1):
            rep.violations.append(Violation("vars-missing", {"alpha": str(alpha)}))


# ---------------------------------------------------------------------------
# Small-cancellation and K-calculus suites (on the non-LO subgroup C)
# ---------------------------------------------------------------------------

def suite_lemma_small_cancellation(rep: SuiteReport, rng: random.Random,
                                   s: int = 10, m: int = 8) -> None:
    """Exhaustive pairwise checks plus randomized k-fold product checks on C.

    Pairs: K(u, v) = 0 and l(uv) >= 4s - 1 over S u S^-1 with uv != 1.
    Random products of k = 2..5 units (at least 50 trials): almost-reducedness,
    prefix/suffix stability at 2s - 1, the length lower bound 2ks - (k - 1),
    and the no-symmetric-components property of prefixes of members.
    """
    units = _csystem(s, m, 0).gen_set()

    def violation(*case):
        rep.violations.append(Violation("small-cancellation", {"case": case}))

    pairs = [(u, v) for u in units for v in units if not (u * v).is_identity]
    for u, v in pairs:
        if cancellation_syllables(u, v) != 0:
            violation("pair-cancellation", str(u), str(v))
        if (u * v).syllable_len < 4 * s - 1:
            violation("pair-length", str(u), str(v))
    rep.trials = max(rep.trials, 50)
    rep.params = {"s": s, "m": m, "pairs_checked": len(pairs)}
    for _ in range(rep.trials):
        k = rng.randint(2, 5)
        tup = [units[rng.randrange(len(units))]]
        while len(tup) < k:
            u = units[rng.randrange(len(units))]
            if not (tup[-1] * u).is_identity:
                tup.append(u)
        names = [str(u) for u in tup]
        if any((x * y).syllable_len < 4 * s - 1 for x, y in zip(tup, tup[1:])):
            violation("almost-reduced", names)
        prod = functools.reduce(Word.__mul__, tup)
        if prod.left(2 * s - 1) != tup[0].left(2 * s - 1):
            violation("prefix-stability", names)
        if prod.right(2 * s - 1) != tup[-1].right(2 * s - 1):
            violation("suffix-stability", names)
        if prod.syllable_len < 2 * k * s - (k - 1):
            violation("length-bound", names)
        for i in range(1, prod.syllable_len - 1):
            a_i, a_i2 = prod.component(i), prod.component(i + 2)
            if a_i2.generator == a_i.generator and a_i2.exponent == -a_i.exponent:
                violation("symmetric-components", names, i)


def _random_c_element(rng, csub, max_factors: int = 3) -> Word:
    units = csub.gen_set()
    c = Word()
    while c.is_identity:
        c = Word()
        for _ in range(rng.randint(1, max_factors)):
            c = c * units[rng.randrange(len(units))]
    return c


def _random_left_factor_of_c(rng, csub) -> Word:
    c = _random_c_element(rng, csub)
    return c.left(rng.randint(0, c.syllable_len))


def suite_lemma_k_beta_h(rep: SuiteReport, rng: random.Random) -> None:
    """K(g, beta h) <= K(g, beta) + 1 for beta outside C, h a member prefix."""
    csub = _csystem()
    for _ in range(rep.trials):
        g = _random_c_element(rng, csub)
        beta = _rand_word(rng, _AB, 12, nonempty=True)
        if csub.contains(beta):
            rep.skips += 1
            continue
        h = _random_left_factor_of_c(rng, csub)
        if cancellation_syllables(g, beta * h) > cancellation_syllables(g, beta) + 1:
            rep.violations.append(Violation("k-beta-h", {
                "g": str(g), "beta": str(beta), "h": str(h)}))


def suite_lemma_k_alpha_n(rep: SuiteReport, rng: random.Random) -> None:
    """alpha^n stays outside C and K(g, alpha^n) <= K(g, alpha) + 1."""
    csub = _csystem()
    for _ in range(rep.trials):
        g = _random_c_element(rng, csub)
        alpha = _rand_word(rng, _AB, 10, nonempty=True)
        if csub.contains(alpha):
            rep.skips += 1
            continue
        n = rng.randint(2, 4)
        power = alpha ** n
        if csub.contains(power):
            rep.violations.append(Violation("power-in-c", {"alpha": str(alpha)}))
            continue
        if cancellation_syllables(g, power) > cancellation_syllables(g, alpha) + 1:
            rep.violations.append(Violation("k-alpha-n", {
                "g": str(g), "alpha": str(alpha), "n": n}))


def suite_cor_k_alpha_n_h(rep: SuiteReport, rng: random.Random) -> None:
    """K(g, alpha^n h) <= K(g, alpha) + 2."""
    csub = _csystem()
    for _ in range(rep.trials):
        g = _random_c_element(rng, csub)
        alpha = _rand_word(rng, _AB, 10, nonempty=True)
        if csub.contains(alpha):
            rep.skips += 1
            continue
        n = rng.randint(1, 3)
        h = _random_left_factor_of_c(rng, csub)
        if cancellation_syllables(g, (alpha ** n) * h) > \
                cancellation_syllables(g, alpha) + 2:
            rep.violations.append(Violation("cor-k", {
                "g": str(g), "alpha": str(alpha), "n": n, "h": str(h)}))


def suite_prop_two_sided_bound(rep: SuiteReport, rng: random.Random) -> None:
    """Oversized two-sided cancellation forces g into S and pins the middle.

    Constructed instances realize the extreme cancellation pattern; random
    instances almost always fail the hypothesis and are skipped.
    """
    csub = _csystem()
    s = csub.s
    units = csub.gen_set()
    for t in range(rep.trials):
        if t % 2 == 0:
            g = units[rng.randrange(len(units))]
            i, j = (s - 1, s - 2) if rng.random() < 0.5 else (s - 2, s - 1)
            alpha = _two_sided_alpha(g, i, j)
            h2 = g.right(rng.randint(j + 2, 2 * s))
            h1 = g.left(rng.randint(i + 2, 2 * s))
            mm, nn = 1, 1
        else:
            g = _random_c_element(rng, csub)
            alpha = _rand_word(rng, _AB, 8, nonempty=True)
            if csub.contains(alpha):
                rep.skips += 1
                continue
            c1, alpha, c2 = casestudy.c_simplify(csub, alpha)
            if alpha.is_identity or csub.contains(alpha):
                rep.skips += 1
                continue
            h2 = _random_left_factor_of_c(rng, csub).inverse()
            h1 = _random_left_factor_of_c(rng, csub)
            mm, nn = rng.randint(1, 2), rng.randint(1, 2)
        if not csub.is_simplified(alpha):
            rep.skips += 1
            continue
        lhs = cancellation_syllables(h2 * alpha ** mm, g) + \
            cancellation_syllables(g, (alpha ** nn) * h1)
        if lhs <= g.syllable_len - 2:
            rep.skips += 1
            continue
        in_s = any(g == u for u in units)
        middle = g.right(s) * alpha * g.left(s)
        b_s = Word([tuple(g.component(s))])
        b_s1 = Word([tuple(g.component(s + 1))])
        if not (in_s and middle in (b_s, b_s1)):
            rep.violations.append(Violation("two-sided-bound", {
                "g": str(g), "alpha": str(alpha), "lhs": lhs}))


def _two_sided_alpha(g: Word, i: int, j: int) -> Word:
    """A_{2s}^-1 .. A_{2s-j+1}^-1 (A_{2s-j}^-1 A_{i+1}^-1) A_i^-1 .. A_1^-1."""
    two_s = g.syllable_len
    syls = []
    for k in range(two_s, two_s - j, -1):
        gk, ek = g.component(k)
        syls.append((gk, -ek))
    gm, em = g.component(two_s - j)
    gi, ei = g.component(i + 1)
    assert gm == gi
    syls.append((gm, -em - ei))
    for k in range(i, 0, -1):
        gk, ek = g.component(k)
        syls.append((gk, -ek))
    return Word(syls)


# ---------------------------------------------------------------------------
# Left-first product suites
# ---------------------------------------------------------------------------

def _random_word_tuple(rng, count, max_letters=8):
    return [_rand_word(rng, _AB, max_letters) for _ in range(count)]


def suite_lfp_multiplicativity(rep: SuiteReport, rng: random.Random) -> None:
    """Unaltered in the full product iff unaltered in both half products."""
    for _ in range(rep.trials):
        n = rng.randint(3, 5)
        words = _random_word_tuple(rng, n)
        k = rng.randint(2, n - 1)
        if words[k - 1].syllable_len == 0:
            rep.skips += 1
            continue
        pos = rng.randint(1, words[k - 1].syllable_len)
        full = casestudy.lfp_trace(words)
        left = casestudy.lfp_trace(words[:k])
        right = casestudy.lfp_trace(words[k - 1:])
        got = full.is_unaltered(k, pos)
        want = left.is_unaltered(k, pos) and right.is_unaltered(1, pos)
        if got != want:
            rep.violations.append(Violation("multiplicativity", {
                "words": [str(w) for w in words], "k": k, "pos": pos}))


def suite_lfp_restriction(rep: SuiteReport, rng: random.Random) -> None:
    """Cancellation in the full product restricts to the inner product."""
    for _ in range(rep.trials):
        n = rng.randint(3, 5)
        words = _random_word_tuple(rng, n)
        full = casestudy.lfp_trace(words)
        if not full.cancel_pairs:
            rep.skips += 1
            continue
        for (i, p), (j, q) in full.cancel_pairs:
            if i == j:
                continue
            sub = casestudy.lfp_trace(words[i - 1:j])
            if not sub.cancels((1, p), (j - i + 1, q)):
                rep.violations.append(Violation("restriction", {
                    "words": [str(w) for w in words],
                    "pair": [[i, p], [j, q]]}))
                break


def suite_lfp_pair_cancellation(rep: SuiteReport, rng: random.Random) -> None:
    """A reported cancellation annihilates the entire enclosed product."""
    for _ in range(rep.trials):
        n = rng.randint(2, 5)
        words = _random_word_tuple(rng, n)
        full = casestudy.lfp_trace(words)
        if not full.cancel_pairs:
            rep.skips += 1
            continue
        for (i, p), (j, q) in full.cancel_pairs:
            r = words[i - 1].syllable_len - p + 1
            mid = words[i - 1].right(r)
            for w in words[i:j - 1]:
                mid = mid * w
            mid = mid * words[j - 1].left(q)
            if not mid.is_identity:
                rep.violations.append(Violation("pair-cancellation", {
                    "words": [str(w) for w in words],
                    "pair": [[i, p], [j, q]]}))
                break


# ---------------------------------------------------------------------------
# Conjugate / standard-form suites
# ---------------------------------------------------------------------------

def _random_simplified_g(rng, csub) -> Word:
    while True:
        w = _rand_word(rng, _AB, rng.randint(1, 14), nonempty=True)
        if csub.contains(w):
            continue
        _, g, _ = casestudy.c_simplify(csub, w)
        if not g.is_identity and not csub.contains(g):
            return g


def suite_conjugate_local_property(rep: SuiteReport, rng: random.Random) -> None:
    """Every component of mu links back into C through its prefix."""
    csub = _csystem()
    for _ in range(rep.trials):
        c = _random_c_element(rng, csub)
        g = _random_simplified_g(rng, csub)
        d = casestudy.standard_form(csub, c, g)
        conj = d.conjugate()
        nl = d.lam.syllable_len
        nmu = d.mu.syllable_len
        nall = conj.syllable_len
        for t in range(nl + 1, nl + nmu + 1):
            dt = Word([tuple(conj.component(t))])
            if not csub.in_sc(dt):
                rep.violations.append(Violation("component-outside-sc", {
                    "c": str(c), "g": str(g), "t": t}))
                break
            p = csub.prefix(dt)
            first = g * conj.left(t - 1) * p.inverse()
            second = p * conj.segment(t, nall) * g.inverse()
            if not (csub.contains(first) or csub.contains(second)):
                rep.violations.append(Violation("local-property", {
                    "c": str(c), "g": str(g), "t": t}))
                break


def suite_block_cancellation(rep: SuiteReport, rng: random.Random) -> None:
    """Standard forms and the product tracer on conjugates that cancel mu into mu.

    Fixtures c1 = u1 u2 and c2 = u2^-1 u3 share the unit u2, so the mu parts
    of c1^g and c2^g can cancel.  Each trial builds both standard forms
    (which re-verify their own structural facts) and the left-first trace
    of the product, which must be (u1 u3)^g with cancellation_syllables(c1^g,
    c2^g) cancel pairs.  A skip is counted when the tracer reports no mu-mu
    cancellation pair.  Bridges between distinct conjugators are not built.
    """
    csub = _csystem()
    units = csub.gens
    for _ in range(rep.trials):
        u1 = units[rng.randrange(len(units))]
        u2 = units[rng.randrange(len(units))]
        u3 = units[rng.randrange(len(units))]
        if (u1 * u2).is_identity or (u2.inverse() * u3).is_identity:
            rep.skips += 1
            continue
        c1 = u1 * u2
        c2 = u2.inverse() * u3
        g = _random_simplified_g(rng, csub)
        conj1 = g.inverse() * c1 * g
        conj2 = g.inverse() * c2 * g
        trace = casestudy.lfp_trace([conj1, conj2])
        fixture = {"units": [str(u1), str(u2), str(u3)], "g": str(g)}
        if trace.product() != (u1 * u3).conj(g):
            rep.violations.append(Violation("traced-product", fixture))
        if len(trace.cancel_pairs) != cancellation_syllables(conj1, conj2):
            rep.violations.append(Violation("cancel-pair-count", fixture))
        d1 = casestudy.standard_form(csub, c1, g)
        d2 = casestudy.standard_form(csub, c2, g)
        mu1_range = range(d1.lam.syllable_len + 1,
                          d1.lam.syllable_len + d1.mu.syllable_len + 1)
        mu2_range = range(d2.lam.syllable_len + 1,
                          d2.lam.syllable_len + d2.mu.syllable_len + 1)
        if not any(a[0] == 1 and b[0] == 2 and a[1] in mu1_range and b[1] in mu2_range
                   for a, b in trace.cancel_pairs):
            rep.skips += 1


def suite_claim_a_shortening(rep: SuiteReport, rng: random.Random) -> None:
    """Oversized gamma cancellation admits the conjugate-shortening rewrite.

    For products of conjugates of C-elements, whenever the tail gamma_r of
    C_r is eaten beyond one component by the following partial product, the
    conjugate C_r rewritten through that partial product gets strictly
    shorter, which is the rewriting that a minimal counterexample forbids.
    """
    csub = _csystem()
    for _ in range(rep.trials):
        n = rng.randint(2, 3)
        cs = [_random_c_element(rng, csub) for _ in range(n)]
        gs = [_random_simplified_g(rng, csub) for _ in range(n)]
        conjs = [g.inverse() * c * g for c, g in zip(cs, gs)]
        forms = [casestudy.standard_form(csub, c, g) for c, g in zip(cs, gs)]
        tested = False
        for r in range(n - 1):
            pi = Word()
            for w in conjs[r + 1:]:
                pi = pi * w
            gamma = forms[r].gamma
            tested = True
            if (gamma * pi).syllable_len < gamma.syllable_len - 1:
                new_conj = pi.inverse() * conjs[r] * pi
                if new_conj.syllable_len >= conjs[r].syllable_len:
                    rep.violations.append(Violation("no-shortening", {
                        "cs": [str(c) for c in cs], "gs": [str(g) for g in gs],
                        "r": r + 1}))
        if not tested:
            rep.skips += 1


# ---------------------------------------------------------------------------
# Case-study wrappers
# ---------------------------------------------------------------------------

def suite_nonlo_witnesses(rep: SuiteReport, _rng: random.Random,
                          s: int = 10, m: int = 8) -> None:
    rep.trials = 8
    rep.params = {"s": s, "m": m}
    g = casestudy.build_nonlo(casestudy.sample_exponents(s, m, rep.seed))
    for row in casestudy.verify_nonlo_witnesses(g):
        if not (row["identity"] and row["signs_ok"]):
            rep.violations.append(Violation("witness", row))


def suite_exponent_condition_a(rep: SuiteReport, _rng: random.Random) -> None:
    """Sampled matrices validate; tampered ones are rejected."""
    for t in range(max(1, rep.trials // 10)):
        e = casestudy.sample_exponents(10, 8, rep.seed + t)
        # tamper: duplicate one absolute value
        bad = casestudy.ExponentMatrix(
            e.s, e.m,
            [row[:] for row in e.a_exp],
            [row[:] for row in e.b_exp],
        )
        bad.a_exp[0][1] = -bad.a_exp[2][3]
        try:
            casestudy.validate_exponent_matrix(bad)
            rep.violations.append(Violation("tamper-accepted", {"seed": rep.seed + t}))
        except PreconditionError:
            pass


def suite_factor_multimalnormal(rep: SuiteReport, rng: random.Random) -> None:
    """In a free product, P-conjugate products with outside conjugators leave A."""
    G = free_product_of_free([["a"], ["x"]])
    balls = _outside_edge_balls(G, 2)
    a_seed = normalize(G, [(0, parse_word("a"))])

    def conjugate():
        d = a_seed ** rng.randint(1, 2)
        conj_elt = _rand_alternating(G, rng, balls, 3)
        if not any(fi == 1 for fi, _ in conj_elt.comps):
            conj_elt = conj_elt * normalize(G, [(1, parse_word("x"))])
        return d.conj(conj_elt)

    for _ in range(rep.trials):
        # the factors are drawn in order as the product consumes them
        prod = _product(G, (conjugate() for _ in range(rng.randint(1, 3))))
        in_a = prod.is_identity or (prod.length == 1 and prod.lei == 0)
        if in_a:
            rep.violations.append(Violation("landed-in-factor", {
                "product": str(prod)}))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# every suite_<name> function above, in definition order
SUITES: dict = {name.removeprefix("suite_"): fn
                for name, fn in globals().items() if name.startswith("suite_")}
# the parameters each suite reads, after its report and its random.Random
SUITE_PARAMS: dict = {name: tuple(inspect.signature(fn).parameters)[2:]
                      for name, fn in SUITES.items()}


def run_suite(name: str, trials: int = 200, seed: int = 7, **params) -> SuiteReport:
    """Run a registered property suite; deterministic given the seed.

    The report is named by the registry key and carries the trials, seed and
    params; the suite gets it with one random.Random(seed) and the params,
    and fills it in.  A parameter the suite does not read is rejected.
    """
    if name not in SUITES:
        raise PreconditionError(f"unknown suite: {name!r}")
    unread = [k for k in params if k not in SUITE_PARAMS[name]]
    if unread:
        raise PreconditionError(f"suite {name} does not read {', '.join(unread)}")
    if trials < 0:
        raise PreconditionError(f"trials must be non-negative: {trials}")
    rep = SuiteReport(name, trials, seed=seed, params=params)
    if trials > 0:
        SUITES[name](rep, random.Random(seed), **params)
    return rep

