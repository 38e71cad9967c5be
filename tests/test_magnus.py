import math

import pytest
from hypothesis import given, settings, strategies as st

from gtkit import magnus
from gtkit.errors import InternalInvariantError, PreconditionError
from gtkit.magnus import (
    Identify,
    LeadingTerm,
    TruncatedSeries,
    ZeroVars,
    annihilates,
    apply_sigma,
    check_c_leading_vars,
    leading_term,
    magnus_positive,
    mu,
    relabel_for_embedding,
)
from gtkit.suites import run_suite
from gtkit.word import Word, commutator, gen, parse_word as W


def _syllable_series(i, k, cap):
    """(1 + X_i)^k truncated, valid for negative k via the binomial series."""
    coeffs = {(): 1}
    for j in range(1, cap + 1):
        if k > 0 and j > k:
            break
        if k > 0:
            c = math.comb(k, j)
        else:
            c = (-1) ** j * math.comb(-k + j - 1, j)
        coeffs[(i,) * j] = c
    return TruncatedSeries(cap, coeffs)


def _mu_by_series_products(w, d):
    """mu as the product of its syllables' series, one TruncatedSeries
    product per syllable."""
    out = TruncatedSeries.one(d)
    for g, e in w.syls:
        out = out * _syllable_series(g.index, e, d)
    return out


_indexed_word = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 5]),
              st.integers(1, 7).flatmap(lambda k: st.sampled_from([k, -k]))),
    max_size=8).map(lambda syls: Word((gen("a", i), e) for i, e in syls))


def _min_positive_degree(s):
    """The least degree of a nonconstant monomial of the series s, or None."""
    degs = [len(m) for m in s.coeffs if m]
    return min(degs) if degs else None


def _leading_term_by_series_products(w):
    """leading_term over _mu_by_series_products, with the same caps 1, 2,
    4, ... up to the letter length."""
    d = 1
    while True:
        s = _mu_by_series_products(w, d)
        degree = _min_positive_degree(s)
        if degree is not None:
            return LeadingTerm(degree, s.homogeneous_part(degree))
        d = min(2 * d, w.letter_len)


@given(_indexed_word, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_mu_matches_the_product_of_syllable_series(w, cap):
    assert mu(w, cap).coeffs == _mu_by_series_products(w, cap).coeffs
    if not w.is_identity:
        lt = _leading_term_by_series_products(w)
        assert leading_term(w) == lt
        lt = _leading_term_by_series_products(relabel_for_embedding(w))
        assert magnus_positive(w) == (lt.coeffs[min(lt.coeffs)] > 0)


def test_mu_rejects_a_cap_below_1():
    with pytest.raises(PreconditionError):
        mu(W("a[0]"), 0)


def test_mu_generator():
    assert mu(W("a[0]"), 2).coeffs == {(): 1, (0,): 1}


def test_mu_inverse_geometric_series():
    s = mu(W("a[0]^-1"), 2)
    assert s.coeffs == {(): 1, (0,): -1, (0, 0): 1}
    assert mu(W("a[0]"), 2) * s == TruncatedSeries.one(2)


def test_mu_identity():
    assert mu(W(""), 3) == TruncatedSeries.one(3)


def test_leading_term_powers():
    for k in (-3, -1, 2, 5):
        lt = leading_term(W(f"a[0]^{k}"))
        assert lt.degree == 1 and lt.coeffs == {(0,): k}


def test_leading_term_commutator():
    lt = leading_term(W("a[1] a[0] a[1]^-1 a[0]^-1"))
    assert lt.degree == 2
    assert lt.coeffs == {(1, 0): 1, (0, 1): -1}


def test_leading_term_trivial_word():
    assert leading_term(W("")) is None


def test_leading_terms_of_iterated_commutators():
    a0, a1 = W("a[0]"), W("a[1]")
    c3 = commutator(commutator(a0, a1), a1)
    assert leading_term(c3) == LeadingTerm(3, {(0, 1, 1): 1, (1, 0, 1): -2, (1, 1, 0): 1})
    c4 = commutator(c3, a1)
    assert leading_term(c4) == LeadingTerm(4, {(0, 1, 1, 1): 1, (1, 0, 1, 1): -3,
                                               (1, 1, 0, 1): 3, (1, 1, 1, 0): -1})
    for w in (c3, c4):
        assert leading_term(w) == _leading_term_by_series_products(w)


@pytest.mark.parametrize("e", [100000, -100000])
def test_leading_term_of_a_commutator_with_a_large_exponent(e):
    w = commutator(W(f"a[0]^{e}"), W("a[1]"))
    assert w.letter_len == 200002
    assert leading_term(w) == LeadingTerm(2, {(0, 1): e, (1, 0): -e})


@given(_indexed_word, st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_mu_at_a_lower_cap_is_the_truncation(w, d, lower):
    lower = min(lower, d)
    high = mu(w, d).coeffs
    assert {m: c for m, c in high.items() if len(m) <= lower} == mu(w, lower).coeffs


# ---------------------------------------------------------------------------
# Oracle: the series as one merged coefficient dict, with a product that
# regroups its right operand by degree on every call, and the row kernel
# copying every entry and reading its binomials from math.comb.
# ---------------------------------------------------------------------------

class _MergedSeries:
    def __init__(self, cap, coeffs):
        self.cap = cap
        self.coeffs = {}
        for m, c in coeffs.items():
            if c and len(m) <= cap:
                self.coeffs[tuple(m)] = c

    def __eq__(self, other):
        return self.cap == other.cap and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.cap, frozenset(self.coeffs.items())))

    def __mul__(self, other):
        cap = min(self.cap, other.cap)
        out: dict = {}
        by_deg: dict = {}
        for m, c in other.coeffs.items():
            by_deg.setdefault(len(m), []).append((m, c))
        for m1, c1 in self.coeffs.items():
            room = cap - len(m1)
            if room < 0:
                continue
            for d, items in by_deg.items():
                if d > room:
                    continue
                for m2, c2 in items:
                    m = m1 + m2
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        res = _MergedSeries(cap, {})
        res.coeffs = out
        return res

    def homogeneous_part(self, d):
        return {m: c for m, c in self.coeffs.items() if len(m) == d}


def _add_row_by_binomials(syls, rows):
    deg = len(rows)
    level: dict = {}
    row = [level]
    for p, (i, k) in enumerate(syls):
        level = dict(level)
        if k > 0:
            src, sign = p, 1
        else:
            src, sign, k = p + 1, -1, -k
        for j in range(1, min(k, deg) + 1):
            run = (i,) * j
            c = sign * math.comb(k, j)
            for m, a in rows[deg - j][src].items():
                m += run
                v = level.get(m, 0) + a * c
                if v:
                    level[m] = v
                else:
                    del level[m]
        row.append(level)
    rows.append(row)
    return level


def _mu_merged(w, d):
    syls = magnus._syllables(w)
    rows = [[{(): 1}] * (len(syls) + 1)]
    for _ in range(d):
        _add_row_by_binomials(syls, rows)
    return _MergedSeries(d, {m: c for row in rows for m, c in row[-1].items()})


def _by_degree(coeffs):
    """The items in degree order, each degree kept in its insertion order."""
    return sorted(coeffs.items(), key=lambda mc: len(mc[0]))


_monomial = st.lists(st.sampled_from([0, 1, 2]), max_size=7).map(tuple)
_raw_series = st.tuples(st.integers(1, 6),
                        st.dictionaries(_monomial, st.integers(-2, 2), max_size=12))


def _assert_matches(s, oracle):
    assert s.cap == oracle.cap
    # the merged oracle keeps insertion order; the view merges the parts in
    # degree order, which is the oracle's order for mu images and for
    # series whose input was already in degree order
    assert list(s.coeffs.items()) == _by_degree(oracle.coeffs)
    assert hash(s) == hash(oracle)
    for d in range(-1, s.cap + 2):
        assert s.homogeneous_part(d) == oracle.homogeneous_part(d)


@given(_raw_series, _raw_series)
@settings(max_examples=300, deadline=None)
def test_series_by_degree_matches_the_merged_oracle(a, b):
    s, t = TruncatedSeries(*a), TruncatedSeries(*b)
    # the constructor drops zero coefficients and monomials above the cap
    assert dict(s.coeffs) == {m: c for m, c in a[1].items() if c and len(m) <= a[0]}
    _assert_matches(s, _MergedSeries(*a))
    _assert_matches(t, _MergedSeries(*b))
    # the oracle multiplies in the order its coefficients are stored, so it
    # gets them in degree order, as the series keeps them
    so, to = _MergedSeries(s.cap, s.coeffs), _MergedSeries(t.cap, t.coeffs)
    for x, y, xo, yo in ((s, t, so, to), (t, s, to, so), (s, s, so, so)):
        _assert_matches(x * y, xo * yo)
        assert (x == y) == (xo == yo)
    # equal series built from coefficients in another order
    r = TruncatedSeries(s.cap, dict(reversed(list(s.coeffs.items()))))
    assert r == s and hash(r) == hash(s)
    assert (s == TruncatedSeries(s.cap + 1, s.coeffs)) is False


@given(_indexed_word, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_mu_by_degree_matches_the_merged_oracle(w, cap):
    s, oracle = mu(w, cap), _mu_merged(w, cap)
    assert list(s.coeffs.items()) == list(oracle.coeffs.items())
    _assert_matches(s, oracle)


def test_series_parts_coeffs_view_and_part_copies():
    s = mu(W("a[0] a[1]^-2"), 3)
    assert s.parts == [{(): 1}, {(0,): 1, (1,): -2}, {(1, 1): 3, (0, 1): -2},
                       {(1, 1, 1): -4, (0, 1, 1): 3}]
    part = s.homogeneous_part(1)
    part[(0,)] = 7
    del part[(1,)]
    assert s.homogeneous_part(1) == {(0,): 1, (1,): -2}
    with pytest.raises(TypeError):
        s.coeffs[(0,)] = 7
    with pytest.raises(AttributeError):
        s.coeffs = {}
    assert s == mu(W("a[0] a[1]^-2"), 3)


def test_mixed_and_unindexed_alphabets_are_rejected():
    for w in (W("a[0] b[0] a[0]^-1 b[0]^-1"), W("a b a^-1 b^-1"), W("a^2")):
        with pytest.raises(PreconditionError):
            mu(w, 2)
        with pytest.raises(PreconditionError):
            leading_term(w)
    relabeled = relabel_for_embedding(W("a b a^-1 b^-1"))
    assert leading_term(relabeled) == LeadingTerm(2, {(0, 1): 1, (1, 0): -1})


def test_leading_term_past_the_letter_length_is_an_internal_error(monkeypatch):
    def zero_row(syls, rows):
        rows.append([{}] * (len(syls) + 1))
        return {}

    monkeypatch.setattr(magnus, "_add_row", zero_row)
    with pytest.raises(InternalInvariantError):
        leading_term(W("a[0] a[1]"))


def test_apply_sigma_identity_and_collapse():
    lt = leading_term(W("a[1] a[2] a[1]^-1 a[2]^-1"))
    assert apply_sigma(lt, {}) == lt
    collapsed = apply_sigma(lt, {1: 2})
    assert collapsed.coeffs == {}
    all_zero = apply_sigma(leading_term(W("a[1] a[0] a[1]^-1 a[0]^-1")),
                           lambda i: 0)
    assert all_zero.coeffs == {}


def test_annihilates_examples():
    assert annihilates(ZeroVars({0}), W("a[0]"))
    assert annihilates(Identify({1: 2}), W("a[2] a[1]^-1"))
    assert not annihilates(ZeroVars({0}), W("a[1]"))


def test_annihilates_vword_weights():
    # products of v_0 = a_0 and v_1 = a_2 a_1^-1 with zero v_1-weight are
    # killed by X_0 = 0; zero v_0-weight by X_1 - X_2 = 0
    v0, v1 = W("a[0]"), W("a[2] a[1]^-1")
    alpha = v0 * v1 * v0 ** 2 * v1.inverse()
    assert annihilates(ZeroVars({0}), alpha)
    beta = v0 * v1 * v0.inverse() * v1 ** 3
    assert annihilates(Identify({1: 2}), beta)
    assert not annihilates(ZeroVars({0}), v0 * v1)


def test_annihilates_leading_term_inputs():
    lt = leading_term(W("a[1] a[0] a[1]^-1 a[0]^-1"))
    assert annihilates(ZeroVars({0}), lt)
    assert not annihilates(ZeroVars({3}), lt)
    assert annihilates(Identify({1: 0}), lt)


def test_check_c_leading_vars_commutator():
    v0, v1 = W("a[0]"), W("a[2] a[1]^-1")
    alpha = commutator(v0, v1)
    assert check_c_leading_vars(alpha, v0, v1)


def test_check_c_leading_vars_folds_each_basis_once():
    # the third basis shares its v0 with the first
    bases = [(W("a[0]"), W("a[2] a[1]^-1")), (W("a[1]"), W("a[2]")),
             (W("a[0]"), W("a[1]"))]
    alphas = [[commutator(v0, v1), commutator(commutator(v0, v1), v0 * v1)]
              for v0, v1 in bases]

    def verdicts():
        return [[check_c_leading_vars(a, *basis) for a in al]
                for basis, al in zip(bases, alphas)]

    magnus._basis_automaton.cache_clear()
    cold = verdicts()
    assert cold == [[True, True], [False, False], [False, False]]
    assert magnus._basis_automaton.cache_info().misses == 3
    assert verdicts() == cold
    assert magnus._basis_automaton.cache_info().misses == 3
    # a warm basis still checks membership and weights on every call
    v0, v1 = bases[0]
    with pytest.raises(PreconditionError):
        check_c_leading_vars(v0, v0, v1)
    with pytest.raises(PreconditionError):
        check_c_leading_vars(W("a[5]"), v0, v1)
    magnus._basis_automaton.cache_clear()
    assert verdicts() == cold


def test_check_c_leading_vars_precondition():
    v0, v1 = W("a[0]"), W("a[2] a[1]^-1")
    with pytest.raises(PreconditionError):
        check_c_leading_vars(v0, v0, v1)  # weight 1, not 0
    with pytest.raises(PreconditionError, match="nontrivial member"):
        check_c_leading_vars(W("a[5]"), v0, v1)  # not a member
    with pytest.raises(PreconditionError, match="nontrivial member"):
        check_c_leading_vars(Word(), v0, v1)


def test_check_c_leading_vars_reads_alpha_once(monkeypatch):
    from gtkit.stallings import SubgroupAutomaton

    v0, v1 = W("a[0]"), W("a[2] a[1]^-1")
    alpha = commutator(v0, v1)
    walked = []
    walk = SubgroupAutomaton._walk

    def counting(self, w, *args):
        walked.append(w)
        return walk(self, w, *args)

    monkeypatch.setattr(SubgroupAutomaton, "_walk", counting)
    assert check_c_leading_vars(alpha, v0, v1)
    assert walked.count(alpha) == 1


def test_check_c_leading_vars_rejects_a_dependent_basis():
    # <v0, v1> is cyclic, so a member's weights over (v0, v1) are not unique
    v0 = W("a[0] a[1]")
    for v1 in (v0 ** 2, v0):
        with pytest.raises(PreconditionError, match="free basis"):
            check_c_leading_vars(v0 ** 2, v0, v1)


def test_magnus_positive_defines_an_order():
    assert magnus_positive(W("a[0]"))
    assert not magnus_positive(W("a[0]^-1"))
    # positivity is preserved by products of positives and by conjugation
    import random

    rng = random.Random(4)
    for _ in range(100):
        w = W("")
        while w.is_identity:
            w = W("")
            for _ in range(rng.randint(1, 5)):
                i = rng.randint(-1, 1)
                w = w * (W(f"a[{i}]") ** rng.choice((1, -1)))
        pos = w if magnus_positive(w) else w.inverse()
        assert magnus_positive(pos) and not magnus_positive(pos.inverse())
        conj = W("a[1] a[0]")
        assert magnus_positive(pos.conj(conj))
    other = W("a[0] a[1]")
    both = pos * other if magnus_positive(other) else pos * other.inverse()
    if not both.is_identity:
        assert magnus_positive(both)


def test_suite_homomorphism():
    assert run_suite("magnus_homomorphism", trials=500, seed=41).ok


def test_suite_inverse():
    assert run_suite("magnus_inverse", trials=500, seed=42).ok


def test_suite_leading_conjugation():
    assert run_suite("magnus_leading_conjugation", trials=300, seed=43).ok


def test_suite_degree1():
    assert run_suite("magnus_degree1", trials=500, seed=44).ok


def test_suite_ideal_transfer():
    assert run_suite("magnus_ideal_transfer", trials=400, seed=45).ok


def test_suite_c_degree1():
    assert run_suite("magnus_c_degree1", trials=400, seed=46).ok


def test_suite_c_leading_vars():
    assert run_suite("magnus_c_leading_vars", trials=100, seed=47).ok


# ---------------------------------------------------------------------------
# Oracle: the relation path with one branch per family and a union-find per
# call, as it stood before the families became variable maps.
# ---------------------------------------------------------------------------

def _classes_by_union_find(sigma: dict, indices) -> dict:
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in sigma.items():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return {i: find(i) for i in set(indices) | set(sigma) | set(sigma.values())}


def _substitute(s, f):
    out: dict = {}
    for m, c in s.coeffs.items():
        key = tuple(f(i) for i in m)
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    if isinstance(s, LeadingTerm):
        return LeadingTerm(s.degree, out)
    return TruncatedSeries(s.cap, out)


def _annihilates_by_family(rel, target):
    sigma = dict(rel.sigma) if isinstance(rel, Identify) else {}
    if isinstance(target, LeadingTerm):
        if isinstance(rel, ZeroVars):
            return all(set(m) & rel.indices for m in target.coeffs)
        reps = _classes_by_union_find(sigma, target.variables())
        return not _substitute(target, lambda i: reps.get(i, i)).coeffs
    w = target
    if w.is_identity:
        return True
    cap = min(3, max(1, w.letter_len))
    series = mu(w, cap)
    if isinstance(rel, ZeroVars):
        quotient = Word((g, e) for g, e in w.syls if g.index not in rel.indices)
        projected = TruncatedSeries(cap, {m: c for m, c in series.coeffs.items()
                                          if not set(m) & rel.indices})
    else:
        reps = _classes_by_union_find(sigma, (g.index for g, _ in w.syls))
        quotient = Word((gen(g.name, reps.get(g.index, g.index)), e) for g, e in w.syls)
        reps = _classes_by_union_find(sigma, series.variables())
        projected = _substitute(series, lambda i: reps.get(i, i))
    assert not quotient.is_identity or projected == TruncatedSeries.one(cap)
    return quotient.is_identity


_relation = st.one_of(
    st.sets(st.integers(0, 5), max_size=3).map(ZeroVars),
    st.dictionaries(st.integers(0, 5), st.integers(0, 5), max_size=3).map(Identify),
)


def _killed_letter(rel):
    """A word the relations kill: x_i for a zeroed i, x_i x_sigma(i)^-1."""
    if isinstance(rel, ZeroVars):
        return Word([(gen("a", i), 1) for i in sorted(rel.indices)[:1]])
    if not rel.sigma:
        return Word()
    i, j = rel.sigma[0]
    return Word([(gen("a", i), 1), (gen("a", j), -1)])


@given(_relation, _indexed_word,
       st.lists(st.tuples(_indexed_word, st.sampled_from([1, -1, 2])), max_size=3))
@settings(max_examples=300, deadline=None)
def test_relation_maps_match_the_family_branches(rel, w, conjugates):
    # w is random; kernel is a product of conjugates of a killed word
    kernel = Word()
    for conj, e in conjugates:
        kernel = kernel * conj * _killed_letter(rel) ** e * conj.inverse()
    for word in (w, kernel, w * kernel):
        assert annihilates(rel, word) == _annihilates_by_family(rel, word)
        if word.is_identity:
            continue
        lt = leading_term(word)
        assert annihilates(rel, lt) == _annihilates_by_family(rel, lt)
        sigma = (dict(rel.sigma) if isinstance(rel, Identify)
                 else {i: 0 for i in rel.indices})
        for s in (lt, mu(word, 3)):
            for f in (lambda i: sigma.get(i, i), lambda i: i % 2):
                got, want = apply_sigma(s, f), _substitute(s, f)
                assert got == want
                assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert apply_sigma(s, sigma) == _substitute(s, lambda i: sigma.get(i, i))
