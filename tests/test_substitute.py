"""Generator substitution against the repeated-product loops it replaced.

Every oracle below multiplies the images out one syllable at a time, the
way HomSpec.apply, evaluate, from_edge, expand_indexed, indexed_to_v and
bergman_witness built their words before they all went through
word.substitute.  Free reduction is unique, so each pair must agree word
for word.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gtkit import casestudy as cs
from gtkit import gentorsion as gt
from gtkit.amalgam import AbelianFactor, Amalgam, EdgeIdentification, FreeFactor, normalize
from gtkit.errors import NotMemberError, UnknownGeneratorError
from gtkit.stallings import SubgroupAutomaton
from gtkit.word import HomSpec, Word, gen, parse_word as W, substitute

A, B, X, Y = gen("a"), gen("b"), gen("x"), gen("y")
exponents = st.integers(-3, 3).filter(bool)


def words(alphabet, max_size=8):
    return st.lists(st.tuples(st.sampled_from(alphabet), exponents),
                    max_size=max_size).map(Word)


def product_oracle(w, image):
    out = Word()
    for g, e in w.syls:
        out = out * (image(g) ** e)
    return out


# ---------------------------------------------------------------------------
# substitute and HomSpec.apply
# ---------------------------------------------------------------------------

@given(words([A, B, X]), st.fixed_dictionaries(
    {g: words([A, B, X, Y], 4) for g in (A, B, X)}))
@settings(max_examples=300, deadline=None)
def test_substitute_matches_repeated_products(w, images):
    expected = product_oracle(w, images.__getitem__)
    assert substitute(w, images.__getitem__) == expected
    assert HomSpec(images).apply(w) == expected


def test_substitute_one_syllable_and_identity():
    image = {A: W("x y"), B: W("y^-1")}.__getitem__
    assert substitute(W("a^-2"), image) == W("y^-1 x^-1 y^-1 x^-1")
    assert substitute(W("1"), image) == W("1")
    # the images cancel across the junction: (x y)(y^-1) (y^-1)^-1 ...
    assert substitute(W("a b b"), image) == W("x y^-1")


def test_apply_keeps_its_unknown_generator_error():
    with pytest.raises(UnknownGeneratorError):
        HomSpec({A: W("a")}).apply(W("a b"))


# ---------------------------------------------------------------------------
# SubgroupAutomaton.evaluate
# ---------------------------------------------------------------------------

def witness_words(k):
    return words([gen("g", i) for i in range(1, k + 1)], 10)


@given(st.lists(words([A, B], 5), min_size=1, max_size=3).flatmap(
    lambda gens: st.tuples(st.just(gens), witness_words(len(gens)))))
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_repeated_products(case):
    gens, expr = case
    aut = SubgroupAutomaton(gens)
    assert aut.evaluate(expr) == product_oracle(expr, lambda g: gens[g.index - 1])


@pytest.mark.parametrize("symbol", ["a", "g[0]", "g[3]", "g"])
def test_evaluate_rejects_a_symbol_outside_the_witness_alphabet(symbol):
    aut = SubgroupAutomaton([W("a^2"), W("b a b^-1")])
    with pytest.raises(NotMemberError):
        aut.evaluate(W("g[1] " + symbol))


# ---------------------------------------------------------------------------
# from_edge, both factor kinds
# ---------------------------------------------------------------------------

E1, E2 = gen("e", 1), gen("e", 2)


def free_from_edge_oracle(f, alphabet, ew):
    return product_oracle(ew, lambda g: f.edge_images[alphabet.index(g)])


def abelian_from_edge_oracle(f, ew):
    out = Word()
    for _g, e in ew.syls:
        out = f.mul(out, f.canonical(f.edge_images[0] ** e))
    return out


FREE_EDGES = [
    ["a^2", "b a b^-1"],
    ["a b", "b^2 a^-1"],
    ["a^-3 b", "b a^2 b^-1 a"],
]


@given(st.sampled_from(FREE_EDGES), words([E1, E2], 10))
@settings(max_examples=200, deadline=None)
def test_free_from_edge_matches_repeated_products(edge, ew):
    G = gt.doubled_amalgam(["a", "b"], [W(t) for t in edge])
    for f in G.factors:
        assert f.from_edge(ew) == free_from_edge_oracle(f, list(G.edge.alphabet), ew)


@given(st.integers(2, 5), st.sampled_from(["c", "b c^-2", "b^3 c", "c^-1 b^2"]),
       st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_abelian_from_edge_matches_repeated_products(m, image, k):
    fa = FreeFactor("A", [A])
    fb = AbelianFactor("B", [B, gen("c")])
    Amalgam([fa, fb], EdgeIdentification((E1,), ((W(f"a^{m}"),), (W(image),))))
    ew = W(f"e[1]^{k}")
    assert fb.from_edge(ew) == abelian_from_edge_oracle(fb, ew)
    assert fa.from_edge(ew) == free_from_edge_oracle(fa, [E1], ew)


def test_factors_read_the_edge_alphabet_they_were_attached_with():
    G = gt.bs_amalgam(3)
    head = W("e^2")
    for f in G.factors:
        x = f.from_edge(head)
        assert f.to_edge(x) == head


# ---------------------------------------------------------------------------
# expand_indexed and indexed_to_v
# ---------------------------------------------------------------------------

INDEXED = [gen("a", i) for i in range(-3, 4)]


def expand_indexed_oracle(w):
    b, a = W("b"), W("a")
    out = Word()
    for g, e in w.syls:
        out = out * (b ** (-g.index)) * (a ** e) * (b ** g.index)
    return out


def indexed_to_v_oracle(w):
    out = Word()
    for g, e in w.syls:
        if g.index == 1:
            out = out * (W("v[1]^-1 v[2]") ** e)
        else:
            out = out * Word([(cs.v_i(g.index), e)])
    return out


@given(words(INDEXED, 12))
@settings(max_examples=300, deadline=None)
def test_indexed_rewrites_match_repeated_products(w):
    assert cs.expand_indexed(w) == expand_indexed_oracle(w)
    assert cs.indexed_to_v(w) == indexed_to_v_oracle(w)
    assert cs.rewrite_to_indexed(cs.expand_indexed(w)) == w


def test_expand_indexed_rejects_a_generator_without_an_index():
    with pytest.raises(NotMemberError):
        cs.expand_indexed(W("a[1] b"))


# ---------------------------------------------------------------------------
# bergman_witness over the benchmark's range
# ---------------------------------------------------------------------------

def bergman_oracle(k, js):
    """The certificate bergman_witness builds, suffix products re-multiplied."""
    a = W("a")
    cs_words = [a ** (k * j) for j in js]
    G0 = gt.doubled_amalgam(["a"], [a ** k])
    base = normalize(G0, [(1, W("a'")), (0, a.inverse())])
    conjugators = []
    for i in range(len(cs_words)):
        w = Word()
        for c in cs_words[i:]:
            w = w * a * c
        conjugators.append(normalize(G0, [(0, w)]))
    return gt.GtCertificate(base, conjugators).to_json()


@pytest.mark.parametrize("k", [2, 3])
def test_bergman_witness_certificates_over_the_benchmark_range(k):
    a = W("a")
    for js in itertools.product(range(-2, 3), repeat=k):
        _, cert = gt.bergman_witness(["a"], [a ** k], a, [a ** (k * j) for j in js])
        assert cert.to_json() == bergman_oracle(k, js), js
