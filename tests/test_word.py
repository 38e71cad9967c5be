from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from gtkit.errors import NotMemberError, PreconditionError, UnknownGeneratorError
from gtkit.word import (
    AbelianInvariants,
    _SyllableOrder,
    HomSpec,
    Presentation,
    Word,
    abelianize_snf,
    Generator,
    Syllable,
    _concat,
    cancellation_syllables,
    cancelled_letters,
    commutator,
    conjugacy_key,
    gen,
    parse_generator,
    parse_word as W,
    smith_invariants,
    sort_words,
    weight,
)

A, B = gen("a"), gen("b")
X, Y = gen("x"), gen("y")


# ---------------------------------------------------------------------------
# free reduction: parse_word and Word
# ---------------------------------------------------------------------------

def test_reduce_inverse_pair():
    assert W("a a^-1").is_identity


def test_reduce_inner_cancellation():
    assert W("a b b^-1 a") == W("a^2")


def test_reduce_idempotent_on_letters():
    w = Word([(A, 1), (A, 1), (B, -1), (B, 1), (A, -1)])
    assert w == W("a")
    assert Word(w.syls) == w


def test_reduce_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        W("q", alphabet=[A, B])


def test_parse_indexed_and_exponents():
    w = W("a[3]^-2 b a[3]")
    assert w.syls == ((gen("a", 3), -2), (B, 1), (gen("a", 3), 1))
    assert str(w) == "a[3]^-2 b a[3]"
    assert W(str(w)) == w


letters = st.lists(
    st.tuples(st.sampled_from([A, B, X]), st.sampled_from([1, -1])),
    max_size=30,
)


@given(letters)
@settings(max_examples=200, deadline=None)
def test_reduce_involution(pairs):
    w = Word(pairs)
    assert (w * w.inverse()).is_identity
    assert w.inverse().inverse() == w
    assert w.letter_len <= len(pairs)


@given(letters, letters)
@settings(max_examples=200, deadline=None)
def test_product_associates_with_reduction(p1, p2):
    assert Word(list(p1) + list(p2)) == Word(p1) * Word(p2)


def _letterwise_product(x, y):
    """x * y reduced one letter at a time on a stack."""
    out = []
    for g, s in list(x.letters()) + list(y.letters()):
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple((g, sum(s for _h, s in run)) for g, run in groupby(out, key=lambda gs: gs[0]))


_syllables = st.lists(st.tuples(st.sampled_from([A, B, X]), st.integers(-3, 3)), max_size=6)


@given(_syllables, st.integers(0, 6), st.integers(-2, 2), _syllables)
@settings(max_examples=400, deadline=None)
def test_product_matches_letterwise_reduction(p, k, merge, q):
    # y starts with the inverse of x's last k syllables (a full cancellation
    # when k covers x), then possibly with x's last generator again (a merge
    # at the junction), then anything
    x = Word(p)
    head = list(x.inverse().syls[:k])
    if merge and x.syls[k:]:
        head.append((x.syls[-1 - k][0], merge))
    y = Word(head + q)
    for u, v in ((x, y), (y, x), (x, x.inverse()), (x, Word()), (Word(), y)):
        assert (u * v).syls == _letterwise_product(u, v)
    assert (x * x.inverse()).is_identity


@given(_syllables, st.integers(0, 6), st.integers(-2, 2), _syllables)
@settings(max_examples=200, deadline=None)
def test_cancelled_letters_give_the_product_letter_length(p, k, merge, q):
    # the junctions of test_product_matches_letterwise_reduction: whole
    # cancellations, a partial one or a merge next to them, and none
    x = Word(p)
    head = list(x.inverse().syls[:k])
    if merge and x.syls[k:]:
        head.append((x.syls[-1 - k][0], merge))
    y = Word(head + q)
    for u, v in ((x, y), (y, x), (x, x.inverse()), (x, Word()), (Word(), y)):
        assert (u * v).letter_len == u.letter_len + v.letter_len - 2 * cancelled_letters(u, v)


_ab_syllable = st.tuples(st.sampled_from([A, B]), st.integers(-3, 3).filter(bool))


@st.composite
def concat_blocks(draw):
    """Reduced syllable tuples over {a, b}: random ones, empty ones, ones that
    start on the generator the output so far ends with (a merge or a partial
    cancellation), and ones that begin with the inverse of the last few
    blocks, so that cancellation cascades back across all of them."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from("rmec"), max_size=10)):
        tail = draw(st.lists(_ab_syllable, max_size=5))
        if kind == "e":
            blocks.append(())
            continue
        head = []
        if kind == "c" and blocks:
            j = draw(st.integers(0, len(blocks) - 1))
            head = list(Word([s for b in blocks[j:] for s in b]).inverse().syls)
        elif kind == "m" and blocks and blocks[-1]:
            head = [(blocks[-1][-1][0], draw(st.integers(-3, 3).filter(bool)))]
        blocks.append(Word(head + tail).syls)
    return blocks


@given(concat_blocks())
@settings(max_examples=200, deadline=None)
def test_concat_matches_reduction_of_all_syllables(blocks):
    expected = Word([s for b in blocks for s in b])
    got = _concat(blocks)
    assert got == expected and got.syls == expected.syls
    assert _concat(iter(blocks)) == expected


def test_concat_cascades_across_whole_blocks():
    blocks = [W("a b^2").syls, W("a^-1").syls, (), W("a b^-2").syls, W("a^-1 b").syls]
    # a b^2 | a^-1 | a b^-2 | a^-1 b: the third block cancels the second
    # whole and the first down to a, and the last cancels that a
    assert _concat(blocks) == W("b")
    assert _concat([]) == Word() and _concat([(), ()]) == Word()
    assert _concat([W("a^2").syls, W("a^-5 b").syls]) == W("a^-3 b")


def _conjugate_by_rotations(u, v):
    """Brute force: strip inverse end letters, then try every rotation."""
    def core(w):
        ls = list(w.letters())
        while len(ls) > 1 and ls[0] == (ls[-1][0], -ls[-1][1]):
            ls = ls[1:-1]
        return ls
    cu, cv = core(u), core(v)
    return len(cu) == len(cv) and any(cu[i:] + cu[:i] == cv
                                      for i in range(max(1, len(cu))))


@given(letters, letters, letters, st.integers(0, 2))
@settings(max_examples=500, deadline=None)
def test_conjugacy_key_matches_rotations(p, q, c, mode):
    u = Word(p)
    if mode == 0:
        v = Word(q)
    elif mode == 1:
        v = u.conj(Word(c))  # u^c, always conjugate
    else:
        ls = list(u.letters())  # a letter rotation of u, always conjugate
        k = len(c) % max(1, len(ls))
        v = Word(ls[k:] + ls[:k])
    assert (conjugacy_key(u) == conjugacy_key(v)) == _conjugate_by_rotations(u, v)
    if mode:
        assert conjugacy_key(u) == conjugacy_key(v)


def _least_of_all_rotations(w):
    """conjugacy_key with its least rotation taken over every rotation of
    the cyclically reduced core."""
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
    return min(tuple(core[k:] + core[:k]) for k in range(len(core)))


@given(_syllables, _syllables, st.integers(1, 3))
@settings(max_examples=500, deadline=None)
def test_conjugacy_key_is_the_least_of_all_rotations(p, q, n):
    # powers and p q p repeat p's least syllable, so several rotations
    # start with it and the key must pick the least of those
    u, v = Word(p), Word(q)
    for w in (u, u ** n, u * v * u, (u * v) ** n, u.conj(v), (u ** n).conj(v)):
        assert conjugacy_key(w) == _least_of_all_rotations(w)


@pytest.mark.parametrize("u, v, conjugate", [
    ("a^2 b a^-1", "a b", True),
    ("a b a^-1", "b", True),
    ("a b^2 a^-1 b^-2", "b^-2 a b^2 a^-1", True),
    ("a b", "b^-1 a^-1", False),
    ("a^2 b", "a b^2", False),
    ("1", "a b a^-1 b^-1 b a b^-1 a^-1", True),
])
def test_conjugacy_key_examples(u, v, conjugate):
    assert (conjugacy_key(W(u)) == conjugacy_key(W(v))) == conjugate


# ---------------------------------------------------------------------------
# syllables: Word.syls and Syllable
# ---------------------------------------------------------------------------

def test_syllables_basic():
    sw = [Syllable(*s) for s in W("a^3 b^-2", alphabet=[A, B]).syls]
    assert [(s.generator, s.exponent) for s in sw] == [(A, 3), (B, -2)]
    assert W("a^3 b^-2").syllable_len == 2


def test_syllables_identity():
    assert W("").syllable_len == 0


def test_syllables_strict_alphabet():
    with pytest.raises(UnknownGeneratorError):
        W("a x", alphabet=[A, B])


@given(letters)
@settings(max_examples=100, deadline=None)
def test_syllable_roundtrip(pairs):
    w = Word(pairs)
    assert Word(w.syls) == w


# every generator the token grammar reads: plain, primed and underscored
# names, with or without an index of either sign
_generators = st.builds(gen, st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True),
                        st.none() | st.integers(-10 ** 6, 10 ** 6))


@given(_generators)
@example(gen("a'"))
@example(gen("_x", -3))
@example(gen("b_1'", 0))
@settings(max_examples=300, deadline=None)
def test_generator_text_round_trip(g):
    assert parse_generator(str(g)) == g


@given(st.lists(st.tuples(_generators, st.integers(-10 ** 12, 10 ** 12).filter(bool)),
                max_size=6).map(Word))
@example(W("a'^1000000000000 _x[-3]^-7 a'"))
@settings(max_examples=300, deadline=None)
def test_word_text_round_trip(w):
    assert W(str(w)) == w


def test_component_accessors():
    w = W("a^2 b^-1 a^3")
    assert tuple(w.component(2)) == (B, -1)
    assert w.left(2) == W("a^2 b^-1")
    assert w.right(1) == W("a^3")
    assert w.segment(2, 3) == W("b^-1 a^3")


def test_cancellation_syllables():
    assert cancellation_syllables(W("a b"), W("b^-1 a^-1")) == 2
    assert cancellation_syllables(W("a b"), W("b^-1 a")) == 1
    assert cancellation_syllables(W("a b"), W("a b")) == 0
    assert cancellation_syllables(W("a b^2"), W("b^-1 a")) == 0  # merge, not full


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

LAMBDA = W("y x^-1 y^-1 x^2 y^-1 x^-1 y")


def test_weight_of_longitude_vanishes():
    assert weight(LAMBDA, X) == 0
    assert weight(LAMBDA, Y) == 0


def test_weight_plain_exponent_sum():
    w = W("a[0]^3 a[1]^-1")
    assert weight(w, gen("a", 0)) == 3
    assert weight(w, gen("a", 1)) == -1


def test_weight_under_vbasis():
    basis = HomSpec({
        gen("v", 0): W("a[0]"),
        gen("v", 1): W("a[2] a[1]^-1"),
        gen("v", 2): W("a[2]"),
    })
    assert weight(W("a[2] a[1]^-1"), gen("v", 1), basis) == 1
    assert weight(W("a[2] a[1]^-1"), gen("v", 0), basis) == 0


def test_weight_not_expressible_is_reported():
    basis = HomSpec({gen("v", 0): W("a[0]^2")})
    with pytest.raises(NotMemberError):
        weight(W("a[0]"), gen("v", 0), basis)


def test_weight_rejects_a_dependent_basis():
    # abab = x^2 = y, so its x- and y-weights would depend on the fold
    x, y = gen("x"), gen("y")
    basis = HomSpec({x: W("a b"), y: W("a b a b")})
    for t in (x, y):
        with pytest.raises(PreconditionError, match="free basis"):
            weight(W("a b a b"), t, basis)


@given(letters, letters)
@settings(max_examples=100, deadline=None)
def test_weight_homomorphism(p1, p2):
    u, v = Word(p1), Word(p2)
    for t in (A, B, X):
        assert weight(u * v, t) == weight(u, t) + weight(v, t)


# ---------------------------------------------------------------------------
# homomorphisms: HomSpec.apply
# ---------------------------------------------------------------------------

def test_apply_hom_identity():
    h = HomSpec({A: W("a"), B: W("b")})
    assert h.apply(W("a b")) == W("a b")


def test_apply_hom_expansion():
    h = HomSpec({gen("a", 1): W("b^-1 a b")})
    assert h.apply(W("a[1]^2")) == W("b^-1 a^2 b")


def test_apply_hom_outside_domain():
    h = HomSpec({A: W("a")})
    with pytest.raises(UnknownGeneratorError):
        h.apply(W("b"))


@given(letters, letters)
@settings(max_examples=100, deadline=None)
def test_apply_hom_respects_products(p1, p2):
    h = HomSpec({A: W("x y"), B: W("y^-1"), X: W("x^2")})
    u, v = Word(p1), Word(p2)
    assert h.apply(u * v) == h.apply(u) * h.apply(v)


# ---------------------------------------------------------------------------
# Smith normal form / abelianization
# ---------------------------------------------------------------------------

def test_smith_invariants_against_sympy_oracle():
    import random

    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        want = [int(d) for d in invariant_factors(Matrix(mat)) if d != 0]
        assert smith_invariants(mat) == want, mat


def test_abelianize_commutator_relator():
    # <x, y | w x (y w)^-1> with w = x y^-1 x^-1 y
    w = W("x y^-1 x^-1 y")
    relator = w * W("x") * (W("y") * w).inverse()
    inv = abelianize_snf(Presentation([X, Y], [relator]))
    assert inv == AbelianInvariants(1, ())


def test_abelianize_free_group():
    assert abelianize_snf(Presentation([A, B], [])) == AbelianInvariants(2, ())


def test_abelianize_large_entries_exact():
    # huge exponents must not overflow: gcd of the single row is 10^30
    inv = abelianize_snf(Presentation([A, B], [W(f"a^{10**30} b^{2 * 10**30}")]))
    assert inv.free_rank == 1
    assert inv.torsion == (10 ** 30,)


def test_presentation_json_roundtrip():
    p = Presentation([X, Y], [W("x y x^-1 y^-1")])
    assert Presentation.from_json(p.to_json()).relators == p.relators


def test_commutator_convention():
    x, y = W("x"), W("y")
    assert commutator(x, y) == W("x y x^-1 y^-1")


# ---------------------------------------------------------------------------
# powers, hashing and pickling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["a", "b^-3", "a^2 b^-1", "b a^3 b^-1", "a b a^-1 b^-1", "1"])
def test_pow_equals_repeated_product(text):
    w = W(text)
    for n in range(-6, 7):
        expected = Word()
        for _ in range(abs(n)):
            expected = expected * (w if n > 0 else w.inverse())
        assert w ** n == expected


@pytest.mark.parametrize("e", [1.0, 175.5, True, "2", None])
def test_non_int_exponents_are_rejected(e):
    # int(e) would truncate 175.5 to 175 and read True as 1
    with pytest.raises(PreconditionError):
        Word([(A, e)])
    with pytest.raises(PreconditionError):
        Word([(A, 1), (B, e)])
    for w in (W("a"), W("a b^2"), Word()):
        with pytest.raises(PreconditionError):
            w ** e


def test_pow_large_exponent_is_fast_and_exact():
    import time

    t0 = time.perf_counter()
    p = W("a^2 b^-1") ** 10 ** 6
    assert p.letter_len == 3 * 10 ** 6
    assert (W("b a^3 b^-1") ** -(10 ** 6)) == W("b a^-3000000 b^-1")
    assert time.perf_counter() - t0 < 1.0


def test_identity_inverse_is_itself():
    from gtkit.word import IDENTITY

    assert IDENTITY.inverse() is IDENTITY
    assert W("a").inverse() == W("a^-1")


def test_generator_equality_and_hash():
    assert Generator("a") == gen("a")
    assert hash(Generator("a")) == hash(gen("a"))
    assert Generator("a", 2) == gen("a", 2) and hash(Generator("a", 2)) == hash(gen("a", 2))
    assert gen("a") != gen("a", 0)
    assert gen("a") != ("a", None)
    assert ("a", None) != gen("a")


def test_generator_is_its_display_string():
    a2 = gen("a", 2)
    assert str(A) == repr(A) == "a"
    assert str(a2) == repr(a2) == "a[2]"
    assert str(gen("a", -2)) == "a[-2]"
    assert (A.name, A.index) == ("a", None)
    assert (a2.name, a2.index) == ("a", 2)
    # documented: a Generator equals (and hashes as) its display string
    assert gen("a") == "a" and hash(gen("a")) == hash("a")
    assert a2 == "a[2]" and a2 != "a"
    assert gen("a") != ("a", None)


def test_generator_rejects_bad_names_and_is_immutable():
    with pytest.raises(ValueError):
        Generator("")
    with pytest.raises(ValueError):
        gen("a[2]")  # would equal gen("a", 2) as a string
    with pytest.raises(AttributeError):
        A.index = 3
    assert A.index is None and gen("a") is A


def test_generator_sort_key_order():
    a1, am2 = gen("a", 1), gen("a", -2)
    assert sorted([B, a1, A, am2], key=Generator.sort_key) == [A, am2, a1, B]
    assert A.sort_key() == ("a", False, 0)
    assert am2.sort_key() == ("a", True, -2)
    w = W("b a[1]^2 a^-1")
    assert w.sort_key() == (4, tuple((g.sort_key(), e) for g, e in w.syls))


# an alphabet on which str order and sort_key order disagree:
# "a'" < "a[1]" and "a[10]" < "a[2]" as strings, the reverse by sort_key
SORT_ALPHABET = [A, gen("a'"), gen("a", -2), gen("a", -1), gen("a", 2), gen("a", 10), B]
sort_syllable = st.tuples(st.sampled_from(SORT_ALPHABET), st.integers(-3, 3).filter(bool))


@st.composite
def tied_words(draw):
    """Words that share a long syllable prefix and whose tails all have one
    letter length, plus a syllable prefix of each (ties go to the syllables)."""
    prefix = draw(st.lists(sort_syllable, min_size=5, max_size=30))
    n = draw(st.integers(1, 4))
    tail = st.lists(st.tuples(st.sampled_from(SORT_ALPHABET), st.sampled_from([1, -1])),
                    min_size=n, max_size=n)
    words = [Word(prefix + t) for t in draw(st.lists(tail, min_size=2, max_size=8))]
    return words + [w.left(draw(st.integers(0, w.syllable_len))) for w in words]


@given(st.lists(st.lists(sort_syllable, max_size=30).map(Word), max_size=40), tied_words())
@settings(max_examples=300, deadline=None)
def test_sort_words_matches_sort_key_order(free, tied):
    for ws in (free + tied, tied + free, tied[::-1]):
        assert sort_words(ws) == sorted(ws, key=Word.sort_key)


@given(st.lists(st.lists(sort_syllable, max_size=30).map(Word), max_size=40), tied_words())
@settings(max_examples=50, deadline=None)
def test_sort_words_with_lengths_given_matches_sort_words(free, tied):
    ws = free + tied
    lengths = {w: sum(abs(e) for _, e in w.syls) for w in ws}
    assert sort_words(ws, lengths) == sort_words(ws)
    assert sort_words(lengths, lengths) == sort_words(lengths)


def test_sort_words_orders_generators_by_key_not_by_string():
    ws = [W("a[2]"), W("a[10]"), W("a'"), W("a[1]"), W("a[2] a'"), W("a[2] a[1]")]
    assert sort_words(ws) == [W("a[1]"), W("a[2]"), W("a[10]"), W("a'"),
                              W("a[2] a[1]"), W("a[2] a'")]
    assert sort_words(ws) == sorted(ws, key=Word.sort_key)
    assert sort_words(ws) != sorted(ws, key=str)
    # a proper syllable prefix comes first; within sort_words letter length
    # already decides this, so the syllable order is checked on its own too
    long = W("a b^2 a[2]^-1 a'")
    assert sort_words([long, long.left(3), long.left(1)]) == [long.left(1), long.left(3), long]
    short = _SyllableOrder(long.left(3).syls)
    assert short < _SyllableOrder(long.syls) and not _SyllableOrder(long.syls) < short
    assert not short < _SyllableOrder(long.left(3).syls)


def test_equal_words_have_equal_hashes_whether_or_not_hashed_first():
    w1 = W("a b^-2 a[3]")
    h = hash(w1)
    w2 = Word(w1.syls)                           # nothing hashed yet
    w3 = W("a b^-1") * W("b^-1 a[3]")
    assert w1 == w2 == w3
    assert hash(w2) == h and hash(w3) == h
    assert w2 in {w1} and w1 in {w3}
    assert hash(w1) == h                         # the cached value is stable


def test_pickled_words_and_generators_hash_in_another_process():
    import os
    import pickle
    import subprocess
    import sys

    import gtkit

    src = os.path.dirname(os.path.dirname(gtkit.__file__))
    dump = (
        "import pickle, sys\n"
        "from gtkit.word import gen, parse_word as W\n"
        "ws = [W('a b^-2'), W('a[3]^2 b'), W('1')]\n"
        "ws += [ws[0] * W('b^2 a'), ws[1].inverse(), ws[1].left(1), W('b') ** 3]\n"
        "data = (set(ws), {w: i for i, w in enumerate(ws)}, {gen('a'): 1, gen('a', 3): 2}, ws)\n"
        "sys.stdout.buffer.write(pickle.dumps(data))\n"
    )
    load = (
        "import pickle, sys\n"
        "from gtkit.word import gen, parse_word as W\n"
        "s, d, g, ws = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = [W('a b^-2'), W('a[3]^2 b'), W('1'), W('a^2'), W('b^-1 a[3]^-2'),\n"
        "         W('a[3]^2'), W('b^3')]\n"
        "assert all(w in s for w in fresh)\n"
        "assert [d[w] for w in fresh] == list(range(7))\n"
        "assert g[gen('a')] == 1 and g[gen('a', 3)] == 2\n"
        "assert [hash(w) for w in ws] == [hash(w) for w in fresh]\n"
        "assert pickle.loads(pickle.dumps(gen('a'))) is gen('a')\n"
        "assert next(iter(g)) is gen('a')\n"
        "print('ok')\n"
    )

    def run(code, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True, check=True).stdout

    payload = run(dump, "1")
    assert run(load, "2", payload).strip() == b"ok"
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        w = W("a b^-2")
        hash(w)
        assert pickle.loads(pickle.dumps(w, proto)) == w
        assert pickle.loads(pickle.dumps(gen("a", 3), proto)) is gen("a", 3)
