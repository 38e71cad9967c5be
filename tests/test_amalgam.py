import json
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from gtkit import amalgam, gentorsion as gt
from gtkit.amalgam import (
    EDGE_TAG,
    AbelianFactor,
    Amalgam,
    AmalgamElement,
    EdgeIdentification,
    FreeFactor,
    SandwichDecomposition,
    cancellation_number,
    check_sandwich_nontrivial,
    element_from_free_word,
    end_preserving,
    factors,
    free_as_free_product,
    free_word_from_element,
    is_reduced,
    left_factors,
    normalize,
    right_factors,
)
from gtkit.errors import GtkitError, PreconditionError
from gtkit.suites import run_suite
from gtkit.tamed import TamedSampler, _first_component, _rand_alternating
from gtkit.word import Word, gen, parse_word as W


@pytest.fixture(scope="module")
def fp2():
    return free_as_free_product(["a", "b"])


@pytest.fixture(scope="module")
def z2z():
    fa = FreeFactor("A", [gen("a")])
    fb = FreeFactor("B", [gen("b")])
    return Amalgam(
        [fa, fb],
        EdgeIdentification((gen("e"),), ((W("a^2"),), (W("b^2"),))),
    )


def el(G, text):
    return element_from_free_word(G, W(text))


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_worked_example(fp2):
    g = el(fp2, "a") * el(fp2, "a^-1 b") * el(fp2, "b^-1 a")
    assert g.length == 1
    assert g.serialize() == "[A: a]"


def test_normalize_empty(fp2):
    assert normalize(fp2, []).is_identity
    assert fp2.identity().length == 0


def test_long_power_is_linear():
    # budget 10x the measured 0.37 s; a power that copies its components at
    # every step is quadratic: 0.53 s at n = 8,000 already
    G = free_as_free_product(["a", "b"])
    x = G.parse_element("[A: a][B: b]")
    n = 10 ** 5
    t0 = time.perf_counter()
    p, q = x ** n, x ** -n
    assert p.length == q.length == 2 * n
    assert p.comps[:2] == x.comps and q.comps[:2] == x.inverse().comps
    assert (p * q).is_identity and (q * p).is_identity
    assert time.perf_counter() - t0 < 4.0


def test_element_from_a_long_free_word_is_linear():
    # budget 10x the measured 0.5 s; a fold that copies its components at
    # every step is quadratic: 0.45 s at 16,000 letters already
    G = free_as_free_product(["a", "b"])
    w = Word([(gen("a"), 1), (gen("b"), -2)] * (5 * 10 ** 4))
    t0 = time.perf_counter()
    x = element_from_free_word(G, w)
    assert x.length == 10 ** 5
    assert x.head.is_identity
    assert free_word_from_element(x) == w
    assert time.perf_counter() - t0 < 5.0


def test_normalize_transport_across_edge(z2z):
    # a * b^-2 * a = a * a^-2 * a = 1 after transporting b^2 = a^2
    x = normalize(z2z, [(0, W("a")), (1, W("b^-2")), (0, W("a"))])
    assert x.is_identity and x.length == 0


def test_equality_via_inverse_product(z2z):
    u = normalize(z2z, [(0, W("a^3"))])
    v = normalize(z2z, [(0, W("a")), (1, W("b^2"))])
    assert u.equals(v)
    assert not u.equals(z2z.identity())


# Groups for the property tests: a free product, a free amalgam over a cyclic
# edge, the abelian BS(m) amalgams and a doubled free group over rank two.
PROPERTY_GROUPS = {
    "F2": free_as_free_product(["a", "b"]),
    "Z2Z": Amalgam(
        [FreeFactor("A", [gen("a")]), FreeFactor("B", [gen("b")])],
        EdgeIdentification((gen("e"),), ((W("a^2"),), (W("b^2"),))),
    ),
    "BS2": gt.bs_amalgam(2),
    "BS3": gt.bs_amalgam(3),
    "doubled": gt.doubled_amalgam(["a", "b"], [W("a^2"), W("b^2")]),
}
PROPERTY_BALLS = {
    name: [f.ball(2) for f in G.factors] for name, G in PROPERTY_GROUPS.items()
}

# a raw entry: factor 0, factor 1 or (where the edge is nontrivial) an edge
# word, plus a ball index and an edge exponent; factor entries may repeat,
# cancel or lie in the edge subgroup
_entry = st.tuples(st.integers(0, 2), st.integers(0, 10 ** 4),
                   st.sampled_from([1, -1, 2, -2]))
_raw_lists = st.lists(_entry, max_size=8)


def _raw(name, entries):
    G, balls = PROPERTY_GROUPS[name], PROPERTY_BALLS[name]
    rank = len(G.edge.alphabet)
    out = []
    for kind, i, e in entries:
        if kind == 2 and rank:
            out.append((EDGE_TAG, Word([(G.edge.alphabet[i % rank], e)])))
        else:
            ball = balls[kind % 2]
            out.append((kind % 2, ball[i % len(ball)]))
    return out


def _inverse_raw(G, raw):
    return [
        (tag, x.inverse() if tag == EDGE_TAG else G.factors[tag].inv(x))
        for tag, x in reversed(raw)
    ]


def assert_same_form(x, y):
    assert x.head == y.head
    assert x.comps == y.comps
    assert x.serialize() == y.serialize()


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists, _raw_lists)
@settings(max_examples=300, deadline=None)
def test_product_matches_normalize_of_concatenation(name, rx, ry):
    G = PROPERTY_GROUPS[name]
    x, y = normalize(G, _raw(name, rx)), normalize(G, _raw(name, ry))
    assert_same_form(x * y, normalize(G, x.raw() + y.raw()))


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists)
@settings(max_examples=300, deadline=None)
def test_inverse_matches_normalize_of_inverted_raw(name, rx):
    G = PROPERTY_GROUPS[name]
    x = normalize(G, _raw(name, rx))
    inv = x.inverse()
    assert_same_form(inv, normalize(G, _inverse_raw(G, x.raw())))
    assert (x * inv).is_identity and (inv * x).is_identity


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists)
@settings(max_examples=100, deadline=None)
def test_power_matches_repeated_normalized_product(name, rx):
    G = PROPERTY_GROUPS[name]
    x = normalize(G, _raw(name, rx))
    for n in range(-4, 5):
        base_raw = x.raw() if n >= 0 else _inverse_raw(G, x.raw())
        expected = G.identity()
        for _ in range(abs(n)):
            expected = normalize(G, expected.raw() + base_raw)
        assert_same_form(x ** n, expected)


def _pending_normalize(G, raw):
    """normalize by absorbing each entry into a reversed list of components.

    An implementation independent of AmalgamElement.__mul__ (it shares only
    the factors' junction step), kept as the oracle for normal forms.
    """
    head, pending = Word(), []
    for tag, x in reversed(list(raw)):
        if tag == EDGE_TAG:
            head = x * head
            continue
        fi = G.factor_index(tag)
        f = G.factors[fi]
        head = _pending_absorb(f, fi, f.canonical(x), head, pending) or Word()
    return AmalgamElement(G, head, tuple(reversed(pending)))


def _pending_absorb(f, fi, y, head, pending):
    """Apply f.junction for y to pending (leftmost component last); return
    the edge word left over, or None when a component settled or merged."""
    top = pending[-1][1] if pending and pending[-1][0] == fi else None
    outcome, w = f.junction(y, head, top)
    if outcome == amalgam.SETTLED:
        pending.append((fi, w))
        return None
    if outcome == amalgam.MERGED:
        pending[-1] = (fi, w)
        return None
    if outcome == amalgam.POPPED:
        pending.pop()
    return w


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists, _raw_lists,
       st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_normal_forms_match_a_pending_list_oracle(name, rx, ry, n):
    G = PROPERTY_GROUPS[name]
    raw_x, raw_y = _raw(name, rx), _raw(name, ry)
    x, y = normalize(G, raw_x), normalize(G, raw_y)
    assert_same_form(x, _pending_normalize(G, raw_x))
    assert_same_form(y, _pending_normalize(G, raw_y))
    assert_same_form(x * y, _pending_normalize(G, x.raw() + y.raw()))
    inv = x.inverse()
    assert_same_form(inv * y, _pending_normalize(G, inv.raw() + y.raw()))
    base_raw = x.raw() if n >= 0 else inv.raw()
    expected = G.identity()
    for _ in range(abs(n)):
        expected = _pending_normalize(G, expected.raw() + base_raw)
    assert_same_form(x ** n, expected)


def _fold_normalize(G, raw):
    """normalize as the right fold of immutable products, each copying the
    components gathered so far; kept as the oracle for the list-built fold."""
    out = G.identity()
    for tag, x in reversed(list(raw)):
        if tag == EDGE_TAG:
            out = AmalgamElement(G, x, ()) * out
            continue
        fi = G.factor_index(tag)
        f = G.factors[fi]
        out = AmalgamElement(G, Word(), ((fi, f.canonical(x)),)) * out
    return out


def _product_power(x, n):
    """x ** n as |n| immutable left products; the oracle for the list-built
    power."""
    out = x.amalgam.identity()
    base = x if n > 0 else x.inverse()
    for _ in range(abs(n)):
        out = out * base
    return out


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists,
       st.integers(-7, 7) | st.sampled_from([-60, 60]))
@settings(max_examples=300, deadline=None)
# [C: e[2]^-1][A': a' b'^2] squared falls into the edge behind its head:
# the power must multiply the new edge word on the head's right
@example("doubled", [(2, 9465, -1), (1, 944, 2), (1, 972, 2)], 2)
def test_list_builders_match_the_product_folds(name, rx, n):
    G = PROPERTY_GROUPS[name]
    raw = _raw(name, rx)
    x = normalize(G, raw)
    assert_same_form(x, _fold_normalize(G, raw))
    assert_same_form(x ** n, _product_power(x, n))


_factor_lists = st.lists(_raw_lists, max_size=6)


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _factor_lists)
@settings(max_examples=300, deadline=None)
# the empty product, an identity factor and head-only factors
@example("BS2", [])
@example("Z2Z", [[], [(2, 0, 1)], [(0, 3, 1), (2, 0, -2)], [(2, 0, -1)], []])
@example("doubled", [[(2, 0, 1), (1, 944, 2)], [(1, 944, -2), (2, 0, -1)], [(2, 1, 2)]])
def test_product_of_a_sequence_matches_the_left_fold(name, raws):
    G = PROPERTY_GROUPS[name]
    xs = [normalize(G, _raw(name, r)) for r in raws]
    expected = G.identity()
    for x in xs:
        expected = expected * x
    assert_same_form(amalgam._product(G, xs), expected)
    assert_same_form(amalgam._product(G, iter(xs)), expected)


@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_power_takes_only_an_int(n):
    x = gt.bs_amalgam(2).parse_element("[A: a][B: b]")
    with pytest.raises(PreconditionError, match="must be an int"):
        x ** n


# ---------------------------------------------------------------------------
# junction tables
# ---------------------------------------------------------------------------

def _cold(G):
    """A copy of G whose factors have empty junction tables."""
    return Amalgam.from_json(G.to_json())


def _assert_like_cold(G, call, *elems):
    """call(G, *elems) gives what the same call gives on a fresh cold copy."""
    got = call(G, *elems)
    cold = _cold(G)
    want = call(cold, *(AmalgamElement(cold, x.head, x.comps) for x in elems))
    if isinstance(got, AmalgamElement):
        assert_same_form(got, want)
    else:
        assert got == want
    return got


# each call goes through the junction step of the long-lived group G
_JUNCTION_CALLS = (
    lambda G, x, y: x * y,
    lambda G, x, y: y * x,
    lambda G, x, y: x.inverse() * y,
    lambda G, x, y: x.inverse(),
    lambda G, x, y: x ** 3,
    lambda G, x, y: y ** -2,
    lambda G, x, y: normalize(G, x.raw() + y.raw()),
    lambda G, x, y: cancellation_number(x, y),
    lambda G, x, y: cancellation_number(x, x.inverse() * y),
    lambda G, x, y: cancellation_number(y * x, x.inverse()),
)


@given(st.sampled_from(["BS2", "BS3", "F2", "Z2Z"]), _raw_lists, _raw_lists)
@settings(max_examples=200, deadline=None)
def test_junction_tables_match_a_cold_copy(name, rx, ry):
    G = PROPERTY_GROUPS[name]
    x = _assert_like_cold(G, lambda H: normalize(H, _raw(name, rx)))
    y = _assert_like_cold(G, lambda H: normalize(H, _raw(name, ry)))
    for call in _JUNCTION_CALLS:
        _assert_like_cold(G, call, x, y)


def test_amalgams_built_back_to_back_share_no_junctions():
    # bs_commutator_witness builds a fresh BS(m) per call from equal-looking
    # factors; a table shared between them would carry a^k across edges
    a = W("a")
    for m in (2, 3, 2, 5, 3, 4, 2):
        G, cert = gt.bs_commutator_witness(m)
        assert gt.verify_gt_certificate(G, cert)
        x = normalize(G, [(0, a)])
        assert [(x ** k).length for k in range(1, 7)] == \
            [0 if k % m == 0 else 1 for k in range(1, 7)]
    G2, G3 = gt.bs_amalgam(2), gt.bs_amalgam(3)
    x2, x3 = normalize(G2, [(0, a)]), normalize(G3, [(0, a)])
    assert (x2 * x2).length == 0 and (x3 * x3).length == 1
    for f2, f3 in zip(G2.factors, G3.factors):
        assert f2._junctions is not f3._junctions
    # one junction, two outcomes: a a = e in BS(2), a a = a^2 outside in BS(3)
    assert G2.factors[0].junction(a, Word(), a) == (amalgam.POPPED, W("e"))
    assert G3.factors[0].junction(a, Word(), a) == (amalgam.MERGED, W("a^2"))


def test_reattaching_a_factor_empties_its_junction_table():
    fa, fb = FreeFactor("A", [gen("a")]), FreeFactor("B", [gen("b")])
    e = (gen("e"),)
    G = Amalgam([fa, fb], EdgeIdentification(e, ((W("a^2"),), (W("b^2"),))))
    assert normalize(G, [(0, W("a")), (0, W("a")), (1, W("b"))]).length == 1
    assert fa._junctions
    # over a^3 = b^3 the same raw sequence keeps a^2 outside the edge
    H = Amalgam([fa, fb], EdgeIdentification(e, ((W("a^3"),), (W("b^3"),))))
    assert not fa._junctions and not fb._junctions
    assert normalize(H, [(0, W("a")), (0, W("a")), (1, W("b"))]).length == 2


def test_junction_table_is_emptied_at_its_bound(monkeypatch):
    bound = 8
    monkeypatch.setattr(amalgam, "JUNCTION_TABLE_SIZE", bound)
    rng = random.Random(17)
    for name in ("BS2", "Z2Z"):
        G = _cold(PROPERTY_GROUPS[name])
        sizes = []
        for _ in range(60):
            rx = [(rng.randrange(3), rng.randrange(99), rng.choice((1, -1)))
                  for _ in range(rng.randint(1, 6))]
            ry = [(rng.randrange(3), rng.randrange(99), rng.choice((1, -1)))
                  for _ in range(rng.randint(1, 6))]
            x = _assert_like_cold(G, lambda H: normalize(H, _raw(name, rx)))
            y = _assert_like_cold(G, lambda H: normalize(H, _raw(name, ry)))
            for call in _JUNCTION_CALLS:
                _assert_like_cold(G, call, x, y)
                sizes.append(max(len(f._junctions) for f in G.factors))
        assert max(sizes) <= bound
        # a table that reached the bound was emptied and filled again
        assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_direct_constructors_build_normal_forms():
    """Elements built without normalize are fixed points of it."""
    rng = random.Random(31)
    for name, G in PROPERTY_GROUPS.items():
        sampler = TamedSampler(G, rng)
        elems = gt.amalgam_conjugator_ball(
            G, gt.SearchBounds(radius=2, max_elt_letters=2))
        for _ in range(40):
            g = _rand_alternating(G, rng, sampler.balls, 4)
            elems += [g, sampler._rand_t(g), _rand_alternating(G, rng, sampler.balls, 4)]
            if g.comps:
                elems.append(_first_component(g))
            h = normalize(G, _raw(name, [(rng.randrange(3), rng.randrange(99), 1)
                                         for _ in range(6)]))
            for left, right in factors(h):
                elems += [left, right]
        for x in elems:
            assert_same_form(normalize(G, x.raw()), x)


def test_index_vector_and_ends(fp2):
    g = el(fp2, "a b^2 a^-1")
    assert g.index_vector == (0, 1, 0)
    assert g.lei == 0 and g.rei == 0
    assert free_word_from_element(g) == W("a b^2 a^-1")


# ---------------------------------------------------------------------------
# length / cancellation number
# ---------------------------------------------------------------------------

def test_length_examples(fp2):
    assert fp2.identity().length == 0
    assert el(fp2, "a b a").length == 3


def test_cancellation_number_examples(fp2):
    assert cancellation_number(el(fp2, "a^-1"), el(fp2, "a b")) == 1
    # different end factors cannot cancel
    assert cancellation_number(el(fp2, "b a"), el(fp2, "b a")) == 0


def test_cancellation_number_brute_oracle(fp2, z2z):
    rng = random.Random(5)
    for G in (fp2, z2z):
        balls = [
            [x for x in f.ball(3) if not f.in_edge(x)] for f in G.factors
        ]
        for _ in range(300):
            def rand_elt():
                comps = []
                last = None
                for _ in range(rng.randint(0, 4)):
                    fi = rng.choice([i for i in range(2) if i != last])
                    comps.append((fi, rng.choice(balls[fi])))
                    last = fi
                return AmalgamElement(G, Word(), tuple(comps))

            g, h = rand_elt(), rand_elt()
            got = cancellation_number(g, h)
            best = 0
            for k in range(min(g.length, h.length) + 1):
                suffix = AmalgamElement(G, Word(), g.comps[g.length - k:])
                prefix = AmalgamElement(G, h.head, h.comps[:k])
                if (suffix * prefix).length == 0:
                    best = k
            assert got == best, (str(g), str(h))


# ---------------------------------------------------------------------------
# end-preserving / reduced tuples / factors
# ---------------------------------------------------------------------------

def test_end_preserving_worked_example(fp2):
    g1, g2, g3 = el(fp2, "a"), el(fp2, "a^-1 b"), el(fp2, "b^-1 a")
    assert end_preserving([g1, g2, g3])
    assert end_preserving([g1, g2 * g3])
    assert not end_preserving([g1 * g2, g3], "left")
    assert end_preserving([g1], "both")


def test_end_preserving_needs_a_nontrivial_entry(fp2):
    with pytest.raises(PreconditionError):
        end_preserving([fp2.identity()])


def test_is_reduced(fp2):
    assert is_reduced([el(fp2, "a"), el(fp2, "b")])
    assert not is_reduced([el(fp2, "a"), el(fp2, "a^-1 b")])


def test_factors_counts(fp2):
    assert len(factors(fp2.identity())) == 1
    assert len(factors(el(fp2, "a b"))) == 3
    rng = random.Random(9)
    for _ in range(30):
        w = Word()
        for _ in range(rng.randint(0, 5)):
            w = w * Word([(gen(rng.choice("ab")), rng.choice((1, -1)))])
        g = element_from_free_word(fp2, w)
        pairs = factors(g, "left")
        assert len(pairs) == g.length + 1
        for lf, rf in pairs:
            assert (lf * rf).equals(g)
            assert lf.length + rf.length == g.length


def test_right_factors_multiply_back(z2z):
    g = normalize(z2z, [(0, W("a")), (1, W("b")), (0, W("a^3"))])
    for rf, cof in factors(g, "right"):
        assert (cof * rf).equals(g)


def test_left_and_right_factors_split_at_each_position(z2z):
    # the j-th left and right factors are the two parts of the splitting
    # after j components; the left part keeps the head, the right has none
    g = normalize(z2z, [(EDGE_TAG, W("e")), (0, W("a")), (1, W("b")), (0, W("a^3"))])
    assert not g.head.is_identity
    for h in (g, g.inverse(), z2z.identity()):
        lefts, rights = left_factors(h), right_factors(h)
        assert [x.length for x in lefts] == list(range(h.length + 1))
        assert [x.length for x in rights] == list(range(h.length, -1, -1))
        for lf, rf in zip(lefts, rights):
            assert lf.head == h.head and lf.comps + rf.comps == h.comps
            assert rf.head.is_identity
        assert [(x.comps, y.comps) for x, y in factors(h, "right")] == [
            (y.comps, x.comps) for x, y in factors(h, "left")]
    with pytest.raises(PreconditionError):
        factors(g, "middle")


# ---------------------------------------------------------------------------
# sandwich condition
# ---------------------------------------------------------------------------

def test_sandwich_vacuous_n1(fp2):
    d = SandwichDecomposition(
        [fp2.identity(), fp2.identity()], [el(fp2, "a")]
    )
    res = check_sandwich_nontrivial(d)
    assert res.verified


def test_sandwich_n1_trivial_product_not_verified(fp2):
    d = SandwichDecomposition([fp2.identity(), fp2.identity()], [fp2.identity()])
    res = check_sandwich_nontrivial(d)
    assert not res.verified and res.product_trivial


def test_sandwich_crafted_violation(fp2):
    # middle g of length 2 with full two-sided cancellation available
    g0 = fp2.identity()
    a1 = el(fp2, "b^-1 a^-1")  # K(g0 a1, g1) = 2 already exceeds l(g1) - 2
    g1 = el(fp2, "a b")
    a2 = el(fp2, "b^-1")
    g2 = el(fp2, "a")
    res = check_sandwich_nontrivial(SandwichDecomposition([g0, g1, g2], [a1, a2]))
    assert not res.verified
    assert res.violation_index == 1


def test_sandwich_verified_instance(fp2):
    # long middles, short alphas: condition holds and T != 1
    g0 = el(fp2, "a b")
    g1 = el(fp2, "a b a b a")
    g2 = el(fp2, "b a")
    a1 = el(fp2, "b")
    a2 = el(fp2, "b")
    res = check_sandwich_nontrivial(SandwichDecomposition([g0, g1, g2], [a1, a2]))
    assert res.verified
    assert not SandwichDecomposition([g0, g1, g2], [a1, a2]).product().is_identity


# ---------------------------------------------------------------------------
# element I/O and json
# ---------------------------------------------------------------------------

def test_element_text_roundtrip(z2z):
    g = normalize(z2z, [(0, W("a^3")), (1, W("b^-1")), (0, W("a"))])
    assert z2z.parse_element(g.serialize()).equals(g)
    assert z2z.parse_element("1").is_identity


@given(st.sampled_from(sorted(PROPERTY_GROUPS)), _raw_lists, _raw_lists,
       st.integers(-5, 5))
@settings(max_examples=300, deadline=None)
def test_serialized_forms_parse_back_to_the_same_form(name, rx, ry, n):
    G = PROPERTY_GROUPS[name]
    x, y = normalize(G, _raw(name, rx)), normalize(G, _raw(name, ry))
    for z in (x, x * y, x.inverse(), x ** n):
        back = G.parse_element(z.serialize())
        assert back.head == z.head
        assert back.comps == z.comps


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gt_certificate_json_roundtrip(m):
    G, cert = gt.bs_commutator_witness(m)
    back = gt.GtCertificate.from_json(G, json.loads(json.dumps(cert.to_json())))
    assert len(back.conjugators) == len(cert.conjugators) == m
    for z, z0 in zip([back.base, *back.conjugators], [cert.base, *cert.conjugators]):
        assert_same_form(z, z0)
    assert back.to_json() == cert.to_json()
    assert gt.verify_gt_certificate(G, back)


@pytest.mark.parametrize("text", ["[A: a][B b]", "[A: a] junk [B: b]", "x", "[A: a]]"])
def test_parse_element_rejects_text_outside_blocks(z2z, text):
    with pytest.raises(PreconditionError):
        z2z.parse_element(text)


def test_unknown_factor_reference_is_a_package_error(z2z):
    with pytest.raises(GtkitError, match="known factors: 0 \\(A\\), 1 \\(B\\)"):
        z2z.parse_element("[Z: a]")
    for ref in (2, -1):
        with pytest.raises(GtkitError, match=repr(ref)):
            normalize(z2z, [(ref, W("a"))])


def test_normalize_rejects_generators_outside_the_factor():
    G = gt.bs_amalgam(2)
    # a is a generator of A, not of B, and b one of B, not of A
    with pytest.raises(PreconditionError, match="generator a of a c is not in "
                                                "the alphabet of factor B"):
        normalize(G, [(1, W("a c"))])
    with pytest.raises(PreconditionError, match="factor A"):
        normalize(G, [(0, W("b"))])
    with pytest.raises(PreconditionError, match="edge alphabet"):
        normalize(G, [(EDGE_TAG, W("e a"))])
    # the same entries over the right alphabets normalize
    assert normalize(G, [(1, W("c")), (EDGE_TAG, W("e^-1"))]).is_identity


def test_element_from_free_word_rejects_generators_outside_the_factors():
    G = free_as_free_product(["a", "b"])
    with pytest.raises(PreconditionError, match="generator c of a c is not in "
                                                "the alphabet of any factor"):
        element_from_free_word(G, W("a c"))
    assert element_from_free_word(G, W("a b^-1")).serialize() == "[A: a][B: b^-1]"


def test_parse_element_reads_indexed_generators():
    fa = FreeFactor("A", [gen("a", 1), gen("a", 2)])
    fb = FreeFactor("B", [gen("b")])
    G = Amalgam([fa, fb], EdgeIdentification((gen("e"),), ((W("a[1]^2"),), (W("b^2"),))))
    x = normalize(G, [(0, W("a[2]^-3 a[1]")), (1, W("b"))])
    assert x.serialize() == "[A: a[2]^-3 a[1]][B: b]"
    assert G.parse_element(x.serialize()).equals(x)


def test_parse_element_allows_whitespace_between_blocks(z2z):
    assert z2z.parse_element(" [A: a] [B: b]\n").equals(z2z.parse_element("[A: a][B: b]"))
    assert z2z.parse_element("  ").is_identity


def test_edge_head_serialization(z2z):
    g = normalize(z2z, [(EDGE_TAG, W("e^2"))])
    assert g.length == 0
    assert "[C: e^2]" == g.serialize()
    assert z2z.parse_element(g.serialize()).equals(g)


def test_amalgam_json_roundtrip(z2z):
    data = z2z.to_json()
    back = Amalgam.from_json(data)
    assert back.to_json() == data
    x = normalize(back, [(0, W("a")), (1, W("b^-2")), (0, W("a"))])
    assert x.is_identity


# doubled amalgams A *_C A' with C = <x_1^k_1, ..., x_r^k_r>, which is free
# on those powers
_doubled_amalgams = st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3).map(
    lambda ks: gt.doubled_amalgam(["a", "b_1", "c'"][:len(ks)],
                                  [W(f"{x}^{k}") for x, k in zip(["a", "b_1", "c'"], ks)]))


@given(st.sampled_from([*PROPERTY_GROUPS.values(), *map(gt.bs_amalgam, (2, 3, 4))])
       | _doubled_amalgams)
@settings(max_examples=60, deadline=None)
def test_amalgam_json_round_trip_through_text(G):
    data = G.to_json()
    assert Amalgam.from_json(json.loads(json.dumps(data))).to_json() == data


@pytest.mark.parametrize("kind", ["fre", "abelian", "Free"])
def test_amalgam_json_rejects_an_unknown_factor_kind(z2z, kind):
    data = z2z.to_json()
    data["factors"][1]["kind"] = kind
    with pytest.raises(PreconditionError, match="unknown factor kind"):
        Amalgam.from_json(data)


def test_amalgam_json_does_not_decode_a_string(z2z):
    with pytest.raises(TypeError):
        Amalgam.from_json(json.dumps(z2z.to_json()))


def test_abelian_factor_edge_arithmetic():
    fb = AbelianFactor("B", [gen("b"), gen("c")])
    fa = FreeFactor("A", [gen("a")])
    G = Amalgam(
        [fa, fb],
        EdgeIdentification((gen("e"),), ((W("a^2"),), (W("c"),))),
    )
    b = G.factors[1]
    assert b.to_edge(W("c^3")) == W("e^3")
    assert b.to_edge(W("b c")) is None
    a = G.factors[0]
    assert a.to_edge(W("a^-4")) == W("e^-2")
    assert a.to_edge(W("a^3")) is None and not a.in_edge(W("a^3"))
    assert b.mul(W("c b"), W("b^-1 c")) == W("c^2")


@given(st.lists(st.tuples(st.sampled_from([gen("b"), gen("c"), gen("c", 1), gen("x")]),
                          st.integers(-3, 3)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_abelian_exponent_vector_matches_per_letter_sums(pairs):
    # x and c[1] lie outside the alphabet and count for nothing
    fb = AbelianFactor("B", [gen("c"), gen("b")])
    w = Word(pairs)
    assert fb._vec(w) == tuple(w.exponent_sum(g) for g in fb.alphabet)


@pytest.mark.parametrize("kind", [FreeFactor, AbelianFactor])
def test_edge_images_outside_the_factor_alphabet_are_rejected(kind):
    # d is no generator of B: the image would put components over d into B
    for image in (W("d^2"), W("d"), W("b d")):
        msg = f"generator d of {image} is not in the alphabet of factor B"
        with pytest.raises(PreconditionError, match=re.escape(msg)):
            Amalgam([FreeFactor("A", [gen("a")]), kind("B", [gen("b"), gen("c")])],
                    EdgeIdentification((gen("e"),), ((W("a^2"),), (image,))))


def _to_edge_by_coordinates(f, x):
    """AbelianFactor.to_edge with one quotient per coordinate, as the oracle."""
    x = f.canonical(x)
    if x.is_identity:
        return Word()
    v, u = f._vec(x), f._edge_vec
    k = None
    for a, b in zip(v, u):
        if b == 0:
            if a != 0:
                return None
        else:
            if a % b:
                return None
            q = a // b
            if k is None:
                k = q
            elif k != q:
                return None
    if k is None or tuple(b * k for b in u) != v:
        return None
    return Word([(gen("e"), k)])


_ABELIAN_GENS = [gen("b"), gen("c"), gen("d")]
_exponents = st.integers(-6, 6)


@given(st.integers(1, 3), st.lists(_exponents, min_size=3, max_size=3),
       st.lists(st.lists(_exponents, min_size=3, max_size=3), max_size=10),
       st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_abelian_to_edge_matches_the_coordinate_loop(rank, image, xs, k):
    gens = _ABELIAN_GENS[:rank]
    image = image[:rank]
    if not any(image):
        image[rank - 1] = 1
    fb = AbelianFactor("B", gens)
    Amalgam([FreeFactor("A", [gen("a")]), fb],
            EdgeIdentification((gen("e"),), ((W("a"),), (Word(zip(gens, image)),))))
    # random vectors, and multiples of the image so that members come up
    words = [Word(zip(gens, v)) for v in xs]
    words.append(Word([(g, k * e) for g, e in zip(gens, image)]))
    for x in words:
        assert fb.to_edge(x) == _to_edge_by_coordinates(fb, x)


def test_edge_rank_validation():
    fa = FreeFactor("A", [gen("a"), gen("b")])
    fb = FreeFactor("B", [gen("c"), gen("d")])
    # a and a^3 do not freely generate a rank-2 subgroup
    with pytest.raises(PreconditionError):
        Amalgam(
            [fa, fb],
            EdgeIdentification(
                (gen("e", 1), gen("e", 2)),
                ((W("a"), W("a^3")), (W("c"), W("d"))),
            ),
        )


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

def test_suite_oracle_normalize_shuffle():
    assert run_suite("oracle_normalize_shuffle", trials=400, seed=21).ok


def test_suite_lemma_end_preserving():
    assert run_suite("lemma_end_preserving", trials=400, seed=22).ok


def test_suite_length_subadditivity():
    assert run_suite("length_subadditivity", trials=400, seed=23).ok


def test_suite_sandwich():
    assert run_suite("sandwich_nontrivial", trials=200, seed=24).ok
