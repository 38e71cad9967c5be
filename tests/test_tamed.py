import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from gtkit import tamed
from gtkit.amalgam import AmalgamElement, element_from_free_word, factors, free_as_free_product, is_reduced
from gtkit.errors import NotTamedError, PreconditionError
from gtkit.gentorsion import bs_amalgam
from gtkit.suites import _groups, run_suite
from gtkit.tamed import (
    Cancellability,
    ConjTuple,
    DeltaFactorization,
    TamedReport,
    TamedSampler,
    _first_component,
    _rand_alternating,
    cancellability,
    delta_factorize,
    is_tamed,
    tamed_length_bound,
)
from gtkit.word import parse_word as W


@pytest.fixture(scope="module")
def fp2():
    return free_as_free_product(["a", "b"])


def el(G, text):
    return element_from_free_word(G, W(text))


def test_cancellability_lhs_example(fp2):
    v = ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "a b^2")),
                        (el(fp2, "b^-1"), el(fp2, "b"))])
    c = cancellability(v, 2)
    assert c.kind == "LHS"
    r, _ = c.witness
    # witness satisfies the defining membership: R g_2^-1 t_2 in C
    assert (r * v.g(2).inverse() * v.t(2)).length == 0


def test_cancellability_none_for_trivial_neighbors(fp2):
    v = ConjTuple(fp2, [(el(fp2, "a"), fp2.identity())])
    assert cancellability(v, 1).kind == "none"


def test_cancellability_two_sided_reverse_construction(fp2):
    # choose c = 1 in C, split: R * t^g * L = 1 with R, L nontrivial
    t = el(fp2, "a")
    g = el(fp2, "b")
    x = t.conj(g)  # b^-1 a b
    r = el(fp2, "b")
    lf = el(fp2, "b^-1 a^-1")
    assert (r * x * lf).length == 0
    g_prev = el(fp2, "a") * r
    g_next = (lf * el(fp2, "b^2")).inverse()
    v = ConjTuple(fp2, [(el(fp2, "b"), g_prev), (t, g), (el(fp2, "b"), g_next)])
    c = cancellability(v, 2)
    # L = b^-1 a^-1 is also (t g)^-1, so the one-sided RHS test fires first,
    # on the length-2 left factor of g_3^-1 = b^-1 a^-1 b^2
    assert _serialized(c) == ("RHS", None, "[B: b^-1][A: a^-1]")


def test_cancellability_two_sided_when_neither_side_cancels(fp2):
    # t = a^2, g = b: R = b a^-1 b and L = b^-1 a^-1 b^-1 each absorb half of
    # t, so R t^g L = b a^-1 (a^2) a^-1 b^-1 = 1.  Neither one-sided test can
    # fire: no right factor of g_1 is a^-2 b (LHS) and no left factor of
    # g_3^-1 is b^-1 a^-2 (RHS)
    t, g = el(fp2, "a^2"), el(fp2, "b")
    v = ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "b a^-1 b")), (t, g),
                        (el(fp2, "a"), el(fp2, "b a b"))])
    assert is_reduced([g.inverse(), t, g])
    c = cancellability(v, 2)
    assert _serialized(c) == ("two-sided", "[B: b][A: a^-1][B: b]",
                              "[B: b^-1][A: a^-1][B: b^-1]")
    r, lf = c.witness
    assert (r * v.conjugate(2) * lf).is_identity
    assert _serialized(_cancellability_by_scan(v, 2)) == _serialized(c)
    rep = is_tamed(v)
    assert not rep and rep.violated_clause == 3
    assert rep.detail == "t_2 cancellable from two-sided"


def test_is_tamed_single_reduced_conjugate(fp2):
    assert is_tamed(ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "b"))]))


def test_is_tamed_clause1(fp2):
    rep = is_tamed(ConjTuple(fp2, [(el(fp2, "a b"), fp2.identity())]))
    assert not rep and rep.violated_clause == 1
    rep = is_tamed(ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "a"))]))
    assert not rep and rep.violated_clause == 1


def test_is_tamed_clause2(fp2):
    rep = is_tamed(ConjTuple(fp2, [(el(fp2, "a"), fp2.identity()),
                                   (el(fp2, "a^-1"), fp2.identity())]))
    assert not rep and rep.violated_clause == 2


def test_is_tamed_clause3(fp2):
    # t_2 is LHS-cancellable via the right factor a^-1 b of g_1
    v = ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "b a^-1 b")),
                        (el(fp2, "a"), el(fp2, "b"))])
    rep = is_tamed(v)
    assert not rep and rep.violated_clause == 3
    assert cancellability(v, 2).kind == "LHS"


def test_delta_factorize_single_trivial_g(fp2):
    fact = delta_factorize(ConjTuple(fp2, [(el(fp2, "a"), fp2.identity())]))
    a, b, c = fact.triples[0]
    assert fact.deltas[0].is_identity
    assert a.is_identity and c.is_identity
    assert b.equals(el(fp2, "a"))


def test_delta_factorize_merge_case(fp2):
    # g_1 g_2^-1 = a (b^-1 a)^-1 = b: its leading component b merges with
    # t_1 = b, so delta_2 = e_{2,1} = b
    v = ConjTuple(fp2, [(el(fp2, "b"), el(fp2, "a")),
                        (el(fp2, "a"), el(fp2, "b^-1 a"))])
    assert is_tamed(v)
    fact = delta_factorize(v)
    assert fact.deltas[1].equals(el(fp2, "b"))
    assert fact.partials[-1].equals(v.product())


def test_delta_factorize_requires_tamed(fp2):
    with pytest.raises(NotTamedError):
        delta_factorize(ConjTuple(fp2, [(el(fp2, "a b"), fp2.identity())]))


def test_tamed_length_bound_examples(fp2):
    lhs, rhs, holds = tamed_length_bound(
        ConjTuple(fp2, [(el(fp2, "a"), fp2.identity())]))
    assert (lhs, rhs, holds) == (1, 1, True)
    v = ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "b")),
                        (el(fp2, "a"), el(fp2, "b^2"))])
    assert is_tamed(v)
    lhs, rhs, holds = tamed_length_bound(v)
    assert holds and lhs == 5 and rhs == 4


def test_tamed_length_bound_requires_tamed(fp2):
    with pytest.raises(NotTamedError):
        tamed_length_bound(ConjTuple(fp2, [(el(fp2, "a b"), fp2.identity())]))


def test_sampler_produces_tamed_tuples(fp2):
    rng = random.Random(0)
    sampler = TamedSampler(fp2, rng)
    for _ in range(50):
        v = sampler.sample()
        assert is_tamed(v)


def test_conjtuple_json_roundtrip(fp2):
    v = ConjTuple(fp2, [(el(fp2, "a"), el(fp2, "b")),
                        (el(fp2, "b"), el(fp2, "a b"))])
    back = ConjTuple.from_json(fp2, v.to_json())
    assert all(
        t1.equals(t2) and g1.equals(g2)
        for (t1, g1), (t2, g2) in zip(v.entries, back.entries)
    )


def test_suite_cancellable_one_side():
    assert run_suite("lemma_cancellable_one_side", trials=400, seed=31).ok


def test_suite_prop_two_sided():
    rep = run_suite("prop_two_sided", trials=400, seed=32)
    assert rep.ok
    assert rep.skips < 400  # the reverse construction does hit the hypotheses


def test_suite_length_bound_small():
    assert run_suite("prop_length_bound", trials=400, seed=33).ok


def test_suite_delta_factorization():
    assert run_suite("delta_factorization", trials=300, seed=34).ok


def test_delta_factorize_power_block_merge(fp2):
    # g_1 trivial, g_1 g_2^-1 = b^3 a and t_1 = b^2: delta_2 = b^3
    v = ConjTuple(fp2, [(el(fp2, "b^2"), fp2.identity()),
                        (el(fp2, "b"), el(fp2, "a^-1 b^-3"))])
    assert is_tamed(v)
    fact = delta_factorize(v)
    assert fact.deltas[1].equals(el(fp2, "b^3"))
    assert fact.partials[-1].equals(v.product())


# ---------------------------------------------------------------------------
# Oracles: the tamed layer computed product by product.  They form every
# product afresh, scan all pairs of factors and check reducedness with
# is_reduced, so they share no shortcut with gtkit.tamed.
# ---------------------------------------------------------------------------

def _cancellability_by_scan(v, i):
    t_i, g_i = v.t(i), v.g(i)
    rights = [rf for rf, _ in factors(v.g(i - 1), "right")]
    lefts = [lf for lf, _ in factors(v.g(i + 1).inverse(), "left")]
    gi_inv_ti = g_i.inverse() * t_i
    for r in rights:
        if (r * gi_inv_ti).length == 0:
            return Cancellability("LHS", (r, None))
    ti_gi = t_i * g_i
    for lf in lefts:
        if (ti_gi * lf).length == 0:
            return Cancellability("RHS", (None, lf))
    ci = t_i.conj(g_i)
    for r in rights:
        rci = r * ci
        for lf in lefts:
            if (rci * lf).length == 0:
                return Cancellability("two-sided", (r, lf))
    return Cancellability("none")


def _is_tamed_by_products(v):
    for i in range(1, v.n + 1):
        t_i, g_i = v.t(i), v.g(i)
        if t_i.length != 1:
            return TamedReport(False, 1, f"l(t_{i}) = {t_i.length} != 1")
        if not is_reduced([g_i.inverse(), t_i, g_i]):
            return TamedReport(False, 1, f"t_{i}^g_{i} is not reduced")
    for i in range(1, v.n):
        if (v.g(i) * v.g(i + 1).inverse()).length == 0:
            if (v.t(i) * v.t(i + 1)).length != 2:
                return TamedReport(
                    False, 2, f"g_{i} g_{i+1}^-1 in C but l(t_{i} t_{i+1}) != 2"
                )
    for i in range(1, v.n + 1):
        c = _cancellability_by_scan(v, i)
        if c.cancellable:
            return TamedReport(False, 3, f"t_{i} cancellable from {c.kind}")
    return TamedReport(True)


def _delta_factorize_by_products(v):
    rep = _is_tamed_by_products(v)
    if not rep:
        raise NotTamedError(f"tuple is not tamed: clause {rep.violated_clause}, {rep.detail}")
    G = v.amalgam
    deltas, triples, partials = [], [], []
    prev_T = G.identity()
    for i in range(1, v.n + 1):
        g_prev, g_i, t_i = v.g(i - 1), v.g(i), v.t(i)
        diff = g_prev * g_i.inverse()
        delta = G.identity()
        if diff.length >= 1:
            e1 = _first_component(diff)
            if (v.t(i - 1) * e1).length == 1:
                delta = e1
        a = prev_T * g_prev.inverse() * delta
        b = delta.inverse() * g_prev * g_i.inverse() * t_i
        triple = (a, b, g_i)
        if not is_reduced(list(triple)):
            raise NotTamedError(f"triple at index {i} failed to be reduced")
        T_i = a * b * g_i
        check = prev_T * t_i.conj(g_i)
        if not T_i.equals(check):
            raise NotTamedError(f"triple at index {i} does not telescope")
        deltas.append(delta)
        triples.append(triple)
        partials.append(T_i)
        prev_T = T_i
    return DeltaFactorization(deltas, triples, partials)


def _serialized(c):
    """A Cancellability as (kind, R, L), the factors serialized (None if absent)."""
    r, lf = c.witness or (None, None)
    return (c.kind,) + tuple(None if x is None else x.serialize() for x in (r, lf))


def _factorization_text(fact):
    return ([d.serialize() for d in fact.deltas],
            [[x.serialize() for x in tr] for tr in fact.triples],
            [p.serialize() for p in fact.partials])


# F2, Z *_{2Z} Z and BS(2) = <a> *_{a^2 = c} <b, c | bc = cb>
_GROUPS = [G for G, _ in _groups()] + [bs_amalgam(2)]
_SAMPLERS = [TamedSampler(G, None) for G in _GROUPS]


def _raw_tuple(gi, seed, n):
    sampler = _SAMPLERS[gi]
    sampler.rng = random.Random(seed)
    return sampler.raw_tuple(n)


def _reverse_tuple(gi, seed):
    """suite_prop_two_sided's construction: R t^g L = 1 for a right factor R
    of g_1 and a left factor L of g_3^-1, with t = t_1 = t_2 = t_3."""
    G, balls, rng = _GROUPS[gi], _SAMPLERS[gi].balls, random.Random(seed)
    t = _rand_alternating(G, rng, balls, 1)
    while t.length != 1:
        t = _rand_alternating(G, rng, balls, 1)
    g_mid = _rand_alternating(G, rng, balls, 2)
    lf = _rand_alternating(G, rng, balls, 2)
    rf = t.conj(g_mid).inverse() * lf.inverse()
    g_prev = _rand_alternating(G, rng, balls, 2) * rf
    g_next = (lf * _rand_alternating(G, rng, balls, 2)).inverse()
    return ConjTuple(G, [(t, g_prev), (t, g_mid), (t, g_next)])


def _check_against_the_scan(v):
    kinds = set()
    for i in range(1, v.n + 1):
        c = cancellability(v, i)
        assert _serialized(c) == _serialized(_cancellability_by_scan(v, i))
        kinds.add(c.kind)
    return kinds


_tuple_args = (st.integers(0, len(_GROUPS) - 1), st.integers(0, 2**32),
               st.integers(1, 3), st.booleans())


@given(*_tuple_args)
@settings(max_examples=300, deadline=None)
def test_cancellability_matches_the_full_scan(gi, seed, n, reverse):
    v = _reverse_tuple(gi, seed) if reverse else _raw_tuple(gi, seed, n)
    _check_against_the_scan(v)


def test_cancellability_sweep_reaches_every_kind():
    # a fixed sweep over all three groups hits LHS, RHS, two-sided and none,
    # each with the witness the full scan finds first
    kinds = set()
    for gi in range(len(_GROUPS)):
        for seed in range(40):
            kinds |= _check_against_the_scan(_raw_tuple(gi, seed, 3))
            kinds |= _check_against_the_scan(_reverse_tuple(gi, seed))
    assert kinds == {"LHS", "RHS", "two-sided", "none"}


@given(*_tuple_args)
@settings(max_examples=200, deadline=None)
def test_is_tamed_matches_the_clauses_by_products(gi, seed, n, reverse):
    v = _reverse_tuple(gi, seed) if reverse else _raw_tuple(gi, seed, n)
    assert dataclasses.astuple(is_tamed(v)) == dataclasses.astuple(_is_tamed_by_products(v))
    # the kept conjugates and inverses are the products conj and inverse form,
    # down to the head placement, also where t_i^{g_i} is not reduced
    for i in range(v.n + 2):
        assert v.conjugate(i).serialize() == v.t(i).conj(v.g(i)).serialize()
        assert v.g_inv(i).serialize() == v.g(i).inverse().serialize()


@given(st.integers(0, len(_GROUPS) - 1), st.integers(0, 2**32), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_delta_factorize_matches_the_factorization_by_products(gi, seed, n):
    # normal forms are not canonical: equal text means every product is
    # associated as in the oracle, not only equal in the group
    sampler = _SAMPLERS[gi]
    sampler.rng = random.Random(seed)
    v = sampler.sample(n)
    fresh = ConjTuple(v.amalgam, v.entries)
    assert _factorization_text(delta_factorize(v)) == _factorization_text(
        _delta_factorize_by_products(fresh))
    assert tamed_length_bound(v) == (fresh.product().length,
                                     v.g(1).length + n + v.g(n).length, True)
    assert v.product().serialize() == fresh.product().serialize()


def test_tamed_verdict_is_computed_once_per_tuple(fp2, monkeypatch):
    seen = []
    clauses = tamed._tamedness

    def counting(v):
        seen.append(v)
        return clauses(v)

    monkeypatch.setattr(tamed, "_tamedness", counting)
    sampler = TamedSampler(_GROUPS[2], random.Random(3))
    for _ in range(20):
        v = sampler.sample(2)
        delta_factorize(v)
        tamed_length_bound(v)
        assert is_tamed(v)
        assert sum(x is v for x in seen) == 1
    # every draw the sampler rejected was checked once too
    assert len({id(x) for x in seen}) == len(seen) >= 20
    untamed = ConjTuple(fp2, [(el(fp2, "a b"), fp2.identity())])
    for check in (delta_factorize, tamed_length_bound):
        with pytest.raises(NotTamedError):
            check(untamed)
    assert sum(x is untamed for x in seen) == 1


def test_tamed_differences_are_formed_once_per_tuple(monkeypatch):
    # clause 2 of the verdict and delta_factorize both read g_i g_{i+1}^-1
    products = []
    mul = AmalgamElement.__mul__

    def counting(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(AmalgamElement, "__mul__", counting)
    sampler = TamedSampler(_GROUPS[2], random.Random(5))
    for _ in range(10):
        products.clear()
        v = sampler.sample(3)
        assert is_tamed(v)
        delta_factorize(v)
        for i in range(1, v.n):
            pair = (v.g(i), v.g_inv(i + 1))
            assert sum(x is pair[0] and y is pair[1] for x, y in products) == 1


def test_delta_factorize_checks_each_triple_for_reducedness(fp2):
    # t^g = b^-1 a^-1 b for t = a^-1, g = a b is not reduced, so the tuple is
    # not tamed; with a tamed verdict planted on it, the triple check (one
    # length comparison on T_1) still rejects (1, g^-1 t, g)
    v = ConjTuple(fp2, [(el(fp2, "a^-1"), el(fp2, "a b"))])
    v.__dict__["_verdict"] = TamedReport(True)
    with pytest.raises(NotTamedError, match="triple at index 1 failed to be reduced"):
        delta_factorize(v)
    assert _is_tamed_by_products(v).violated_clause == 1


def test_conjtuple_is_frozen_and_stores_entries_as_a_tuple(fp2):
    entries = [(el(fp2, "a"), el(fp2, "b"))]
    v = ConjTuple(fp2, entries)
    assert isinstance(v.entries, tuple) and v.entries == tuple(entries)
    entries.append((el(fp2, "b"), el(fp2, "a")))
    assert v.n == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.amalgam = None
    with pytest.raises(PreconditionError):
        ConjTuple(fp2, [])
