import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gtkit import casestudy as cs
from gtkit.amalgam import normalize
from gtkit.errors import InternalInvariantError, PreconditionError
from gtkit.suites import run_suite
from gtkit.word import Word, abelianize_snf, cancellation_syllables, gen, parse_word as W


@pytest.fixture(scope="module")
def matrix():
    return cs.sample_exponents(10, 8, 0)


@pytest.fixture(scope="module")
def csub(matrix):
    return cs.CSubgroup.from_matrix(matrix)


@pytest.fixture(scope="module")
def nonlo(matrix):
    return cs.build_nonlo(matrix)


# ---------------------------------------------------------------------------
# exponent matrices
# ---------------------------------------------------------------------------

def test_exponent_cardinalities(matrix):
    s, m = matrix.s, matrix.m
    want = s * m + m * (m - 1) // 2
    for grid, col in ((matrix.a_exp, 0), (matrix.b_exp, s - 1)):
        values = {abs(v) for row in grid for v in row}
        diffs = {abs(grid[i][col] - grid[k][col])
                 for i in range(m) for k in range(i + 1, m)}
        assert len(values | diffs) == want == 108


def test_exponent_signs(matrix):
    for i in range(4):
        assert all(v > 0 for v in matrix.a_exp[i])
        assert all(v > 0 for v in matrix.b_exp[i])
    for i in range(4, 8):
        assert all(v > 0 for v in matrix.a_exp[i])
        assert all(v < 0 for v in matrix.b_exp[i])


def test_exponent_tamper_rejected(matrix):
    bad = cs.ExponentMatrix(
        matrix.s, matrix.m,
        [row[:] for row in matrix.a_exp],
        [row[:] for row in matrix.b_exp],
    )
    bad.a_exp[0][1] = bad.a_exp[3][2]
    with pytest.raises(PreconditionError):
        cs.validate_exponent_matrix(bad)


def test_exponent_bounds_rejected():
    with pytest.raises(PreconditionError):
        cs.sample_exponents(5, 8, 0)
    with pytest.raises(PreconditionError):
        cs.sample_exponents(10, 4, 0)


def test_exponent_seeds_differ_and_roundtrip():
    e0 = cs.sample_exponents(10, 8, 0)
    e1 = cs.sample_exponents(10, 8, 1)
    assert e0.a_exp != e1.a_exp
    back = cs.ExponentMatrix.from_json(e0.to_json())
    assert back.a_exp == e0.a_exp and back.b_exp == e0.b_exp


def test_generator_words_syllable_length(matrix):
    for g in cs.generator_words(matrix):
        assert g.syllable_len == 2 * matrix.s


# ---------------------------------------------------------------------------
# the subgroup C and its automaton
# ---------------------------------------------------------------------------

def test_c_free_of_rank_m(csub):
    assert csub.automaton.rank == csub.m


def test_c_membership_products(csub):
    rng = random.Random(2)
    units = csub.gen_set()
    for _ in range(20):
        c = Word()
        for _ in range(rng.randint(1, 4)):
            c = c * units[rng.randrange(len(units))]
        assert csub.contains(c)
    assert not csub.contains(W("a b"))
    assert not csub.contains(W("b"))


def test_base_out_labels(csub):
    # generators start with a^+; inverses start with b^{-} (rows 1..4) or
    # b^{+} (rows 5..8), so exactly three directed labels leave the base
    labels = {(g.name, s) for (g, s), _ in csub.automaton.successors(0)}
    assert labels == {("a", 1), ("b", 1), ("b", -1)}


# ---------------------------------------------------------------------------
# prefix map
# ---------------------------------------------------------------------------

def test_prefix_first_component(csub):
    u = csub.gens[0]
    assert csub.prefix(Word([tuple(u.component(1))])).is_identity


def test_prefix_inner_components(csub):
    u = csub.gens[2]
    for k in (2, 5, 2 * csub.s):
        assert csub.prefix(Word([tuple(u.component(k))])) == u.left(k - 1)


def test_prefix_merge_case(csub):
    u = csub.gens[0].inverse()
    v = csub.gens[1]
    merged = u.component(2 * csub.s).exponent + v.component(1).exponent
    E = Word([(cs.A_GEN, merged)])
    assert csub.prefix(E) == u.left(2 * csub.s - 1)


def test_prefix_rejects_foreign_syllable(csub):
    with pytest.raises(PreconditionError):
        csub.prefix(W("a^999999"))
    assert not csub.in_sc(W("a^999999"))


def test_prefix_invariant_holds_on_samples(csub):
    rng = random.Random(3)
    units = csub.gen_set()
    for _ in range(10):
        u = units[rng.randrange(len(units))]
        k = rng.randint(1, 2 * csub.s)
        E = Word([tuple(u.component(k))])
        p = csub.prefix(E)
        p_inv = csub.prefix(E.inverse())
        assert csub.contains(p * E * p_inv.inverse())


# ---------------------------------------------------------------------------
# C-simplification
# ---------------------------------------------------------------------------

def test_c_simplify_short_word_untouched(csub):
    c1, mid, c2 = cs.c_simplify(csub, W("a"))
    assert c1.is_identity and c2.is_identity and mid == W("a")


def test_c_simplify_strips_generator(csub):
    alpha = csub.gens[0] * W("b")
    c1, mid, c2 = cs.c_simplify(csub, alpha)
    assert c1 == csub.gens[0]
    assert mid == W("b")
    assert c1 * mid * c2 == alpha


def test_c_simplify_output_is_simplified(csub):
    rng = random.Random(4)
    units = csub.gen_set()
    for _ in range(15):
        w = units[rng.randrange(len(units))] * W("a b^2") * \
            units[rng.randrange(len(units))]
        if csub.contains(w):
            continue
        c1, mid, c2 = cs.c_simplify(csub, w)
        assert csub.is_simplified(mid)
        assert csub.lam(mid) <= csub.s and csub.rho(mid) <= csub.s
        assert c1 * mid * c2 == w
        assert csub.contains(c1) and csub.contains(c2)


def test_c_simplify_rejects_members(csub):
    with pytest.raises(PreconditionError):
        cs.c_simplify(csub, csub.gens[0])


def _c_simplify_by_unit_scan(csub, alpha):
    """Oracle: each strip compares L_s (R_s) of alpha with that of every unit."""
    c1, c2, cur, s = Word(), Word(), alpha, csub.s
    units = csub.gen_set()
    while True:
        if not csub.is_left_simplified(cur):
            u = next(u for u in units if u.left(s) == cur.left(s))
            c1, cur = c1 * u, u.inverse() * cur
        elif not csub.is_right_simplified(cur):
            u = next(u for u in units if u.right(s) == cur.right(s))
            c2, cur = u * c2, cur * u.inverse()
        else:
            return c1, cur, c2


@functools.lru_cache(maxsize=None)
def _c_of_shape(s, m):
    return cs.CSubgroup.from_matrix(cs.sample_exponents(s, m, 0))


_unit_picks = st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=2)


@given(st.sampled_from([(10, 8), (12, 8)]), _unit_picks, _unit_picks,
       st.lists(st.tuples(st.sampled_from([cs.A_GEN, cs.B_GEN]),
                          st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])),
                min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_c_simplify_matches_the_unit_scan(shape, left, right, x):
    # alpha = u... x u'... with units on both sides; x may merge into them
    csub = _c_of_shape(*shape)
    units = csub.gen_set()
    alpha = Word(x)
    for k in left:
        alpha = units[k % len(units)] * alpha
    for k in right:
        alpha = alpha * units[k % len(units)]
    assume(not csub.contains(alpha))
    assert cs.c_simplify(csub, alpha) == _c_simplify_by_unit_scan(csub, alpha)


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

def test_standard_form_k0(csub):
    c = csub.gens[0]
    g = W("b a")  # starts with b: no cancellation against c in either order
    d = cs.standard_form(csub, c, g)
    assert d.i == d.j == d.k == 0
    assert d.chi == c and d.gamma == g
    assert d.conjugate() == g.inverse() * c * g


def test_standard_form_with_cancellation(csub):
    c = csub.gens[0]
    g = c.right(2).inverse() * W("b")  # K(c, g) = 2
    if csub.contains(g):
        pytest.skip("unlucky fixture")
    d = cs.standard_form(csub, c, g)
    assert d.j == 2 and d.k == 2
    assert d.lam.syllable_len == d.gamma.syllable_len == d.rho.syllable_len
    assert d.mu.syllable_len >= 2 * csub.s - 1
    assert d.i + d.j <= c.syllable_len - csub.s


def test_standard_form_incompatibility(csub):
    c = csub.gens[0] * csub.gens[1]
    g = W("b a b^-1")
    d = cs.standard_form(csub, c, g)
    conj = d.conjugate()
    i = d.gamma.syllable_len + 2
    assert conj.syllable_len >= i
    assert not csub.automaton.prefix_acceptable(conj.left(i), i, "left")
    assert not csub.automaton.prefix_acceptable(conj.right(i), i, "right")


def test_standard_form_preconditions(csub):
    with pytest.raises(PreconditionError):
        cs.standard_form(csub, W(""), W("b"))
    with pytest.raises(PreconditionError):
        cs.standard_form(csub, csub.gens[0], csub.gens[1])  # g in C
    not_simplified = csub.gens[0] * W("b")
    with pytest.raises(PreconditionError):
        cs.standard_form(csub, csub.gens[0], not_simplified)


# ---------------------------------------------------------------------------
# left-first products
# ---------------------------------------------------------------------------

def test_lfp_worked_example():
    trace = cs.lfp_trace([W("a"), W("a^-1 b"), W("b^-1 a")])
    assert trace.product() == W("a")
    assert trace.cancels((1, 1), (2, 1))
    assert trace.cancels((2, 2), (3, 1))
    assert trace.is_unaltered(3, 2)
    assert not trace.is_unaltered(1, 1)


def test_lfp_all_reduced_unaltered():
    words = [W("a b"), W("a^2 b^-1"), W("a b^3")]
    trace = cs.lfp_trace(words)
    for i, w in enumerate(words, start=1):
        for p in range(1, w.syllable_len + 1):
            assert trace.is_unaltered(i, p)


def test_lfp_merge_status():
    trace = cs.lfp_trace([W("a b"), W("b^2 a")])
    assert trace.status[(1, 2)].kind == "merged"
    assert trace.status[(2, 1)].kind == "merged"
    assert trace.product() == W("a b^3 a")


def test_rfp_matches_product():
    rng = random.Random(6)
    for _ in range(50):
        words = []
        for _ in range(rng.randint(1, 4)):
            w = Word()
            for _ in range(rng.randint(0, 6)):
                w = w * Word([(gen(rng.choice("ab")), rng.choice((1, -1)))])
            words.append(w)
        prod = Word()
        for w in words:
            prod = prod * w
        assert cs.lfp_trace(words).product() == prod
        assert cs.rfp_trace(words).product() == prod


def test_rfp_statuses_mirror_lfp():
    words = [W("a"), W("a^-1 b"), W("b^-1 a")]
    rtr = cs.rfp_trace(words)
    # in right-first evaluation, g_2 g_3 = a^-1 a ... cancels (2,2) vs (3,1)
    assert rtr.cancels((2, 2), (3, 1))
    assert rtr.product() == W("a")


def test_suite_lfp_multiplicativity():
    assert run_suite("lfp_multiplicativity", trials=400, seed=51).ok


def test_suite_lfp_restriction():
    assert run_suite("lfp_restriction", trials=400, seed=52).ok


def test_suite_lfp_pair_cancellation():
    assert run_suite("lfp_pair_cancellation", trials=400, seed=53).ok


# ---------------------------------------------------------------------------
# small cancellation
# ---------------------------------------------------------------------------

def test_small_cancellation_exhaustive_pairs(csub):
    rep = run_suite("lemma_small_cancellation", trials=60, seed=9)
    assert rep.violations == []
    assert rep.params["pairs_checked"] == (2 * csub.m) ** 2 - 2 * csub.m


def test_pairwise_k_zero_and_length(csub):
    s = csub.s
    units = csub.gen_set()
    for u in units:
        for v in units:
            if (u * v).is_identity:
                continue
            assert cancellation_syllables(u, v) == 0
            assert (u * v).syllable_len >= 4 * s - 1


# ---------------------------------------------------------------------------
# the glued-manifold presentation
# ---------------------------------------------------------------------------

def test_w_presentation_shape():
    p = cs.build_w_presentation()
    assert len(p.relators) == 4
    assert len(p.generators) == 4


def test_w_presentation_perfect():
    inv = abelianize_snf(cs.build_w_presentation())
    assert inv.is_trivial


def test_single_knot_group_infinite_cyclic():
    inv = abelianize_snf(cs.knot_group_presentation())
    assert inv.free_rank == 1 and not inv.torsion


# ---------------------------------------------------------------------------
# the one-relator amalgam
# ---------------------------------------------------------------------------

def test_onerelator_edge_subgroups_free_of_rank_two():
    onerel = cs.build_onerelator_amalgam()
    from gtkit.stallings import SubgroupAutomaton

    assert SubgroupAutomaton(onerel.c_gens).rank == 2
    assert SubgroupAutomaton(onerel.d_gens).rank == 2


def test_onerelator_phi_transport_roundtrip():
    onerel = cs.build_onerelator_amalgam()
    fa, fb = onerel.amalgam.factors
    e = fa.to_edge(W("a"))
    assert fb.from_edge(e) == W("c^-1")
    assert fa.from_edge(fb.to_edge(W("c^-1"))) == W("a")


def test_onerelator_presentation_abelianizations():
    # the relator has a-exponent sum 2, so both presentations abelianize to
    # Z^2 + Z/2 (checked against an independent Smith-form oracle)
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    onerel = cs.build_onerelator_amalgam()
    for pres in (onerel.presentation_three_generators(),
                 onerel.presentation_four_generators()):
        inv = abelianize_snf(pres)
        mat = [[r.exponent_sum(g) for g in pres.generators]
               for r in pres.relators]
        oracle = [int(d) for d in invariant_factors(Matrix(mat)) if d != 0]
        assert list(inv.torsion) == [d for d in oracle if d > 1]
        assert inv.free_rank == len(pres.generators) - len(oracle)
        assert inv.free_rank == 2 and inv.torsion == (2,)


def test_onerelator_amalgam_identifies_a_with_c_inverse():
    onerel = cs.build_onerelator_amalgam()
    x = normalize(onerel.amalgam, [(0, W("a")), (1, W("c"))])
    assert x.is_identity


def test_gamma_alpha_is_conjugated_relator():
    r = cs.gamma_relator()
    assert r.inverse().conj(W("a[0] a[2]")) == cs.gamma_alpha()


def test_gamma_beta_expansion():
    beta, displayed = cs.gamma_beta_parts()
    assert beta == displayed
    assert (beta * displayed.inverse()).is_identity


def test_indexed_rewriting_roundtrip():
    w = W("b^-2 a b^2") * W("b^-1 a^-1 b") * W("a")
    iw = cs.rewrite_to_indexed(w)
    assert iw == W("a[2] a[1]^-1 a[0]")
    assert cs.expand_indexed(iw) == w
    assert cs.shift_indexed(iw, 1) == W("a[3] a[2]^-1 a[1]")
    with pytest.raises(Exception):
        cs.rewrite_to_indexed(W("b a"))


def test_sprime_weights():
    w = W("a[2] a[1]^-1")
    assert cs.sprime_weights(w) == {1: 1}
    assert cs.sprime_weights(W("a[0]^3")) == {0: 3}


# ---------------------------------------------------------------------------
# the non-left-orderable amalgam
# ---------------------------------------------------------------------------

def test_nonlo_pairing(nonlo):
    assert nonlo.phi_images[0] == nonlo.betas[0]
    assert nonlo.phi_images[1] == nonlo.betas[1].inverse()
    assert nonlo.phi_images[2] == nonlo.betas[4]
    assert nonlo.phi_images[4] == nonlo.betas[2]


def test_nonlo_witnesses(nonlo):
    rows = cs.verify_nonlo_witnesses(nonlo)
    assert len(rows) == 8
    for row in rows:
        assert row["identity"] and row["signs_ok"], row
    assert set(rows[0]["letters"]) <= {("a", 1), ("b", 1), ("c", -1), ("d", -1)}
    assert set(rows[5]["letters"]) <= {("a", 1), ("b", -1), ("c", 1), ("d", 1)}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nonlo_witness_signs_match_letter_walk(seed):
    g = cs.build_nonlo(cs.sample_exponents(10, 8, seed))
    rows = cs.verify_nonlo_witnesses(g)
    for row, alpha, image in zip(rows, g.alphas, g.phi_images):
        letters = {(gn.name, sg) for gn, sg in alpha.letters()}
        letters |= {(gn.name, sg) for gn, sg in image.inverse().letters()}
        assert row["letters"] == sorted(letters)
        assert row["identity"] and row["signs_ok"], row


def test_nonlo_perturbations_detected(nonlo):
    # swapping beta_1 and beta_2 keeps the sign pattern but kills the identity
    swapped = list(nonlo.phi_images)
    swapped[0] = nonlo.betas[1]
    bad = cs.NonLoGroup(nonlo.exponents, nonlo.csub, nonlo.amalgam,
                        nonlo.alphas, nonlo.betas, swapped)
    rows = cs.verify_nonlo_witnesses(bad)
    assert not rows[0]["identity"]
    # borrowing a mixed-sign row breaks the sign set
    crossed = list(nonlo.phi_images)
    crossed[0] = nonlo.betas[4]
    bad = cs.NonLoGroup(nonlo.exponents, nonlo.csub, nonlo.amalgam,
                        nonlo.alphas, nonlo.betas, crossed)
    rows = cs.verify_nonlo_witnesses(bad)
    assert not rows[0]["signs_ok"]


def test_nonlo_json_roundtrip(nonlo):
    assert nonlo.to_json() == cs.nonlo_json(nonlo.exponents)
    back = cs.NonLoGroup.from_json(nonlo.to_json())
    assert back.alphas == nonlo.alphas
    assert back.phi_images == nonlo.phi_images


def test_suite_conjugate_local_property():
    assert run_suite("conjugate_local_property", trials=40, seed=55).ok


def test_suite_block_cancellation():
    rep = run_suite("block_cancellation", trials=60, seed=56)
    assert rep.ok
    assert rep.skips < 60  # the fixtures do produce mu-mu cancellations


def test_suite_block_cancellation_reports_a_wrong_traced_product(monkeypatch):
    real = cs.lfp_trace
    # a tracer that drops the second conjugate
    monkeypatch.setattr(cs, "lfp_trace", lambda inputs: real(inputs[:1]))
    rep = run_suite("block_cancellation", trials=20, seed=56)
    assert "traced-product" in {v.kind for v in rep.violations}


def test_suite_block_cancellation_reports_a_lost_cancel_pair(monkeypatch):
    real = cs.lfp_trace

    def lossy(inputs):
        trace = real(inputs)
        if trace.cancel_pairs:
            trace.cancel_pairs.pop()
        return trace

    monkeypatch.setattr(cs, "lfp_trace", lossy)
    rep = run_suite("block_cancellation", trials=20, seed=56)
    assert rep.violations
    assert {v.kind for v in rep.violations} == {"cancel-pair-count"}


def test_suite_claim_a_shortening():
    assert run_suite("claim_a_shortening", trials=40, seed=57).ok


def test_suite_k_calculus():
    assert run_suite("lemma_k_beta_h", trials=300, seed=58).ok
    assert run_suite("lemma_k_alpha_n", trials=300, seed=59).ok
    assert run_suite("cor_k_alpha_n_h", trials=300, seed=60).ok


def test_suite_prop_two_sided_bound():
    rep = run_suite("prop_two_sided_bound", trials=60, seed=61)
    assert rep.ok
    assert rep.skips < 60  # constructed instances satisfy the hypothesis


def test_sandwich_on_small_cancellation_instances(csub):
    """Long C-members around short simplified middles satisfy the two-sided
    condition, so the interleaved product cannot collapse."""
    from gtkit.amalgam import (
        SandwichDecomposition,
        check_sandwich_nontrivial,
        element_from_free_word,
        free_as_free_product,
    )

    G = free_as_free_product(["a", "b"])
    rng = random.Random(12)
    units = csub.gen_set()
    for _ in range(5):
        gs = []
        for _ in range(3):
            c = units[rng.randrange(len(units))]
            nxt = units[rng.randrange(len(units))]
            if (c * nxt).is_identity:
                nxt = nxt.inverse()
            gs.append(element_from_free_word(G, c * nxt))
        alphas = [element_from_free_word(G, W("b a b^-1")),
                  element_from_free_word(G, W("a b a"))]
        d = SandwichDecomposition(gs, alphas)
        res = check_sandwich_nontrivial(d)
        assert res.verified
        assert not d.product().is_identity
