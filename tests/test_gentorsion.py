import gc
import hashlib
import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gtkit import casestudy as cs
from gtkit import gentorsion as gt
from gtkit import suites
from gtkit.amalgam import (
    Amalgam,
    AmalgamElement,
    EdgeIdentification,
    FreeFactor,
    element_from_free_word,
    free_as_free_product,
    normalize,
)
from gtkit.cli import main
from gtkit.errors import GtkitError, InternalInvariantError, PreconditionError
from gtkit.stallings import SubgroupAutomaton, _witness_gen
from gtkit.suites import SUITE_PARAMS, SUITES, run_suite
from gtkit.tamed import TamedSampler
from gtkit.word import Word, gen, parse_word as W, sort_words

AB = [gen("a"), gen("b")]


@pytest.fixture(scope="module")
def fp2():
    return free_as_free_product(["a", "b"])


def el(G, text):
    return element_from_free_word(G, W(text))


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def test_verify_rejects_trivial_base(fp2):
    cert = gt.GtCertificate(el(fp2, "a"), [fp2.identity()])
    assert not gt.verify_gt_certificate(fp2, cert)  # a != 1, product = a != 1
    cert = gt.GtCertificate(el(fp2, "a") * el(fp2, "a^-1"), [fp2.identity()])
    assert not gt.verify_gt_certificate(fp2, cert)  # base trivial


def test_bs_commutator_witnesses():
    for m in (2, 3, 4, 5):
        G, cert = gt.bs_commutator_witness(m)
        assert len(cert.conjugators) == m
        assert gt.verify_gt_certificate(G, cert)
    with pytest.raises(PreconditionError):
        gt.bs_commutator_witness(1)


def test_bergman_witness_z2z():
    G0, cert = gt.bergman_witness(["a"], [W("a^2")], W("a"), [W("1"), W("1")])
    assert len(cert.conjugators) == 2
    assert gt.verify_gt_certificate(G0, cert)


def test_bergman_witness_parity_precondition():
    with pytest.raises(PreconditionError):
        gt.bergman_witness(["a"], [W("a^2")], W("a"),
                           [W("a^2"), W("a^2"), W("a^2")])


def test_bergman_witness_f2():
    G0, cert = gt.bergman_witness(["a", "b"], [W("a^2"), W("b")], W("a"),
                                  [W("1"), W("1")])
    assert gt.verify_gt_certificate(G0, cert)


def test_bergman_requires_a_outside_c():
    with pytest.raises(PreconditionError):
        gt.bergman_witness(["a"], [W("a^2")], W("a^2"), [W("1"), W("1")])


@pytest.mark.parametrize("edge, a", [("b^2", "a"), ("b^2", "b")])
def test_bergman_rejects_words_outside_the_alphabet(edge, a):
    with pytest.raises(GtkitError):
        gt.bergman_witness(["a"], [W(edge)], W(a), [W("1"), W("1")])


def test_certificate_json_roundtrip():
    G, cert = gt.bs_commutator_witness(3)
    back = gt.GtCertificate.from_json(G, cert.to_json())
    assert gt.verify_gt_certificate(G, back)


# ---------------------------------------------------------------------------
# normal-closure witnesses
# ---------------------------------------------------------------------------

def test_ncl_witness_gamma_alpha():
    w = gt.NclWitness(cs.gamma_alpha(), [(0, -1, W("a[0] a[2]"))])
    assert gt.verify_ncl_witness([cs.gamma_relator()], w)


def test_ncl_witness_empty_terms():
    assert gt.verify_ncl_witness([cs.gamma_relator()],
                                 gt.NclWitness(W(""), []))


def test_ncl_witness_index_out_of_range():
    with pytest.raises(PreconditionError):
        gt.verify_ncl_witness([], gt.NclWitness(W(""), [(0, 1, W(""))]))


def test_ncl_witness_json_roundtrip():
    w = gt.NclWitness(cs.gamma_alpha(), [(0, -1, W("a[0] a[2]"))])
    back = gt.NclWitness.from_json(w.to_json())
    assert gt.verify_ncl_witness([cs.gamma_relator()], back)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def _plain_nss_closure(seeds, conjugators, bounds, max_elements=200_000):
    """The NSS closure over plain products, for words and amalgam elements
    alike: level 1 is the conjugates s^h, each further level the frontier
    times level 1 under *.  Returns (the elements in order, capped)."""
    seen, capped = gt._nss_closure(
        seeds, lambda x: x.is_identity, (s.conj(h) for s in seeds for h in conjugators),
        lambda frontier, first: (x * y for x in frontier for y in first), bounds,
        max_elements)
    return list(seen), capped


def _amalgam_nss_ball(G, seeds, bounds, max_elements=200_000):
    """Products s_1^{g_1} ... s_k^{g_k}, k <= max_n, conjugators in G's ball."""
    return _plain_nss_closure(seeds, gt.amalgam_conjugator_ball(G, bounds), bounds,
                              max_elements)


def _serial_set(elements):
    return {x.serialize() for x in elements}


def test_nss_ball_no_conjugators(fp2):
    ball, _ = _amalgam_nss_ball(fp2, [el(fp2, "a")],
                                gt.SearchBounds(radius=0, max_n=2, max_elt_letters=1))
    assert _serial_set(ball) == {"[A: a]", "[A: a^2]"}


def test_nss_ball_radius_one_contains_conjugates(fp2):
    ball, _ = _amalgam_nss_ball(fp2, [el(fp2, "a")],
                                gt.SearchBounds(radius=1, max_n=1, max_elt_letters=1))
    for text in ("[A: a]", "[B: b^-1][A: a][B: b]", "[B: b][A: a][B: b^-1]"):
        assert text in _serial_set(ball)


def test_nss_ball_monotone(fp2):
    small, small_capped = _amalgam_nss_ball(
        fp2, [el(fp2, "a b")], gt.SearchBounds(radius=1, max_n=2, max_elt_letters=1))
    big, _ = _amalgam_nss_ball(
        fp2, [el(fp2, "a b")], gt.SearchBounds(radius=1, max_n=3, max_elt_letters=1))
    assert _serial_set(small) <= _serial_set(big)
    assert not small_capped


def test_nss_ball_rejects_identity_seed(fp2):
    with pytest.raises(PreconditionError):
        _amalgam_nss_ball(fp2, [fp2.identity()], gt.SearchBounds())


@pytest.mark.parametrize("bounds", [dict(max_n=0), dict(node_cap=0), dict(radius=-1),
                                    dict(max_elt_letters=-1)])
def test_search_bounds_reject_empty_products_and_negative_sizes(bounds):
    # max_n = 0 would allow no product at all; it used to be accepted and
    # then read as max_n = 1 by the NSS closure
    with pytest.raises(PreconditionError):
        gt.SearchBounds(**bounds)
    gt.SearchBounds(radius=0, max_n=1, max_elt_letters=0, node_cap=1)


def test_nss_ball_deterministic(fp2):
    b = gt.SearchBounds(radius=1, max_n=2, max_elt_letters=1)
    x = [e.serialize() for e in _amalgam_nss_ball(fp2, [el(fp2, "a")], b)[0]]
    y = [e.serialize() for e in _amalgam_nss_ball(fp2, [el(fp2, "a")], b)[0]]
    assert x == y


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_search_gt_bs22_finds_two_terms():
    G, reference = gt.bs_commutator_witness(2)
    g = G.parse_element("[A: a][B: b][A: a^-1][B: b^-1]")
    res = gt.search_gt(G, g, gt.SearchBounds(radius=1, max_n=2,
                                             max_elt_letters=2,
                                             node_cap=10 ** 5))
    assert res.found
    assert len(res.certificate.conjugators) == 2 == len(reference.conjugators)
    assert gt.verify_gt_certificate(G, res.certificate)


def test_search_gt_bs33_needs_three_terms():
    G, _ = gt.bs_commutator_witness(3)
    g = G.parse_element("[A: a][B: b][A: a^-1][B: b^-1]")
    res = gt.search_gt(G, g, gt.SearchBounds(radius=1, max_n=3,
                                             max_elt_letters=3,
                                             node_cap=4 * 10 ** 5))
    assert res.found
    assert len(res.certificate.conjugators) == 3


# search_gt on the BS(m) commutator at radius 2, max_n = m and 2 element
# letters: node counts and certificates as the search produced them when
# products renormalized both operands in full.  A faster product must not
# change them.
BS_COMMUTATOR = "[A: a][B: b][A: a^-1][B: b^-1]"
BS_SEARCH_PINS = {
    2: (79, '{"base": "[A: a][B: b][A: a^-1][B: b^-1]", '
            '"conjugators": ["1", "[A: a]"]}'),
    3: (8431, '{"base": "[A: a][B: b][A: a^-1][B: b^-1]", '
              '"conjugators": ["1", "[A: a]", "[A: a^-1]"]}'),
}

BS3_REPORT = """\
{
  "bounds": {
    "max_elt_letters": 2,
    "max_n": 3,
    "node_cap": 1000000,
    "radius": 2
  },
  "capped": false,
  "certificate": {
    "base": "[A: a][B: b][A: a^-1][B: b^-1]",
    "conjugators": [
      "1",
      "[A: a]",
      "[A: a^-1]"
    ]
  },
  "found": true,
  "nodes": 8431
}
"""


@pytest.mark.parametrize("m", sorted(BS_SEARCH_PINS))
def test_search_gt_bs_output_is_pinned(m):
    G = gt.bs_amalgam(m)
    res = gt.search_gt(G, G.parse_element(BS_COMMUTATOR),
                       gt.SearchBounds(radius=2, max_n=m, max_elt_letters=2))
    nodes, cert = BS_SEARCH_PINS[m]
    assert not res.capped
    assert res.nodes == nodes
    assert json.dumps(res.certificate.to_json()) == cert


def test_search_gt_bs3_report_is_pinned(tmp_path, capsys):
    group = tmp_path / "bs3.json"
    group.write_text(json.dumps(gt.bs_amalgam(3).to_json()))
    assert main(["search", "gt", "--group", str(group), "--elem", BS_COMMUTATOR,
                 "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert out == BS3_REPORT
    assert "seed" not in json.loads(out)["bounds"]


def test_search_gt_free_group_exhausts(fp2):
    res = gt.search_gt(fp2, el(fp2, "a"),
                       gt.SearchBounds(radius=2, max_n=3, max_elt_letters=1,
                                       node_cap=10 ** 5))
    assert not res.found and not res.capped


def test_search_gt_doubled_group_matches_bergman():
    G0, cert = gt.bergman_witness(["a"], [W("a^2")], W("a"), [W("1"), W("1")])
    g = cert.base
    res = gt.search_gt(G0, g, gt.SearchBounds(radius=1, max_n=2,
                                              max_elt_letters=2,
                                              node_cap=2 * 10 ** 5))
    assert res.found
    assert len(res.certificate.conjugators) == 2


def test_search_gt_rejects_identity(fp2):
    with pytest.raises(PreconditionError):
        gt.search_gt(fp2, fp2.identity(), gt.SearchBounds())


def test_search_gt_cap_flagging(fp2):
    res = gt.search_gt(fp2, el(fp2, "a"),
                       gt.SearchBounds(radius=2, max_n=3, max_elt_letters=2,
                                       node_cap=50))
    assert not res.found and res.capped


def _search_gt_reference(G, g, bounds):
    """search_gt with the plain last-slot loop: the last slot multiplies
    the partial product by every candidate in its range."""
    if g.is_identity:
        raise PreconditionError("the base element must be nontrivial")
    ball = gt.amalgam_conjugator_ball(G, bounds)
    ball.sort(key=lambda x: (x.length, x.serialize()))
    conj_cache = [g.conj(h) for h in ball]
    lens = [h.length for h in ball]
    top = lens[-1]
    nodes = 0

    def candidates(slots, left):
        return range(bisect_left(lens, left - (slots - 1) * top),
                     bisect_right(lens, left))

    for n in range(1, bounds.max_n + 1):
        for total in range(0, top * n + 1):
            stack = [(n, total, G.identity(), (), candidates(n, total), 0)]
            while stack:
                slots, left, partial, tail, cands, pos = stack.pop()
                if slots == 1:
                    for idx in cands:
                        nodes += 1
                        if nodes > bounds.node_cap:
                            return gt.SearchResult(None, True, nodes)
                        if (partial * conj_cache[idx]).is_identity:
                            cert = gt.GtCertificate(g, [ball[i] for i in tail + (idx,)])
                            if not gt.verify_gt_certificate(G, cert):
                                raise InternalInvariantError(
                                    "found certificate fails verification")
                            return gt.SearchResult(cert, False, nodes)
                elif pos < len(cands):
                    stack.append((slots, left, partial, tail, cands, pos + 1))
                    nodes += 1
                    if nodes > bounds.node_cap:
                        return gt.SearchResult(None, True, nodes)
                    idx = cands[pos]
                    rest = left - lens[idx]
                    stack.append((slots - 1, rest, partial * conj_cache[idx],
                                  tail + (idx,), candidates(slots - 1, rest), 0))
    return gt.SearchResult(None, False, nodes)


def _outcome(res):
    cert = res.certificate
    return (res.found, res.capped, res.nodes,
            json.dumps(cert.to_json()) if cert is not None else None)


# Groups for the search oracle and the key tests: the abelian BS(m)
# amalgams, a free product, a free amalgam over a cyclic edge and a doubled
# free group.
SEARCH_GROUPS = {
    "BS2": gt.bs_amalgam(2),
    "BS3": gt.bs_amalgam(3),
    "BS4": gt.bs_amalgam(4),
    "F2": free_as_free_product(["a", "b"]),
    "Z2Z": Amalgam(
        [FreeFactor("A", [gen("a")]), FreeFactor("B", [gen("b")])],
        EdgeIdentification((gen("e"),), ((W("a^2"),), (W("b^2"),))),
    ),
    "doubled": gt.doubled_amalgam(["a"], [W("a^2")]),
}
SEARCH_BALLS = {name: [f.ball(2) for f in G.factors] for name, G in SEARCH_GROUPS.items()}

# raw (factor, ball index) entries; factors may repeat and entries cancel
_raw_entries = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10 ** 4)),
                        min_size=1, max_size=4)


def _element(name, entries):
    G, balls = SEARCH_GROUPS[name], SEARCH_BALLS[name]
    return normalize(G, [(fi, balls[fi][i % len(balls[fi])]) for fi, i in entries])


@given(st.sampled_from(sorted(SEARCH_GROUPS)),
       st.sampled_from(["random", "commutator", "quotient"]), _raw_entries,
       st.integers(1, 2), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 3000), st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_search_gt_matches_the_full_last_slot_reference(name, base, entries, radius,
                                                        max_n, letters, cap, short):
    G = SEARCH_GROUPS[name]
    # with x, y the factors' first generators, [x, y] is generalized torsion
    # in the BS groups and x y^-1 in Z *_{2Z} Z; random bases mostly exhaust
    # or cap
    x, y = (Word([(f.alphabet[0], 1)]) for f in G.factors)
    if base == "commutator":
        g = normalize(G, [(0, x), (1, y), (0, x.inverse()), (1, y.inverse())])
    elif base == "quotient":
        g = normalize(G, [(0, x), (1, y.inverse())])
    else:
        g = _element(name, entries)
    assume(not g.is_identity)
    bounds = gt.SearchBounds(radius=radius, max_n=max_n, max_elt_letters=letters,
                             node_cap=cap)
    want = _search_gt_reference(G, g, bounds)
    assert _outcome(gt.search_gt(G, g, bounds)) == _outcome(want)
    if want.found:
        # a cap a few nodes short of the hit lands in its last-slot range
        bounds = replace(bounds, node_cap=max(1, want.nodes - short))
        assert _outcome(gt.search_gt(G, g, bounds)) == \
            _outcome(_search_gt_reference(G, g, bounds))


@pytest.mark.parametrize("m, cap", [(2, 77), (2, 78), (2, 79), (2, 80),
                                    (3, 8430), (3, 8431)])
def test_search_gt_cap_at_the_hit_matches_the_reference(m, cap):
    # caps around the pinned node counts: one node short of the hit, the
    # search is capped, not found
    G = gt.bs_amalgam(m)
    bounds = gt.SearchBounds(radius=2, max_n=m, max_elt_letters=2, node_cap=cap)
    g = G.parse_element(BS_COMMUTATOR)
    got = gt.search_gt(G, g, bounds)
    assert _outcome(got) == _outcome(_search_gt_reference(G, g, bounds))
    assert got.found == (cap >= BS_SEARCH_PINS[m][0])


def _move_edge(x, pos, ew):
    """Another normal form of x: the edge word ew moved across the boundary
    before component pos (0 is the boundary between head and components)."""
    G = x.amalgam
    comps = list(x.comps)
    head = x.head
    fi, w = comps[pos]
    f = G.factors[fi]
    comps[pos] = (fi, f.mul(f.from_edge(ew.inverse()), w))
    if pos == 0:
        head = head * ew
    else:
        fj, v = comps[pos - 1]
        comps[pos - 1] = (fj, G.factors[fj].mul(v, G.factors[fj].from_edge(ew)))
    return AmalgamElement(G, head, tuple(comps))


@given(st.sampled_from(["BS2", "BS3", "BS4", "Z2Z", "doubled"]), _raw_entries,
       st.integers(0, 10 ** 4), st.sampled_from([1, -1, 2, -3]))
@settings(max_examples=200, deadline=None)
def test_cancel_key_is_an_invariant_of_the_element(name, entries, pos, e):
    G = SEARCH_GROUPS[name]
    x = _element(name, entries)
    if x.comps:
        y = _move_edge(x, pos % len(x.comps), Word([(G.edge.alphabet[0], e)]))
        assert x.equals(y)
        assert gt._cancel_key(y) == gt._cancel_key(x)
        assert gt._cancel_key(x.inverse()) == gt._cancel_key(x)[::-1]
    assert gt._inverse_key(x) == gt._cancel_key(x.inverse())


# ---------------------------------------------------------------------------
# bounded freeness checks
# ---------------------------------------------------------------------------

def test_check_rtf_z_violation():
    rep = gt.check_rtf([gen("a")], [W("a^2")],
                       gt.SearchBounds(radius=2, max_n=2, max_elt_letters=1))
    assert rep.violations
    v = rep.violations[0].to_json()
    # the recorded product really is trivial with g outside the subgroup
    g = W(v["g"])
    prod = Word()
    for h in v["h"]:
        prod = prod * g * W(h)
    assert prod.is_identity


def test_check_rtf_whole_group_rejected():
    with pytest.raises(PreconditionError):
        gt.check_rtf(AB, [W("a"), W("b")], gt.SearchBounds(max_elt_letters=2))


def test_check_rtf_free_basis_clean():
    rep = gt.check_rtf(AB, [W("a")],
                       gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2))
    assert rep.ok and not rep.capped


def test_check_multimalnormal_z_violation():
    rep = gt.check_multimalnormal([gen("a")], [W("a^2")], [W("a^2")],
                                  gt.SearchBounds(radius=1, max_n=2,
                                                  max_elt_letters=1))
    assert rep.violations


def test_check_multimalnormal_free_factor_clean(fp2):
    rep = gt.check_multimalnormal(AB, [W("a")], [W("a")],
                                  gt.SearchBounds(radius=1, max_n=2,
                                                  max_elt_letters=2,
                                                  node_cap=2 * 10 ** 5))
    assert rep.ok


def test_check_multimalnormal_whole_group_rejected():
    # C = F(a, b): no a in the letter ball lies outside C, so there is
    # nothing to search, and the check says so instead of passing
    with pytest.raises(PreconditionError, match="not proper"):
        gt.check_multimalnormal(AB, [W("a"), W("b")], [W("a")],
                                gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2))


def test_check_multimalnormal_rejects_identity_in_ball():
    with pytest.raises(PreconditionError):
        gt.check_multimalnormal(AB, [W("a")], [W("a"), W("a^-1")],
                                gt.SearchBounds(radius=1, max_n=2,
                                                max_elt_letters=1))


def test_check_nss_intersection_onerelator():
    gens = cs.onerelator_c_generators()
    alpha = gens[0] * gens[1]
    rep = gt.check_nss_intersection(
        AB, gens, alpha,
        gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2))
    assert rep.ok
    assert rep.inconclusive == 0
    assert not rep.capped


def _inner_ball_oracle(gens, alpha, bounds):
    """The C-internal NSS ball check_nss_intersection once compared against:
    doubled radius and max_n, conjugators the products of subgroup generators."""
    big = gt.SearchBounds(radius=2 * bounds.radius, max_n=2 * bounds.max_n,
                          node_cap=bounds.node_cap)
    return gt.nss_ball_free(AB, [alpha], big,
                            conjugators=gt.subgroup_product_ball(gens, big.radius))


_ONEREL = cs.onerelator_c_generators()


@pytest.mark.parametrize("bounds", [dict(radius=1, max_n=2), dict(radius=2, max_n=1)])
@pytest.mark.parametrize("gens, alpha", [
    ([W("a^2"), W("b a b^-1")], W("a^2")),
    (_ONEREL, W("a")),
    (_ONEREL, _ONEREL[0] * _ONEREL[1]),
    ([W("a"), W("b^2")], W("a b^2 a^-1 b^-2")),  # ab(alpha) = 0: every level is tried
    ([W("a b"), W("b a")], W("a b")),
])
def test_nss_decisions_cover_the_inner_ball_oracle(gens, alpha, bounds):
    bounds = gt.SearchBounds(max_elt_letters=2, **bounds)
    aut = SubgroupAutomaton(gens)
    ambient, capped = gt.nss_ball_free(AB, [alpha], bounds)
    inner, inner_capped = _inner_ball_oracle(gens, alpha, bounds)
    assert not capped and not inner_capped
    levels = gt._NssLevels(aut.express(alpha), aut.rank, 2 * bounds.radius,
                           2 * bounds.max_n, bounds.node_cap)
    found = [w for w in ambient if w in inner]
    assert found
    for w in found:
        assert levels.decide(aut.express(w)) is True, str(w)
    rep = gt.check_nss_intersection(AB, gens, alpha, bounds)
    assert rep.trials == sum(aut.contains(w) for w in ambient)
    assert not rep.capped
    for v in rep.violations:
        assert W(v.data["member"]) not in inner


@pytest.mark.parametrize("rank, radius", [(1, 3), (2, 4), (3, 2)])
def test_witness_ball_is_the_cached_subgroup_product_ball(rank, radius):
    ball = gt._witness_ball(rank, radius)
    assert isinstance(ball, tuple)
    letters = [Word([(_witness_gen(i), 1)]) for i in range(rank)]
    assert list(ball) == gt.subgroup_product_ball(letters, radius)
    assert gt._witness_ball(rank, radius) is ball


@pytest.mark.parametrize("gens, alpha", [
    (_ONEREL, _ONEREL[0] * _ONEREL[1]),
    ([W("a"), W("b^2")], W("a b^2 a^-1 b^-2")),  # ab(alpha) = 0: every level is tried
])
def test_nss_report_is_the_same_with_a_cold_or_warm_witness_ball(gens, alpha):
    bounds = gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2)
    gt._witness_ball.cache_clear()
    cold = json.dumps(gt.check_nss_intersection(AB, gens, alpha, bounds).to_json())
    assert gt._witness_ball.cache_info().misses == 1
    warm = json.dumps(gt.check_nss_intersection(AB, gens, alpha, bounds).to_json())
    assert gt._witness_ball.cache_info().hits >= 1
    assert cold == warm


def test_nss_violations_are_exact_non_members():
    # over the basis (a, b a b^-1), alpha = a reads (1, 0); b a b^-1 is a
    # conjugate of a in A but reads (0, 1), and a b a b^-1 reads (1, 1):
    # neither is a positive multiple, so both lie outside NSS_C({a})
    levels = gt._NssLevels(W("g[1]"), 2, 2, 2, 10)
    assert levels.decide(W("g[2]")) is False
    assert levels.decide(W("g[1] g[2]")) is False
    assert levels.decide(W("g[2] g[1] g[2]^-1")) is True  # level 1, exact
    # (1, 0) forces level 1, and g[1]^2 g[2] g[1]^-1 g[2]^-1 is cyclically
    # reduced but no rotation of g[1]
    assert levels.decide(W("g[1]^2 g[2] g[1]^-1 g[2]^-1")) is False
    assert levels.decide(W("g[1] g[2] g[1] g[2]^-1")) is True  # level 2
    assert levels.nodes == 1
    # a forced level beyond the bound is inconclusive, not refuted
    assert levels.decide(W("g[1]^5")) is None


def test_nss_level_search_respects_the_node_cap():
    # ab(alpha) = 0, so every level is tried; alpha^-1 lies in none (a free
    # group has no generalized torsion), and the search stops at the cap
    levels = gt._NssLevels(W("g[1] g[2] g[1]^-1 g[2]^-1"), 2, 2, 4, 30)
    assert levels.decide(W("g[2] g[1] g[2]^-1 g[1]^-1")) is None
    assert levels.nodes == 31
    # once the cap is spent, only level 1 is still decided
    assert levels.decide(W("g[1]^2 g[2] g[1]^-2 g[2]^-1")) is None
    assert levels.decide(W("g[2]^-1 g[1] g[2] g[1]^-1")) is True
    assert levels.nodes == 31


def test_check_nss_intersection_requires_a_free_basis():
    with pytest.raises(PreconditionError, match="free basis"):
        gt.check_nss_intersection(AB, [W("a"), W("a^2")], W("a"), gt.SearchBounds())
    with pytest.raises(PreconditionError, match="free basis"):
        gt.check_nss_intersection(AB, [W("a b"), W("a b")], W("a b"), gt.SearchBounds())


def test_checks_leave_no_reference_cycles():
    # a check's automaton and balls are freed when it returns, not at the
    # next full collection
    bounds = gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2, node_cap=2000)
    C = [W("a^2"), W("b a b^-1")]
    G = gt.bs_amalgam(2)
    gc.collect()
    gc.disable()
    try:
        gt.check_multimalnormal(AB, C, [W("a^2")], bounds)
        assert gc.collect() == 0
        gt.check_rtf(AB, C, bounds)
        assert gc.collect() == 0
        gt.check_nss_intersection(AB, _ONEREL, W("a"), bounds)
        assert gc.collect() == 0
        gt.search_gt(G, G.parse_element("[A: a][B: b][A: a^-1][B: b^-1]"), bounds)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# oracles for the last-slot lookup and the coset reads
# ---------------------------------------------------------------------------

def _scan_first_product(start, units, step, accept, depth, budget):
    """_first_product as it tried every unit in every slot, the last included:
    each product, in depth-first order, costs one node."""
    def products(x, path):
        for i in units(path):
            y, p = step(x, i), path + (i,)
            yield p, y  # the scan stops at an accepted product
            if len(p) < depth:
                yield from products(y, p)

    nodes = 0
    for p, y in products(start, ()):
        nodes += 1
        if nodes > budget:
            break
        if accept(y, len(p)):
            return p, y, nodes
    return None, None, nodes


@given(st.integers(5, 20), st.integers(1, 6), st.integers(0, 19),
       st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 4), min_size=4, max_size=4),
       st.lists(st.frozensets(st.integers(0, 19), max_size=5), min_size=4, max_size=4),
       st.integers(1, 4), st.booleans(), st.frozensets(st.integers(0, 9), max_size=3),
       st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_first_product_matches_the_scan(mod, mul, start, lows, widths, targets, depth,
                                        lookup, decoys, budget):
    # slots whose ranges start above 0 or are empty and depend on the path,
    # an accept that can hold at every depth, and a last slot that looks up
    # the scan's hits plus decoys that fail accept or lie outside the range
    def units(path):
        lo = lows[len(path)] + (path[-1] % 2 if path else 0)
        return range(lo, lo + widths[len(path)])

    def step(x, i):
        return (x * mul + i + 1) % mod

    def accept(x, m):
        return x in targets[m - 1]

    def last(x):
        return sorted({i for i in range(10) if accept(step(x, i), depth)} | decoys)

    start %= mod
    first = _scan_first_product(start, units, step, accept, depth, 10 ** 6)
    budgets = [budget]
    if first[0] is not None:
        # one node short of the hit, on it and one past it
        budgets += [first[2] - 1, first[2], first[2] + 1]
    for b in budgets:
        assert gt._first_product(start, units, step, accept, depth, b,
                                 last if lookup else None) == \
            _scan_first_product(start, units, step, accept, depth, b)


def _rtf_by_scan(gens, bounds):
    """check_rtf as it multiplied out x g h for every h of the last slot."""
    aut = SubgroupAutomaton(gens)
    gball = [w for w in gt.free_ball(AB, bounds.max_elt_letters) if not aut.contains(w)]
    if not gball:
        raise PreconditionError("subgroup contains the whole ball; not proper here")
    hball = gt.subgroup_product_ball(gens, bounds.radius)
    report = gt.SuiteReport("rtf", 0, params={
        "bounds": bounds.to_json(), "g_candidates": len(gball), "h_candidates": len(hball)})
    nodes = 0
    for g in gball:
        report.trials += 1
        path, _, used = _scan_first_product(
            Word(), lambda _p: range(len(hball)), lambda x, i: x * g * hball[i],
            lambda x, _m: x.is_identity, bounds.max_n, bounds.node_cap - nodes)
        nodes += used
        if path is not None:
            report.violations.append(gt.Violation("rtf-violation", {
                "g": str(g), "h": [str(hball[i]) for i in path]}))
            break
        if nodes > bounds.node_cap:
            report.capped = True
            break
    report.params["nodes"] = nodes
    return report


def _same_rtf_reports(gens, bounds):
    try:
        want = _rtf_by_scan(gens, bounds).to_json()
    except PreconditionError:
        with pytest.raises(PreconditionError):
            gt.check_rtf(AB, gens, bounds)
        return None
    assert gt.check_rtf(AB, gens, bounds).to_json() == want
    return want


_small_word = st.lists(st.tuples(st.sampled_from(AB), st.sampled_from([-2, -1, 1, 2, 3])),
                       min_size=1, max_size=3).map(Word)


@given(st.lists(_small_word, min_size=1, max_size=3), st.integers(0, 2), st.integers(1, 4),
       st.integers(1, 2), st.integers(1, 3000))
@settings(max_examples=150, deadline=None)
def test_rtf_last_slot_lookup_matches_the_scan(gens, radius, max_n, letters, cap):
    gens = [w for w in gens if not w.is_identity]
    assume(gens)
    bounds = gt.SearchBounds(radius=radius, max_n=max_n, max_elt_letters=letters,
                             node_cap=cap)
    want = _same_rtf_reports(gens, bounds)
    if want is None or not want["violations"]:
        return
    # a hit after n nodes: caps one before it, on it and one after it
    n = want["params"]["nodes"]
    for c in (n - 1, n, n + 1):
        if c >= 1:
            _same_rtf_reports(gens, replace(bounds, node_cap=c))


@pytest.mark.parametrize("gens, bounds, g, h, nodes", [
    # H = <a^2>, g = a: a 1 a a^-2 = 1 (k = 2)
    (["a^2"], dict(radius=1, max_n=2, max_elt_letters=1), "a", ["1", "a^-2"], 4),
    # H = <ab, a^-2 b^3>, g = a: only k = 5 reaches 1
    (["a b", "a^-2 b^3"], dict(radius=2, max_n=5, max_elt_letters=1), "a",
     ["1", "1", "a^-2 b^2 a^-1", "b^-1 a^-1", "b^-1 a^-1"], 3132),
])
def test_rtf_fixed_violations(gens, bounds, g, h, nodes):
    gens = [W(x) for x in gens]
    bounds = gt.SearchBounds(**bounds)
    rep = _same_rtf_reports(gens, bounds)
    assert rep["violations"] == [{"kind": "rtf-violation", "g": g, "h": h}]
    assert rep["params"]["nodes"] == nodes and not rep["capped"]
    prod = Word()
    for x in h:
        prod = prod * W(g) * W(x)
    assert prod.is_identity
    for cap in (nodes - 1, nodes):
        rep = _same_rtf_reports(gens, replace(bounds, node_cap=cap))
        assert bool(rep["violations"]) == (cap == nodes)


def test_rtf_k5_violation_is_out_of_reach_at_max_n_4():
    bounds = gt.SearchBounds(radius=2, max_n=4, max_elt_letters=1)
    rep = gt.check_rtf(AB, [W("a b"), W("a^-2 b^3")], bounds)
    assert rep.ok and not rep.capped
    # each of the 4 letters g tries all 17 + ... + 17^4 products, the
    # last slot's 17^4 through 17^3 lookups
    assert rep.params["nodes"] == 4 * sum(17 ** k for k in range(1, 5))


def _nss_report_by_contains(gens, alpha, bounds):
    """check_nss_intersection as it read every ambient element through C's
    automaton: the nss_ball_free ball filtered by contains."""
    aut = SubgroupAutomaton(gens)
    ambient, capped = gt.nss_ball_free(AB, [alpha], bounds)
    members = sort_words(w for w in ambient if aut.contains(w))
    report = gt.SuiteReport("nss-intersection", len(members), capped=capped,
                            params={"bounds": bounds.to_json(), "alpha": str(alpha)})
    levels = gt._NssLevels(aut.express(alpha), aut.rank, 2 * bounds.radius,
                           2 * bounds.max_n, bounds.node_cap)
    for w in members:
        verdict = levels.decide(aut.express(w))
        if verdict is False:
            report.violations.append(
                gt.Violation("nss-intersection-violation", {"member": str(w)}))
        elif verdict is None:
            report.inconclusive += 1
    report.capped = report.capped or levels.nodes > bounds.node_cap
    report.params["nodes"] = levels.nodes
    return report


_NSS_BASES = [
    [W("a^2"), W("b a b^-1")],
    _ONEREL,
    [W("a"), W("b^2")],
    [W("a b"), W("b a")],
    [W("a^3"), W("b^2 a b^-2")],
    [W("a b^2"), W("b^-1 a^2")],
]


@given(st.integers(0, len(_NSS_BASES) - 1),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1, 2])),
                min_size=1, max_size=3),
       st.integers(1, 2), st.integers(1, 3),
       st.one_of(st.integers(1, 400), st.just(10 ** 6)),
       st.one_of(st.just(200_000), st.integers(1, 400)))
@example(0, [(0, 1)], 2, 2, 10 ** 6, 50)
@settings(max_examples=120, deadline=None)
def test_nss_coset_reads_match_the_contains_filter(base, picks, radius, max_n, cap,
                                                   max_elements):
    # caps up to 400 stop the ambient ball inside level 1 or 2 (17 and
    # ~290 candidates at radius 2) or stop the level searches; element
    # caps up to 400 can make the last level form every product, and the
    # example's cap of 50 fires inside it
    gens = _NSS_BASES[base]
    alpha = Word()
    for k, e in picks:
        alpha = alpha * gens[k % len(gens)] ** e
    assume(not alpha.is_identity)
    bounds = gt.SearchBounds(radius=radius, max_n=max_n, max_elt_letters=2, node_cap=cap)
    aut = SubgroupAutomaton(gens)
    ball, capped = gt.nss_ball_free(AB, [alpha], bounds, max_elements=max_elements)
    members, got_capped = gt._nss_members(aut, AB, alpha, bounds, max_elements)
    assert set(members) == {w for w in ball if aut.contains(w)}
    assert got_capped == capped
    assert all(e == aut.express(w) for w, e in members.items())
    assert (gt.check_nss_intersection(AB, gens, alpha, bounds).to_json()
            == _nss_report_by_contains(gens, alpha, bounds).to_json())


def test_nss_member_expressions_are_checked_by_evaluation(monkeypatch):
    # a tags-to-word step that loses a tag must stop the check loudly, at
    # the members' own evaluation check, before any level search reads them
    tag_word = SubgroupAutomaton._tag_word
    monkeypatch.setattr(SubgroupAutomaton, "_tag_word",
                        staticmethod(lambda tags: tag_word(tags[:-1])))
    bounds = gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2)
    with pytest.raises(InternalInvariantError, match="NSS member"):
        gt.check_nss_intersection(AB, _ONEREL, W("a b^-2 a b a^-1 b a"), bounds)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _positive_cone_family():
    """G = F(x,y) *_<x=u> F(u,v) with Magnus-order positive cones."""
    from gtkit.amalgam import Amalgam, EdgeIdentification, FreeFactor
    from gtkit.magnus import magnus_positive

    fa = FreeFactor("A", [gen("x", 1), gen("y", 1)])
    fb = FreeFactor("B", [gen("x", 2), gen("y", 2)])
    G = Amalgam(
        [fa, fb],
        EdgeIdentification((gen("e"),), ((W("x[1]"),), (W("x[2]"),))),
    )
    bounds = gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2)
    fams = []
    for f in G.factors:
        pos, neg = [], []
        for w in f.ball(bounds.max_elt_letters):
            # grade by the indexed Magnus order of the factor
            if magnus_positive(w):
                pos.append(w)
            else:
                neg.append(w)
        fams.append([("P", pos), ("Pinv", neg)])
    return G, gt.FamilySpec(fams), bounds


def test_check_family_positive_cone():
    G, fam, bounds = _positive_cone_family()
    rep = gt.check_family(G, fam, bounds)
    assert rep.ok, rep.violations[0].to_json()


def test_check_family_dropped_seed_detected():
    G, fam, bounds = _positive_cone_family()
    crippled = gt.FamilySpec([fam.seeds[0][:1], fam.seeds[1]])
    rep = gt.check_family(G, crippled, bounds)
    assert any(v.kind == "family-coverage" for v in rep.violations)


def test_check_family_onerelator_samples():
    """NSS traces of C-elements match across the two free factors."""
    onerel = cs.build_onerelator_amalgam()
    G = onerel.amalgam
    bounds = gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2)
    fams = [[], []]
    for k, alpha_expr in enumerate((W("e[1]"), W("e[2]"), W("e[1] e[2]"))):
        for fi, f in enumerate(G.factors):
            seed = f.from_edge(alpha_expr)
            fams[fi].append((f"P{k}", [seed]))
    rep = gt.check_family(G, gt.FamilySpec(fams), bounds)
    # condition (2) must find the phi-matching partner for every seed set
    assert not any(v.kind == "family-edge-mismatch" for v in rep.violations)


_BS_FAMILY = [
    [("P", [W("a")]), ("N", [W("a^-1")])],
    [("P", [W("b"), W("c")]), ("N", [W("b^-1"), W("c^-1")]), ("M", [W("b"), W("c^-1")])],
]


def test_check_family_abelian_factor_honours_node_cap():
    G = gt.bs_amalgam(2)
    full = gt.check_family(G, gt.FamilySpec(_BS_FAMILY),
                           gt.SearchBounds(radius=1, max_n=3, max_elt_letters=2))
    assert not full.capped
    # the free factor's closures take at most 5 nodes, the abelian P and M
    # closures 12: only the abelian factor reaches a cap of 6
    small = gt.check_family(G, gt.FamilySpec(_BS_FAMILY),
                            gt.SearchBounds(radius=1, max_n=3, max_elt_letters=2,
                                            node_cap=6))
    assert small.capped
    for _, seeds in _BS_FAMILY[0]:
        _, capped = gt.nss_ball_free([gen("a")], seeds,
                                     gt.SearchBounds(radius=1, max_n=3, node_cap=6))
        assert not capped


def test_check_family_abelian_factor_rejects_identity_seed():
    G = gt.bs_amalgam(2)
    # b c b^-1 c^-1 is a nontrivial free word but the identity of Z^2
    fam = gt.FamilySpec([_BS_FAMILY[0], [("P", [W("b c b^-1 c^-1")])]])
    with pytest.raises(PreconditionError):
        gt.check_family(G, fam, gt.SearchBounds(radius=1, max_n=2))


# ---------------------------------------------------------------------------
# pinned enumerator outputs
#
# Balls, NSS balls, the alternating sampler and the checks built on them were
# recorded before those enumerators shared one implementation each; the
# lists are compared literally and larger outputs through a digest of their
# sorted-key JSON.
# ---------------------------------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def test_pinned_free_balls():
    assert [str(w) for w in gt.free_ball([gen("b"), gen("a")], 2)] == [
        "1", "a", "a^-1", "b", "b^-1", "a^2", "a b", "a b^-1", "a^-2", "a^-1 b",
        "a^-1 b^-1", "b a", "b a^-1", "b^2", "b^-1 a", "b^-1 a^-1", "b^-2"]
    # a factor ball keeps the factor's alphabet order and leaves out 1
    assert [str(w) for w in FreeFactor("X", [gen("b"), gen("a")]).ball(2)] == [
        "b", "b^-1", "a", "a^-1", "b^2", "b a", "b a^-1", "b^-2", "b^-1 a",
        "b^-1 a^-1", "a b", "a b^-1", "a^2", "a^-1 b", "a^-1 b^-1", "a^-2"]
    with_one = [str(w) for w in gt.subgroup_product_ball([W("a b"), W("a^2")], 2)]
    assert with_one == [
        "1", "a b", "a^2", "b^-1 a^-1", "a^-2", "a b a b", "a b a^2", "a b a^-2",
        "a^3 b", "a^4", "a^2 b^-1 a^-1", "b^-1 a", "b^-1 a^-1 b^-1 a^-1",
        "b^-1 a^-3", "a^-1 b", "a^-2 b^-1 a^-1", "a^-4"]


def test_subgroup_product_ball_leaves_out_identity_at_every_radius():
    ball = gt.subgroup_product_ball([W("a")], 2, include_identity=False)
    assert ball == [W("a"), W("a^-1"), W("a^2"), W("a^-2")]
    gens = [W("a b"), W("a^2")]
    assert (gt.subgroup_product_ball(gens, 3, include_identity=False)
            == gt.subgroup_product_ball(gens, 3)[1:])
    for radius in range(5):
        ball = gt.subgroup_product_ball([W("a b"), W("b^-1")], radius,
                                        include_identity=False)
        assert Word() not in ball


@pytest.mark.parametrize("text, bounds, max_elements, size, capped, digest", [
    ("[A: a][B: b]", dict(radius=1, max_n=3, max_elt_letters=1), 200_000,
     75, False, "c576427d471a58b0"),
    ("[A: a]", dict(radius=2, max_n=2, max_elt_letters=1, node_cap=30), 200_000,
     22, True, "bd01e677f2ad2bcb"),
    ("[A: a]", dict(radius=1, max_n=3, max_elt_letters=1), 20,
     20, True, "651211d5e0da456b"),
])
def test_pinned_nss_ball(fp2, text, bounds, max_elements, size, capped, digest):
    ball, got_capped = _amalgam_nss_ball(fp2, [fp2.parse_element(text)],
                                         gt.SearchBounds(**bounds), max_elements)
    assert (len(ball), got_capped) == (size, capped)
    assert _digest([x.serialize() for x in ball]) == digest


def test_pinned_nss_ball_abelian_amalgam():
    G = gt.bs_amalgam(3)
    ball, capped = _amalgam_nss_ball(G, [G.parse_element("[A: a][B: b]")],
                                     gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2))
    assert (len(ball), capped) == (245, False)
    assert _digest([x.serialize() for x in ball]) == "c367fa6dcdbe277a"


@pytest.mark.parametrize("seeds, bounds, max_elements, size, capped, digest", [
    (["a b"], dict(radius=2, max_n=2), 200_000, 148, False, "b590e7525eed953f"),
    (["a^2", "b a b^-1"], dict(radius=1, max_n=3, node_cap=500), 200_000,
     444, True, "adab02b35a087c49"),
    (["a b^-1"], dict(radius=2, max_n=3), 300, 300, True, "c71179d1b878441d"),
])
def test_pinned_nss_ball_free(seeds, bounds, max_elements, size, capped, digest):
    ball, got_capped = gt.nss_ball_free(AB, [W(s) for s in seeds],
                                        gt.SearchBounds(**bounds),
                                        max_elements=max_elements)
    assert (len(ball), got_capped) == (size, capped)
    assert _digest(sorted(str(w) for w in ball)) == digest


_seed_words = st.lists(st.tuples(st.sampled_from(AB), st.integers(-2, 2).filter(bool)),
                      min_size=1, max_size=4).map(Word).filter(lambda w: not w.is_identity)


@given(st.lists(_seed_words, min_size=1, max_size=2), st.integers(0, 2), st.integers(1, 3),
       st.one_of(st.integers(1, 600), st.just(10 ** 6)),
       st.one_of(st.just(200_000), st.integers(1, 300)))
@example([W("a b")], 2, 2, 10 ** 6, 200_000)
@example([W("a^2"), W("b a b^-1")], 1, 3, 500, 200_000)
@example([W("a b^-1")], 2, 3, 10 ** 6, 300)
@settings(max_examples=80, deadline=None)
def test_nss_ball_free_lengths_are_letter_lengths(seeds, radius, max_n, cap, max_elements):
    bounds = gt.SearchBounds(radius=radius, max_n=max_n, node_cap=cap)
    ball, capped = gt.nss_ball_free(AB, seeds, bounds, max_elements=max_elements)
    assert all(n == w.letter_len for w, n in ball.items())
    # the same ball, in the same order, as the closure over plain products
    out, plain_capped = _plain_nss_closure(seeds, gt.free_ball(AB, radius), bounds,
                                           max_elements)
    assert list(ball) == out and capped == plain_capped
    assert sort_words(ball, ball) == sort_words(ball)


# check_multimalnormal on a C(12, 8) at freesearch's bounds: the report, and
# the order of the sorted c ball it searches (498 words of up to thousands
# of letters), each as a digest
_LONG_MULTIMAL = """
import hashlib, json
from gtkit import casestudy as cs, gentorsion as gt
from gtkit.word import gen, sort_words
AB = [gen("a"), gen("b")]
gens = cs.generator_words(cs.sample_exponents(12, 8, 7))
bounds = gt.SearchBounds(radius=1, max_n=3, max_elt_letters=2, node_cap=500)
rep = gt.check_multimalnormal(AB, gens, [gens[0]], bounds)
print(json.dumps(rep.to_json(), sort_keys=True))
ball, _ = gt.nss_ball_free(AB, [gens[0]], bounds, max_elements=20_000,
                           conjugators=gt.subgroup_product_ball(gens, bounds.radius))
order = "\\n".join(str(w) for w in sort_words(ball, ball))
print(len(ball), hashlib.sha256(order.encode()).hexdigest()[:16])
"""


def test_pinned_long_word_multimal_report_under_two_hash_seeds():
    import os
    import subprocess
    import sys

    import gtkit

    src = os.path.dirname(os.path.dirname(gtkit.__file__))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", _LONG_MULTIMAL], env=env,
                                   capture_output=True, check=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    report, ball = outs[0].decode().splitlines()
    assert _digest(json.loads(report)) == "b035376bf55cda0b"
    assert ball == "498 5b14e08d5c793c37"


def _assert_no_bounds_seed(rep):
    # no search reads a seed, so neither the report nor its bounds carry one
    data = rep.to_json()
    assert "seed" not in data
    assert set(data["params"]["bounds"]) == {
        "radius", "max_n", "max_elt_letters", "node_cap"}


def test_pinned_check_reports():
    C = [W("a^2"), W("b a b^-1")]
    rep = gt.check_nss_intersection(AB, C, W("a^2"),
                                    gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2))
    # b a^2 b^-1 = (b a b^-1)^2 reads (0, 2) over C's basis, no positive
    # multiple of a^2's (1, 0), so every member with it is a non-member
    assert (rep.trials, rep.inconclusive, rep.capped) == (6, 0, False)
    assert [v.data["member"] for v in rep.violations] == [
        "b a^2 b^-1", "a^2 b a^2 b^-1", "b a^2 b^-1 a^2", "b a^4 b^-1"]
    assert _digest(rep.to_json()) == "9d7ebb23f65f4688"
    _assert_no_bounds_seed(rep)
    rep = gt.check_rtf(AB, [W("a^2 b^2"), W("a b a^-1 b^-1")],
                       gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2,
                                       node_cap=20_000))
    assert _digest(rep.to_json()) == "19a0ca86d71346be"
    _assert_no_bounds_seed(rep)
    rep = gt.check_multimalnormal(AB, C, [W("a^2")],
                                  gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2,
                                                  node_cap=20_000))
    assert _digest(rep.to_json()) == "9b7f45329cc16b57"
    _assert_no_bounds_seed(rep)


def test_pinned_family_reports():
    G, fam, _ = _positive_cone_family()
    rep = gt.check_family(G, fam, gt.SearchBounds(radius=1, max_n=2, max_elt_letters=2,
                                                  node_cap=50))
    assert _digest(rep.to_json()) == "c69b9e9540c24711"
    _assert_no_bounds_seed(rep)
    rep = gt.check_family(gt.bs_amalgam(2), gt.FamilySpec(_BS_FAMILY),
                          gt.SearchBounds(radius=1, max_n=3, max_elt_letters=2))
    assert _digest(rep.to_json()) == "1cfa5a0409ace3ea"
    _assert_no_bounds_seed(rep)


def test_pinned_tamed_sampler():
    sampler = TamedSampler(gt.bs_amalgam(2), random.Random(3))
    assert _digest([sampler.sample(2).to_json() for _ in range(5)]) == "8398e2c9175d11ff"


def test_pinned_suite_all_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["suite", "all", "--trials", "20", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "f4bec8a9666b19e9"


# ---------------------------------------------------------------------------
# run_suite plumbing
# ---------------------------------------------------------------------------

def test_run_suite_unknown_name():
    with pytest.raises(PreconditionError):
        run_suite("nosuch")


def test_run_suite_zero_trials_empty_report():
    rep = run_suite("magnus_inverse", trials=0, seed=1)
    assert rep.trials == 0 and rep.ok


@pytest.mark.parametrize("trials", [0, 3])
def test_run_suite_rejects_a_parameter_no_suite_reads(trials):
    # at every trial count, and before any trial runs
    with pytest.raises(PreconditionError, match="does not read cap"):
        run_suite("magnus_homomorphism", trials=trials, seed=1, cap=3)
    with pytest.raises(PreconditionError, match="does not read t"):
        run_suite("lemma_small_cancellation", trials=trials, seed=1, s=10, t=2)
    rep = run_suite("lemma_small_cancellation", trials=0, seed=1, s=10, m=8)
    assert rep.params == {"s": 10, "m": 8}


def test_suite_params_are_the_suites_keyword_parameters():
    shaped = {name: p for name, p in SUITE_PARAMS.items() if p}
    assert shaped == {"lemma_small_cancellation": ("s", "m"),
                      "nonlo_witnesses": ("s", "m")}


def test_run_suite_rejects_negative_trials():
    with pytest.raises(PreconditionError, match="non-negative"):
        run_suite("magnus_inverse", trials=-5, seed=1)


def test_run_suite_deterministic():
    a = run_suite("length_subadditivity", trials=50, seed=3).to_json()
    b = run_suite("length_subadditivity", trials=50, seed=3).to_json()
    assert a == b


def _rand_word_letter_by_letter(rng, alphabet, max_letters, nonempty=False):
    """The reference for the suites' sampler: one Word product per letter."""
    n = rng.randint(1 if nonempty else 0, max_letters)
    w = Word()
    length = 0  # w.letter_len, kept up to date letter by letter
    while length < n:
        g = alphabet[rng.randrange(len(alphabet))]
        s = rng.choice((1, -1))
        # the letter cancels into the last syllable or lengthens the word
        length += -1 if w.syls and w.syls[-1][0] == g and w.syls[-1][1] * s < 0 else 1
        w = w * Word([(g, s)])
    return w


@given(st.sampled_from([suites._AB, suites._INDEXED, (cs.v_i(0), cs.v_i(1)), (gen("a"),)]),
       st.integers(1, 14), st.booleans(), st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_rand_word_makes_the_letter_by_letter_draws(alphabet, max_letters, nonempty, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(4):
        w = suites._rand_word(rng, alphabet, max_letters, nonempty)
        want = _rand_word_letter_by_letter(oracle_rng, alphabet, max_letters, nonempty)
        assert w.syls == want.syls
        assert rng.getstate() == oracle_rng.getstate()
    assert suites._rand_word(random.Random(seed), alphabet, 0).is_identity


def test_available_suites_nonempty():
    names = sorted(SUITES)
    assert "prop_length_bound" in names and "lemma_small_cancellation" in names


def test_suite_factor_multimalnormal():
    assert run_suite("factor_multimalnormal", trials=200, seed=63).ok


def test_suite_exponent_condition_a():
    assert run_suite("exponent_condition_a", trials=30, seed=64).ok


def test_suite_snf_row_invariance():
    assert run_suite("snf_row_invariance", trials=200, seed=65).ok


def test_nss_ball_of_seed_meets_subgroup_inside_seed_ball(fp2):
    """Ambient NSS balls of a factor seed meet the factor inside its own ball."""
    bounds = gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2)
    ambient, capped = gt.nss_ball_free(AB, [W("a")], bounds)
    assert not capped
    inner, _ = gt.nss_ball_free(
        AB, [W("a")], gt.SearchBounds(radius=0, max_n=4, max_elt_letters=2),
        conjugators=gt.subgroup_product_ball([W("a")], 4))
    for w in ambient:
        if set(g.name for g in w.generators()) <= {"a"}:
            assert w in inner, str(w)


def test_lfp_trace_json():
    from gtkit import casestudy as cs2

    trace = cs2.lfp_trace([W("a"), W("a^-1 b")])
    data = trace.to_json()
    assert data["partials"] == ["a", "b"]
    assert data["status"]["1:1"]["kind"] == "canceled"
    assert data["cancel_pairs"] == [[[1, 1], [2, 1]]]


def test_series_text_format():
    from gtkit.magnus import mu

    assert str(mu(W("a[0] a[1]"), 2)) == "1 + 1*X_0 + 1*X_1 + 1*X_0X_1"
