import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from gtkit import casestudy as cs
from gtkit.errors import NotMemberError, PreconditionError
from gtkit.stallings import SubgroupAutomaton, lambda_value, rho_value
from gtkit.suites import run_suite
from gtkit.word import Word, gen, parse_word as W

A, B = gen("a"), gen("b")


def c6_generators():
    """C = <a, a^{b^2} (a^b)^-1 a> inside F(a, b)."""
    second = W("b^-2 a b^2") * W("b^-1 a^-1 b") * W("a")
    return [W("a"), second]


def test_cyclic_subgroup_is_one_looped_state():
    aut = SubgroupAutomaton([W("a")])
    assert aut.num_states == 1
    assert aut.contains(W("a^5"))
    assert not aut.contains(W("b"))


def test_c6_rejects_b():
    aut = SubgroupAutomaton(c6_generators())
    assert aut.rank == 2
    assert not aut.contains(W("b"))
    # independent reason: both generators have b-weight zero, b does not
    for g in c6_generators():
        assert g.exponent_sum(B) == 0


def test_contains_examples():
    aut = SubgroupAutomaton(c6_generators())
    assert aut.contains(W("a"))
    a2 = SubgroupAutomaton([W("a^2")])
    assert not a2.contains(W("a"))
    assert a2.contains(W("a^6"))


def test_express_generator_and_product():
    g1, g2 = c6_generators()
    aut = SubgroupAutomaton([g1, g2])
    assert aut.express(W("a")) == W("g[1]")
    assert aut.express(g2 * g1) == W("g[2] g[1]")
    assert SubgroupAutomaton([W("a^2")]).express(W("a^6")) == W("g[1]^3")


def test_express_rejects_nonmembers():
    aut = SubgroupAutomaton(c6_generators())
    with pytest.raises(NotMemberError):
        aut.express(W("b"))
    assert aut.try_express(W("b")) is None


def test_express_handles_dependent_generators():
    aut = SubgroupAutomaton([W("a"), W("a^3"), W("b a b^-1")])
    assert aut.rank == 2
    w = W("a^2") * W("b a^2 b^-1") * W("a^-1")
    expr = aut.express(w)
    assert aut.evaluate(expr) == w


def test_fold_deterministic_in_generator_order():
    g1, g2 = c6_generators()
    assert (SubgroupAutomaton([g1, g2]).canonical_form()
            == SubgroupAutomaton([g2, g1]).canonical_form())


def test_automaton_json_shape():
    aut = SubgroupAutomaton([W("a")])
    data = aut.to_json()
    assert data["states"] == 1 and data["base"] == 0
    assert data["edges"] == [[0, "a", 0]]


# ---------------------------------------------------------------------------
# prefix acceptance
# ---------------------------------------------------------------------------

def test_prefix_acceptable_on_generator_prefixes():
    g1, g2 = c6_generators()
    aut = SubgroupAutomaton([g1, g2])
    assert aut.prefix_acceptable(g2.left(1), 1, "left")
    assert aut.prefix_acceptable(g2.left(3), 3, "left")
    assert aut.prefix_acceptable(g2.right(2), 2, "right")


def test_prefix_acceptable_requires_exact_exponent():
    # L_1 candidates must match a first syllable exactly, not extend it
    aut = SubgroupAutomaton([W("a^3 b a^-1")])
    assert aut.prefix_acceptable(W("a^3"), 1, "left")
    assert not aut.prefix_acceptable(W("a^4"), 1, "left")
    assert not aut.prefix_acceptable(W("a^2 b"), 2, "left")


def test_prefix_acceptable_length_mismatch():
    aut = SubgroupAutomaton([W("a")])
    with pytest.raises(PreconditionError):
        aut.prefix_acceptable(W("a"), 2, "left")


def test_lambda_value_against_small_enumeration():
    gens = [W("a b a"), W("b^2 a^-1")]
    aut = SubgroupAutomaton(gens)
    w = W("a b a b^2")
    lam = lambda_value(aut, w)
    # brute force: members as short products of generators
    from gtkit.gentorsion import subgroup_product_ball

    best = 0
    for c in subgroup_product_ball(gens, 4, include_identity=False):
        for i in range(1, min(c.syllable_len, w.syllable_len) + 1):
            if c.left(i) == w.left(i):
                best = max(best, i)
    assert lam >= best
    assert w.left(lam) in [c.left(lam) for c in
                           subgroup_product_ball(gens, 6, include_identity=False)
                           if c.syllable_len >= lam] or lam == 0


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

def test_suite_fold_confluence():
    assert run_suite("fold_confluence", trials=150, seed=11).ok


def test_suite_subgroup_closure():
    assert run_suite("subgroup_closure", trials=300, seed=12).ok


def test_suite_express_soundness():
    assert run_suite("express_soundness", trials=300, seed=13).ok


def test_suite_oracle_prefix_acceptable():
    rep = run_suite("oracle_prefix_acceptable", trials=300, seed=14)
    assert rep.ok, rep.violations[0].to_json()


def test_express_regression_whole_group_tuple():
    # <a^2, a b^2, b^-1 a> is all of F(a,b); expression must still work
    gens = [W("a^2"), W("a b^2"), W("b^-1 a"), W("a^2")]
    aut = SubgroupAutomaton(gens)
    assert aut.num_states == 1 and aut.rank == 2
    for w in (W("a"), W("b"), W("a b a^-1"), W("b^-5 a^3")):
        assert aut.evaluate(aut.express(w)) == w


def test_express_regression_offset_through_fold():
    # the second generator's petal rides through a fold with the first's
    gens = [W("a^3"), W("a^-1 b a b")]
    aut = SubgroupAutomaton(gens)
    for w in gens + [gens[0] * gens[1], gens[1].inverse() * gens[0]]:
        assert aut.evaluate(aut.express(w)) == w


def test_fold_confluence_regression():
    gens = [W("a b^-1 a^-1"), W("b"), W("b a^-1 b a b")]
    forms = set()
    import itertools

    for perm in itertools.permutations(gens):
        forms.add(SubgroupAutomaton(list(perm)).canonical_form())
    assert len(forms) == 1


def test_express_adversarial_stress():
    import random

    rng = random.Random(99)
    alphabet = [gen("a"), gen("b"), gen("c")]

    def rand_word(maxlen, alpha):
        w = Word()
        n = rng.randint(1, maxlen)
        while w.letter_len < n:
            w = w * Word([(alpha[rng.randrange(len(alpha))], rng.choice((1, -1)))])
        return w

    for trial in range(1500):
        alpha = alphabet[:rng.choice((2, 2, 3))]
        k = rng.randint(1, 5)
        gens = [rand_word(rng.choice((3, 5, 8)), alpha) for _ in range(k)]
        if k > 1 and rng.random() < 0.4:
            gens[rng.randrange(k)] = gens[0] ** rng.choice((1, -1, 2))
        if rng.random() < 0.3:
            gens[rng.randrange(k)] = gens[rng.randrange(k)].conj(rand_word(3, alpha))
        aut = SubgroupAutomaton(gens)
        w = Word()
        for _ in range(rng.randint(0, 6)):
            w = w * (gens[rng.randrange(k)] ** rng.choice((1, -1)))
        assert aut.evaluate(aut.express(w)) == w
        if trial % 10 == 0:
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert SubgroupAutomaton(shuffled).canonical_form() == aut.canonical_form()


# ---------------------------------------------------------------------------
# Pinned fold output: the transition table, the expression tags and the
# expressions read off them must not change when the fold is re-engineered.
# ---------------------------------------------------------------------------

def _digest(obj):
    import hashlib
    import json

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _tag_table(aut):
    return [sorted([str(g), s, str(aut._marks[g, s].get(q, "1"))]
                   for (g, s), _ in aut.successors(q))
            for q in range(aut.num_states)]


def test_pinned_fold_of_a_dependent_generating_set():
    # five generators of a rank-four subgroup: the tags depend on fold history
    gens = [W("a b a^-1"), W("a^2"), W("b^-1 a b"), W("a b^2 a^-1"), W("b a^-2 b")]
    aut = SubgroupAutomaton(gens)
    assert (aut.num_states, aut.rank) == (3, 4)
    assert aut.to_json() == {"states": 3, "base": 0, "edges": [
        [0, "a", 1], [0, "b", 2], [1, "a", 0], [1, "b", 1], [2, "a", 2], [2, "b", 0]]}
    assert aut.canonical_form() == (
        (("a", -1, 1), ("a", 1, 1), ("b", -1, 2), ("b", 1, 2)),
        (("a", -1, 0), ("a", 1, 0), ("b", -1, 1), ("b", 1, 1)),
        (("a", -1, 2), ("a", 1, 2), ("b", -1, 0), ("b", 1, 0)),
    )
    assert _tag_table(aut) == [
        [["a", -1, "g[2]^-1"], ["a", 1, "1"], ["b", -1, "1"], ["b", 1, "g[5] g[3]^2"]],
        [["a", -1, "1"], ["a", 1, "g[2]"], ["b", -1, "g[1]^-1"], ["b", 1, "g[1]"]],
        [["a", -1, "g[3]^-1"], ["a", 1, "g[3]"], ["b", -1, "g[3]^-2 g[5]^-1"], ["b", 1, "1"]],
    ]
    expected = {
        "a^2": "g[2]",
        "a b^2 a^-1": "g[1]^2",
        "a b a^-1 a^2": "g[1] g[2]",
        "b^-1 a b a b^2 a^-1": "g[3] g[1]^2",
        "a^-4": "g[2]^-2",
        "a b^3 a^-1": "g[1]^3",
    }
    for w, expr in expected.items():
        assert str(aut.express(W(w))) == expr


def test_pinned_fold_of_c_10_8():
    from gtkit import casestudy as cs

    c = cs.generator_words(cs.sample_exponents(10, 8, 5))
    aut = SubgroupAutomaton(c)
    assert aut.num_states == 21646
    assert _digest(aut.to_json()) == \
        "e9212d58398276c824689d64381b9c8fd9d663bdb72ec62f1e311bcadfcf5886"
    assert _digest(aut.canonical_form()) == \
        "9f28a3aa64d348f0c7ddd59a0bc19c14f30a08c78e8b766653aa6f3be3ca49e0"
    assert _digest(_tag_table(aut)) == \
        "ee3083f51b4a94e4ed2b8f213fcebf96d01ca25831c2490325832aae5ddeb11a"
    assert str(aut.express(c[0] * c[3].inverse() * c[7] * c[7])) == "g[1] g[4]^-1 g[8]^2"
    assert str(aut.express(c[2].inverse() * c[5] * c[1] * c[2])) == "g[3]^-1 g[6] g[2] g[3]"


def test_reads_of_c_10_8_build_numbering_and_turns_on_first_use():
    # a fold builds the chain tables only: membership, coset and express
    # reads number no state and build no turn table, prefix reads build
    # only the turn table, and the numbering built afterwards is the one
    # test_pinned_fold_of_c_10_8 pins
    c = cs.generator_words(cs.sample_exponents(10, 8, 5))
    aut = SubgroupAutomaton(c)
    member = c[0] * c[3].inverse() * c[7]
    g, e = member.syls[0]
    probes = [member, Word([(g, e - 1)]), Word([(g, e)]), member * W("a"),
              member.left(5), member.left(5) * W("a^-1 b")]
    assert [aut.contains(w) for w in probes] == [True] + [False] * 5
    assert [aut.coset(w)[0] for w in probes] == [0, (1, 13), 3, 1, 7, (5, 201)]
    assert str(aut.try_express(member)) == "g[1] g[4]^-1 g[8]"
    assert aut.try_express(member * W("a")) is None
    assert not {"_numbering", "_turns"} & vars(aut).keys() and aut._view is None
    assert [lambda_value(aut, w) for w in probes] == [58, 0, 1, 59, 5, 4]
    assert "_turns" in vars(aut) and "_numbering" not in vars(aut) and aut._view is None
    assert [aut.trace(w) for w in probes] == [0, 2878, 2877, 1, 3474, None]
    assert "_numbering" in vars(aut) and aut._view is None
    assert _digest(aut.to_json()) == \
        "e9212d58398276c824689d64381b9c8fd9d663bdb72ec62f1e311bcadfcf5886"
    assert _digest(aut.canonical_form()) == \
        "9f28a3aa64d348f0c7ddd59a0bc19c14f30a08c78e8b766653aa6f3be3ca49e0"


def test_trace_stops_at_a_missing_label_mid_syllable():
    # the core graph of <a^3 b> is one cycle of three a-edges and a b-edge
    aut = SubgroupAutomaton([W("a^3 b")])
    q = aut.trace(W("a^3"))
    assert q is not None and q != aut.base and aut.step(q, A, 1) is None
    assert aut.trace(W("a^4")) is None
    assert aut.trace(W("a^3 b a^5")) is None
    assert aut.trace(W("a^2 c")) is None
    assert aut.trace(W("a^3 b")) == 0
    assert not aut.contains(W("a^4 b"))


def test_express_rejects_missing_label_and_non_base_endpoint():
    aut = SubgroupAutomaton([W("a^3 b")])
    assert str(aut.express(W("a^3 b a^3 b"))) == "g[1]^2"
    with pytest.raises(NotMemberError):
        aut.express(W("a^4"))       # no a-edge after a^3
    with pytest.raises(NotMemberError):
        aut.express(W("a^3 c"))     # a label the automaton never uses
    with pytest.raises(NotMemberError):
        aut.express(W("a^3"))       # ends off the base


# ---------------------------------------------------------------------------
# Property check against a reference fold
# ---------------------------------------------------------------------------

def _reference_fold(gens):
    """Textbook Stallings fold with a union-find and no tags: {state: {label: state}}.

    Glue one petal per generator at state 0.  Each state class keeps one
    target per label; an edge that meets an occupied slot queues a merge of
    the two targets.  A merge joins two classes (the smaller id survives, so
    the base stays 0) and moves the dying class's slots to the survivor,
    queueing a merge wherever both hold a label.
    """
    parent = [0]
    out = [{}]  # out[root]: {label: some state of the target class}
    merges = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def put(x, lab, t):
        slot = out[x].setdefault(lab, t)
        if slot != t:
            merges.append((slot, t))

    for w in gens:
        letters = list(w.letters())
        cur = 0
        for pos, (g, s) in enumerate(letters):
            nxt = 0 if pos == len(letters) - 1 else len(parent)
            if nxt:
                parent.append(nxt)
                out.append({})
            put(cur, (g, s), nxt)
            put(nxt, (g, -s), cur)
            cur = nxt
    # every state is still its own class; fold
    while merges:
        x, y = map(find, merges.pop())
        if x == y:
            continue
        keep, gone = min(x, y), max(x, y)
        parent[gone] = keep
        for lab, t in out[gone].items():
            put(keep, lab, t)
        out[gone] = None
    return {x: {lab: find(t) for lab, t in out[x].items()}
            for x in range(len(parent)) if parent[x] == x}


def _reference_canonical_form(graph):
    def key(lab):
        return (lab[0].sort_key(), lab[1])

    order, queue = {0: 0}, [0]
    for s in queue:
        for lab in sorted(graph[s], key=key):
            if graph[s][lab] not in order:
                order[graph[s][lab]] = len(order)
                queue.append(graph[s][lab])
    return tuple(tuple(sorted((str(g), sign, order[t]) for (g, sign), t in graph[s].items()))
                 for s in queue)


def _reference_prefix_acceptable(graph, w):
    q = 0
    for lab in w.letters():
        q = graph[q].get(lab)
        if q is None:
            return False
    last = w.syls[-1][0]
    return q == 0 or any(g != last for g, _s in graph[q])


_letter = st.tuples(st.sampled_from([A, B]), st.sampled_from([1, -1]))
_word = st.lists(_letter, min_size=1, max_size=7).map(
    lambda ls: Word(ls)).filter(lambda w: not w.is_identity)


@given(st.lists(_word, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=5),
       _word)
@settings(max_examples=300, deadline=None)
def test_fold_matches_reference_fold(gens, picks, probe):
    aut = SubgroupAutomaton(gens)
    graph = _reference_fold(gens)
    n_edges = sum(len(d) for d in graph.values()) // 2
    assert aut.num_states == len(graph)
    assert (aut.num_edges, aut.rank) == (n_edges, n_edges - len(graph) + 1)
    assert aut.canonical_form() == _reference_canonical_form(graph)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    assert aut.evaluate(aut.express(member)) == member
    # prefixes of a member are always acceptable; those of the random probe
    # and of the member with a prolonged last syllable mostly are not
    for w in (member, probe, member * Word(member.syls[-1:])):
        for i in range(1, w.syllable_len + 1):
            for p, side in ((w.left(i), "left"), (w.right(i), "right")):
                want = _reference_prefix_acceptable(
                    graph, p if side == "left" else p.inverse())
                assert aut.prefix_acceptable(p, i, side) == want


# ---------------------------------------------------------------------------
# One-pass prefix values against the per-prefix loop
# ---------------------------------------------------------------------------

def _retrace_acceptable(aut, p, side):
    """Acceptance of one prefix by a fresh trace from the base."""
    w = p if side == "left" else p.inverse()
    q = aut.trace(w)
    if q is None:
        return False
    last = w.syls[-1][0]
    return q == aut.base or any(g != last for (g, _s), _t in aut.successors(q))


def _check_prefix_values(aut, w):
    """lambda/rho against a retrace of every prefix, which must be monotone."""
    n = w.syllable_len
    for side, value in (("left", lambda_value(aut, w)), ("right", rho_value(aut, w))):
        prefixes = [w.left(i) if side == "left" else w.right(i) for i in range(1, n + 1)]
        accepted = [_retrace_acceptable(aut, p, side) for p in prefixes]
        assert accepted == [True] * value + [False] * (n - value)
        assert [aut.prefix_acceptable(p, i, side)
                for i, p in enumerate(prefixes, start=1)] == accepted


@given(st.lists(_word, min_size=1, max_size=4), _word,
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=4))
@settings(max_examples=300, deadline=None)
def test_prefix_values_match_per_prefix_loop_over_ab(gens, probe, picks):
    aut = SubgroupAutomaton(gens)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    for w in (probe, member * probe, member):
        _check_prefix_values(aut, w)


@functools.lru_cache(maxsize=None)
def _c_10_8():
    return cs.CSubgroup.from_matrix(cs.sample_exponents(10, 8, 0))


@given(st.lists(st.integers(0, 15), min_size=1, max_size=3),
       st.integers(0, 200), st.sampled_from([-2, -1, 1, 2]),
       st.lists(_letter, max_size=3))
@settings(max_examples=150, deadline=None)
def test_prefix_values_and_simplified_on_perturbed_c_products(picks, pos, delta, tail):
    csub = _c_10_8()
    units = csub.gen_set()
    w = Word()
    for k in picks:
        w = w * units[k]
    assume(not w.is_identity)
    syls = list(w.syls)
    g, e = syls[pos % len(syls)]
    syls[pos % len(syls)] = (g, e + delta)
    w = Word(syls) * Word(tail)
    assume(not w.is_identity)
    s = csub.s
    for v in (w, w.left(s), w.right(s), w.left(s + 1), w.right(s + 1)):
        _check_prefix_values(csub.automaton, v)
        n = v.syllable_len
        left_s = n >= s and _retrace_acceptable(csub.automaton, v.left(s), "left")
        right_s = n >= s and _retrace_acceptable(csub.automaton, v.right(s), "right")
        # the two-clause definition: lambda(v) < s, or v itself is a length-s prefix
        assert csub.is_left_simplified(v) == (csub.lam(v) < s or (n == s and left_s))
        assert csub.is_right_simplified(v) == (csub.rho(v) < s or (n == s and right_s))


# ---------------------------------------------------------------------------
# Chain runs: petals added a syllable run at a time and numbered by slices
# ---------------------------------------------------------------------------

_C = gen("c")
_long_syllable = st.tuples(st.sampled_from([A, B, _C]), st.integers(1, 40),
                           st.sampled_from([1, -1]))
_chain_word = st.lists(_long_syllable, min_size=1, max_size=3).map(
    lambda ls: Word([(g, s * e) for g, e, s in ls]))


@given(_chain_word, st.lists(_chain_word, min_size=1, max_size=3), _chain_word,
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([1, -1, 2])),
                max_size=2),
       st.booleans(),
       st.lists(st.tuples(st.integers(0, 4), st.sampled_from([1, -1])), max_size=4))
@settings(max_examples=300, deadline=None)
def test_chain_heavy_folds_match_reference_fold(u, xs, v, deps, bare, picks):
    # u x_i v share a long prefix and suffix, so later petals fold along
    # earlier chains and their end cascades run back into them; dependent
    # words (products and powers of earlier ones) fold away completely
    gens = [u * x * v for x in xs] + ([xs[0]] if bare else [])
    for i, j, e in deps:
        gens.append(gens[i % len(gens)] * gens[j % len(gens)] ** e)
    gens = [w for w in gens if not w.is_identity]
    assume(gens)
    aut = SubgroupAutomaton(gens)
    graph = _reference_fold(gens)
    n_edges = sum(len(d) for d in graph.values()) // 2
    assert aut.num_states == len(graph)
    assert aut.rank == n_edges - len(graph) + 1
    assert aut.canonical_form() == _reference_canonical_form(graph)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    for w in [member] + gens:
        assert aut.evaluate(aut.express(w)) == w


def _rows_and_marks_digest(aut):
    rows = {f"{g}{s:+d}": row for (g, s), row in aut._rows.items()}
    marks = {f"{g}{s:+d}": sorted([q, str(t)] for q, t in m.items())
             for (g, s), m in aut._marks.items()}
    return _digest([rows, marks])[:16]


@pytest.mark.parametrize("shape, states, digest", [
    ((12, 8), 27838, "d2ec2fc3f3930230"),
    ((10, 10), 37913, "cffcf973fec85c79"),
])
def test_pinned_rows_and_marks_of_large_c_folds(shape, states, digest):
    # the state numbering, successor rows and tag marks of the letter-at-a-time
    # fold; they do not depend on PYTHONHASHSEED
    aut = SubgroupAutomaton(cs.generator_words(cs.sample_exponents(*shape, 0)))
    assert aut.num_states == states
    assert _rows_and_marks_digest(aut) == digest


# ---------------------------------------------------------------------------
# Chain reads against letter-at-a-time reads
# ---------------------------------------------------------------------------

def _letterwise_trace(aut, w):
    """trace, one row step per letter."""
    cur = aut.base
    for g, e in w.syls:
        row = aut._rows.get((g, 1) if e > 0 else (g, -1))
        if row is None:
            return None
        for _ in range(abs(e)):
            cur = row[cur]
            if cur < 0:
                return None
    return cur


def _letterwise_express(aut, w):
    """express, one row step per letter, multiplying the tags out as it goes."""
    cur = aut.base
    out = Word()
    for g, e in w.syls:
        lab = (g, 1) if e > 0 else (g, -1)
        row = aut._rows.get(lab)
        if row is None:
            raise NotMemberError(f"not a member: {w}")
        marks = aut._marks[lab]
        for _ in range(abs(e)):
            nxt = row[cur]
            if nxt < 0:
                raise NotMemberError(f"not a member: {w}")
            if cur in marks:
                out = out * marks[cur]
            cur = nxt
    if cur != aut.base:
        raise NotMemberError(f"not a member: {w}")
    return out


def _letterwise_acceptable_run(aut, w):
    """_acceptable_run, one row step per letter."""
    rows = aut._rows
    cur = aut.base
    for i, (g, e) in enumerate(w.syls):
        row = rows.get((g, 1) if e > 0 else (g, -1))
        if row is None:
            return i
        for _ in range(abs(e)):
            cur = row[cur]
            if cur < 0:
                return i
        if cur != aut.base and not any(
                r[cur] >= 0 for (h, _s), r in rows.items() if h != g):
            return i
    return len(w.syls)


def _first_letters(w, n):
    """The first n letters of w, which may end inside a syllable."""
    syls = []
    for g, e in w.syls:
        if n <= 0:
            break
        k = min(abs(e), n)
        syls.append((g, k if e > 0 else -k))
        n -= k
    return Word(syls)


def _check_reads(aut, w, every=1):
    """trace, contains, express and the prefix runs of w and w^-1 agree with
    the letter-at-a-time reads, and so do those of the prefixes of w that
    stop one letter into, or one letter short of the end of, every
    every-th syllable."""
    probes = [w]
    n = 0
    for i, (_g, e) in enumerate(w.syls):
        if i % every == 0:
            probes += [_first_letters(w, n + 1), _first_letters(w, n + abs(e) - 1)]
        n += abs(e)
    for p in probes:
        q = _letterwise_trace(aut, p)
        assert aut.trace(p) == q
        assert aut.contains(p) == (q == aut.base)
        if q == aut.base:
            assert aut.express(p) == aut.try_express(p) == _letterwise_express(aut, p)
        else:
            with pytest.raises(NotMemberError):
                aut.express(p)
            assert aut.try_express(p) is None
        for v in (p, p.inverse()):
            assert aut._acceptable_run(v) == _letterwise_acceptable_run(aut, v)


def _check_chains(aut):
    """The chains agree with the materialized rows: each chain's letters
    run along one row through states of degree 2, every edge lies on
    exactly one chain, and a tagged edge is a chain of its own."""
    rows, marks = aut._rows, aut._marks
    degree = [0] * aut.num_states
    for row in rows.values():
        for q, t in enumerate(row):
            if t >= 0:
                degree[q] += 1
    taken = 0
    for c, (u, v, k, n, tag) in enumerate(aut._chains):
        g = aut._alphabet[k]
        path = ([aut._vnum[u]] + [aut._state(c, j) for j in range(1, n)]
                + [aut._vnum[v]])
        assert [rows[g, 1][p] for p in path[:-1]] == path[1:]
        assert [rows[g, -1][p] for p in path[1:]] == path[:-1]
        assert all(degree[p] == 2 for p in path[1:-1])
        if tag is None:
            assert not any(p in marks[g, 1] for p in path[:-1])
        else:
            assert n == 1 and marks[g, 1][path[0]] == tag
        taken += n
    assert taken == aut.num_edges == sum(len(row) - row.count(-1) for row in rows.values()) // 2


@given(st.lists(_chain_word, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1, 2])), max_size=4),
       st.integers(0, 200), st.sampled_from([-3, -1, 1, 3]), _chain_word)
@settings(max_examples=150, deadline=None)
def test_chain_reads_match_letterwise_reads(gens, picks, pos, delta, tail):
    gens = [w for w in gens if not w.is_identity]
    assume(gens)
    aut = SubgroupAutomaton(gens)
    _check_chains(aut)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    syls = list(member.syls or gens[0].syls)
    g, e = syls[pos % len(syls)]
    syls[pos % len(syls)] = (g, e + delta)
    # members, a member with one exponent off (it leaves a chain
    # mid-syllable or overshoots one), and a member with a random tail
    for w in gens + [member, Word(syls), member * tail]:
        _check_reads(aut, w)


@given(st.lists(_chain_word, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1, 2])), max_size=3),
       _chain_word, st.integers(0, 3), st.sampled_from([-1, 1, 5]))
@settings(max_examples=200, deadline=None)
def test_contains_is_a_trace_to_the_base(gens, picks, tail, pos, delta):
    # contains reads without numbering states; it must agree with trace
    gens = [w for w in gens if not w.is_identity]
    assume(gens)
    aut = SubgroupAutomaton(gens)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    syls = list(member.syls or gens[0].syls)
    g, e = syls[pos % len(syls)]
    syls[pos % len(syls)] = (g, e + delta)
    for w in (member, Word(syls), member * tail, tail, Word(tail.syls[:-1]) * member):
        assert aut.contains(w) == (aut.trace(w) == aut.base)


@functools.lru_cache(maxsize=None)
def _c_fold(s, m, seed):
    return SubgroupAutomaton(cs.generator_words(cs.sample_exponents(s, m, seed)))


@given(st.sampled_from([(10, 8, 0), (10, 8, 5), (11, 8, 1), (10, 9, 2)]),
       st.lists(st.tuples(st.integers(0, 8), st.sampled_from([1, -1])),
                min_size=1, max_size=3),
       st.integers(0, 10 ** 4), st.integers(-40, 40), _chain_word)
@settings(max_examples=100, deadline=None)
def test_chain_reads_match_letterwise_reads_on_c(shape, picks, cut, delta, tail):
    aut = _c_fold(*shape)
    gens = aut.generators
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    assume(not member.is_identity)
    syls = list(member.syls)
    g, e = syls[cut % len(syls)]
    syls[cut % len(syls)] = (g, e + delta)
    for w in (member, Word(syls), _first_letters(member, cut) * tail):
        _check_reads(aut, w, every=7)


def test_chains_of_c_10_8():
    # a few hundred chains hold all 21,646 states; most of the vertices
    # branch or change generator, the rest end a tagged letter
    aut = _c_fold(10, 8, 0)
    _check_chains(aut)
    assert (aut.num_states, aut.num_edges) == (21646, 21653)
    assert (len(aut._vnum), len(aut._chains)) == (160, 167)


def test_read_down_a_chain_stops_at_the_base_without_an_edge():
    # -1 marks a missing edge and equals q - 1 at q = 0: a long a^-1 run
    # that reaches the base must stop there, since the base has no a^-1 edge
    aut = SubgroupAutomaton([W("a^40 b")])
    assert aut.step(aut.base, A, -1) is None
    assert sorted(n for _u, _v, _k, n, _t in aut._chains) == [1, 40]
    for w, q in ((W("b^-1 a^-40"), aut.base), (W("b^-1 a^-41"), None),
                 (W("b^-1 a^-45 b"), None), (W("a^40 b a"), 1)):
        assert aut.trace(w) == _letterwise_trace(aut, w) == q
        _check_reads(aut, w)
    with pytest.raises(NotMemberError):
        aut.express(W("b^-1 a^-41"))
    assert lambda_value(aut, W("b^-1 a^-41 b")) == 1


@pytest.mark.parametrize("gens, probes", [
    # the petal's first and last letters fold together, and its chain's
    # segments end next to a state numbered before them
    (["a^-10 b^4 a"], ["a^-10 b^4 a", "a^-10 b^4 a^-9 b^4", "a b^-4 a^10"]),
    (["a^-20 b^9 a"], ["a^-20 b^9 a", "a b^-9 a^20", "a^-10"]),
    # the second petal folds along the first and leaves it mid-chain
    (["a^10 b^10 c^10", "a^10 b^5 c"],
     ["a^10 b^10 c^10", "a^10 b^10 c^10 a^10 b^5 c", "c^-10 b^-4", "c^-10 b^-5 c"]),
    (["a^20 b^20", "a^20 c^20"], ["a^20 c^20 b^-20", "c^-20 a^-20", "a^20 c^7"]),
])
def test_segment_ends_stop_where_a_chain_meets_a_state_numbered_apart(gens, probes):
    # a chain's states are numbered in up to three segments of consecutive
    # numbers when the search reaches its ends before it walks it; a
    # segment ends next to a state numbered apart from it, and reads must
    # return the numbers on either side
    aut = SubgroupAutomaton([W(g) for g in gens])
    _check_chains(aut)
    for p in probes:
        _check_reads(aut, W(p))


# ---------------------------------------------------------------------------
# Folds and reads that cost per syllable, not per letter
# ---------------------------------------------------------------------------

def _long_pair(n):
    # <a^n b, b^n a^-3>: the a^-3 folds onto the first a^3, so the core graph
    # is an a^n chain and a b^n chain from the base to the state after a^3,
    # with 2n states and rank 2
    return Word([(A, n), (B, 1)]), Word([(B, n), (A, -3)])


@pytest.mark.parametrize("n", [8, 11, 10 ** 9])
def test_folds_and_reads_scale_with_syllables(n):
    g1, g2 = _long_pair(n)
    aut = SubgroupAutomaton([g1, g2])
    assert (aut.num_states, aut.num_edges, aut.rank) == (2 * n, 2 * n + 1, 2)
    # depth-first numbers: the base's a, b^-1 and b successors are 1, 2, 3;
    # the b chain follows (4..n + 1), then the state after a^3 (n + 2), then
    # the a chain from a^2 on (a^4 is n + 4)
    traces = {
        Word([(A, 5)]): n + 5, Word([(A, 4)]): n + 4, Word([(B, n)]): n + 2,
        Word([(B, n - 1)]): n + 1, W("a^3 b^-2"): n, W("b^-1"): 2,
        Word([(B, -1), (A, 1 - n)]): 1, Word([(A, n)]): 2,
        Word([(A, n + 1)]): None, W("a^-1"): None, g1 * g2: 0,
    }
    for w, q in traces.items():
        assert aut.trace(w) == q
    members = [g1, g2, g1 * g2, g2.inverse() * g1 ** 2, g1 * g2.inverse() * g1]
    assert str(aut.express(members[-1])) == "g[1] g[2]^-1 g[1]"
    near = [Word([(A, n + 1), (B, 1)]), Word([(A, n - 1), (B, 1)]), g1 * W("a"),
            Word([(A, n), (B, n + 2), (A, -3)]), Word([(B, n), (A, -4)])]
    for w in members:
        assert aut.contains(w)
        assert aut.evaluate(aut.express(w)) == w
    for w in near:
        assert not aut.contains(w) and aut.try_express(w) is None
    w = g1 * g2  # a^n b^(n+1) a^-3
    assert (lambda_value(aut, w), rho_value(aut, w)) == (3, 3)
    assert [lambda_value(aut, v) for v in near] == [0, 0, 2, 1, 1]
    assert [rho_value(aut, v) for v in near] == [1, 1, 0, 1, 0]
    if n < 100:
        for v in members + near:
            _check_reads(aut, v)
    else:
        assert aut._view is None  # no letter-level row was built


def test_loop_reads_go_round_at_once():
    aut = SubgroupAutomaton([W("a"), Word([(B, 10 ** 9)])])
    w = Word([(A, 10 ** 12), (B, 10 ** 9), (A, -5)])
    assert aut.num_states == 10 ** 9 and aut.contains(w)
    assert str(aut.express(w)) == f"g[1]^{10 ** 12} g[2] g[1]^-5"
    # the base numbers the b loop's last state 1 and its first 2, and the
    # walk from the first numbers the rest in order
    assert aut.trace(Word([(B, 2 * 10 ** 9 + 7)])) == 8
    assert aut.trace(Word([(B, -1)])) == 1
    assert aut._view is None


@pytest.mark.parametrize("shape", [(10, 8, 0), (12, 8, 1), (10, 10, 2)])
def test_state_counts_and_views_of_c(shape):
    # perfbench counts fold states as len(aut.delta), which must not build
    # the letter rows; the rows, once built, give the same counts
    aut = SubgroupAutomaton(cs.generator_words(cs.sample_exponents(*shape)))
    assert len(aut.delta) == aut.num_states and aut._view is None
    rows = aut._rows
    edges = sum(len(row) - row.count(-1) for row in rows.values()) // 2
    assert all(len(row) == aut.num_states for row in rows.values())
    assert (aut.num_edges, aut.rank) == (edges, edges - aut.num_states + 1)
    for q in range(0, aut.num_states, 997):
        assert aut.delta[q] == dict(aut.successors(q))
    _check_chains(aut)


# ---------------------------------------------------------------------------
# Coset reads: where a read leaves the graph, and what is left of the word
# ---------------------------------------------------------------------------

def _letterwise_coset(aut, w):
    """coset, one row step per letter, with the point as a state number."""
    cur = aut.base
    letters = list(w.letters())
    for i, (g, s) in enumerate(letters):
        row = aut._rows.get((g, s))
        if row is None or row[cur] < 0:
            return cur, Word(letters[i:]).syls
        cur = row[cur]
    return cur, ()


def _state_of(aut, point):
    return aut._vnum[point] if type(point) is int else aut._state(*point)


def _check_cosets(aut, x, y, letterwise=True):
    """The coset reads of x and y^-1 decide x y, and read as the letterwise
    read does."""
    cx, cy = aut.coset(x), aut.coset(y.inverse())
    assert aut.contains(x * y) == (cx == cy)
    for w, (point, rest) in ((x, cx), (y.inverse(), cy)):
        assert aut.contains(w) == ((point, rest) == (aut.base, ()))
        assert type(rest) is tuple and Word(rest).syls == rest
        if letterwise:
            assert (_state_of(aut, point), rest) == _letterwise_coset(aut, w)


@given(st.lists(_chain_word, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1, 2])), max_size=3),
       _chain_word, st.integers(0, 3), st.sampled_from([0, -1, 1, 5]), _chain_word)
@settings(max_examples=200, deadline=None)
def test_coset_reads_decide_products(gens, picks, tail, cut, delta, other):
    # x = member * tail and y = tail^-1 * member lie in one coset pair;
    # changing one exponent of y, or cutting tail short, breaks the pair
    # mid-chain, at a vertex or not at all
    gens = [w for w in gens if not w.is_identity]
    assume(gens)
    aut = SubgroupAutomaton(gens)
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    x = member * tail
    y = Word(tail.inverse().syls[cut:]) * member
    syls = list(y.syls)
    if syls and delta:
        g, e = syls[cut % len(syls)]
        syls[cut % len(syls)] = (g, e + delta)
    for u, v in ((x, y), (x, Word(syls)), (x, other), (other, x.inverse()), (Word(), x)):
        _check_cosets(aut, u, v)


@given(st.sampled_from(["onerelator", (10, 8, 0)]),
       st.lists(st.tuples(st.integers(0, 8), st.sampled_from([1, -1])), max_size=3),
       st.lists(_letter, max_size=4), st.integers(0, 4), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_coset_reads_decide_products_in_c(shape, picks, tail, cut, delta):
    aut = (SubgroupAutomaton(cs.onerelator_c_generators()) if shape == "onerelator"
           else _c_fold(*shape))
    gens = aut.generators
    member = Word()
    for k, e in picks:
        member = member * gens[k % len(gens)] ** e
    tail = Word(tail)
    x = member * tail
    y = tail.inverse() * member
    syls = list(y.syls) or [(A, 1)]
    g, e = syls[cut % len(syls)]
    syls[cut % len(syls)] = (g, e + delta)
    for v in (y, Word(syls), Word(tail.inverse().syls[cut:])):
        # C(10, 8)'s exponents run to thousands of letters; compare with the
        # letterwise read on the one-relator C only
        _check_cosets(aut, x, v, letterwise=shape == "onerelator")


def test_coset_reads_around_loops_chains_and_large_exponents():
    # a^5 is a loop at the base through one interior chain state per letter
    loop = SubgroupAutomaton([W("a^5")])
    point, rest = loop.coset(W("a^7"))
    assert type(point) is tuple and rest == ()
    assert loop.coset(W("a^-3")) == loop.coset(W("a^2")) == (point, ())
    assert loop.coset(W("a^7 b a")) == (point, ((B, 1), (A, 1)))
    assert loop.coset(W("a^10")) == (loop.base, ())
    assert loop.contains(W("a^7") * W("a^-2"))
    # a^3 b: a read of a^5 stops at the end of the a-chain with a^2 left,
    # and one of a^2 b stops inside the chain with b left
    mid = SubgroupAutomaton([W("a^3 b")])
    end, rest = mid.coset(W("a^5"))
    assert type(end) is int and end != mid.base and rest == ((A, 2),)
    point, rest = mid.coset(W("a^2 b"))
    assert type(point) is tuple and rest == ((B, 1),)
    assert mid.coset(W("a^2 b")) == mid.coset(W("a^3 b a^2 b"))
    assert mid.coset(W("a^2 b")) != mid.coset(W("b^-1 a^3 b a^2 b"))
    big = SubgroupAutomaton([W("a"), Word([(B, 10 ** 9)])])
    x = Word([(A, 10 ** 12), (B, 10 ** 9 + 3), (A, 2)])
    assert big.coset(x) == big.coset(W("b^3 a^2"))
    assert big.contains(x * W("a^-2 b^-3"))
    assert big.coset(Word([(B, -(10 ** 12) - 1)])) == big.coset(W("b^-1"))
