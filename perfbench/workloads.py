"""The three benchmark workloads: their inputs, op mixes and answer checks.

Each workload is a closed loop: one client in one single-threaded process
issues the next op only after the previous one returned.  An op is one call
into a public gtkit function on inputs generated from the seed, followed by
a check of its answer against ground truth; an op fails when it raises or
its check does not hold.

Ops come in blocks.  Every block of a workload has the same number of ops
of each kind (the mix below); the seed and the block index only choose the
inputs and the order.  A run executes whole blocks, so every run measures
the same composition whatever the seed.  Block k draws its inputs from its
own `random.Random`, seeded with the string "<workload>:<seed>:<k>".

The checks test the mathematics, not byte-equal output, so a later change
that decides exactly what is now searched within bounds still passes them.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

from gtkit import amalgam as am
from gtkit import casestudy as cs
from gtkit import cli
from gtkit import gentorsion as gt
from gtkit import suites
from gtkit import tamed
from gtkit.word import Word, gen, parse_word

A, B = gen("a"), gen("b")
AB = (A, B)


class Op:
    """One timed call: `run()` performs it and returns whether the answer is right."""

    __slots__ = ("kind", "desc", "run")

    def __init__(self, kind: str, desc: str, run):
        self.kind = kind
        self.desc = desc
        self.run = run


class Workload:
    name = ""
    mix: dict = {}       # op kind -> ops of that kind per block
    trace_blocks = 1     # whole blocks the traced run executes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def block(self, k: int) -> list:
        ops = self._block(random.Random(f"{self.name}:{self.seed}:{k}"))
        if Counter(op.kind for op in ops) != Counter(self.mix):
            raise AssertionError(f"{self.name} block {k} breaks the declared mix")
        return ops

    def _block(self, rng: random.Random) -> list:
        raise NotImplementedError


def _random_word(rng, letters: int) -> Word:
    """A reduced word over a, b with exactly `letters` letters."""
    w = Word()
    while w.letter_len < letters:
        w = w * Word([(AB[rng.randrange(2)], rng.choice((1, -1)))])
    return w


# ---------------------------------------------------------------------------
# freesearch
# ---------------------------------------------------------------------------

class FreeSearch(Workload):
    """Bounded freeness checks in F(a, b) through `gentorsion`, in the ac09 shape.

    Why: the word layer (products, hashing, sort_key) and the gentorsion
    ball and search loops carry nearly all of its time, with `stallings`
    second.  It is where a cheaper Word hash, exact or breadth-first
    decisions, and a per-call automaton memo show.  It calls nothing in
    `amalgam`, `tamed`, `magnus` or `casestudy` (all its inputs are made in
    set-up or between blocks), so a change confined to those layers must
    leave it unchanged.

    Mix per block of 25 ops:
      nss       20 (80%)    check_nss_intersection on the one-relator edge
                            subgroup C = <a, b^-2 a b a^-1 b a>, alpha a
                            product of 1-3 generators^+-1, radius 2, max_n 2,
                            2 element letters, node cap NSS_CAP.
      rtf        4 (16%)    check_rtf on C(s, m, seed'), one fresh subgroup
                            for each entry of SHAPES: C(10, 8), two C(12, 8)
                            and C(10, 10).  Each call refolds a
                            21,646-37,913-state automaton, then searches
                            under HEAVY_CAP nodes.
      multimal   1 (4%)     check_multimalnormal on the first C(12, 8): the
                            same generator tuple is folded twice in a block,
                            as repeated checks of one subgroup do.
    The rtf/multimal ops are the slowest fifth, and each costs about one
    fold, so their cost steps up with the shape.  latency_p90_ms is the
    middle of them, which is the middle of the three 27,838-state C(12, 8)
    ops, away from both steps; it follows the folds.  latency_p50_ms sits
    in the middle of the NSS ops and follows their balls.  (A tenth of
    heavy ops would put p90 on the step between the two kinds, where it
    jumps tenfold with the seed.)
    """

    name = "freesearch"
    mix = {"nss": 20, "rtf": 4, "multimal": 1}
    # (s, m, whether the block also checks multimalnormality on it)
    SHAPES = ((10, 8, False), (12, 8, True), (12, 8, False), (10, 10, False))
    NSS_CAP = 4000
    HEAVY_CAP = 500
    trace_blocks = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.c_gens = cs.onerelator_c_generators()
        self.nss_bounds = gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2,
                                          node_cap=self.NSS_CAP)
        self.heavy_bounds = gt.SearchBounds(radius=1, max_n=3, max_elt_letters=2,
                                            node_cap=self.HEAVY_CAP)

    def _block(self, rng):
        ops = []
        for _ in range(self.mix["nss"]):
            alpha = Word()
            for _ in range(rng.randint(1, 3)):
                alpha = alpha * (self.c_gens[rng.randrange(2)] ** rng.choice((1, -1)))
            if alpha.is_identity:
                alpha = self.c_gens[0]
            ops.append(Op("nss", f"nss {alpha}", self._nss(alpha)))
        for s, m, multimal in self.SHAPES:
            eseed = rng.randrange(1 << 30)
            gens = cs.generator_words(cs.sample_exponents(s, m, eseed))
            ops.append(Op("rtf", f"rtf C({s},{m},{eseed})", self._rtf(gens)))
            if multimal:
                ops.append(Op("multimal", f"multimal C({s},{m},{eseed})",
                              self._multimal(gens)))
        rng.shuffle(ops)
        return ops

    def _nss(self, alpha):
        def run():
            rep = gt.check_nss_intersection(AB, self.c_gens, alpha, self.nss_bounds)
            return not rep.violations
        return run

    def _rtf(self, gens):
        def run():
            # no RTF violation exists for these C (the paper's lemma; ac09)
            return not gt.check_rtf(AB, gens, self.heavy_bounds).violations
        return run

    def _multimal(self, gens):
        def run():
            rep = gt.check_multimalnormal(AB, gens, [gens[0]], self.heavy_bounds)
            return not rep.violations
        return run


# ---------------------------------------------------------------------------
# normalform
# ---------------------------------------------------------------------------

class NormalForm(Workload):
    """Amalgam arithmetic and certificates in F2 = <a> * <b> and Z *_{2Z} Z.

    Why: `amalgam` normal forms and products with the `tamed` machinery on
    top carry most of its time.  It is where junction-local products and
    powers by repeated squaring show, and `freesearch` bypasses both.  It
    makes no call into `magnus`.

    Mix per block of 40 ops:
      tamed          16 (40%)  TamedSampler.sample of a tamed TAMED_N-tuple +
                               delta_factorize, half on each group; the
                               linear length bound
                               l(T_n) >= l(g_1) + n + l(g_n) is checked.
                               A fixed n keeps these ops alike, so the
                               median op, which falls among them, repeats
                               across seeds.
      normalize       4 (10%)  normalize of a raw sequence: in F2 against the
                               free-word product, in Z *_{2Z} Z against an
                               edge-shuffled copy and the Z-valued weight.
      cancellation    3 (7.5%) cancellation_number against the brute-force
                               definition.
      end_preserving  3 (7.5%) end_preserving in F2 against free words.
      search_gt       2 (5%)   search_gt for the BS(m) commutator, m = 2, 3
                               (8,431 nodes at m = 3); the certificate must
                               be found and verify.
      verify          4 (10%)  verify_gt_certificate on bs_commutator_witness
                               (m in 2..5) and bergman_witness certificates.
      pow             8 (20%)  powers x**n and x**-n of cyclically reduced x,
                               checked by x**n * x**-n = 1 and
                               l(x**n) = n l(x): six 4-component elements of
                               Z *_{2Z} Z at n = ELEMENT_POW and two
                               4-syllable words at n = WORD_POW.
    The element powers are the slowest ops after the m = 3 search and
    cost alike, so latency_p90_ms falls inside them and follows the
    power algorithm (quadratic in n today).
    """

    name = "normalform"
    mix = {"tamed": 16, "normalize": 4, "cancellation": 3, "end_preserving": 3,
           "search_gt": 2, "verify": 4, "pow": 8}
    TAMED_N = 2
    WORD_POW = 200
    ELEMENT_POW = 60
    trace_blocks = 2

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.f2 = am.free_as_free_product(["a", "b"])
        self.z2z = am.Amalgam(
            [am.FreeFactor("A", [A]), am.FreeFactor("B", [B])],
            am.EdgeIdentification((gen("e"),), ((parse_word("a^2"),), (parse_word("b^2"),))),
        )
        sampler_rng = random.Random(f"{self.name}:{seed}:sampler")
        self.samplers = {"F2": tamed.TamedSampler(self.f2, sampler_rng),
                         "Z2Z": tamed.TamedSampler(self.z2z, sampler_rng)}
        self.balls = {name: [[x for x in f.ball(3) if not f.in_edge(x)] for f in G.factors]
                      for name, G in (("F2", self.f2), ("Z2Z", self.z2z))}
        self.bs = {}
        for m in (2, 3):
            G = gt.bs_amalgam(m)
            self.bs[m] = (G, G.parse_element("[A: a][B: b][A: a^-1][B: b^-1]"),
                          gt.SearchBounds(radius=2, max_n=m, max_elt_letters=2))

    def _group(self, name):
        return self.f2 if name == "F2" else self.z2z

    def _raw(self, rng, name, n):
        """n raw (factor, word) entries; factors may repeat, entries may cancel."""
        balls = self.balls[name]
        out = []
        for _ in range(n):
            fi = rng.randrange(2)
            out.append((fi, balls[fi][rng.randrange(len(balls[fi]))]))
        return out

    def _cyclic(self, rng, length):
        """A cyclically reduced element of Z *_{2Z} Z with `length` (even) components."""
        balls = self.balls["Z2Z"]
        comps = [(i % 2, balls[i % 2][rng.randrange(len(balls[i % 2]))])
                 for i in range(length)]
        return am.normalize(self.z2z, comps)

    def _block(self, rng):
        ops = []
        for i in range(self.mix["tamed"]):
            name = ("F2", "Z2Z")[i % 2]
            ops.append(Op("tamed", f"tamed {name}", self._tamed(name)))
        for i in range(self.mix["normalize"]):
            name = ("F2", "Z2Z")[i % 2]
            raw = self._raw(rng, name, rng.randint(4, 10))
            cut = rng.randrange(len(raw))
            ops.append(Op("normalize", f"normalize {name} {raw} cut {cut}",
                          self._normalize(name, raw, cut)))
        for i in range(self.mix["cancellation"]):
            name = ("F2", "Z2Z")[i % 2]
            G = self._group(name)
            g = am.normalize(G, self._raw(rng, name, rng.randint(2, 6)))
            h = am.normalize(G, self._raw(rng, name, rng.randint(2, 6)))
            ops.append(Op("cancellation", f"cancellation {name} {g} | {h}",
                          self._cancellation(g, h)))
        for _ in range(self.mix["end_preserving"]):
            words = [_random_word(rng, rng.randint(1, 6)) for _ in range(3)]
            side = rng.choice(("left", "right", "both"))
            ops.append(Op("end_preserving", f"end_preserving {words} {side}",
                          self._end_preserving(words, side)))
        for m in (2, 3):
            ops.append(Op("search_gt", f"search_gt BS({m})", self._search_gt(m)))
        for i in range(self.mix["verify"]):
            if i % 2 == 0:
                m = rng.randint(2, 5)
                ops.append(Op("verify", f"verify bs_commutator_witness({m})",
                              self._verify_bs(m)))
            else:
                kk = rng.choice((2, 3))
                js = [rng.randint(-2, 2) for _ in range(kk)]
                ops.append(Op("verify", f"verify bergman a^{kk} {js}",
                              self._verify_bergman(kk, js)))
        for i in range(self.mix["pow"]):
            if i < 2:
                x = Word([(AB[j % 2], rng.choice((1, 2, -1, -2))) for j in range(4)])
                n = self.WORD_POW
                ops.append(Op("pow", f"pow ({x})^{n}", self._pow(x, n, x.letter_len)))
            else:
                x = self._cyclic(rng, 4)
                n = self.ELEMENT_POW
                ops.append(Op("pow", f"pow ({x})^{n}", self._pow(x, n, x.length)))
        rng.shuffle(ops)
        return ops

    def _tamed(self, name):
        sampler = self.samplers[name]

        def run():
            v = sampler.sample(self.TAMED_N)
            fact = tamed.delta_factorize(v)
            return fact.partials[-1].length >= v.g(1).length + v.n + v.g(v.n).length
        return run

    def _normalize(self, name, raw, cut):
        G = self._group(name)

        def run():
            x = am.normalize(G, raw)
            alternating = all(a[0] != b[0] for a, b in zip(x.comps, x.comps[1:]))
            if name == "F2":
                # F2 has no edge: the normal form spells the reduced product
                want = Word()
                for _, w in raw:
                    want = want * w
                got = Word()
                for _, w in x.comps:
                    got = got * w
                return alternating and x.head.is_identity and got == want \
                    and x.length == len(want.syls)
            # a^2 = b^2 is central: moving it across a cut keeps the element,
            # and a, b -> 1 (edge generator -> 2) is a homomorphism to Z
            ew = Word([(G.edge.alphabet[0], 1)])
            fi, w = raw[cut]
            f = G.factors[fi]
            shuffled = list(raw)
            shuffled[cut] = (fi, f.mul(w, f.from_edge(ew)))
            shuffled.insert(cut + 1, (am.EDGE_TAG, ew.inverse()))
            y = am.normalize(G, shuffled)
            weight = sum(e for _, w in raw for _, e in w.syls)
            got = 2 * sum(e for _, e in x.head.syls) + \
                sum(e for _, w in x.comps for _, e in w.syls)
            return alternating and x.equals(y) and got == weight
        return run

    def _cancellation(self, g, h):
        G = g.amalgam

        def run():
            got = am.cancellation_number(g, h)
            want = 0
            for k in range(min(g.length, h.length) + 1):
                suffix = am.AmalgamElement(G, Word(), g.comps[g.length - k:])
                prefix = am.AmalgamElement(G, h.head, h.comps[:k])
                if (suffix * prefix).length == 0:
                    want = k
            return got == want
        return run

    def _end_preserving(self, words, side):
        G = self.f2
        elems = [am.element_from_free_word(G, w) for w in words]

        def run():
            got = am.end_preserving(elems, side)
            prod = words[0] * words[1] * words[2]
            nontrivial = [w for w in words if not w.is_identity]
            if prod.is_identity:
                want = False
            else:
                left = prod.syls[0][0] == nontrivial[0].syls[0][0]
                right = prod.syls[-1][0] == nontrivial[-1].syls[-1][0]
                want = {"left": left, "right": right, "both": left and right}[side]
            return got == want
        return run

    def _search_gt(self, m):
        G, g, bounds = self.bs[m]

        def run():
            res = gt.search_gt(G, g, bounds)
            return res.found and res.certificate.base == g \
                and gt.verify_gt_certificate(G, res.certificate)
        return run

    @staticmethod
    def _verify_bs(m):
        def run():
            G, cert = gt.bs_commutator_witness(m)
            return len(cert.conjugators) == m and gt.verify_gt_certificate(G, cert)
        return run

    @staticmethod
    def _verify_bergman(k, js):
        a = parse_word("a")
        cs_words = [a ** (k * j) for j in js]

        def run():
            G0, cert = gt.bergman_witness(["a"], [a ** k], a, cs_words)
            return gt.verify_gt_certificate(G0, cert)
        return run

    @staticmethod
    def _pow(x, n, unit_len):
        def run():
            y = x ** n
            z = x ** (-n)
            length = y.letter_len if isinstance(y, Word) else y.length
            return length == n * unit_len and (y * z).is_identity
        return run


# ---------------------------------------------------------------------------
# nonlo
# ---------------------------------------------------------------------------

def expected_states(e) -> int:
    """State count of the folded C(s, m) automaton, from the exponents alone.

    The generators all start with a positive a-power and end in a b-power,
    with pairwise distinct magnitudes, so folding the bouquet only merges
    the shared initial a-runs and the shared final b-runs of each sign.
    """
    total = 1
    for i in range(e.m):
        total += sum(abs(x) for x in e.a_exp[i]) + sum(abs(x) for x in e.b_exp[i]) - 1
    firsts = [e.a_exp[i][0] for i in range(e.m)]
    if min(firsts) <= 0:
        raise ValueError("expected positive leading a-exponents")
    total -= sum(firsts) - max(firsts)
    lasts = [e.b_exp[i][-1] for i in range(e.m)]
    for positive in (True, False):
        run = [abs(x) for x in lasts if (x > 0) == positive]
        if run:
            total -= sum(run) - max(run)
    return total


class NonLo(Workload):
    """The non-left-orderable amalgam glued along the small-cancellation C.

    Why: the only workload where `stallings` builds large automata rather
    than reading them, where prefix and trace dominate the C-side queries,
    and where `magnus` does its work.  It uses `word` on few-syllable,
    many-letter words, unlike `freesearch`.

    Mix per block of 255 ops (the build runs first, the CLI build before
    the CLI search; the rest is shuffled around them):
      build          1 (0.4%)  build_nonlo on C(10, 8, seed') and a fold of
                               its C automaton, whose state count must match
                               expected_states; later ops use this group.
      cli            2 (0.8%)  `gtkit build nonlo --s 11 --m 8` (the JSON must
                               round-trip the exponents), then `gtkit search
                               rtf` on that file, which refolds through
                               GroupFile (exit 0 or 2, no violations).
      witnesses     36 (14.1%) verify_nonlo_witnesses: all eight hold.
      c_simplify    24 (9.4%)  c_simplify(u1 x u2) for units u1, u2 and a
                               short x outside C: c1 alpha' c2 = alpha.
      standard_form 90 (35.3%) standard_form(c, g) for c a product of two
                               units: lam mu rho = g^-1 c g.
      prefix        36 (14.1%) CSubgroup.prefix of the k-th component of a
                               unit u is L_{k-1}(u).
      lam           18 (7.1%)  CSubgroup.lam(L_j(u)) = j, j <= s.
      rho           18 (7.1%)  CSubgroup.rho(R_j(u)) = j, j <= s.
      magnus        30 (11.8%) the registered magnus suites (c_leading_vars,
                               homomorphism, inverse, leading_conjugation,
                               ideal_transfer, six each) at MAGNUS_TRIALS
                               trials: ok.
    Sorted by cost the kinds form steps, and the mix puts each percentile
    in the middle of a step, away from the jumps: below 2.5 ms lie the 33%
    of ops that are prefix, lam, rho and the inverse and
    leading-conjugation suites; standard_form (2.6-4 ms, the next 35%)
    holds latency_p50_ms; then come the other suites (3-24 ms), c_simplify
    (20-36 ms), the witness checks (40-57 ms), which hold latency_p90_ms
    (amalgam normal forms over C's automaton), and the builds and CLI calls
    (3-5 s), whose folds move ops_per_s.
    C(14, 12) (114,047 states, about 10 s per build here) is left out: one
    such build would take half a run.
    """

    name = "nonlo"
    mix = {"build": 1, "cli": 2, "witnesses": 36, "c_simplify": 24,
           "standard_form": 90, "prefix": 36, "lam": 18, "rho": 18, "magnus": 30}
    MAGNUS_SUITES = ("magnus_c_leading_vars", "magnus_homomorphism", "magnus_inverse",
                     "magnus_leading_conjugation", "magnus_ideal_transfer")
    MAGNUS_TRIALS = 10
    CLI_SHAPE = (11, 8)
    trace_blocks = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.group_file = os.path.join(workdir, "nonlo.json")
        self.report_file = os.path.join(workdir, "rtf.json")

    def _block(self, rng):
        e = cs.sample_exponents(10, 8, rng.randrange(1 << 30))
        gens = cs.generator_words(e)
        units = gens + [u.inverse() for u in gens]
        s = e.s
        group = {}
        build = Op("build", f"build C(10,8) {e.a_exp[0]}", self._build(e, group))
        cseed = rng.randrange(1 << 30)
        ops = []
        for _ in range(self.mix["witnesses"]):
            ops.append(Op("witnesses", "witnesses", self._witnesses(group)))
        for _ in range(self.mix["c_simplify"]):
            u1, u2 = rng.choice(units), rng.choice(units)
            x = _random_word(rng, rng.randint(1, 3))
            ops.append(Op("c_simplify", f"c_simplify {x}",
                          self._c_simplify(group, u1 * x * u2)))
        for _ in range(self.mix["standard_form"]):
            # always two units: with one unit the op takes half as long, and
            # a mix of both put the median in the gap between the two costs
            c = rng.choice(units)
            c = c * rng.choice([u for u in units if u != c.inverse()])
            g = _random_word(rng, rng.randint(1, 3))
            ops.append(Op("standard_form", f"standard_form {g}",
                          self._standard_form(group, c, g)))
        for _ in range(self.mix["prefix"]):
            u = rng.choice(units)
            kk = rng.randint(2, 2 * s)
            ops.append(Op("prefix", f"prefix {kk}", self._prefix(group, u, kk)))
        for kind in ("lam", "rho"):
            for _ in range(self.mix[kind]):
                u = rng.choice(units)
                j = rng.randint(1, s)
                ops.append(Op(kind, f"{kind} {j}", self._lam_rho(group, kind, u, j)))
        for i in range(self.mix["magnus"]):
            suite = self.MAGNUS_SUITES[i % len(self.MAGNUS_SUITES)]
            sseed = rng.randrange(1 << 30)
            ops.append(Op("magnus", f"{suite} {sseed}", self._magnus(suite, sseed)))
        rng.shuffle(ops)
        at = sorted(rng.sample(range(len(ops) + 1), 2))
        ops.insert(at[1], Op("cli", "cli search rtf", self._cli_rtf()))
        ops.insert(at[0], Op("cli", f"cli build nonlo {cseed}", self._cli_build(cseed)))
        return [build] + ops

    @staticmethod
    def _build(e, group):
        def run():
            g = cs.build_nonlo(e)
            group["g"] = g
            return g.csub.automaton.num_states == expected_states(e)
        return run

    def _cli_build(self, cseed):
        s, m = self.CLI_SHAPE
        want = cs.sample_exponents(s, m, cseed).to_json()

        def run():
            rc = cli.main(["build", "nonlo", "--s", str(s), "--m", str(m),
                           "--seed", str(cseed), "--out", self.group_file])
            with open(self.group_file, encoding="utf-8") as fh:
                data = json.load(fh)
            return rc == 0 and data == {"kind": "nonlo", "exponents": want}
        return run

    def _cli_rtf(self):
        def run():
            rc = cli.main(["search", "rtf", "--group", self.group_file,
                           "--radius", "1", "--max-k", "2", "--elt-letters", "2",
                           "--node-cap", "500", "--out", self.report_file])
            with open(self.report_file, encoding="utf-8") as fh:
                report = json.load(fh)
            return rc in (0, 2) and report["violations"] == []
        return run

    @staticmethod
    def _witnesses(group):
        def run():
            rows = cs.verify_nonlo_witnesses(group["g"])
            return len(rows) == 8 and all(r["identity"] and r["signs_ok"] for r in rows)
        return run

    @staticmethod
    def _c_simplify(group, alpha):
        def run():
            c1, core, c2 = cs.c_simplify(group["g"].csub, alpha)
            return c1 * core * c2 == alpha
        return run

    @staticmethod
    def _standard_form(group, c, g):
        def run():
            d = cs.standard_form(group["g"].csub, c, g)
            return d.lam * d.mu * d.rho == g.inverse() * c * g
        return run

    @staticmethod
    def _prefix(group, u, k):
        component = Word([u.syls[k - 1]])

        def run():
            return group["g"].csub.prefix(component) == u.left(k - 1)
        return run

    @staticmethod
    def _lam_rho(group, kind, u, j):
        if kind == "lam":
            w = u.left(j)

            def run():
                return group["g"].csub.lam(w) == j
        else:
            w = u.right(j)

            def run():
                return group["g"].csub.rho(w) == j
        return run

    def _magnus(self, suite, sseed):
        def run():
            rep = suites.run_suite(suite, trials=self.MAGNUS_TRIALS, seed=sseed)
            return rep.ok and (suite != "magnus_c_leading_vars" or rep.skips == 0)
        return run


WORKLOADS = {w.name: w for w in (FreeSearch, NormalForm, NonLo)}
