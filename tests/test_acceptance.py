"""Acceptance criteria, one test per criterion, with stated time budgets.

Each test prints a PASS line with its elapsed time (run pytest with -s to
see them); the assertions are exact or zero-violation checks, never
tolerances to be tuned later.
"""

import random
import time

import pytest

from gtkit import casestudy as cs
from gtkit import gentorsion as gt
from gtkit.amalgam import element_from_free_word, end_preserving, free_as_free_product
from gtkit.suites import run_suite
from gtkit.tamed import TamedSampler, delta_factorize
from gtkit.word import Word, abelianize_snf, cancellation_syllables, gen, parse_word as W


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc_type is None:
            print(f"ACCEPT {self.name}: PASS ({elapsed:.2f}s / budget {self.seconds}s)",
                  flush=True)
            assert elapsed < self.seconds, f"{self.name} exceeded its time budget"
        else:
            print(f"ACCEPT {self.name}: FAIL ({elapsed:.2f}s)", flush=True)
        return False


def test_ac01_glued_manifold_perfect():
    with Budget("1 glued-manifold perfectness", 1.0):
        pres = cs.build_w_presentation()
        inv = abelianize_snf(pres)
        assert inv.free_rank == 0
        assert inv.torsion == ()
        assert inv.is_trivial


def test_ac02_onerelator_certificate_chain():
    with Budget("2 one-relator certificate chain", 1.0):
        relator = cs.gamma_relator()
        alpha = cs.gamma_alpha()
        witness = gt.NclWitness(alpha, [(0, -1, W("a[0] a[2]"))])
        assert gt.verify_ncl_witness([relator], witness)
        beta, displayed = cs.gamma_beta_parts()
        assert beta == displayed
        assert (beta * displayed.inverse()).is_identity


def test_ac03_end_preserving_worked_example():
    with Budget("3 end-preserving worked example", 1.0):
        G = free_as_free_product(["a", "b"])
        g1 = element_from_free_word(G, W("a"))
        g2 = element_from_free_word(G, W("a^-1 b"))
        g3 = element_from_free_word(G, W("b^-1 a"))
        assert end_preserving([g1, g2, g3], "both")
        assert end_preserving([g1, g2 * g3], "both")
        assert not end_preserving([g1 * g2, g3], "left")


def test_ac04_commutator_and_doubling_witnesses():
    for m in (2, 3, 4, 5):
        with Budget(f"4 commutator witness m={m}", 1.0):
            G, cert = gt.bs_commutator_witness(m)
            assert len(cert.conjugators) == m
            assert gt.verify_gt_certificate(G, cert)
    with Budget("4 doubled-group witness", 1.0):
        G0, cert = gt.bergman_witness(["a"], [W("a^2")], W("a"),
                                      [W("1"), W("1")])
        assert gt.verify_gt_certificate(G0, cert)


def test_ac05_small_cancellation_battery():
    with Budget("5 small cancellation s=10 m=8", 30.0):
        e = cs.sample_exponents(10, 8, 0)
        csub = cs.CSubgroup.from_matrix(e)
        s = csub.s
        units = csub.gen_set()
        pairs = 0
        for u in units:
            for v in units:
                if (u * v).is_identity:
                    continue
                pairs += 1
                assert cancellation_syllables(u, v) == 0
                assert (u * v).syllable_len >= 4 * s - 1 == 39
        assert pairs == (2 * 8) ** 2 - 2 * 8
        rng = random.Random(0)
        for _ in range(500):
            k = rng.randint(2, 5)
            tup = [units[rng.randrange(len(units))]]
            while len(tup) < k:
                u = units[rng.randrange(len(units))]
                if not (tup[-1] * u).is_identity:
                    tup.append(u)
            prod = tup[0]
            for u in tup[1:]:
                prod = prod * u
            assert prod.syllable_len >= 2 * k * s - (k - 1)


def test_ac06_nonlo_witness_checks():
    with Budget("6 non-left-orderable witnesses", 5.0):
        g = cs.build_nonlo(cs.sample_exponents(10, 8, 0))
        rows = cs.verify_nonlo_witnesses(g)
        assert len(rows) == 8
        for row in rows:
            assert row["identity"], row
            assert row["signs_ok"], row


def test_ac07_tamed_length_bound_battery():
    with Budget("7 tamed length bound, 10^4 samples", 60.0):
        rng = random.Random(5)
        from gtkit.suites import _groups

        samplers = [TamedSampler(G, rng) for G, _ in _groups()]
        for t in range(10 ** 4):
            v = samplers[t % 2].sample()
            fact = delta_factorize(v)  # verifies reduced triples + telescoping
            lhs = fact.partials[-1].length
            assert lhs >= v.g(1).length + v.n + v.g(v.n).length


def test_ac08_magnus_battery():
    with Budget("8 Magnus suite", 60.0):
        assert run_suite("magnus_homomorphism", trials=5000, seed=100).ok
        assert run_suite("magnus_inverse", trials=10 ** 4, seed=101).ok
        assert run_suite("magnus_degree1", trials=1000, seed=102).ok
        assert run_suite("magnus_leading_conjugation", trials=1000, seed=103).ok
        rep = run_suite("magnus_c_leading_vars", trials=200, seed=104)
        assert rep.ok and rep.skips == 0
        assert run_suite("magnus_c_degree1", trials=1000, seed=105).ok


def test_ac09_bounded_search_corroborations():
    with Budget("9 bounded-search corroborations", 600.0):
        e = cs.sample_exponents(10, 8, 0)
        csub = cs.CSubgroup.from_matrix(e)
        ab = [gen("a"), gen("b")]
        bounds = gt.SearchBounds(radius=3, max_n=3, max_elt_letters=3,
                                 node_cap=10 ** 6)
        rep = gt.check_rtf(ab, csub.gens, bounds)
        assert rep.violations == []
        rep = gt.check_multimalnormal(ab, csub.gens, [csub.gens[0]], bounds)
        assert rep.violations == []
        # one-relator edge subgroup: every member of the ambient NSS balls
        # that lies in C is decided to lie in NSS_C({alpha}), uncapped
        gens = cs.onerelator_c_generators()
        rng = random.Random(9)
        small = gt.SearchBounds(radius=2, max_n=2, max_elt_letters=2)
        checked = 0
        inconclusive = 0
        for _ in range(20):
            alpha = Word()
            for _ in range(rng.randint(1, 3)):
                alpha = alpha * (gens[rng.randrange(2)] ** rng.choice((1, -1)))
            if alpha.is_identity:
                alpha = gens[0]
            rep = gt.check_nss_intersection(ab, gens, alpha, small)
            assert rep.violations == []
            assert rep.inconclusive == 0 and not rep.capped
            inconclusive += rep.inconclusive
            checked += 1
        assert checked == 20
        print(f"  nss-intersection inconclusive: {inconclusive}", flush=True)


def test_ac10_oracle_equivalences():
    with Budget("10 oracle equivalences", 60.0):
        assert run_suite("oracle_cancellation_number", trials=10 ** 4,
                         seed=110).ok
        assert run_suite("oracle_prefix_acceptable", trials=1500, seed=111).ok
        assert run_suite("oracle_normalize_shuffle", trials=10 ** 4, seed=112).ok
