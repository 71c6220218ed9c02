"""Acceptance criteria, one test per criterion, at the stated tolerances.

Exact arithmetic throughout: every comparison is equality unless a numeric
oracle precision is stated.  Each test prints one PASS line on success; a
failed assert is the FAIL line.
"""

import random
import time
from fractions import Fraction
from math import gcd

from kurihara.cli import main as cli_main
from kurihara.curve import check_hypotheses, trace_of_frobenius, primes_upto
from kurihara.kolyvagin import KolyvaginPrime, sieve
from kurihara.lseries import lratio
from kurihara.modsym import eval_plus
from kurihara.verifiers import (
    span_two_covering_witness,
    run_identity_suite,
    verify_coset_lemma,
)
from kurihara.search import attach_parity, find_delta_minimal, selmer_report
from test_kolyvagin import direct_number, routes


def _report(name, t0):
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_golden_run_a(e11):
    """11a1, p = 7: rank-0 golden run under 10 seconds, built from scratch."""
    from kurihara.modsym import build_space, extract_eigensymbol

    t0 = time.monotonic()
    rep_h = check_hypotheses(e11, 7)
    assert rep_h.passed
    sym11 = extract_eigensymbol(build_space(11), e11)
    report = selmer_report(find_delta_minimal(sym11, 7, prime_bound=300, nu_max=2))
    assert report.table[1].delta == 3 and report.table[1].delta % 7 != 0
    assert report.delta_minimal == (1,)
    assert report.selmer_dim == 0
    assert attach_parity(report, sym11) == "pass"
    assert report.root_number == +1
    # oracle: independent numerics for L(E,1)/Omega+ to 1e-8, reconstructed
    ratio, rec = lratio(e11)
    assert rec == Fraction(1, 5)
    assert abs(ratio - 0.2) < 1e-8
    assert eval_plus(sym11, 0, 1) == Fraction(1, 5)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"golden run A took {elapsed:.1f}s"
    _report("1 (golden run A: 11a1, p=7)", t0)


def test_criterion_2_golden_run_b(e37):
    """37a1, p = 5: rank-1 golden run under 60 seconds, built from scratch."""
    from kurihara.modsym import build_space, extract_eigensymbol

    t0 = time.monotonic()
    sym37 = extract_eigensymbol(build_space(37), e37)
    assert eval_plus(sym37, 0, 1) == 0  # delta_1 = 0 exactly
    report = selmer_report(find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2))
    assert report.table[1].delta == 0
    assert report.delta_minimal
    assert all(len(report.table[d].factors) == 1 for d in report.delta_minimal)
    assert report.selmer_dim == 1
    assert attach_parity(report, sym37) == "pass"
    assert report.root_number == -1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"golden run B took {elapsed:.1f}s"
    _report("2 (golden run B: 37a1, p=5)", t0)


def _squarefree_products(ells, bound):
    out = [1]
    for ell in ells:
        out.extend([d * ell for d in out if d * ell <= bound])
    return sorted(set(out))


def test_criterion_3_route_agreement(sym11, sym37):
    """direct == via_ed and derivative oracle consistent, d <= 500, both curves."""
    t0 = time.monotonic()
    failures = []
    for sym, p in ((sym11, 7), (sym37, 5)):
        registry = {kp.ell: kp for kp in sieve(sym.curve, p, 1, 0, 500)}
        for d in _squarefree_products(sorted(registry), 500):
            direct, via, data = routes(sym, registry, d, p)
            if direct != via:
                failures.append((p, d, "route"))
            if not data.is_norm_multiple:
                failures.append((p, d, "closed_form"))
            if data.nonzero != (direct % p != 0):
                failures.append((p, d, "vanishing"))
    assert failures == []
    _report("3 (route agreement, d <= 500)", t0)


def test_criterion_4_norm_relations(sym11, sym37):
    """Norm-relation, Euler, and stabilization identities, d*l <= 200, n <= 1, m <= 2."""
    t0 = time.monotonic()
    for sym, p in ((sym11, 7), (sym37, 5)):
        report = run_identity_suite(
            sym, p, d_ell_max=200, n_max=1, m_max=2, remark_d_max=200,
            route_prime_bound=500,
        )
        assert report.results["xi_norm_relation"].instances >= 500
        assert report.results["vartheta_euler_relation"].instances >= 500
        assert report.results["stabilization_bridge"].instances >= 100
        assert report.results["stabilizer_unit"].instances >= 100
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"norm-relation suite took {elapsed:.1f}s"
    _report("4 (norm-relation suite, both golden curves)", t0)


def test_criterion_5_modular_symbols_core(sym11, sym37, e37):
    """Held-out eigen identities, evenness d <= 50, decomposition independence."""
    t0 = time.monotonic()
    # three held-out Hecke primes on 37a1
    used = {q for q, _ in sym37.hecke_pairs}
    space = sym37.space
    held_out = [q for q in primes_upto(60) if q not in used and q != 37][:3]
    assert len(held_out) == 3
    for q in held_out:
        s = trace_of_frobenius(e37, q) * space.proj_den
        T = space.hecke_full(q)  # proj_den * T_q
        n = space.dim
        w = sym37.vector
        assert all(
            sum(w[r] * T[r][c] for r in range(n)) == s * w[c] for c in range(n)
        )
    # evenness, exhaustively for d <= 50, on both golden symbols
    for sym in (sym11, sym37):
        for d in range(1, 51):
            for a in range(1, d + 1):
                if gcd(a, d) == 1:
                    assert eval_plus(sym, a, d) == eval_plus(sym, d - a, d)
    # decomposition independence on 1000 random (a, d)
    rng = random.Random(0)
    done = 0
    while done < 1000:
        d = rng.randrange(2, 400)
        a = rng.randrange(1, 3 * d)
        if gcd(a, d) != 1:
            continue
        assert sym11.space.path_vector(a, d) == sym11.space.path_vector(a + d, d)
        done += 1
    _report("5 (modular-symbols core)", t0)


def test_criterion_6_generator_covariance(sym37):
    """50 random (d, u): delta rescales by prod u^{-1} mod p, zero-pattern fixed."""
    t0 = time.monotonic()
    p = 5
    registry = {kp.ell: kp for kp in sieve(sym37.curve, p, 1, 0, 500)}
    ds = [d for d in _squarefree_products(sorted(registry), 500) if d > 1]
    rng = random.Random(1)
    done = 0
    while done < 50:
        d = rng.choice(ds)
        alt = dict(registry)
        scale = 1
        for ell in alt:
            if d % ell == 0:
                u = rng.randrange(1, ell - 1)
                if gcd(u, ell - 1) != 1:
                    break
                kp = registry[ell]
                alt[ell] = KolyvaginPrime(ell, p, pow(kp.generator, u, ell))
                scale = scale * pow(u, -1, p) % p
        else:
            twisted = direct_number(sym37, alt, d, p)
            base = direct_number(sym37, registry, d, p)
            assert twisted == base * scale % p
            assert (twisted % p != 0) == (base % p != 0)
            done += 1
    _report("6 (generator covariance, 50 samples)", t0)


def test_criterion_7_appendix_verifier():
    """Coset lemma exhaustive at dim 3; span-2 remark has a covering witness."""
    t0 = time.monotonic()
    rep = verify_coset_lemma(3)
    assert rep.ok and rep.counterexamples == []
    assert rep.instances == {3: 25272}  # reproducible count
    again = verify_coset_lemma(3)
    assert again.instances == rep.instances
    fns, c, covered = span_two_covering_witness()
    assert covered
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"appendix verifier took {elapsed:.1f}s"
    _report("7 (appendix coset verifier)", t0)


def test_criterion_8_hypothesis_negatives(tmp_path):
    """11a1 p=5 fails (c) with exit 65; a supersingular p fails (a)."""
    t0 = time.monotonic()
    import os

    curve = os.path.join(os.path.dirname(__file__), "..", "curves", "11a1.json")
    assert cli_main(["check", "--curve", curve, "--p", "5"]) == 65
    assert cli_main(["search", "--curve", curve, "--p", "5"]) == 65
    curve37 = os.path.join(os.path.dirname(__file__), "..", "curves", "37a1.json")
    # a_19(37a1) = 0: supersingular, hypothesis (a) fails
    assert cli_main(["check", "--curve", curve37, "--p", "19"]) == 65
    _report("8 (hypothesis negative tests)", t0)


def test_criterion_9_theorem_consistency_at_scale(sym37):
    """Exhaustive search on B: all minimal d share nu = 1; nonvanishing d have nu >= 1."""
    t0 = time.monotonic()
    report = selmer_report(
        find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2, exhaustive=True)
    )
    assert report.delta_minimal
    nus = {len(report.table[d].factors) for d in report.delta_minimal}
    assert nus == {1}
    for d, row in report.table.items():
        if row.delta % 5 != 0:
            assert len(row.factors) >= report.selmer_dim == 1
    _report("9 (dimension consistency at scale)", t0)
