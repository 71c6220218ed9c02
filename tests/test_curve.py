import random
from collections import Counter
from math import isqrt

import pytest

from kurihara import curve
from kurihara.curve import (
    CurveData,
    bad_prime_aq,
    check_hypotheses,
    count_divisible,
    count_points,
    curve_from_json,
    draw_point,
    ec_add,
    ec_mul,
    p_torsion_structure,
    primes_upto,
    short_model,
    sqrt_mod,
    trace_of_frobenius,
    _count_bsgs,
    _count_naive,
)
from kurihara.errors import BadPrime
from kurihara.exactmath import factorize
from kurihara.kolyvagin import sieve
from kurihara.lseries import an_list
from kurihara.records import replace


def on_curve(A, B, l, P):
    """P (None for the point at infinity) satisfies Y^2 = X^3 + A X + B mod l."""
    if P is None:
        return True
    x, y = P
    return (y * y - x**3 - A * x - B) % l == 0


@pytest.fixture(scope="module")
def naive_counts(e11, e37):
    """{(E, l): #E(F_l)} by the square table, for every good prime
    5 <= l < 3000 on 11a1, 37a1, 389a1, 5077a1 and 32a2."""
    curves = [
        e11,
        e37,
        CurveData(0, 1, 1, -2, 0, conductor=389, tamagawa_product=1, label="389a1"),
        CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1"),
        CurveData(0, 0, 0, -1, 0, conductor=32, tamagawa_product=1, label="32a2"),
    ]
    return {
        (E, l): _count_naive(E, l)
        for E in curves
        for l in primes_upto(3000)
        if l >= 5 and E.discriminant % l
    }


class TestCounting:
    def test_37a1_at_5_by_hand(self, e37):
        # y^2 + y = x^3 - x over F_5: enumerate all x; 7 affine points + oo
        pts = sum(
            1
            for x in range(5)
            for y in range(5)
            if (y * y + y - x**3 + x) % 5 == 0
        )
        assert pts + 1 == 8
        assert count_points(e37, 5) == 8
        assert trace_of_frobenius(e37, 5) == -2

    def test_11a1_at_7(self, e11):
        assert count_points(e11, 7) == 10
        assert trace_of_frobenius(e11, 7) == -2

    def test_bad_prime_rejected(self, e11, run_python):
        with pytest.raises(BadPrime):
            count_points(e11, 11)
        # count_divisible asks its point at every l > 3, and a composite l
        # can hang sqrt_mod, so it must refuse l first; a subprocess with a
        # timeout turns a hang into a failure
        script = (
            "import kurihara.curve as C\n"
            "from kurihara.errors import BadPrime\n"
            "E = C.CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5)\n"
            "for l in (11, 9, 25, 91, 361):\n"
            "    try:\n"
            "        C.count_divisible(E, l, 5)\n"
            "    except BadPrime as exc:\n"
            "        print(exc)\n"
        )
        proc = run_python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "11 divides the discriminant", "9 is not prime", "25 is not prime",
            "91 is not prime", "361 is not prime",
        ]

    def test_order_annihilates_random_points(self, e37):
        # the first 20 fixed draws at each l
        for l in (13, 101, 1009):
            n = count_points(e37, l)
            A, B = short_model(e37, l)
            for i in range(20):
                P = draw_point(A, B, l, i)
                assert on_curve(A, B, l, P)
                assert ec_mul(A, l, n, P) is None

    def test_bsgs_matches_naive(self, e11, naive_counts):
        # every good prime 5 <= l < 3000, below the crossover too, on the
        # golden curves and on 32a2 (y^2 = x^3 - x), whose full rational
        # 2-torsion keeps the group exponent small enough to leave several
        # candidates in the Hasse window
        for l in (10007, 20011, 99991):
            assert _count_bsgs(e11, l) == _count_naive(e11, l)
        for (E, l), n in naive_counts.items():
            assert _count_bsgs(E, l) == n, (E, l)

    def test_divisibility_is_exact_at_the_window_edges(self, naive_counts, monkeypatch):
        # on the same primes: no prime power k dividing the count may be
        # excluded, also where the count is the top or the bottom multiple
        # of k in the Hasse window; k = 5 or 7 not dividing it must be
        # refused, nearly always by the point alone (1,176 of 1,250 and
        # 1,711 of 1,837 cases, 372 of the 435 with l <= 300, from
        # draw_point(A, B, l, 0)).  The count a fallback asks for is read
        # from the square table
        counted = []
        monkeypatch.setattr(
            curve, "_count", lambda E, l: counted.append(l) or naive_counts[E, l]
        )
        edges = Counter()
        refused = excluded = 0
        for (E, l), n in naive_counts.items():
            r = isqrt(4 * l)
            for q, e in factorize(n).items():
                for k in (q**i for i in range(1, e + 1)):
                    assert count_divisible(E, l, k), (E, l, k)
                    edges["top"] += n == (l + 1 + r) // k * k
                    edges["bottom"] += n == -(-(l + 1 - r) // k) * k
            for k in (5, 7):
                if n % k:
                    counted.clear()
                    assert not count_divisible(E, l, k), (E, l, k)
                    refused += 1
                    excluded += not counted
        assert edges["top"] >= 1000 and edges["bottom"] >= 1000, edges
        assert excluded >= 0.9 * refused, (excluded, refused)

    def test_divisibility_never_excludes_rational_torsion(self, e11, naive_counts, monkeypatch):
        # E(Q) has a point of order 5 on 11a1, so 5 divides every #E(F_l):
        # the point never excludes, and each answer comes from the count
        counted = []
        monkeypatch.setattr(
            curve, "_count", lambda E, l: counted.append(l) or naive_counts[E, l]
        )
        primes = [l for E, l in naive_counts if E is e11]
        assert len(primes) > 300
        assert all(count_divisible(e11, l, 5) for l in primes)
        assert counted == primes

    def test_divisibility_checks_l_once(self, e11, monkeypatch):
        # count_divisible checks l through the short model it makes (the
        # cache is cleared, so the model is new), and the count it falls back
        # on (5 divides every #E(F_l) on 11a1) is the cached one; while the
        # model is kept, neither a second ask nor count_points checks l again
        curve.short_model.cache_clear()
        checked = []
        is_prime = curve.is_prime
        monkeypatch.setattr(curve, "is_prime", lambda n: checked.append(n) or is_prime(n))
        assert count_divisible(e11, 10007, 5)
        assert count_divisible(e11, 10007, 5) and count_points(e11, 10007) % 5 == 0
        assert checked == [10007]

    @pytest.mark.parametrize("ainvs, l, expected", [
        ((0, -1, 1, -10, -20), 4831, 4900),
        ((1, 0, 1, 4, -6), 463, 432),
        ((0, 0, 0, -1, 0), 233, 208),
        ((1, 1, 1, -10, -10), 223, 216),
        ((0, 0, 1, -7, 6), 7717, 7543),
    ], ids=["11a1", "14a1", "32a2", "15a1", "5077a1"])
    def test_bsgs_finishes(self, run_python, ainvs, l, expected):
        # the first four groups have more than one multiple of their exponent
        # in the Hasse window, which the square-table count settles; at
        # 5077a1, l = 7717, a_l = 175 = isqrt(4l) lies on the window's edge.
        # A subprocess with a timeout turns a hang into a failure.
        script = (
            "import kurihara.curve as C\n"
            f"E = C.CurveData(*{ainvs}, conductor=1, tamagawa_product=1)\n"
            f"print(C._count_bsgs(E, {l}), C._count_naive(E, {l}))\n"
        )
        proc = run_python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(expected)] * 2

    def test_hasse_bound(self, e11):
        a = an_list(e11, 200)
        for l in primes_upto(200):
            if l != 11:
                assert a[l] == trace_of_frobenius(e11, l)
                assert a[l] * a[l] <= 4 * l

    @pytest.mark.parametrize("coeffs, conductor", [
        ((0, -1, 1, -10, -20), 11),
        ((0, 0, 1, -1, 0), 37),
        ((0, 1, 1, -2, 0), 389),
        ((0, 0, 1, -7, 6), 5077),
    ], ids=["11a1", "37a1", "389a1", "5077a1"])
    def test_square_table_matches_character_sum(self, coeffs, conductor):
        # #E(F_l) = l + 1 + sum_x (4x^3 + b2 x^2 + 2 b4 x + b6 | l) for odd l,
        # the Legendre symbol taken by Euler's criterion; l = 2 by enumeration
        E = CurveData(*coeffs, conductor=conductor, tamagawa_product=1)
        a1, a2, a3, a4, a6 = coeffs
        for l in primes_upto(500):
            if E.discriminant % l == 0:
                continue
            if l == 2:
                expected = 1 + sum(
                    1 for x in range(2) for y in range(2)
                    if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                )
            else:
                expected = l + 1
                for x in range(l):
                    s = (4 * x**3 + E.b2 * x * x + 2 * E.b4 * x + E.b6) % l
                    e = pow(s, (l - 1) // 2, l)
                    expected += -1 if e == l - 1 else e
            assert _count_naive(E, l) == expected, l

    def test_count_invariants_alarm_python_O(self, run_python_O):
        # a Hasse window with no multiple of a point's order must stop the
        # run under -O too.  The broken negation reaches only the giant steps
        # of _window_multiples (ec_mul and draw_point negate on their own), so
        # no baby step is ever met, whatever points are drawn
        script = (
            "import kurihara.curve as C\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "E = C.CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5)\n"
            "C.ec_neg = lambda l, P: (-1, -1)\n"
            "try:\n"
            "    C._count_bsgs(E, 10007)\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["ALARM"]
        assert "Hasse window" in lines[0]

    def test_each_count_computed_once(self, monkeypatch):
        # the hypothesis check and the sieve share one bounded cache, and the
        # surjectivity scan stops at the first prime that settles it; a count
        # is one call of either path, and the square-table count that ends a
        # BSGS count belongs to that call
        E = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        calls = Counter()
        inside_bsgs = []
        naive, bsgs = curve._count_naive, curve._count_bsgs

        def counting_naive(E, l):
            if not inside_bsgs:
                calls["naive", l] += 1
            return naive(E, l)

        def counting_bsgs(E, l):
            calls["bsgs", l] += 1
            inside_bsgs.append(l)
            try:
                return bsgs(E, l)
            finally:
                inside_bsgs.pop()

        monkeypatch.setattr(curve, "_count_naive", counting_naive)
        monkeypatch.setattr(curve, "_count_bsgs", counting_bsgs)
        curve._count.cache_clear()
        assert check_hypotheses(E, 7).passed
        primes = sieve(E, 7, 1, 0, 2000)
        assert [kp.ell for kp in primes][:5] == [113, 211, 463, 547, 673]
        counted = Counter(l for _, l in calls)
        assert max(counted.values()) == 1
        assert {path for path, _ in calls} == {"naive", "bsgs"}
        assert all((path == "naive") == (l <= curve.NAIVE_COUNT_LIMIT) for path, l in calls)
        assert sum(1 for l in counted if l < 1000) < len(primes_upto(1000))


class TestShortModel:
    CURVES = [
        CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5, label="11a1"),
        CurveData(0, 0, 1, -1, 0, conductor=37, tamagawa_product=1, label="37a1"),
        CurveData(0, 1, 1, -2, 0, conductor=389, tamagawa_product=1, label="389a1"),
        CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1"),
        CurveData(0, 0, 0, -1, 0, conductor=32, tamagawa_product=1, label="32a2"),
    ]

    @pytest.mark.parametrize("E", CURVES, ids=str)
    def test_point_count_equals_square_table(self, E):
        # Y^2 = X^3 + A X + B counted point by point at every good
        # 5 <= l < 1000 has #E(F_l) as the square table reads it from E's
        # own equation
        for l in primes_upto(1000):
            if l < 5 or E.discriminant % l == 0:
                continue
            A, B = short_model(E, l)
            squares = Counter(y * y % l for y in range(l))
            n = 1 + sum(squares[(x**3 + A * x + B) % l] for x in range(l))
            assert n == _count_naive(E, l), l

    @pytest.mark.parametrize("E", CURVES, ids=str)
    def test_change_of_variables_maps_points(self, E):
        # X = 36x + 3 b2, Y = 108 (2y + a1 x + a3) takes every affine point of
        # E's own equation onto the short model, and no two to one point
        for l in (5, 7, 101):
            if E.discriminant % l == 0:
                continue
            A, B = short_model(E, l)
            images = {
                ((36 * x + 3 * E.b2) % l, 108 * (2 * y + E.a1 * x + E.a3) % l)
                for x in range(l)
                for y in range(l)
                if (y * y + E.a1 * x * y + E.a3 * y
                    - x**3 - E.a2 * x * x - E.a4 * x - E.a6) % l == 0
            }
            assert all(on_curve(A, B, l, P) for P in images)
            assert len(images) + 1 == _count_naive(E, l)

    def test_needs_l_above_3(self, e37):
        for l in (2, 3):
            with pytest.raises(BadPrime, match="l > 3"):
                short_model(e37, l)
        assert short_model(e37, 5) == (-27 * 48 % 5, -54 * -216 % 5)  # c4 = 48, c6 = -216

    def test_divisibility_point_needs_no_random(self, naive_counts, monkeypatch):
        # every point is fixed by (l, i) and curve does not import random: the
        # 3,087 refusals of test_divisibility_is_exact_at_the_window_edges,
        # the counts (cache cleared, so BSGS runs above the limit) and the
        # p-torsion certificates at p = 3, 5, 7 build no random.Random
        def no_random(*args):
            raise AssertionError(f"random.Random{args} built")

        assert not hasattr(curve, "random")
        monkeypatch.setattr(random, "Random", no_random)
        curve._count.cache_clear()
        refused = 0
        for (E, l), n in naive_counts.items():
            assert count_points(E, l) == n, (E, l)
            for k in (5, 7):
                if n % k:
                    assert not count_divisible(E, l, k), (E, l, k)
                    refused += 1
            for p in (3, 5, 7):
                if l != p:
                    p_torsion_structure(E, l, p)
        assert refused == 3087


class TestFieldKernel:
    def test_ec_mul_equals_repeated_addition(self):
        # kP by double-and-add is P added k times, for every k <= 2l + 2 at
        # every affine point of four short models over small fields.  Points
        # of order 2 and 3 occur (Y^2 = X^3 + 1 has (-1, 0) and (0, +-1)),
        # so ec_mul meets O, a point of order 2 and R = +-P on the way
        orders = set()
        for l in (5, 7, 11, 13, 17, 19, 23):
            for A, B in ((0, 1), (-1 % l, 0), (1, 1), (2, 3)):
                if (4 * A**3 + 27 * B * B) % l == 0:
                    continue
                for x in range(l):
                    for y in range(l):
                        if not on_curve(A, B, l, (x, y)):
                            continue
                        P, R, order = (x, y), None, None
                        for k in range(2 * l + 3):
                            assert ec_mul(A, l, k, P) == R, (A, B, l, P, k)
                            if R is None and k:
                                order = order or k
                            R = ec_add(A, l, R, P)
                        orders.add(order)
        assert {2, 3} <= orders
        assert ec_mul(1, 7, 5, None) is None

    def test_sqrt_mod_at_every_residue(self):
        # a root at every square of every prime 5 <= l < 2000, Euler's
        # criterion and Tonelli-Shanks alike, and None at every non-square
        for l in primes_upto(2000):
            if l < 5:
                continue
            squares = {y * y % l for y in range(l)}
            for a in range(l):
                r = sqrt_mod(a, l)
                if a in squares:
                    assert r is not None and r * r % l == a, (a, l)
                else:
                    assert r is None, (a, l)


class TestApTable:
    def test_frozen_11a1(self, e11):
        good = {l: trace_of_frobenius(e11, l) for l in (2, 3, 5, 7, 13)}
        assert good == {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}
        with pytest.raises(BadPrime):
            trace_of_frobenius(e11, 11)
        # q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 - 2q^9 - 2q^10 + q^11 - 2q^12 + 4q^13
        assert an_list(e11, 13) == [0, 1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4]

    def test_bound_two_bad(self):
        # a curve with 2 | discriminant: a_2 comes from the bad-prime rule
        E = CurveData(0, 0, 0, 0, 4, conductor=2**6 * 3**3, tamagawa_product=1)
        with pytest.raises(BadPrime):
            trace_of_frobenius(E, 2)
        assert an_list(E, 2) == [0, 1, 0]


class TestHypotheses:
    def test_11a1_p7_passes(self, e11):
        rep = check_hypotheses(e11, 7)
        assert rep.ordinary and rep.points_ok and rep.tamagawa_ok
        assert rep.surjectivity == "asserted"
        assert rep.passed

    def test_11a1_p5_tamagawa_fails(self, e11):
        rep = check_hypotheses(e11, 5)
        assert not rep.tamagawa_ok
        assert not rep.passed

    def test_supersingular_fails_ordinarity(self, e37):
        # 37a1 has a_19 = 0: p = 19 is supersingular, (a) must fail
        assert trace_of_frobenius(e37, 19) == 0
        rep = check_hypotheses(e37, 19)
        assert not rep.ordinary

    def test_heuristic_confirms_37a1_p5(self):
        E = CurveData(0, 0, 1, -1, 0, conductor=37, tamagawa_product=1)
        rep = check_hypotheses(E, 5)
        assert rep.surjectivity == "heuristically-confirmed"
        assert rep.passed


    def test_serre_witnesses_of_the_goldens(self, e37):
        # the least l of each kind s1, s2, s3 of Serre's criterion; one l
        # may serve twice, and p = 3 is outside the criterion
        E = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        assert curve._surjectivity_witnesses(E, 7) == (3, 3, 2)
        assert curve._surjectivity_witnesses(e37, 5) == (3, 2, 3)
        assert curve._surjectivity_witnesses(e37, 3) is None
        assert check_hypotheses(e37, 3).surjectivity == "unknown"

    @pytest.mark.parametrize("ainvs, conductor, primes", [
        ((0, 0, 0, -1, 0), 32, (5, 13, 17, 29, 37, 41)),
        ((0, 0, 1, 0, -7), 27, (7, 13, 19, 31, 37, 43)),
        ((0, 0, 0, 0, 1), 36, (7, 13, 19, 31, 37, 43)),
        ((1, -1, 0, -2, -1), 49, (11, 23, 29, 37, 43)),
    ], ids=["32a2", "27a1", "36a1", "49a1"])
    def test_cm_images_are_not_confirmed(self, ainvs, conductor, primes):
        # at these p the mod-p image of a CM curve lies in the normalizer of
        # a split Cartan: a Frobenius has tr^2 - 4 det a square or trace 0,
        # so no witness s3 exists and the verdict must stay unknown
        E = CurveData(*ainvs, conductor=conductor, tamagawa_product=1)
        for p in primes:
            assert curve._surjectivity_witnesses(E, p) is None, p
            rep = check_hypotheses(E, p)
            assert rep.surjectivity == "unknown" and not rep.passed, p


def _p_torsion_count(E, l, p):
    """#E(F_l)[p] by brute force: the points P of the short model with [p]P = O.

    It is p^2 exactly when E(F_l)[p] is full.  Independent of the point
    certificates that p_torsion_structure draws: it walks every point and
    never reads #E(F_l).
    """
    A, B = short_model(E, l)
    roots = {}
    for r in range(l):
        roots.setdefault(r * r % l, []).append(r)
    count = 1  # the point at infinity
    for x in range(l):
        for y in roots.get((x**3 + A * x + B) % l, ()):
            count += ec_mul(A, l, p, (x, y)) is None
    return count


class TestTorsionStructure:
    def test_trivial_when_p_does_not_divide(self, e37):
        kind, v = p_torsion_structure(e37, 7, 5)
        assert count_points(e37, 7) % 5 != 0
        assert (kind, v) == ("trivial", 0)

    def test_cyclic_when_p_exactly_divides(self, e37):
        n = count_points(e37, 61)
        assert n % 5 == 0 and n % 25 != 0
        assert p_torsion_structure(e37, 61, 5) == ("cyclic", 1)

    def test_full_torsion_exists_and_sampling_agrees(self, e37):
        # scan for split and nonsplit p^2 | #E cases and compare the
        # classification with a brute-force count of E(F_l)[p]
        checked = 0
        for l in primes_upto(4000):
            if l < 7 or e37.discriminant % l == 0:
                continue
            n = count_points(e37, l)
            p = 3
            if n % (p * p) != 0 or (l - 1) % p != 0:
                continue
            kind, v = p_torsion_structure(e37, l, p)
            assert (kind == "full") == (_p_torsion_count(e37, l, p) == p * p)
            checked += 1
            if checked >= 50:
                break
        assert checked >= 10

    def test_deterministic_across_reruns(self, e11):
        results = {p_torsion_structure(e11, 113, 7) for _ in range(5)}
        assert len(results) == 1


class TestCyclicCertificate:
    def test_5077a1_sieve_is_certified_without_division_polynomials(self):
        # the benchmark's sieve: every p^2 | #E(F_l) case there is cyclic,
        # certified by a point of order p^v
        E = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        primes = sieve(E, 7, 1, 0, 2000)
        assert [kp.ell for kp in primes] == [113, 211, 463, 547, 673, 743, 757, 1933]
        kind, v = p_torsion_structure(E, 547, 7)
        assert kind == "cyclic" and v >= 2
        assert _p_torsion_count(E, 547, 7) == 7

    def test_full_torsion_is_certified_by_two_points(self, e11):
        # E(F_31) = (Z/5)^2 on 11a1: no point has order 25, and a second
        # point of order 5 outside the first one's span proves it
        assert p_torsion_structure(e11, 31, 5) == ("full", 2)
        assert _p_torsion_count(e11, 31, 5) == 25

    def test_cyclic_case_past_the_first_draws(self, e37, monkeypatch):
        # cyclic 3-parts where the first draws do not certify:
        # #E(F_463) = 486 = 2 * 3^5 on 37a1, where the first draw gives a
        # point of order 81 and the second one of order 243;
        # #E(F_109) = 108 on 389a1, where the first draw lies in the
        # prime-to-3 part and the second gives order 27; #E(F_2383) = 2349
        # = 3^4 * 29 on 5077a1, where the first three give orders 27, 9 and
        # 27 and the fourth order 81
        draws = []
        draw = curve.draw_point
        monkeypatch.setattr(
            curve, "draw_point", lambda A, B, l, i: draws.append(i) or draw(A, B, l, i)
        )
        e389 = CurveData(0, 1, 1, -2, 0, conductor=389, tamagawa_product=1, label="389a1")
        e5077 = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        for E, l, v, drawn in ((e37, 463, 5, 2), (e389, 109, 3, 2), (e5077, 2383, 4, 4)):
            draws.clear()
            assert p_torsion_structure(E, l, 3) == ("cyclic", v)
            assert draws == list(range(drawn)), (E, l)
            assert _p_torsion_count(E, l, 3) == 3

    def test_5077a1_full_torsion_at_scale(self):
        # the one full case in the 5077a1 sieve to 20000 at p = 7, whose
        # output test_cli freezes
        E = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        assert p_torsion_structure(E, 14071, 7) == ("full", 2)
        assert _p_torsion_count(E, 14071, 7) == 49

    def test_count_off_by_p_alarms_python_O(self, run_python_O):
        # #E(F_547) = 539 = 7^2 * 11 on 5077a1 with cyclic 7-part; a count of
        # 7 * 539 asks for a point of order 7^3, which no draw finds, while
        # every draw falls into the span of the first: the cap must refuse
        # the count rather than call it cyclic, under -O too
        script = (
            "import kurihara.curve as C\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "E = C.CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1)\n"
            "print('TRUE', C.p_torsion_structure(E, 547, 7))\n"
            "C.count_points = lambda E, l: 7 * 539\n"
            "try:\n"
            "    print('VERDICT', C.p_torsion_structure(E, 547, 7))\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "TRUE ('cyclic', 2)"
        assert lines[1].startswith("ALARM #E(F_547) = 3773: no certificate"), proc.stdout

    def test_wrong_count_alarms_python_O(self, run_python_O):
        # E(F_31) = (Z/5)^2 on 11a1; a count of 27 would ask for 3-torsion of
        # order 27, and 27P = 2P != O for every affine P, so the certificate
        # must refuse the count rather than classify it, under -O too
        script = (
            "import kurihara.curve as C\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "E = C.CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5)\n"
            "C.count_points = lambda E, l: 27\n"
            "try:\n"
            "    print('VERDICT', C.p_torsion_structure(E, 31, 3))\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ALARM #E(F_31) = 27 "), proc.stdout


class TestCurveData:
    def test_discriminants(self, e11, e37):
        assert e11.discriminant == -161051
        assert e37.discriminant == 37

    def test_json_round_trip(self, e11):
        obj = {
            "label": "11a1",
            "ainvs": [0, -1, 1, -10, -20],
            "conductor": 11,
            "tamagawa_product": 5,
            "mod_p_surjective": [7],
        }
        E = curve_from_json(obj)
        assert E == e11

    def test_equal_records_hash_alike_and_are_immutable(self, e11):
        # the point-count cache is keyed by (curve, l)
        again = curve_from_json({"label": "11a1", "ainvs": [0, -1, 1, -10, -20],
                                 "conductor": 11, "tamagawa_product": 5,
                                 "mod_p_surjective": [7]})
        assert again is not e11 and again == e11 and hash(again) == hash(e11)
        assert {e11: "cached"}[again] == "cached"
        with pytest.raises(AttributeError, match="cannot assign to field 'a4'"):
            again.a4 = 0
        with pytest.raises(AttributeError):
            del again.label
        assert again == e11

    def test_replace_copies(self, e11):
        changed = replace(e11, mod_p_surjective=(3, 7))
        assert changed.mod_p_surjective == (3, 7) and e11.mod_p_surjective == (7,)
        assert changed != e11 and changed.ainvs() == e11.ainvs()
        assert replace(e11) == e11 and replace(e11) is not e11
        with pytest.raises(TypeError):
            replace(e11, rank=1)

    def test_discriminant_cache_is_not_a_field(self):
        # the discriminant is computed on the first read and kept on the
        # record, outside ==, hash and repr; a replaced record starts empty
        E = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        fresh = CurveData(0, 0, 1, -7, 6, conductor=5077, tamagawa_product=1, label="5077a1")
        before = (repr(E), hash(E))
        assert E._discriminant is None
        assert E.discriminant == 5077 and E._discriminant == 5077
        assert E == fresh and (repr(E), hash(E)) == before == (repr(fresh), hash(fresh))
        assert fresh._discriminant is None
        changed = replace(E, label="other")
        assert changed._discriminant is None and replace(E) == E
        assert changed.discriminant == 5077
        with pytest.raises(AttributeError):
            E._discriminant = 0

    def test_conductor_prime_must_divide_disc(self):
        with pytest.raises(ValueError):
            CurveData(0, 0, 1, -1, 0, conductor=35, tamagawa_product=1).validate()

    def test_stated_discriminant_checked(self):
        with pytest.raises(ValueError):
            curve_from_json(
                {
                    "ainvs": [0, 0, 1, -1, 0],
                    "conductor": 37,
                    "tamagawa_product": 1,
                    "discriminant": 38,
                }
            )


class TestBadReduction:
    def test_multiplicative_signs(self, e11, e37):
        # 11a1 is split at 11 (tangent disc 12 + 4*(-1) + a1^2 = QR mod 11),
        # 37a1 is nonsplit at 37 (tangent disc 15 is a non-residue mod 37);
        # cross-checked against the U_N eigenvalue in test_modsym
        assert bad_prime_aq(e11, 11) == 1
        assert bad_prime_aq(e37, 37) == -1

    def test_additive_zero(self):
        E = CurveData(0, 0, 0, 0, 4, conductor=2**6 * 3**3, tamagawa_product=1)
        assert bad_prime_aq(E, 2) == 0
        assert bad_prime_aq(E, 3) == 0


class TestTorsionCrossCheckAtScale:
    def test_fifty_instances_sampled_vs_deterministic(self, e11, e37, monkeypatch):
        # 50 (E, l, p) instances with p^2 | #E(F_l) and p | l - 1: the
        # classification must agree with a brute-force count of E(F_l)[p],
        # both kinds must occur, and no classification draws more than 8
        # points (a certificate that compared only order-p multiples would
        # need about p^(a-b) draws on Z/p^a x Z/p^b)
        draws = []
        draw = curve.draw_point

        def counted(A, B, l, i):
            draws.append(l)
            return draw(A, B, l, i)

        monkeypatch.setattr(curve, "draw_point", counted)
        curves = [
            e11,
            e37,
            CurveData(0, 1, 1, -2, 0, conductor=389, tamagawa_product=1, label="389a1"),
        ]
        checked, kinds = 0, set()
        for E in curves:
            for l in primes_upto(3000):
                if checked >= 50:
                    break
                if l < 5 or E.discriminant % l == 0:
                    continue
                n = count_points(E, l)
                for p in (3, 5, 7):
                    if l == p or n % (p * p) != 0 or (l - 1) % p != 0:
                        continue
                    draws.clear()
                    kind, v = p_torsion_structure(E, l, p)
                    assert 1 <= len(draws) <= 8, (E.label, l, p, len(draws))
                    full = _p_torsion_count(E, l, p) == p * p
                    assert (kind == "full") == full, (E.label, l, p)
                    kinds.add(kind)
                    checked += 1
        assert checked >= 50
        assert kinds == {"full", "cyclic"}
