import os
import random
import sys
from math import gcd

import pytest

from kurihara import curve, exactmath
from kurihara.curve import count_points, load_curve, p_torsion_structure
from kurihara.errors import NotAUnit, NotSquarefree, PrimeNotKolyvagin
from kurihara.exactmath import (
    AbelianGroup,
    GroupRingElement,
    ResidueRing,
    primitive_root,
    unit_group,
)
from kurihara import kolyvagin
from kurihara.kolyvagin import (
    DLOG_TABLE_LIMIT,
    DerivativeData,
    KolyvaginPrime,
    ThetaProjection,
    _dlog_bsgs,
    derivative_data,
    kolyvagin_predicate,
    kurihara_number_direct,
    kurihara_number_via_ed,
    project_theta,
    sieve,
    sieved_factors,
)
from kurihara.mazurtate import plus_element, plus_values
from kurihara.records import replace
from test_curve import _p_torsion_count
from conftest import residue_items, trivial_runs


CURVES = os.path.join(os.path.dirname(__file__), "..", "curves")


def walk(sym, d, p, m=1):
    return plus_element(sym, d, ResidueRing(p, m))


def direct_number(sym, reg, d, p, m=1):
    ring = ResidueRing(p, m)
    values = plus_values(sym, d, ring, trivial_runs(unit_group(d)))
    return kurihara_number_direct(values, sieved_factors(d, reg), ring, reg)


def routes(sym, reg, d, p, m=1):
    """(direct, via_ed, derivative) from one streamed walk and one projection,
    as `search.delta_row` reads them."""
    ring = ResidueRing(p, m)
    ells = sieved_factors(d, reg)
    projection = project_theta(ells, reg)
    values = plus_values(sym, d, ring, unit_group(d).runs(projection.quotient, projection.images))
    direct = kurihara_number_direct(projection.fold(values, ring), ells, ring, reg)
    via = kurihara_number_via_ed(projection)
    return direct, via, derivative_data(projection, via)


@pytest.fixture(scope="module")
def reg37(e37):
    return {kp.ell: kp for kp in sieve(e37, 5, 1, 0, 500)}


@pytest.fixture(scope="module")
def reg11(e11):
    return {kp.ell: kp for kp in sieve(e11, 7, 1, 0, 500)}


class TestSieve:
    def test_37a1_membership_reverified(self, e37, reg37):
        assert reg37, "sieve must be nonempty at this bound"
        for ell, kp in reg37.items():
            # independent re-check of the predicate, per prime
            assert ell % 5 == 1
            n = count_points(e37, ell)
            assert n % 5 == 0
            kind, _ = p_torsion_structure(e37, ell, 5)
            assert kind == "cyclic"
            assert _p_torsion_count(e37, ell, 5) == 5

    def test_known_small_sieve(self, reg37):
        assert sorted(k for k in reg37 if k <= 300) == [61, 211, 281]

    def test_empty_below_p_plus_one(self, e37):
        assert sieve(e37, 5, 1, 0, 5) == []

    def test_generator_is_primitive_root(self, reg37):
        for ell, kp in reg37.items():
            h = kp.generator
            order = ell - 1
            for q in {2, 3, 5, 7, 11, 13}:
                if order % q == 0:
                    assert pow(h, order // q, ell) != 1

    def test_higher_m_congruence(self, e37):
        primes = sieve(e37, 5, 2, 0, 5000)
        assert [kp.ell for kp in primes] == [2251, 4651]
        for kp in primes:
            assert (kp.ell - 1) % 25 == 0
            assert count_points(e37, kp.ell) % 25 == 0


class TestOneValidation:
    """Each sieve candidate is checked as a prime of good reduction once: by
    the short model `count_divisible` makes, which the count and the torsion
    classification reuse while it is kept."""

    @pytest.mark.parametrize("name, p, bound, candidates, accepted", [
        ("37a1", 5, 300, 15, 3), ("5077a1", 7, 2000, 45, 8),
    ])
    def test_one_primality_test_per_candidate(
        self, name, p, bound, candidates, accepted, monkeypatch
    ):
        E = load_curve(os.path.join(CURVES, f"{name}.json"))
        tested, asked = [], []
        is_prime = exactmath.is_prime
        for module in list(sys.modules.values()):
            if module.__name__.startswith("kurihara") and vars(module).get("is_prime") is is_prime:
                monkeypatch.setattr(module, "is_prime", lambda n: tested.append(n) or is_prime(n))
        predicate = kolyvagin.kolyvagin_predicate
        monkeypatch.setattr(
            kolyvagin, "kolyvagin_predicate",
            lambda E, ell, *args: asked.append(ell) or predicate(E, ell, *args),
        )
        curve.short_model.cache_clear()  # every model new, so every check made
        primes = sieve(E, p, 1, 0, bound)
        assert (len(asked), len(primes)) == (candidates, accepted)
        assert tested == asked

    @pytest.mark.parametrize("optimize", [False, True], ids=["python", "python_O"])
    def test_refusals(self, optimize, run_python, run_python_O):
        # 361 = 19^2 = 1 mod 5 would hang sqrt_mod if it reached a point;
        # 37 is bad on 37a1 and 1 mod 3; 5 is p
        script = (
            "import kurihara.curve as C\n"
            "from kurihara.errors import BadPrime\n"
            "from kurihara.kolyvagin import kolyvagin_predicate\n"
            f"E = C.load_curve({os.path.join(CURVES, '37a1.json')!r})\n"
            "cases = ((361, 5), (37, 3), (5, 5), (61, 5))\n"
            "print([kolyvagin_predicate(E, l, p) for l, p in cases])\n"
            "for count, args in ((C.count_divisible, (E, 361, 5)), (C.count_points, (E, 361))):\n"
            "    try:\n"
            "        count(*args)\n"
            "    except BadPrime as exc:\n"
            "        print(exc)\n"
        )
        proc = run_python_O(script) if optimize else run_python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[False, False, False, True]", "361 is not prime", "361 is not prime",
        ]

class TestDlog:
    def test_trivial_values(self, reg37):
        kp = next(iter(reg37.values()))
        assert kp.dlog(1) == 0
        assert kp.dlog(kp.generator) == 1

    def test_round_trip(self, reg37):
        rng = random.Random(0)
        for kp in reg37.values():
            for _ in range(100):
                a = rng.randrange(1, kp.ell)
                assert pow(kp.generator, kp.dlog(a), kp.ell) == a

    def test_bsgs_agrees_with_table(self, reg37):
        # below the table limit the table and baby-step/giant-step give the
        # same logs; above it (2^17 - 1 is prime) dlog takes baby-step/giant-step
        kp = reg37[281]
        baby = kolyvagin._baby_steps(kp.generator, kp.ell)
        for a in range(1, kp.ell):
            assert kp.dlog(a) == _dlog_bsgs(a, kp.generator, kp.ell, baby)
        big = KolyvaginPrime(131071, 3, 3)
        assert big.ell > DLOG_TABLE_LIMIT
        rng = random.Random(1)
        for _ in range(25):
            a = rng.randrange(1, big.ell)
            assert pow(3, big.dlog(a), big.ell) == a
        assert big._table is None

    def test_table_is_lazy_and_not_compared(self):
        built, fresh = KolyvaginPrime(61, 5, 2), KolyvaginPrime(61, 5, 2)
        assert built._table is None
        before = repr(built)
        assert before == "KolyvaginPrime(ell=61, p=5, generator=2)"
        assert built == fresh
        assert built.dlog(2) == 1
        assert type(built._table) is list and len(built._table) == 61
        assert fresh._table is None
        assert built == fresh
        assert repr(built) == repr(fresh) == before
        with pytest.raises(TypeError):
            KolyvaginPrime(61, 5, 2, [])  # the table is no argument
        with pytest.raises(TypeError):
            KolyvaginPrime(61, 5, 2, _table=[])
        with pytest.raises(TypeError):
            KolyvaginPrime(61, 5, 2, _baby={})

    def test_baby_steps_built_once_per_prime(self, monkeypatch):
        # above DLOG_TABLE_LIMIT (patched low) dlog builds the baby steps on
        # its first call and keeps them on the prime, outside == and repr;
        # its logs are the list's at every residue
        ell = 2251
        listed = KolyvaginPrime(ell, 5, primitive_root(ell))
        logs = listed._logs()
        monkeypatch.setattr(kolyvagin, "DLOG_TABLE_LIMIT", 100)
        built, steps = [], kolyvagin._baby_steps
        monkeypatch.setattr(
            kolyvagin, "_baby_steps", lambda g, l: built.append(l) or steps(g, l)
        )
        kp, fresh = (KolyvaginPrime(ell, 5, listed.generator) for _ in range(2))
        assert kp._baby is None
        assert [None] + [kp.dlog(a) for a in range(1, ell)] == logs
        assert built == [ell]
        assert kp._table is None and type(kp._baby) is dict
        assert kp == fresh == listed and repr(kp) == repr(fresh)
        assert fresh._baby is None

    @pytest.mark.parametrize("ell, p, m", [(61, 5, 1), (211, 5, 1), (2251, 5, 2)])
    def test_log_list_equals_dlog_at_every_residue(self, ell, p, m):
        # the list the direct route reads, index a mod ell, against dlog and
        # baby-step/giant-step; index 0 holds no log
        kp = KolyvaginPrime(ell, p, primitive_root(ell))
        logs = [kp.dlog(a) for a in range(1, ell)]
        assert kp._table == [None] + logs
        baby = kolyvagin._baby_steps(kp.generator, ell)
        assert logs == [_dlog_bsgs(a, kp.generator, ell, baby) for a in range(1, ell)]
        assert sorted(logs) == list(range(ell - 1))

    def test_not_a_unit(self, reg37):
        kp = next(iter(reg37.values()))
        with pytest.raises(NotAUnit):
            kp.dlog(0)


class TestKuriharaNumbers:
    def test_delta_one_11a1(self, sym11, reg11):
        # L(E,1)/Omega = 1/5; 1/5 mod 7 = 3 (calibrated, so exactly)
        assert direct_number(sym11, reg11, 1, 7) == 3

    def test_delta_one_37a1_vanishes(self, sym37, reg37):
        assert direct_number(sym37, reg37, 1, 5) == 0

    def test_route_agreement_both_curves(self, sym11, reg11, sym37, reg37):
        for sym, reg, p in ((sym11, reg11, 7), (sym37, reg37, 5)):
            ds = [1] + sorted(reg)
            ells = sorted(reg)
            ds += [
                a * b for i, a in enumerate(ells) for b in ells[i + 1 :] if a * b <= 500
            ]
            for d in ds:
                direct, via, _ = routes(sym, reg, d, p)
                assert direct == via, f"route mismatch at d={d}"

    def test_nonvanishing_at_nu_one_37a1(self, sym37, reg37):
        values = {
            ell: direct_number(sym37, reg37, ell, 5) for ell in reg37
        }
        assert any(v for v in values.values())

    def test_errors(self, sym37, reg37):
        with pytest.raises(NotSquarefree):
            direct_number(sym37, reg37, 61 * 61, 5)
        with pytest.raises(PrimeNotKolyvagin):
            direct_number(sym37, reg37, 13, 5)
        assert sieved_factors(61 * 211, reg37) == [61, 211]
        assert sieved_factors(1, reg37) == []

    def test_direct_route_above_table_limit(self, sym37, reg37, monkeypatch):
        # with the limit between 61 and 281, the prime 281 has no log list
        # and the direct route asks dlog (baby-step/giant-step) per unit
        ds = (281, 61 * 281)
        expected = [direct_number(sym37, reg37, d, 5) for d in ds]
        assert expected[0] == 4
        monkeypatch.setattr(kolyvagin, "DLOG_TABLE_LIMIT", 100)
        fresh = {ell: KolyvaginPrime(ell, 5, kp.generator) for ell, kp in reg37.items()}
        assert [direct_number(sym37, fresh, d, 5) for d in ds] == expected
        assert fresh[61]._table is not None and fresh[281]._table is None

    def test_well_defined_under_rebuild(self, e37, reg37, sym37):
        from kurihara.modsym import build_space, extract_eigensymbol

        fresh = extract_eigensymbol(build_space(37), e37)
        for d in (1, 61, 211):
            assert direct_number(fresh, reg37, d, 5) == direct_number(sym37, reg37, d, 5)


class TestDerivativeOracle:
    def test_d_one_is_theta_mod_p(self, sym11, reg11):
        _, _, data = routes(sym11, reg11, 1, 7)
        assert data.is_norm_multiple
        assert data.norm_coefficient == 3

    def test_vanishing_equivalence(self, sym37, reg37):
        for d in [1] + sorted(reg37):
            direct, _, data = routes(sym37, reg37, d, 5)
            assert data.nonzero == (direct % 5 != 0), f"lemma 4.1 mismatch at d={d}"


class TestGeneratorCovariance:
    def test_rescaling_exact(self, sym37, reg37):
        # replacing h_l by h_l^u multiplies delta_d by u^{-1} mod p
        rng = random.Random(2)
        p = 5
        samples = 0
        while samples < 50:
            ell = rng.choice(sorted(reg37))
            u = rng.randrange(2, ell - 1)
            if gcd(u, ell - 1) != 1:
                continue
            kp = reg37[ell]
            alt = dict(reg37)
            alt[ell] = KolyvaginPrime(ell, 5, pow(kp.generator, u, ell))
            base = direct_number(sym37, reg37, ell, p)
            twisted = direct_number(sym37, alt, ell, p)
            assert twisted == base * pow(u, -1, p) % p
            assert (twisted % p != 0) == (base % p != 0)
            samples += 1

    def test_zero_pattern_generator_independent(self, sym37, reg37):
        rng = random.Random(3)
        alt = {}
        for ell, kp in reg37.items():
            while True:
                u = rng.randrange(1, ell - 1)
                if gcd(u, ell - 1) == 1:
                    break
            alt[ell] = KolyvaginPrime(ell, 5, pow(kp.generator, u, ell))
        for d in [1] + sorted(reg37):
            assert (
                direct_number(sym37, alt, d, 5) % 5 != 0
            ) == (direct_number(sym37, reg37, d, 5) % 5 != 0)


class TestPredicateExamples:
    def test_m1_n0_reduces_to_paper_form(self, e37):
        # l = 1 mod p, p | #E(F_l), E(F_l)[p] not full: re-derivation
        for ell in (61, 211, 281):
            assert kolyvagin_predicate(e37, ell, 5, 1, 0)
        assert not kolyvagin_predicate(e37, 11, 5, 1, 0)  # 5 | l - 1 fails
        assert not kolyvagin_predicate(e37, 37, 5, 1, 0)  # bad reduction
        assert not kolyvagin_predicate(e37, 91, 5, 1, 0)  # 91 = 7 * 13 composite
        assert not kolyvagin_predicate(e37, 5, 5, 1, 0)  # l = p


class TestHigherM:
    def test_route_agreement_mod_p_squared(self, sym37, e37):
        # values live in Z/25; logs are taken mod 25, which needs the
        # stronger congruence l = 1 mod 25 from the m = 2 sieve
        reg = {kp.ell: kp for kp in sieve(e37, 5, 2, 0, 5000)}
        for d in [1, 2251, 4651]:
            direct, via, _ = routes(sym37, reg, d, 5, m=2)
            assert direct == via
            assert 0 <= direct < 25

    def test_mod_p_squared_reduces_to_mod_p(self, sym37, e37):
        reg = {kp.ell: kp for kp in sieve(e37, 5, 2, 0, 5000)}
        for d in (1, 2251):
            v2 = direct_number(sym37, reg, d, 5, m=2)
            v1 = direct_number(sym37, reg, d, 5, m=1)
            assert v2 % 5 == v1


def _projection_from_every_dlog(theta, registry):
    """Reference projection: each unit's key from its own discrete logs."""
    ells = sorted(ell for ell in registry if theta.group.n % ell == 0)
    orders = [registry[ell].p_part_order for ell in ells]
    coeffs = {}
    for a, coeff in residue_items(theta):
        key = tuple(registry[ell].dlog(a) % n for ell, n in zip(ells, orders))
        coeffs[key] = (coeffs.get(key, 0) + coeff) % theta.ring.modulus
    return GroupRingElement(AbelianGroup(orders), theta.ring, coeffs)


def _folded(sym, d, p, registry):
    """The projection of theta_d, filled by streaming the walk through `fold`."""
    ring = ResidueRing(p)
    projection = project_theta(sieved_factors(d, registry), registry)
    values = plus_values(sym, d, ring, unit_group(d).runs(projection.quotient, projection.images))
    for _ in projection.fold(values, ring):
        pass
    return projection


class TestMirroredKeys:
    """project_theta's quotient map, stepped along the walk, against a key per
    unit from its own logs."""

    @staticmethod
    def _count_dlogs(monkeypatch):
        calls = []
        original = KolyvaginPrime.dlog

        def counting(self, a):
            calls.append((self.ell, a))
            return original(self, a)

        monkeypatch.setattr(KolyvaginPrime, "dlog", counting)
        return calls

    @pytest.mark.parametrize("d", [1, 61, 211, 281, 61 * 211])
    def test_37a1_rows_match_every_dlog(self, sym37, reg37, d, monkeypatch):
        expected = _projection_from_every_dlog(walk(sym37, d, 5), reg37)
        calls = self._count_dlogs(monkeypatch)
        projection = _folded(sym37, d, 5, reg37)
        assert projection.element == expected
        # one discrete log per prime of d for each generator of (Z/d)^*
        assert len(calls) == len(projection.quotient.orders) ** 2

    def test_389a1_nu_two_matches_every_dlog(self, sym389):
        reg = {kp.ell: kp for kp in sieve(sym389.curve, 5, 1, 0, 70)}
        projection = _folded(sym389, 41 * 61, 5, reg)
        assert projection.quotient.orders == (5, 5)
        assert projection.element == _projection_from_every_dlog(walk(sym389, 41 * 61, 5), reg)
        assert list(projection.element.items())  # theta_2501 projects to nonzero


class TestNuTwo:
    def test_route_agreement_at_nu_two(self, sym37, e37):
        # a composite d = l1 * l2 exercises the two-variable derivative
        # expansion and the divisor-lattice bookkeeping
        reg = {kp.ell: kp for kp in sieve(e37, 5, 1, 0, 300)}
        d = 61 * 211
        direct, via, data = routes(sym37, reg, d, 5)
        assert direct == via
        assert data.is_norm_multiple
        assert data.nonzero == (direct % 5 != 0)


class TestRouteTriangle:
    def test_quantitative_relation_between_routes(self, sym37, reg37):
        # the three routes are tied exactly in F_p, not just in their zero
        # pattern: the derivative expansion is the closed form (-1)^nu(d) via
        # times the norm element, and its norm coefficient gives back delta_d
        p = 5
        ells = sorted(reg37)
        ds = [1] + ells + [a * b for i, a in enumerate(ells) for b in ells[i + 1:]]
        for d in ds:
            direct, via, data = routes(sym37, reg37, d, p)
            sign = (-1) ** len(sieved_factors(d, reg37))
            assert data.is_norm_multiple, f"lemma 3.8 shape fails at d={d}"
            assert data.norm_coefficient == data.closed_form == sign * via % p
            assert direct == sign * data.norm_coefficient % p, f"triangle fails at d={d}"

    def test_nu_three_derivative_reads_via(self):
        # pure algebra on (Z/5)^3 with an arbitrary element: the coefficient
        # at 1 of D_d x is sum a_sigma prod(-coord_l(sigma)) mod p
        ring = ResidueRing(5)
        quotient = AbelianGroup((5, 5, 5))
        rng = random.Random(2)
        element = GroupRingElement.from_values(
            quotient, ring, tuple(rng.randrange(5) for _ in range(quotient.order))
        )
        projection = ThetaProjection(61 * 211 * 281, quotient, [], element)
        via = kurihara_number_via_ed(projection)
        assert via == 2  # nonzero, so the relation below is not 0 == 0
        assert derivative_data(projection, via).norm_coefficient == -via % 5



def _derivative_reference(projection, via):
    """D_d theta_d mod p by generic group-ring products: D_l = sum k g_l^k
    built as an element, one product per prime, then one with the projection."""
    p = projection.element.ring.p
    ring = ResidueRing(p, 1)
    projected = projection.element.change_ring(ring)
    quotient = projected.group
    deriv = GroupRingElement.one(quotient, ring)
    for gl, order in zip(quotient.basis(), quotient.orders):
        term = {tuple(k * x for x in gl): k for k in range(1, order)}
        deriv = deriv * GroupRingElement(quotient, ring, term)
    expansion = deriv * projected
    closed = (-1) ** len(quotient.orders) * via % p
    return DerivativeData(
        norm_coefficient=expansion.coefficient(quotient.identity),
        closed_form=closed,
        is_norm_multiple=all(expansion.coefficient(g) == closed for g in quotient.elements()),
        nonzero=expansion != GroupRingElement.zero(quotient, ring),
    )


class TestDerivativeAgainstProducts:
    @pytest.mark.parametrize("p, orders", [
        (5, ()), (5, (5,)), (5, (25,)), (5, (5, 5)), (7, (7, 49)), (5, (5, 5, 5)), (7, (7, 7, 7)),
    ], ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_generic_expansion(self, p, orders, m):
        # random buckets, and (g_l - 1)-multiples, whose expansion is a norm
        # multiple: D_l (g_l - 1) = n - N_l = -N_l mod p, as p | n = |G_l|
        quotient, ring = AbelianGroup(orders), ResidueRing(p, m)
        rng = random.Random(f"{orders} {m}")
        shapes = set()
        for kind in ("random", "norm") * 3:
            x = GroupRingElement.from_values(
                quotient, ring, tuple(rng.randrange(p**m) for _ in range(quotient.order))
            )
            if kind == "norm":
                for gl in quotient.basis():
                    x = x * (GroupRingElement.monomial(quotient, ring, gl)
                             - GroupRingElement.one(quotient, ring))
            projection = ThetaProjection(1, quotient, [], x)
            via = kurihara_number_via_ed(projection)
            got, want = derivative_data(projection, via), _derivative_reference(projection, via)
            fields = ("norm_coefficient", "closed_form", "is_norm_multiple", "nonzero")
            for name in fields:
                assert getattr(got, name) == getattr(want, name), (kind, name)
            assert kind == "random" or got.is_norm_multiple
            shapes.add(got.is_norm_multiple)
        assert shapes == ({True} if not orders else {True, False})


def _identity_bumped(derivative):
    """derivative_data reading the projection with 1 added to its identity
    bucket, whose coordinates are all 0: via and direct are unchanged, and
    only the derivative's norm-multiple check can see it."""
    def bumped(projection, via):
        x = projection.element
        one = GroupRingElement.monomial(x.group, x.ring, x.group.identity)
        return derivative(replace(projection, element=x + one), via)
    return bumped


class TestChangedBucket:
    def test_changed_bucket_alarms(self, sym37, reg37, monkeypatch):
        from kurihara import search
        from kurihara.errors import CorrectnessAlarm

        ring = ResidueRing(5)
        assert search.delta_row(sym37, 61, ring, reg37).delta == 4
        monkeypatch.setattr(search, "derivative_data", _identity_bumped(derivative_data))
        with pytest.raises(CorrectnessAlarm, match="route disagreement at d=61") as info:
            search.delta_row(sym37, 61, ring, reg37)
        assert "via_ed=4" in str(info.value) and "is_norm_multiple=False" in str(info.value)

    def test_changed_bucket_alarms_python_O(self, run_python_O):
        proc = run_python_O(
            "from kurihara import search\n"
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing\n"
            "from kurihara.kolyvagin import sieve\n"
            "from kurihara.modsym import build_space, extract_eigensymbol\n"
            "from kurihara.exactmath import GroupRingElement\n"
            "from kurihara.records import replace\n"
            f"E = load_curve({os.path.join(CURVES, '37a1.json')!r})\n"
            "sym = extract_eigensymbol(build_space(37), E)\n"
            "reg = {kp.ell: kp for kp in sieve(E, 5, 1, 0, 300)}\n"
            "row = search.delta_row(sym, 61, ResidueRing(5), reg)\n"
            "derivative = search.derivative_data\n"
            "def bumped(projection, via):\n"
            "    x = projection.element\n"
            "    one = GroupRingElement.monomial(x.group, x.ring, x.group.identity)\n"
            "    return derivative(replace(projection, element=x + one), via)\n"
            "search.derivative_data = bumped\n"
            "try:\n"
            "    search.delta_row(sym, 61, ResidueRing(5), reg)\n"
            "    alarm = 'none'\n"
            "except CorrectnessAlarm as exc:\n"
            "    alarm = str(exc).split(':')[0]\n"
            "print(row.delta, alarm)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "4 route disagreement at d=61"
