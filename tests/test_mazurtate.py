import hashlib
import json
import os
from fractions import Fraction

import pytest

from kurihara.curve import count_points, trace_of_frobenius
from kurihara.errors import (
    BadPrime,
    DenominatorDivisibleByP,
    NonInvertibleEll,
    NotSquarefree,
    Supersingular,
)
from kurihara.exactmath import (
    QQ,
    GroupRingElement,
    ResidueRing,
    projection_map,
    unit_group,
    unit_reduction,
)
from kurihara.mazurtate import (
    euler_factor,
    frobenius_factor,
    plus_element,
    stabilization_scalar,
    theta,
    unit_root,
    vartheta,
    xi_tilde,
)
from kurihara.records import replace
from test_exactmath import dense_inverse, p_part_quotient


CURVE_11A1 = os.path.join(os.path.dirname(__file__), "..", "curves", "11a1.json")


class TestUnitRoot:
    def test_37a1_p5(self, e37):
        # x^2 + 2x + 5 = x(x + 2) mod 5: unit root -2 = 3
        assert unit_root(e37, 5, 1).alpha == 3

    def test_vieta(self, e11):
        root = unit_root(e11, 7, 2)
        a_p = -2
        beta = (a_p - root.alpha) % 49
        assert root.alpha * beta % 49 == 7 % 49
        assert (root.alpha + beta) % 49 == a_p % 49

    def test_hensel_m3(self, e37):
        root = unit_root(e37, 5, 3)
        assert (root.alpha**2 - (-2) * root.alpha + 5) % 125 == 0
        assert root.alpha % 5 == 3

    def test_supersingular(self, e37):
        with pytest.raises(Supersingular):
            unit_root(e37, 19, 1)  # a_19 = 0


class TestTheta:
    def test_augmentation_case(self, sym11):
        t = theta(sym11, 1, 0)
        assert dict(t.items()) == {(): Fraction(1, 5)}

    def test_conjugation_symmetry(self, sym11):
        t = theta(sym11, 13, 0)
        G = t.group
        for a in range(1, 13):
            assert t.coefficient(G.sigma(a)) == t.coefficient(G.sigma(13 - a))

    def test_level_validation(self, sym11):
        with pytest.raises(NotSquarefree):
            theta(sym11, 9, 0)
        with pytest.raises(BadPrime):
            theta(sym11, 11, 0)
        with pytest.raises(BadPrime):
            theta(sym11, 7, 1, 7)  # gcd(d, p) != 1

    def test_p_integral_reduction(self, sym11):
        reduced = plus_element(sym11, 21, ResidueRing(7, 2))
        assert reduced.ring == ResidueRing(7, 2)
        assert reduced == theta(sym11, 3, 1, 7).change_ring(ResidueRing(7, 2))

    def test_non_integral_denominator_is_hard_error(self, sym11):
        # theta at level 1 is the value 1/5
        with pytest.raises(DenominatorDivisibleByP, match="level 1"):
            plus_element(sym11, 1, ResidueRing(5, 1))

    def test_bounded_cache_same_xi(self, sym11, monkeypatch):
        # a cache of one level evicts on every new level and still gives the
        # same element as a cache that keeps them all
        import kurihara.mazurtate as mt

        fresh = replace(sym11)
        full = xi_tilde(fresh, 17, 2, 7, 2)
        # theta at n = 2 and n = 1 for d = 1 and d = 17
        assert list(fresh._theta_cache) == [(1, 2, 7), (1, 1, 7), (17, 2, 7), (17, 1, 7)]
        monkeypatch.setattr(mt, "THETA_CACHE", 1)
        small = replace(sym11)
        assert xi_tilde(small, 17, 2, 7, 2) == full
        assert list(small._theta_cache) == [(17, 1, 7)]
        # refilling a full cache drops it back to the bound, oldest first
        theta(fresh, 3, 0)
        assert list(fresh._theta_cache) == [(3, 0, None)]


class TestInvariantsPythonO:
    def test_checks_raise_under_python_O(self, run_python_O):
        # the unit-root lift, the CRT gcd and the dlog modulus are checked by
        # typed errors, which `python -O` keeps
        proc = run_python_O(
            "import kurihara.mazurtate as mt\n"
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing, unit_group\n"
            "from kurihara.kolyvagin import KolyvaginPrime, kurihara_number_direct\n"
            f"E = load_curve({CURVE_11A1!r})\n"
            "def alarms(f):\n"
            "    try:\n"
            "        f()\n"
            "    except CorrectnessAlarm:\n"
            "        return True\n"
            "    return False\n"
            "mt.xgcd = lambda a, b: (2, 0, 0)\n"
            "assert_crt = alarms(lambda: mt._sigma_ell(unit_group(15), 3))\n"
            "mt.pow = lambda *args: 1\n"
            "assert_root = alarms(lambda: mt.unit_root(E, 7, 2))\n"
            "try:\n"
            "    kurihara_number_direct(iter(()), [61], ResidueRing(5, 2),"
            " {61: KolyvaginPrime(61, 5, 2)})\n"
            "    dlog = False\n"
            "except ValueError as exc:\n"
            "    dlog = str(exc) == '25 does not divide 61 - 1'\n"
            "print(assert_crt, assert_root, dlog)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "True"]


class TestVartheta:
    def test_projective_system(self, sym11):
        p, m = 7, 2
        v2 = vartheta(sym11, 1, 2, p, m)
        v1 = vartheta(sym11, 1, 1, p, m)
        v0 = vartheta(sym11, 1, 0, p, m)
        assert projection_map(v2, unit_reduction(v2.group, v1.group)) == v1
        assert projection_map(v1, unit_reduction(v1.group, v0.group)) == v0

    def test_euler_relation(self, sym11, e11):
        p, m = 7, 2
        for (d, ell, n) in [(1, 3, 1), (2, 3, 0), (3, 2, 1)]:
            vd = vartheta(sym11, d, n, p, m)
            vdl = vartheta(sym11, d * ell, n, p, m)
            hom = unit_reduction(vdl.group, vd.group)
            assert projection_map(vdl, hom) == euler_factor(
                e11, ell, vd.group, ResidueRing(p, m)
            ) * vd

    def test_stabilization_shape_at_bottom(self, sym11, e11):
        # projection of vartheta from level dp to level d equals the scalar
        # (1 - a^{-1}s_p)(1 - a^{-1}s_p^{-1}) applied to theta_d
        p, m, d = 7, 2, 5
        v1 = vartheta(sym11, d, 1, p, m)
        th = theta(sym11, d, 0, p).change_ring(ResidueRing(p, m))
        root = unit_root(e11, p, m)
        hom = unit_reduction(v1.group, th.group)
        assert projection_map(v1, hom) == stabilization_scalar(th.group, root) * th


def _sha256(element):
    return hashlib.sha256(json.dumps(element.to_json()).encode()).hexdigest()


class TestXiTilde:
    def test_frozen_digests(self, sym11, sym37):
        # digests of the serialized tower elements; the first is also the xi
        # check of the theta-11a1 benchmark workload (perfbench/checks.py)
        assert _sha256(xi_tilde(sym11, 17, 2, 7, 2)) == (
            "56c585f1d6a3e6fc324634dae643287cd81fa8c0291cc07b8949877b526d370a"
        )
        assert _sha256(vartheta(sym37, 6, 1, 5, 2)) == (
            "235e0c20265b3d37ed1e494f8b10539bc209deb7cea0ce5c7f519cef7a0bd6a1"
        )
        assert _sha256(xi_tilde(sym37, 6, 1, 5, 2)) == (
            "7651b0bfe330bdcb6e8c92c7f6503d343edc7f043fb7e6b57badc541180b853a"
        )

    def test_degenerate_divisor_lattice(self, sym11):
        assert xi_tilde(sym11, 1, 1, 7, 2) == vartheta(sym11, 1, 1, 7, 2)

    def test_norm_relation(self, sym11, e11):
        p, m = 7, 2
        for (d, ell, n) in [(1, 2, 1), (2, 3, 1), (6, 5, 0)]:
            xd = xi_tilde(sym11, d, n, p, m)
            xdl = xi_tilde(sym11, d * ell, n, p, m)
            hom = unit_reduction(xdl.group, xd.group)
            assert projection_map(xdl, hom) == frobenius_factor(
                e11, ell, xd.group, ResidueRing(p, m)
            ) * xd

    def test_divisor_term_count(self, sym11, monkeypatch):
        # xi is assembled from exactly 2^nu(d) norm-lifted terms
        import kurihara.mazurtate as mt

        calls = []
        original = mt.vartheta

        def counting(*args, **kw):
            calls.append(args[1])
            return original(*args, **kw)

        monkeypatch.setattr(mt, "vartheta", counting)
        mt.xi_tilde(sym11, 6, 0, 7, 1)
        assert sorted(calls) == [1, 2, 3, 6]


class TestFrobeniusFactor:
    """P_l(sigma_l^{-1}) = sigma_l^{-2} - l^{-1} a_l sigma_l^{-1} + l^{-1}, read off
    its three coefficients; sigma_l has order 6 (l = 3) and 3 (l = 11) mod 7."""

    @staticmethod
    def coefficients(f, group, ell):
        s_inv = group.inv(group.sigma(ell))
        return (f.coefficient(group.mul(s_inv, s_inv)), f.coefficient(s_inv),
                f.coefficient(group.identity))

    def test_rational_coefficients(self, e11):
        G = unit_group(7)
        f = frobenius_factor(e11, 3, G, QQ)
        assert self.coefficients(f, G, 3) == (1, Fraction(1, 3), Fraction(1, 3))
        assert len(list(f.items())) == 3

    def test_ell_one_mod_pm(self, e37):
        # l = 1 mod p^m makes it sigma^-2 - a_l sigma^-1 + 1
        R, G = ResidueRing(5, 1), unit_group(7)
        f = frobenius_factor(e37, 11, G, R)
        a11 = trace_of_frobenius(e37, 11)
        assert self.coefficients(f, G, 11) == (1, (-a11) % 5, 1)

    def test_identity_at_one(self, e37):
        # the augmentation is P_l(1) = #E(F_l) / l
        R = ResidueRing(7, 2)
        for l in (3, 5, 11, 13):
            f = frobenius_factor(e37, l, unit_group(17), R)
            assert f.augmentation() == count_points(e37, l) * pow(l, -1, 49) % 49

    def test_non_invertible(self, e37):
        with pytest.raises(NonInvertibleEll):
            frobenius_factor(e37, 5, unit_group(7), ResidueRing(5, 1))


class TestStabilizerScalarUnitness:
    def test_unit_in_p_part_ring(self, sym11, e11):
        # the stabilizing scalar is a unit where the derivative machinery
        # lives: Z/p^m over the p-part of the Galois group
        p, m = 7, 2
        root = unit_root(e11, p, m)
        for d in (1, 2, 29, 43):
            G = unit_group(d)
            quotient, qhom = p_part_quotient(G, p)
            ring = root.ring
            ainv = ring.inv(root.alpha)
            sp = qhom(G.sigma(p % d)) if d > 1 else quotient.identity
            one = GroupRingElement.one(quotient, ring)
            scal = (one - GroupRingElement.monomial(quotient, ring, sp, ainv)) * (
                one - GroupRingElement.monomial(quotient, ring, quotient.inv(sp), ainv)
            )
            inv = dense_inverse(scal)
            assert inv is not None and scal * inv == one

    def test_full_ring_counterexample(self, e37):
        # In the full group ring Z/p[(Z/d)^*] the scalar need not be a unit:
        # for 37a1, p = 5, alpha = 3 is a fourth root of unity mod 5 and
        # sigma_5 has order 4 mod 13, so a character kills a factor.
        root = unit_root(e37, 5, 1)
        G = unit_group(13)
        scal = stabilization_scalar(G, root)
        assert dense_inverse(scal) is None
        # so the augmentation criterion holds only over a p-group: here the
        # augmentation (1 - 1/alpha)^2 = 1 is a unit
        assert scal.augmentation() == 1
