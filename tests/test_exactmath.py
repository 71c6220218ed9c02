import random
from fractions import Fraction

import pytest

from kurihara.errors import MismatchedGroup, NotAQuotient, NotASurjection, NotAUnit
from kurihara.exactmath import (
    QQ,
    AbelianGroup,
    GroupHom,
    GroupRingElement,
    ResidueRing,
    UnitGroup,
    kernel_basis,
    norm_map,
    projection_map,
    sparse_echelon,
    unit_group,
    unit_reduction,
)
from test_modsym import _dense_rref


def random_element(group, ring, rng, density=0.7):
    coeffs = {}
    for g in group.elements():
        if rng.random() < density:
            if ring == QQ:
                coeffs[g] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            else:
                coeffs[g] = rng.randrange(ring.modulus)
    return GroupRingElement(group, ring, coeffs)


def naive_convolution(x, y):
    out = {}
    ring = x.ring
    for g, c in x.coeffs.items():
        for h, d in y.coeffs.items():
            k = x.group.mul(g, h)
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(c, d))
    return GroupRingElement(x.group, ring, out)


class TestGroupRing:
    def test_identity_element(self):
        G = AbelianGroup((4, 3))
        rng = random.Random(1)
        x = random_element(G, QQ, rng)
        one = GroupRingElement.one(G, QQ)
        assert one * x == x

    def test_cyclic_convolution_by_hand(self):
        # (s + s^2) * s = s^2 + 1 in Z[Z/3]
        G = AbelianGroup((3,))
        x = GroupRingElement(G, QQ, {(1,): Fraction(1), (2,): Fraction(1)})
        y = GroupRingElement.monomial(G, QQ, (1,))
        out = x * y
        assert out == GroupRingElement(G, QQ, {(2,): Fraction(1), (0,): Fraction(1)})

    def test_against_naive_convolution(self):
        G = AbelianGroup((7,))
        R = ResidueRing(7, 1)
        rng = random.Random(2)
        for _ in range(25):
            x = random_element(G, R, rng)
            y = random_element(G, R, rng)
            assert x * y == naive_convolution(x, y)

    def test_ring_axioms_spot_check(self):
        G = AbelianGroup((2, 5))
        R = ResidueRing(3, 2)
        rng = random.Random(3)
        for _ in range(20):
            x, y, z = (random_element(G, R, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_mismatch_errors(self):
        x = GroupRingElement.one(AbelianGroup((2,)), QQ)
        y = GroupRingElement.one(AbelianGroup((3,)), QQ)
        with pytest.raises(MismatchedGroup):
            x * y

    def test_serialization_round_trip(self):
        G = UnitGroup(15)
        R = ResidueRing(7, 2)
        rng = random.Random(4)
        x = random_element(G, R, rng)
        obj = x.to_json()
        back = GroupRingElement.from_json(obj, R, G)
        assert back == x
        assert back.to_json() == obj  # bit-exact for cache round-trips

    def test_invert_unit(self):
        G = AbelianGroup((3,))
        R = ResidueRing(5, 2)
        # 1 - 5*s is a unit (augmentation 1 - 5 = -4 is a unit, p-group ring)
        x = GroupRingElement(G, R, {(0,): 1, (1,): 20})
        inv = x.invert()
        assert x * inv == GroupRingElement.one(G, R)
        with pytest.raises(NotAUnit):
            GroupRingElement(G, R, {(0,): 5}).invert()


class TestNormProjection:
    def test_norm_of_identity_counts_kernel(self):
        big, small = unit_group(35), unit_group(7)
        hom = unit_reduction(big, small)
        x = GroupRingElement.one(small, QQ)
        lifted = norm_map(x, hom)
        assert len(lifted.coeffs) == hom.kernel_size() == 4
        assert lifted.augmentation() == 4

    def test_projection_after_norm_is_index(self):
        rng = random.Random(5)
        for nbig, nsmall in [(35, 7), (45, 9), (21, 3)]:
            big, small = unit_group(nbig), unit_group(nsmall)
            hom = unit_reduction(big, small)
            k = hom.kernel_size()
            for _ in range(100):
                x = random_element(small, QQ, rng)
                assert projection_map(norm_map(x, hom), hom) == x.scale(k)

    def test_norm_bilinearity(self):
        big, small = unit_group(33), unit_group(11)
        hom = unit_reduction(big, small)
        rng = random.Random(6)
        for _ in range(20):
            x = random_element(small, QQ, rng)
            y = random_element(small, QQ, rng)
            # nu(x * y) = nu(x) * lift(y) for any lift of y through the fibers
            lift_y = GroupRingElement(
                big, QQ, {hom.fibers()[g][0]: c for g, c in y.coeffs.items()}
            )
            assert norm_map(x * y, hom) == norm_map(x, hom) * lift_y

    def test_projection_to_trivial_group_is_augmentation(self):
        G = unit_group(20)
        hom = unit_reduction(G, unit_group(1))
        rng = random.Random(7)
        x = random_element(G, QQ, rng)
        assert projection_map(x, hom).coefficient(()) == x.augmentation()

    def test_projection_of_monomial(self):
        big, small = unit_group(35), unit_group(5)
        hom = unit_reduction(big, small)
        g = big.sigma(13)
        x = GroupRingElement.monomial(big, QQ, g, Fraction(3, 2))
        out = projection_map(x, hom)
        assert out == GroupRingElement.monomial(small, QQ, small.sigma(13), Fraction(3, 2))

    def test_not_a_surjection(self):
        with pytest.raises(NotASurjection):
            GroupHom(AbelianGroup((2,)), AbelianGroup((4,)), lambda t: (t[0],))

    def test_norm_rejects_wrong_quotient(self):
        big, small = unit_group(35), unit_group(7)
        hom = unit_reduction(big, small)
        x = GroupRingElement.one(unit_group(5), QQ)
        with pytest.raises(NotAQuotient):
            norm_map(x, hom)


class TestUnitGroup:
    def test_orders(self):
        assert unit_group(1).order == 1
        assert unit_group(2).order == 1
        assert unit_group(8).orders == (2, 2)
        assert unit_group(35).order == 24

    def test_sigma_residue_round_trip(self):
        for n in (15, 16, 24, 35, 77, 98):
            G = unit_group(n)
            for a in G.units():
                assert G.residue(G.sigma(a)) == a % n

    def test_sigma_is_homomorphism(self):
        G = unit_group(77)
        rng = random.Random(8)
        units = G.units()
        for _ in range(50):
            a, b = rng.choice(units), rng.choice(units)
            assert G.mul(G.sigma(a), G.sigma(b)) == G.sigma(a * b % 77)

    def test_p_part_quotient(self):
        G = unit_group(11 * 31)  # orders 10 and 30; 5-parts 5 and 5
        Q, hom = G.p_part_quotient(5)
        assert Q.orders == (5, 5)
        seen = {hom(g) for g in G.elements()}
        assert len(seen) == 25


class TestLinearAlgebra:
    def test_zero_matrix_kernel(self):
        basis = kernel_basis([[0, 0, 0], [0, 0, 0]], 3)
        assert len(basis) == 3
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_kernel_empty(self):
        assert kernel_basis([[1, 0], [0, 1]], 2) == []

    def test_random_rational_kernel(self):
        rng = random.Random(9)
        for _ in range(10):
            rows = [
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(8)]
                for _ in range(6)
            ]
            basis = kernel_basis(rows, 8)
            rank = len(_dense_rref(rows)[1])
            assert rank + len(basis) == 8
            for v in basis:
                for row in rows:
                    assert sum(c * x for c, x in zip(row, v)) == 0
                from math import gcd
                g = 0
                for x in v:
                    g = gcd(g, x)
                assert g == 1  # integral, content 1

    def test_sparse_echelon_matches_dense_rref(self):
        # fractional rows, negative leading entries and dependent rows all go
        # through the primitive integer rows
        rng = random.Random(11)
        for _ in range(30):
            rows = [
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) if rng.random() < 0.6 else 0
                 for _ in range(7)]
                for _ in range(rng.randrange(1, 9))
            ]
            rows.append([Fraction(-3, 2) * x for x in rows[0]])
            red, pivots = _dense_rref(rows)
            piv = sparse_echelon(enumerate(row) for row in rows)
            assert sorted(piv) == pivots
            assert [[piv[c].get(j, 0) for j in range(7)] for c in pivots] == red


class TestBadInputPythonO:
    def test_typed_errors_under_python_O(self, run_python_O):
        # bad input and the functional-equation check raise typed errors,
        # which `python -O` keeps
        proc = run_python_O(
            "import kurihara.exactmath as X\n"
            "import kurihara.lseries as L\n"
            "from kurihara.curve import CurveData\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "def raises(exc, f):\n"
            "    try:\n"
            "        f()\n"
            "    except exc:\n"
            "        return True\n"
            "    return False\n"
            "checks = [\n"
            "    raises(ValueError, lambda: X.factorize(-6)),\n"
            "    raises(ValueError, lambda: X.primitive_root(2, 3)),\n"
            "    raises(ValueError, lambda: X.AbelianGroup((3, 0))),\n"
            "    raises(ValueError, lambda: X.UnitGroup(-5)),\n"
            "    raises(ValueError, lambda: X.unit_reduction(X.unit_group(15), X.unit_group(7))),\n"
            "]\n"
            "E = CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5)\n"
            "L._partial_sum = lambda E, a, t: t\n"
            "checks.append(raises(CorrectnessAlarm, lambda: L.lvalue_and_sign(E)))\n"
            "print(*checks)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"] * 6
