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
    matrix_rank,
    norm_map,
    projection_map,
    unit_group,
    unit_reduction,
)


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
            rank = matrix_rank(rows)
            assert rank + len(basis) == 8
            for v in basis:
                for row in rows:
                    assert sum(c * x for c, x in zip(row, v)) == 0
                from math import gcd
                g = 0
                for x in v:
                    g = gcd(g, x)
                assert g == 1  # integral, content 1
