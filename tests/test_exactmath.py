import random
import re
from fractions import Fraction
from math import gcd

import pytest

from kurihara.errors import (
    DenominatorDivisibleByP,
    MismatchedGroup,
    MismatchedRing,
    NotAHomomorphism,
    NotAQuotient,
    NotASurjection,
)
from kurihara.exactmath import (
    QQ,
    AbelianGroup,
    GroupHom,
    GroupRingElement,
    ResidueRing,
    UnitGroup,
    echelon_kernel,
    is_prime,
    norm_map,
    projection_map,
    sparse_echelon,
    unit_group,
    unit_reduction,
)
from test_modsym import _dense_rref
from conftest import residues
from kurihara.curve import primes_upto


def random_element(group, ring, rng, density=0.7):
    coeffs = {}
    for g in group.elements():
        if rng.random() < density:
            if ring == QQ:
                coeffs[g] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            else:
                coeffs[g] = rng.randrange(ring.modulus)
    return GroupRingElement(group, ring, coeffs)


# Group-ring arithmetic on dicts {g: c} with zero coefficients left out, and
# the homomorphisms element by element: the definitions the flat coefficient
# tuples and index arrays are checked against.


def as_dict(x):
    return dict(x.items())


def _nonzero(ring, coeffs):
    return {g: c for g, c in coeffs.items() if c != ring.zero}


def ref_add(ring, x, y):
    out = dict(x)
    for g, c in y.items():
        out[g] = ring.coerce(out.get(g, ring.zero) + c)
    return _nonzero(ring, out)


def ref_neg(ring, x):
    return {g: ring.neg(c) for g, c in x.items()}


def ref_mul(group, ring, x, y):
    out = {}
    for g, c in x.items():
        for h, d in y.items():
            k = group.mul(g, h)
            out[k] = ring.coerce(out.get(k, ring.zero) + ring.mul(c, d))
    return _nonzero(ring, out)


def ref_scale(ring, x, c):
    c = ring.coerce(c)
    return _nonzero(ring, {g: ring.mul(v, c) for g, v in x.items()})


def ref_translate(group, x, g):
    return {group.mul(g, h): c for h, c in x.items()}


def ref_change_ring(ring, x):
    return _nonzero(ring, {g: ring.coerce(c) for g, c in x.items()})


def ref_norm_map(mapping, x):
    fibers = {}
    for g, h in mapping.items():
        fibers.setdefault(h, []).append(g)
    return {g: c for h, c in x.items() for g in fibers[h]}


def ref_projection_map(ring, mapping, x):
    out = {}
    for g, c in x.items():
        h = mapping[g]
        out[h] = ring.coerce(out.get(h, ring.zero) + c)
    return _nonzero(ring, out)


def ref_reduction(big, small):
    """(Z/D)^* -> (Z/e)^*, element by element."""
    return {t: small.sigma(big.residue(t) % small.n) for t in big.elements()}


def ref_hom(domain, codomain, images):
    """t -> sum of t_j times the j-th generator image, by repeated multiplication."""
    out = {}
    for t in domain.elements():
        h = codomain.identity
        for x, image in zip(t, images):
            for _ in range(x):
                h = codomain.mul(h, image)
        out[t] = h
    return out


def dense_inverse(x):
    """x^-1 in Z/p^m[G], or None when x is no unit.

    Gauss-Jordan on the matrix of multiplication by x (column j is x times
    the j-th group element), pivoting only on units: a square matrix over the
    local ring Z/p^m is invertible exactly when it is so mod p.  A dense solve
    in |G| unknowns, independent of the augmentation criterion it checks.
    """
    group, ring = x.group, x.ring
    n, mod = group.order, ring.modulus
    rows = [[0] * (n + 1) for _ in range(n)]
    for j, g in enumerate(group.elements()):
        for h, c in x.translate(g).items():
            rows[group.index(h)][j] = c
    rows[group.index(group.identity)][n] = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] % ring.p), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, mod)
        rows[c] = [v * inv % mod for v in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [(v - f * w) % mod for v, w in zip(rows[i], rows[c])]
    return GroupRingElement.from_values(group, ring, [row[n] for row in rows])


def p_part_quotient(G, p):
    """G onto its quotient by the prime-to-p part, as (AbelianGroup, GroupHom).

    Each cyclic factor Z/n maps onto Z/p^{v_p(n)} by reducing the exponent;
    factors with no p-part disappear.
    """
    pks = []
    for n in G.orders:
        pk = 1
        while n % (pk * p) == 0:
            pk *= p
        pks.append(pk)
    quotient = AbelianGroup(tuple(pk for pk in pks if pk > 1))
    basis = iter(quotient.basis())
    images = [next(basis) if pk > 1 else quotient.identity for pk in pks]
    return quotient, GroupHom(G, quotient, images)


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
            assert as_dict(x * y) == ref_mul(G, R, as_dict(x), as_dict(y))

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

    def test_combine_is_two_scales_and_a_sum(self):
        rng = random.Random(5)
        cases = [(AbelianGroup((6,)), ResidueRing(7, 2)), (AbelianGroup((2, 5)), ResidueRing(5, 3)),
                 (unit_group(833), ResidueRing(7, 2)), (AbelianGroup((3, 4)), QQ)]
        for G, R in cases:
            for _ in range(8):
                x, y = random_element(G, R, rng), random_element(G, R, rng)
                if R == QQ:
                    a, b = Fraction(rng.randrange(-9, 10), 7), Fraction(rng.randrange(-9, 10), 4)
                else:
                    a, b = (rng.randrange(-R.modulus, 2 * R.modulus) for _ in range(2))
                assert x.combine(a, y, b) == x.scale(a) + y.scale(b)
                assert x.combine(1, y, -1) == x - y

    def test_combine_mismatch_errors(self):
        # combine refuses what + refuses, with the same errors
        R = ResidueRing(7, 2)
        x = GroupRingElement.one(AbelianGroup((2,)), R)
        other_group = GroupRingElement.one(AbelianGroup((3,)), R)
        other_ring = GroupRingElement.one(AbelianGroup((2,)), ResidueRing(7, 1))
        for y, error in ((other_group, MismatchedGroup), (other_ring, MismatchedRing)):
            with pytest.raises(error):
                x + y
            with pytest.raises(error):
                x.combine(1, y, 1)

    def test_invert_unit(self):
        G = AbelianGroup((3,))
        R = ResidueRing(5, 2)
        # 1 - 5*s is a unit (augmentation 1 - 5 = -4 is a unit, p-group ring)
        x = GroupRingElement(G, R, {(0,): 1, (1,): 20})
        inv = dense_inverse(x)
        assert x * inv == GroupRingElement.one(G, R)
        assert dense_inverse(GroupRingElement(G, R, {(0,): 5})) is None

    @pytest.mark.parametrize("p, m, orders", [(5, 1, (5,)), (5, 2, (5, 5)), (7, 2, (7,)),
                                              (5, 1, (25,)), (3, 2, (3, 9))])
    def test_unit_exactly_when_augmentation_is(self, p, m, orders):
        # Z/p^m[P] is local for a p-group P: the augmentation criterion the
        # identity suite uses agrees with the dense solve
        G, R = AbelianGroup(orders), ResidueRing(p, m)
        one = GroupRingElement.one(G, R)
        rng = random.Random(p * 100 + G.order)
        units = 0
        for _ in range(30):
            x = random_element(G, R, rng)
            # and an element of augmentation 0, never a unit
            for y in (x, x - one.scale(x.augmentation())):
                inv = dense_inverse(y)
                assert (inv is not None) == R.is_unit(y.augmentation())
                if inv is not None:
                    assert y * inv == one
                    units += 1
        assert units > 0


class TestNormProjection:
    def test_norm_of_identity_counts_kernel(self):
        big, small = unit_group(35), unit_group(7)
        hom = unit_reduction(big, small)
        x = GroupRingElement.one(small, QQ)
        lifted = norm_map(x, hom)
        assert len(list(lifted.items())) == big.order // small.order == 4
        assert lifted.augmentation() == 4

    def test_projection_after_norm_is_index(self):
        rng = random.Random(5)
        for nbig, nsmall in [(35, 7), (45, 9), (21, 3)]:
            big, small = unit_group(nbig), unit_group(nsmall)
            hom = unit_reduction(big, small)
            k = big.order // small.order
            for _ in range(100):
                x = random_element(small, QQ, rng)
                assert projection_map(norm_map(x, hom), hom) == x.scale(k)

    def test_norm_bilinearity(self):
        big, small = unit_group(33), unit_group(11)
        hom = unit_reduction(big, small)
        lift = {}
        for t in big.elements():
            lift.setdefault(hom(t), t)
        rng = random.Random(6)
        for _ in range(20):
            x = random_element(small, QQ, rng)
            y = random_element(small, QQ, rng)
            # nu(x * y) = nu(x) * lift(y) for any lift of y through the fibers
            lift_y = GroupRingElement(big, QQ, {lift[g]: c for g, c in y.items()})
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
        # the generator of Z/2 sent to 2 in Z/4: a homomorphism onto {0, 2}
        with pytest.raises(NotASurjection):
            GroupHom(AbelianGroup((2,)), AbelianGroup((4,)), [(2,)])

    def test_norm_rejects_wrong_quotient(self):
        big, small = unit_group(35), unit_group(7)
        hom = unit_reduction(big, small)
        x = GroupRingElement.one(unit_group(5), QQ)
        with pytest.raises(NotAQuotient):
            norm_map(x, hom)


def _divisors(n):
    return [e for e in range(1, n + 1) if n % e == 0]


class TestHomomorphisms:
    def test_unit_reduction_matches_elementwise_definition(self):
        # every divisor pair of D <= 399 and of six larger D with big 2- and
        # 7-parts; the uncached function keeps the 2,561 maps out of the cache
        for D in list(range(1, 400)) + [833, 1024, 2000, 3072, 4096, 9800]:
            big = UnitGroup(D)
            elems = big.elements()
            residues = [big.residue(t) for t in elems]
            for e in _divisors(D):
                small = UnitGroup(e)
                hom = unit_reduction.__wrapped__(big, small)
                assert [hom(t) for t in elems] == [small.sigma(r % e) for r in residues], (D, e)

    @pytest.mark.parametrize("n, p", [(11 * 31, 5), (5**3 * 11, 5), (7**2 * 29 * 43, 7),
                                      (2**6 * 3**4, 2), (2**6 * 3**4, 3), (13, 7)])
    def test_p_part_quotient_is_coordinate_reduction(self, n, p):
        G = unit_group(n)
        Q, hom = p_part_quotient(G, p)
        kept = []
        for i, order in enumerate(G.orders):
            pk = 1
            while order % (pk * p) == 0:
                pk *= p
            if pk > 1:
                kept.append((i, pk))
        assert Q.orders == tuple(pk for _, pk in kept)
        for t in G.elements():
            assert hom(t) == tuple(t[i] % pk for i, pk in kept)

    def test_image_of_wrong_order_raises(self):
        # a generator of order 2 cannot go to 1 in Z/4, nor one of order 3
        # to a generator of Z/2; and each generator needs one image
        with pytest.raises(NotAHomomorphism):
            GroupHom(AbelianGroup((2,)), AbelianGroup((4,)), [(1,)])
        with pytest.raises(NotAHomomorphism):
            GroupHom(AbelianGroup((2, 3)), AbelianGroup((2,)), [(1,), (1,)])
        with pytest.raises(NotAHomomorphism):
            GroupHom(AbelianGroup((2, 3)), AbelianGroup((2,)), [(1,)])


def _homs(G):
    """Surjections out of G, each with its element-by-element reference map."""
    if isinstance(G, UnitGroup):
        return [(unit_reduction(G, unit_group(e)), ref_reduction(G, unit_group(e)))
                for e in (1, 7, 17, 49, G.n)]
    images = {
        (4, 3): [((12,), [(3,), (4,)]), ((2, 3), [(1, 0), (0, 1)]), ((4,), [(1,), (0,)])],
        (2, 3, 5): [((30,), [(15,), (10,), (6,)]), ((3, 5), [(0, 0), (1, 0), (0, 1)]),
                    ((), [(), (), ()])],
    }[G.orders]
    return [(GroupHom(G, AbelianGroup(h), im), ref_hom(G, AbelianGroup(h), im))
            for h, im in images]


FLAT_GROUPS = [AbelianGroup((4, 3)), AbelianGroup((2, 3, 5)), unit_group(833)]


@pytest.mark.parametrize("ring", [QQ, ResidueRing(7, 2)], ids=str)
@pytest.mark.parametrize("G", FLAT_GROUPS, ids=repr)
class TestFlatAgainstDict:
    """Flat coefficient tuples against the dict definitions, on random elements."""

    def test_ring_operations(self, G, ring):
        rng = random.Random(G.order)
        for density in (0.0, 0.05, 0.5, 1.0):
            x = random_element(G, ring, rng, density)
            y = random_element(G, ring, rng, min(1.0, 12 / G.order))
            X, Y = as_dict(x), as_dict(y)
            assert as_dict(x + y) == ref_add(ring, X, Y)
            assert as_dict(x - y) == ref_add(ring, X, ref_neg(ring, Y))
            assert as_dict(-x) == ref_neg(ring, X)
            assert as_dict(x * y) == as_dict(y * x) == ref_mul(G, ring, X, Y)
            c = rng.randrange(-60, 60)
            assert as_dict(x.scale(c)) == ref_scale(ring, X, c)
            g = rng.choice(G.elements())
            assert as_dict(x.translate(g)) == ref_translate(G, X, g)
            assert (x == GroupRingElement.zero(G, ring)) == (X == {})
            for h, c in X.items():
                assert x.coefficient(h) == c

    def test_change_ring(self, G, ring):
        rng = random.Random(G.order + 1)
        target = ResidueRing(7, 2) if ring == QQ else ResidueRing(7, 1)
        x = random_element(G, ring, rng)
        assert as_dict(x.change_ring(target)) == ref_change_ring(target, as_dict(x))

    def test_norm_and_projection(self, G, ring):
        rng = random.Random(G.order + 2)
        for hom, mapping in _homs(G):
            x = random_element(hom.codomain, ring, rng)
            y = random_element(G, ring, rng)
            assert as_dict(norm_map(x, hom)) == ref_norm_map(mapping, as_dict(x))
            assert as_dict(projection_map(y, hom)) == ref_projection_map(
                ring, mapping, as_dict(y)
            )

    def test_json_round_trip(self, G, ring):
        rng = random.Random(G.order + 3)
        x = random_element(G, ring, rng, 0.6)
        # the parent format: sorted keys, zeros left out
        expected = [[list(g), f"{c.numerator}/{c.denominator}" if ring == QQ else c]
                    for g, c in sorted(as_dict(x).items())]
        assert x.to_json() == {"group": list(G.orders), "coeffs": expected}


@pytest.mark.parametrize("G", FLAT_GROUPS[:2], ids=repr)
def test_flat_invert(G):
    # 1 + 7y is a unit of Z/7^2[G]: 7y is nilpotent
    ring = ResidueRing(7, 2)
    rng = random.Random(G.order + 4)
    one = GroupRingElement.one(G, ring)
    for _ in range(3):
        x = one + random_element(G, ring, rng).scale(7)
        assert x * dense_inverse(x) == one


class TestConstructorCoerces:
    def test_multiple_of_modulus_is_zero(self):
        G, R = AbelianGroup((2,)), ResidueRing(7)
        x = GroupRingElement(G, R, {(0,): 7})
        assert x == GroupRingElement.zero(G, R)
        assert GroupRingElement(G, R, {(1,): -5}).coefficient((1,)) == 2

    def test_rational_coefficients_reduce(self):
        G, R = AbelianGroup((3,)), ResidueRing(5, 2)
        x = GroupRingElement(G, R, {(2,): Fraction(1, 2)})
        assert x.coefficient((2,)) == 13
        assert GroupRingElement(G, QQ, {(1,): 3}).coefficient((1,)) == Fraction(3)

    def test_change_ring_one_inverse_per_denominator(self, monkeypatch):
        G, R = AbelianGroup((12,)), ResidueRing(7, 2)
        x = GroupRingElement(G, QQ, {(i,): Fraction(i - 5, (3, 5, 1)[i % 3]) for i in range(12)})
        expected = ref_change_ring(R, as_dict(x))
        inverted = []
        coerce = ResidueRing.coerce

        def counting(ring, value):
            inverted.append(value)
            return coerce(ring, value)

        monkeypatch.setattr(ResidueRing, "coerce", counting)
        assert as_dict(x.change_ring(R)) == expected
        assert inverted == [Fraction(1, 3), Fraction(1, 5)]

    def test_change_ring_keeps_denominator_error(self):
        # one coefficient with p in its denominator is enough, wherever it is
        G = AbelianGroup((6,))
        for bad in range(6):
            coeffs = {(i,): Fraction(1, 7 if i == bad else 3) for i in range(6)}
            with pytest.raises(DenominatorDivisibleByP, match="denominator 7"):
                GroupRingElement(G, QQ, coeffs).change_ring(ResidueRing(7, 2))
            with pytest.raises(DenominatorDivisibleByP):
                ResidueRing(7).coerce_all(list(coeffs.values()))

    def test_scale_all_is_coerce_of_each_product(self):
        # p^v is split out of the scale's denominator: t * c is p-integral
        # exactly when p^v divides t times its numerator, even where p
        # divides the denominator of c
        values = [0, 1, -3, 5, 10, 25, -50, 7 * 25]
        for R in (ResidueRing(5), ResidueRing(5, 2), ResidueRing(7, 2)):
            for c in (Fraction(1), Fraction(-3, 2), Fraction(2, 5), Fraction(4, 75),
                      Fraction(7, 25)):
                for t in values:
                    try:
                        want = R.coerce(t * c)
                    except DenominatorDivisibleByP as exc:
                        with pytest.raises(DenominatorDivisibleByP, match=re.escape(str(exc))):
                            R.scale_all([t], c)
                    else:
                        assert R.scale_all([t], c) == (want,)
        assert QQ.scale_all(values, Fraction(2, 5)) == tuple(t * Fraction(2, 5) for t in values)

    def test_non_element_raises(self):
        G = AbelianGroup((2, 3))
        with pytest.raises(ValueError):
            GroupRingElement(G, QQ, {(0, 3): 1})
        with pytest.raises(ValueError):
            GroupRingElement(G, QQ, {(0,): 1})


def _units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1] if n > 1 else [1]


class TestUnitGroup:
    def test_orders(self):
        assert unit_group(1).order == 1
        assert unit_group(2).order == 1
        assert unit_group(8).orders == (2, 2)
        assert unit_group(35).order == 24

    def test_sigma_residue_round_trip(self):
        for n in (15, 16, 24, 35, 77, 98):
            G = unit_group(n)
            for a in _units(n):
                assert G.residue(G.sigma(a)) == a % n

    def test_residues_in_element_order(self):
        for n in (1, 2, 4, 8, 15, 16, 24, 35, 77, 98, 833, 9800, 61 * 211):
            G = unit_group(n)
            walked = residues(G)
            assert walked == [G.residue(t) if n > 1 else 1 for t in G.elements()]
            assert sorted(walked) == _units(n)

    def test_run_indices_are_the_image_indices(self):
        # runs step each image index along the generators' shift tables; the
        # reference sums the exponents times the generator images directly
        rng = random.Random(11)
        for n in (1, 4, 8, 15, 16, 24, 35, 77, 98, 833, 9800, 61 * 211):
            G = unit_group(n)
            for codomain in (G, AbelianGroup((5,)), AbelianGroup((5, 25)), AbelianGroup((2, 3))):
                images = [tuple(rng.randrange(m) * (m // gcd(m, o)) % m for m in codomain.orders)
                          for o in G.orders]
                runs = list(G.runs(codomain, images))
                want = [
                    codomain.index(tuple(
                        sum(x * h[k] for x, h in zip(g, images)) % m
                        for k, m in enumerate(codomain.orders)
                    ))
                    for g in G.elements()
                ]
                assert [i for _, run in runs for i in run] == want, n
                assert [a for run, _ in runs for a in run] == residues(G)
                assert len(runs) == G.order // (G.orders[-1] if G.orders else 1)

    def test_sigma_is_homomorphism(self):
        G = unit_group(77)
        rng = random.Random(8)
        units = _units(77)
        for _ in range(50):
            a, b = rng.choice(units), rng.choice(units)
            assert G.mul(G.sigma(a), G.sigma(b)) == G.sigma(a * b % 77)

    def test_p_part_quotient(self):
        G = unit_group(11 * 31)  # orders 10 and 30; 5-parts 5 and 5
        Q, hom = p_part_quotient(G, 5)
        assert Q.orders == (5, 5)
        seen = {hom(g) for g in G.elements()}
        assert len(seen) == 25


def _dense_kernel(rows, ncols):
    """Right kernel of dense rows, read off their sparse RREF."""
    return echelon_kernel(sparse_echelon(enumerate(row) for row in rows), ncols)


class TestLinearAlgebra:
    def test_zero_matrix_kernel(self):
        basis = _dense_kernel([[0, 0, 0], [0, 0, 0]], 3)
        assert len(basis) == 3
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_kernel_empty(self):
        assert _dense_kernel([[1, 0], [0, 1]], 2) == []

    def test_random_rational_kernel(self):
        rng = random.Random(9)
        for _ in range(10):
            rows = [
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(8)]
                for _ in range(6)
            ]
            basis = _dense_kernel(rows, 8)
            rank = len(_dense_rref(rows)[1])
            assert rank + len(basis) == 8
            for v in basis:
                for row in rows:
                    assert sum(c * x for c, x in zip(row, v)) == 0
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


def _strong_probable_prime(n, a):
    """n passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestIsPrime:
    def test_agrees_with_eratosthenes(self):
        primes = set(primes_upto(20000))
        assert [n for n in range(-2, 20000) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize("n, k", [
        # psi_k, the least strong pseudoprime to the first k prime bases:
        # each band edge, where the k bases used below it stop sufficing
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 8),
        (3825123056546413051, 9),
    ])
    def test_strong_pseudoprimes_at_band_edges(self, n, k):
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23)[:k]
        assert all(n % q for q in bases)  # no trial division finds a factor
        assert all(_strong_probable_prime(n, a) for a in bases)
        assert not is_prime(n)
