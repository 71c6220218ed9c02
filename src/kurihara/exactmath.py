"""Exact arithmetic substrate.

Coefficient rings (arbitrary-precision rationals and Z/p^m), finite abelian
groups presented as products of cyclic groups, unit groups (Z/n)^* with their
CRT presentation, group rings, and exact linear algebra: one sparse exact
echelon over Q, on primitive integer rows, serves the Manin quotient, the
kernels and the eigenlines.
Group elements are numbered in mixed-radix order (the last coordinate
fastest).  A group-ring element is stored flat, one coefficient per group
element in that order, and a homomorphism is an index array (the codomain
index of each domain element) built from the images of the generators.
Everything here is immutable after construction and all operations are pure
functions.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    DenominatorDivisibleByP,
    MismatchedGroup,
    MismatchedRing,
    NotAQuotient,
    NotAHomomorphism,
    NotASurjection,
    NotAUnit,
)


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): Miller-Rabin to the first k primes is proved correct for every
# n < psi_k, the least strong pseudoprime to all of them (Pomerance-Selfridge-
# Wagstaff 1980 to k = 4, Jaeschke 1993 to k = 8, Sorenson-Webster 2015 for
# k = 9 and 12; psi_8 = psi_7 and psi_10 = psi_11 = psi_12).
_MR_BANDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)


def is_prime(n):
    """Primality by trial division to 37, then Miller-Rabin.

    The bases are the shortest prefix of the first twelve primes proved
    sufficient below n (`_MR_BANDS`), so the answer is exact for n below
    3.18e23; above that all twelve run, a probable-prime test.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MR_BANDS if n < bound), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Factor n >= 1 by trial division; returns {prime: exponent}."""
    if n < 1:
        raise ValueError(f"can only factor a positive integer, got {n}")
    out = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 5
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 2 if q % 3 == 2 else 4
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(q, e=1):
    """Smallest primitive root modulo q^e for an odd prime q (or q^e in {2,4})."""
    mod = q**e
    if mod == 2:
        return 1
    if mod == 4:
        return 3
    if q % 2 == 0:
        raise ValueError(f"no primitive root modulo {q}^{e}")
    order = (q - 1) * q ** (e - 1)
    qfactors = list(factorize(order))
    g = 2
    while True:
        if all(pow(g, order // f, mod) != 1 for f in qfactors):
            return g
        g += 1


# ---------------------------------------------------------------------------
# coefficient rings


class RationalField:
    """The exact rationals, as a coefficient-ring object for group rings."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def reduce_all(self, values):
        """Tuple of the ints and Fractions `values` as ring elements."""
        return tuple(map(self.coerce, values))

    coerce_all = reduce_all  # every int and Fraction is already exact here

    def scale_all(self, values, c):
        """Tuple of the ints `values` times the rational c, one Fraction per distinct int."""
        num, den = c.as_integer_ratio()
        values = list(values)
        made = {t: Fraction(t * num, den) for t in set(values)}
        return tuple(map(made.__getitem__, values))

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class ResidueRing:
    """Z/p^m for an odd prime p; elements are plain ints in [0, p^m)."""

    def __init__(self, p, m=1):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        if m < 1:
            raise ValueError("exponent must be >= 1")
        self.p = p
        self.m = m
        self.modulus = p**m
        self.zero = 0
        self.one = 1 % self.modulus

    def coerce(self, x):
        """Reduce an int or Fraction into the ring."""
        if isinstance(x, Fraction):
            num, den = x.as_integer_ratio()
            if den != 1:
                if den % self.p == 0:
                    raise DenominatorDivisibleByP(
                        f"denominator {den} not invertible mod {self.p}^{self.m}"
                    )
                num *= pow(den, -1, self.modulus)
            return num % self.modulus
        return x % self.modulus

    def coerce_all(self, values):
        """Tuple of the ints and Fractions `values` reduced into [0, p^m).

        One modular inverse per distinct denominator; the first coefficient
        whose denominator p divides raises DenominatorDivisibleByP, as
        `coerce` does.
        """
        modulus = self.modulus
        inverses = {1: 1}
        out = []
        for x in values:
            num, den = x.as_integer_ratio()
            inv = inverses.get(den)
            if inv is None:
                inv = inverses[den] = self.coerce(Fraction(1, den))
            out.append(num * inv % modulus)
        return tuple(out)

    def scale_all(self, values, c):
        """Tuple of the ints `values` times the rational c, reduced into [0, p^m);
        the first product that is not p-integral raises DenominatorDivisibleByP."""
        num, den = c.as_integer_ratio()
        pv = gcd(den, self.p ** den.bit_length())  # t * c is p-integral iff pv | t * num
        values = [t * num for t in values]
        bad = next((t for t in values if t % pv), None) if pv > 1 else None
        if bad is not None:
            self.coerce(Fraction(bad, den))  # raises DenominatorDivisibleByP
        k, modulus = pow(den // pv, -1, self.modulus), self.modulus
        return tuple([t // pv * k % modulus for t in values])

    def reduce_all(self, values):
        """Tuple of the ints `values` reduced into [0, p^m)."""
        modulus = self.modulus
        return tuple([x % modulus for x in values])

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit(f"{a} is not a unit mod {self.p}^{self.m}")
        return pow(a, -1, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueRing)
            and other.p == self.p
            and other.m == self.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"Z/{self.p}^{self.m}"


# ---------------------------------------------------------------------------
# finite abelian groups


class AbelianGroup:
    """Product of cyclic groups Z/n1 x ... x Z/nk; elements are int tuples.

    `elements()` lists them in mixed-radix order, the last coordinate running
    fastest, which is also sorted tuple order; `index(g)` is the position of g
    in that list, and group-ring coefficients are stored in that order.
    """

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic factor orders must be positive, got {orders}")
        self.orders = orders
        self.identity = tuple(0 for _ in orders)
        self.order = 1
        for n in orders:
            self.order *= n
        self._elements = None

    def mul(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def inv(self, a):
        return tuple(-x % n for x, n in zip(a, self.orders))

    def elements(self):
        if self._elements is None:
            elems = [()]
            for n in self.orders:
                elems = [e + (i,) for e in elems for i in range(n)]
            self._elements = [tuple(e) for e in elems]
        return self._elements

    def index(self, g):
        """Position of g in elements()."""
        if len(g) != len(self.orders):
            raise ValueError(f"{g} is not an element of {self}")
        i = 0
        for x, n in zip(g, self.orders):
            if not 0 <= x < n:
                raise ValueError(f"{g} is not an element of {self}")
            i = i * n + x
        return i

    def basis(self):
        """The generators of the cyclic factors: 1 in one coordinate, 0 elsewhere."""
        k = len(self.orders)
        return [tuple(int(i == j) for i in range(k)) for j in range(k)]

    def negated(self):
        """index(g^-1) for each element g, in element order."""
        idx = [0]
        for n in self.orders:
            idx = [i * n + -j % n for i in idx for j in range(n)]
        return idx

    def _shifted(self, g):
        """index(g*h) for each element h, in element order."""
        idx = [0]
        for x, n in zip(g, self.orders):
            cycle = [(j + x) % n for j in range(n)]
            idx = [i * n + y for i in idx for y in cycle]
        return idx

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and other.orders == self.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "Z/" + " x Z/".join(str(n) for n in self.orders) if self.orders else "1"


class UnitGroup(AbelianGroup):
    """(Z/n)^* presented via CRT and a primitive root per odd prime power.

    Group elements are exponent tuples; `sigma(a)` and `residue(t)` translate
    between residues a mod n (coprime to n) and tuples.  Factors of order 1
    are dropped, so (Z/1)^* and (Z/2)^* are the trivial group ().
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        self.n = n
        factors = []  # (prime_power, generator, order)
        for q, e in sorted(factorize(n).items()):
            qe = q**e
            if q == 2:
                if e == 2:
                    factors.append((4, 3, 2))
                elif e >= 3:
                    factors.append((qe, qe - 1, 2))
                    factors.append((qe, 3, 2 ** (e - 2)))
                # e == 1 contributes nothing
            else:
                factors.append((qe, primitive_root(q, e), (q - 1) * q ** (e - 1)))
        self.factors = tuple(factors)
        super().__init__(tuple(f[2] for f in factors))
        self._dlog_tables = None

    def _tables(self):
        if self._dlog_tables is None:
            tables = []
            for qe, g, order in self.factors:
                t = {}
                x = 1 % qe
                for i in range(order):
                    t[x] = i
                    x = x * g % qe
                tables.append(t)
            self._dlog_tables = tables
        return self._dlog_tables

    def sigma(self, a):
        """Tuple form of the Galois element sigma_a (a must be a unit mod n)."""
        a %= self.n
        if gcd(a, self.n) != 1:
            raise NotAUnit(f"{a} is not a unit mod {self.n}")
        tables = self._tables()
        out = []
        i = 0
        for qe, g, order in self.factors:
            r = a % qe
            if qe % 2 == 0 and qe >= 8 and g == qe - 1:
                # sign coordinate of (Z/2^e)^* = <-1> x <3>: x lies in <3>
                # exactly when x = 1 or 3 mod 8
                out.append(0 if r % 8 in (1, 3) else 1)
                i += 1
                continue
            if qe % 2 == 0 and qe >= 8 and g == 3:
                if r % 8 not in (1, 3):
                    r = -r % qe
            out.append(tables[i][r])
            i += 1
        return tuple(out)

    def residue(self, t):
        """Residue a mod n represented by the exponent tuple t."""
        a = 1 % self.n
        for x, (qe, g, order) in zip(t, self.factors):
            mod_part = pow(g, x % order, qe)
            # CRT: move the local value to a global residue
            rest = self.n // qe
            if rest == 1:
                a = a * mod_part % self.n
            else:
                _, u, v = xgcd(qe, rest)
                # u*qe + v*rest = 1; component (mod_part at qe, 1 at rest)
                a = a * (mod_part * v * rest + u * qe) % self.n
        return a % self.n if self.n > 1 else 0

    def runs(self, codomain, images):
        """The elements in element order, one run of the last coordinate at a time.

        Yields (residues, indices) per run: each element's residue a mod n,
        and the codomain index of its image under the well-defined map that
        sends the j-th element of `basis()` to images[j].  A step multiplies
        by a generator's CRT residue and moves the index along its shift
        table, so nothing the size of the group is kept; a run's indices
        repeat the cycle of its first one under the last generator.
        """
        n = self.n
        # the trivial group is one run, of the element 1 (at index 0)
        mults = [self.residue(e) for e in self.basis()] or [1]
        shifts = [codomain._shifted(h) for h in images] or [[0]]
        *outer, last = self.orders or (1,)
        x, r = 1, mults[-1]
        powers = [1] + [x := x * r % n for _ in range(last - 1)]
        step, cycles, digits = shifts[-1], {}, [0] * len(outer)
        a, g = 1, 0
        while True:
            cycle = cycles.setdefault(g, [g])
            while step[cycle[-1]] != g:  # built on the first visit of g
                cycle.append(step[cycle[-1]])
            yield ([a * q % n for q in powers] if a != 1 else powers), cycle * (last // len(cycle))
            for j in reversed(range(len(outer))):  # the next run: carry from the right
                a, g = a * mults[j] % n, shifts[j][g]
                digits[j] = (digits[j] + 1) % outer[j]
                if digits[j]:
                    break
            else:
                return

    def __eq__(self, other):
        return isinstance(other, UnitGroup) and other.n == self.n

    def __hash__(self):
        return hash(("unit", self.n))

    def __repr__(self):
        return f"(Z/{self.n})^*"


class GroupHom:
    """Surjective homomorphism of finite abelian groups, fixed by generator images.

    `images[j]` is the image of the j-th element of `domain.basis()`.  The map
    is stored as `image`: the codomain index of each domain element, in element
    order, built by mixed-radix accumulation one codomain coordinate at a time.
    The constructor checks that each image's order divides its generator's
    order, so the map is well defined, and that the image covers the codomain.
    """

    def __init__(self, domain, codomain, images):
        if len(images) != len(domain.orders):
            raise NotAHomomorphism(
                f"{len(images)} generator images for {len(domain.orders)} generators of {domain}"
            )
        for n, h in zip(domain.orders, images):
            if len(h) != len(codomain.orders) or any(
                n * x % m for x, m in zip(h, codomain.orders)
            ):
                raise NotAHomomorphism(
                    f"image {h} in {codomain} of a generator of order {n} of {domain}"
                )
        image = [0] * domain.order
        for k, m in enumerate(codomain.orders):
            column = [0]  # coordinate k of the image of each domain element
            for n, h in zip(domain.orders, images):
                steps = [i * h[k] % m for i in range(n)]
                column = [(v + s) % m for v in column for s in steps]
            image = [i * m + v for i, v in zip(image, column)]
        if len(set(image)) != codomain.order:
            raise NotASurjection(f"map from {domain} does not cover {codomain}")
        self.domain = domain
        self.codomain = codomain
        self.image = tuple(image)

    def __call__(self, g):
        return self.codomain.elements()[self.image[self.domain.index(g)]]


UNIT_GROUP_CACHE = 1 << 10  # levels n whose (Z/n)^* is kept
UNIT_REDUCTION_CACHE = 1 << 12  # (D, e) pairs whose surjection is kept


@lru_cache(maxsize=UNIT_GROUP_CACHE)
def unit_group(n):
    """Cached UnitGroup(n); instances are immutable so sharing is safe."""
    return UnitGroup(n)


@lru_cache(maxsize=UNIT_REDUCTION_CACHE)
def unit_reduction(big, small):
    """The natural surjection (Z/D)^* -> (Z/e)^* for e | D, cached.

    Each generator of (Z/D)^* goes to sigma of its residue reduced mod e.
    """
    if big.n % small.n:
        raise ValueError(f"{small.n} does not divide {big.n}: no reduction (Z/D)^* -> (Z/e)^*")
    images = [small.sigma(big.residue(e) % small.n) for e in big.basis()]
    return GroupHom(big, small, images)


# ---------------------------------------------------------------------------
# group rings


class GroupRingElement:
    """Element of R[G], stored flat: one coefficient per group element.

    `coeffs` is a tuple of length |G| in the order of `group.elements()`, with
    zeros stored as `ring.zero`; it is private to this module, and `items()`
    and `coefficient(g)` read it.  The coefficient ring is QQ or a
    ResidueRing, whose elements are Python Fractions or ints, and is
    homogeneous per element.  The constructor takes a dict {g: c}, absent
    keys meaning zero, and coerces each coefficient into the ring.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group, ring, coeffs):
        flat = [ring.zero] * group.order
        for g, c in coeffs.items():
            flat[group.index(g)] = ring.coerce(c)
        self.group = group
        self.ring = ring
        self.coeffs = tuple(flat)

    @classmethod
    def _of(cls, group, ring, coeffs):
        """Element from a flat tuple of coefficients already in the ring."""
        x = object.__new__(cls)
        x.group = group
        x.ring = ring
        x.coeffs = coeffs
        return x

    @classmethod
    def from_values(cls, group, ring, values):
        """Element with the coefficients `values`, already in the ring, in element order."""
        coeffs = tuple(values)
        if len(coeffs) != group.order:
            raise ValueError(f"{len(coeffs)} coefficients for a group of order {group.order}")
        return cls._of(group, ring, coeffs)

    @classmethod
    def zero(cls, group, ring):
        return cls(group, ring, {})

    @classmethod
    def monomial(cls, group, ring, g, c=None):
        return cls(group, ring, {g: ring.one if c is None else c})

    @classmethod
    def one(cls, group, ring):
        return cls.monomial(group, ring, group.identity)

    def _check(self, other):
        if self.group != other.group:
            raise MismatchedGroup(f"{self.group} != {other.group}")
        if self.ring != other.ring:
            raise MismatchedRing(f"{self.ring} != {other.ring}")

    def __add__(self, other):
        self._check(other)
        values = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return self._of(self.group, self.ring, self.ring.reduce_all(values))

    def __neg__(self):
        return self._of(self.group, self.ring, self.ring.reduce_all([-a for a in self.coeffs]))

    def __sub__(self, other):
        self._check(other)
        values = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return self._of(self.group, self.ring, self.ring.reduce_all(values))

    def _support(self):
        return len(self.coeffs) - self.coeffs.count(0)

    def __mul__(self, other):
        """Sum of c * (g times the other factor) over the terms c*g of the sparser one.

        Products are summed as plain ints or Fractions and each output
        coefficient is reduced into the ring once, as in the other operations.
        """
        self._check(other)
        sparse, dense = (self, other) if self._support() <= other._support() else (other, self)
        group, b = self.group, dense.coeffs
        out = [0] * group.order
        for g, c in sparse.items():
            out = [s + c * b[i] for s, i in zip(out, group._shifted(group.inv(g)))]
        return self._of(group, self.ring, self.ring.reduce_all(out))

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._of(self.group, self.ring, self.ring.reduce_all([v * c for v in self.coeffs]))

    def translate(self, g):
        """Multiply by the group element g (a monomial with coefficient 1)."""
        group, c = self.group, self.coeffs
        return self._of(group, self.ring, tuple([c[i] for i in group._shifted(group.inv(g))]))

    def items(self):
        """The nonzero coefficients as (g, c), in element order."""
        return ((g, c) for g, c in zip(self.group.elements(), self.coeffs) if c)

    def coefficient(self, g):
        return self.coeffs[self.group.index(g)]

    def augmentation(self):
        return self.ring.coerce(sum(self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def change_ring(self, ring):
        return self._of(self.group, ring, ring.coerce_all(self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = [f"({c})*{g}" for g, c in self.items()]
        if not parts:
            return "0"
        return " + ".join(parts[:8]) + (" + ..." if len(parts) > 8 else "")

    def to_json(self):
        """Canonical serialization: sorted keys, reduced coefficients, no zeros."""
        coeffs = [
            [list(g), f"{c.numerator}/{c.denominator}" if type(c) is Fraction else int(c)]
            for g, c in zip(self.group.elements(), self.coeffs)
            if c
        ]
        return {"group": list(self.group.orders), "coeffs": coeffs}


def norm_map(x, hom):
    """Lift x in R[H] along the surjection hom: G -> H by summing each fiber.

    Each g in G takes the coefficient of hom(g).
    """
    if x.group != hom.codomain:
        raise NotAQuotient(
            f"element lives over {x.group}, not the quotient {hom.codomain}"
        )
    c = x.coeffs
    return GroupRingElement._of(hom.domain, x.ring, tuple([c[i] for i in hom.image]))


def projection_map(x, hom):
    """Push x in R[G] forward along hom: G -> H (coefficientwise fiber sums)."""
    if x.group != hom.domain:
        raise MismatchedGroup("element not over the domain of the surjection")
    out = [0] * hom.codomain.order
    for i, c in zip(hom.image, x.coeffs):
        out[i] += c
    return GroupRingElement._of(hom.codomain, x.ring, x.ring.reduce_all(out))


# ---------------------------------------------------------------------------
# exact linear algebra


def _content_one(row):
    """A sparse integer row (dict column -> int) divided by its content."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(row, other, c):
    """Integer row with column c of `row` cleared by `other`, content 1.

    Both rows are primitive integer dicts and other[c] > 0 is its pivot; the
    result is a*row - b*other with a/b = other[c]/row[c] in lowest terms, and
    a > 0 keeps the sign of row's own pivot during back-substitution.
    """
    a, b = other[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * x for j, x in row.items()} if a != 1 else row
    for j, y in other.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _content_one(out)


def sparse_echelon(rows):
    """Reduced row echelon form over Q of sparse rows.

    Each row is an iterable of (column, coeff) pairs with distinct columns and
    int or Fraction coefficients. Returns {pivot: row}, each row a dict
    column -> Fraction holding 1 at its pivot and no other pivot column: the
    nonzero rows of the dense RREF, keyed by their leading columns.

    Each input row is cleared of denominators and divided by its content, so
    elimination and back-substitution run on primitive integer rows; only the
    returned rows are Fractions.
    """
    piv = {}
    for items in rows:
        items = [(c, x) for c, x in items if x]
        den = lcm(*(x.denominator for _, x in items))
        row = _content_one({c: x.numerator * (den // x.denominator) for c, x in items})
        # reduce against the pivot rows met so far, smallest column first
        while row:
            c = min(row)
            if c not in piv:
                if row[c] < 0:
                    row = {j: -x for j, x in row.items()}
                piv[c] = row
                break
            row = _eliminate(row, piv[c], c)
    # back-substitute from the right: rows with larger pivots are reduced first
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            row = _eliminate(row, piv[j], j)
        piv[c] = row
    return {c: {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in piv.items()}


def primitive_vector(vec):
    """Scale a rational vector to integral with content 1 and a canonical sign."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints


def echelon_kernel(red, ncols):
    """Basis of the kernel of the rows whose RREF is `red` (from sparse_echelon).

    Free column f gives the vector with 1 at f and -row[f] at each pivot;
    basis vectors are integral, primitive (content 1) and sign-normalised.
    """
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        v = [0] * ncols
        v[f] = 1
        for c, row in red.items():
            x = row.get(f)
            if x:
                v[c] = -x
        basis.append(primitive_vector(v))
    return basis
