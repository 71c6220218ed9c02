"""Exact arithmetic substrate.

Coefficient rings (arbitrary-precision rationals and Z/p^m), finite abelian
groups presented as products of cyclic groups, unit groups (Z/n)^* with their
CRT presentation, group rings, and exact linear algebra: one sparse exact
echelon over Q, on primitive integer rows, serves the Manin quotient, the
kernels and the eigenlines; group-ring inverses solve over their own
coefficient ring.
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


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for 64-bit-ish inputs, fine far beyond desk scale
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
        return Fraction(x)

    def add(self, a, b):
        return a + b

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
            if x.denominator % self.p == 0:
                raise DenominatorDivisibleByP(
                    f"denominator {x.denominator} not invertible mod {self.p}^{self.m}"
                )
            return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus
        return x % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

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
    """Product of cyclic groups Z/n1 x ... x Z/nk; elements are int tuples."""

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

    def units(self):
        """All residues coprime to n, in increasing order."""
        return [a for a in range(1, self.n + 1) if gcd(a, self.n) == 1] if self.n > 1 else [1]

    def p_part_quotient(self, p):
        """Quotient by the prime-to-p subgroup, as (AbelianGroup, GroupHom).

        Each cyclic factor Z/n maps onto Z/p^{v_p(n)} by reducing the exponent;
        factors with no p-part disappear.
        """
        keep = []
        orders = []
        for i, n in enumerate(self.orders):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            if v > 0:
                keep.append((i, p**v))
                orders.append(p**v)
        quotient = AbelianGroup(tuple(orders))

        def fn(t):
            return tuple(t[i] % pk for i, pk in keep)

        return quotient, GroupHom(self, quotient, fn, check=False)

    def __eq__(self, other):
        return isinstance(other, UnitGroup) and other.n == self.n

    def __hash__(self):
        return hash(("unit", self.n))

    def __repr__(self):
        return f"(Z/{self.n})^*"


class GroupHom:
    """Homomorphism between finite abelian groups, given elementwise.

    Used for the natural projections between levels of the cyclotomic tower;
    `check=True` verifies surjectivity by enumerating the domain.
    """

    def __init__(self, domain, codomain, fn, check=True):
        self.domain = domain
        self.codomain = codomain
        self._map = {g: fn(g) for g in domain.elements()}
        if check and len(set(self._map.values())) != codomain.order:
            raise NotASurjection(f"map from {domain} does not cover {codomain}")
        self._fibers = None

    def __call__(self, g):
        return self._map[g]

    def fibers(self):
        if self._fibers is None:
            fib = {}
            for g, h in self._map.items():
                fib.setdefault(h, []).append(g)
            self._fibers = fib
        return self._fibers

    def kernel_size(self):
        return self.domain.order // self.codomain.order


UNIT_GROUP_CACHE = 1 << 10  # levels n whose (Z/n)^* is kept
UNIT_REDUCTION_CACHE = 1 << 12  # (D, e) pairs whose surjection is kept


@lru_cache(maxsize=UNIT_GROUP_CACHE)
def unit_group(n):
    """Cached UnitGroup(n); instances are immutable so sharing is safe."""
    return UnitGroup(n)


@lru_cache(maxsize=UNIT_REDUCTION_CACHE)
def unit_reduction(big, small):
    """The natural surjection (Z/D)^* -> (Z/e)^* for e | D, cached."""
    if big.n % small.n:
        raise ValueError(f"{small.n} does not divide {big.n}: no reduction (Z/D)^* -> (Z/e)^*")
    if small.n == 1:
        return GroupHom(big, small, lambda t: (), check=False)
    return GroupHom(
        big, small, lambda t: small.sigma(big.residue(t) % small.n), check=False
    )


# ---------------------------------------------------------------------------
# group rings


class GroupRingElement:
    """Element of R[G]: sparse map from group elements to ring elements.

    Absent keys mean coefficient zero.  The coefficient ring is one of QQ or a
    ResidueRing and is homogeneous per element.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group, ring, coeffs):
        self.group = group
        self.ring = ring
        self.coeffs = {g: c for g, c in coeffs.items() if c != ring.zero}

    @classmethod
    def zero(cls, group, ring):
        return cls(group, ring, {})

    @classmethod
    def monomial(cls, group, ring, g, c=None):
        c = ring.one if c is None else ring.coerce(c)
        return cls(group, ring, {g: c})

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
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = self.ring.add(out.get(g, self.ring.zero), c)
        return GroupRingElement(self.group, self.ring, out)

    def __neg__(self):
        return GroupRingElement(
            self.group, self.ring, {g: self.ring.neg(c) for g, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mul, add = self.ring.mul, self.ring.add
        gmul = self.group.mul
        out = {}
        zero = self.ring.zero
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = gmul(g, h)
                out[k] = add(out.get(k, zero), mul(c, d))
        return GroupRingElement(self.group, self.ring, out)

    def scale(self, c):
        c = self.ring.coerce(c)
        return GroupRingElement(
            self.group, self.ring, {g: self.ring.mul(v, c) for g, v in self.coeffs.items()}
        )

    def translate(self, g):
        """Multiply by the group element g (a monomial with coefficient 1)."""
        gmul = self.group.mul
        return GroupRingElement(
            self.group, self.ring, {gmul(g, h): c for h, c in self.coeffs.items()}
        )

    def coefficient(self, g):
        return self.coeffs.get(g, self.ring.zero)

    def augmentation(self):
        total = self.ring.zero
        for c in self.coeffs.values():
            total = self.ring.add(total, c)
        return total

    def is_zero(self):
        return not self.coeffs

    def change_ring(self, ring):
        out = {}
        for g, c in self.coeffs.items():
            out[g] = ring.coerce(c)
        return GroupRingElement(self.group, ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({c})*{g}" for g, c in sorted(self.coeffs.items())]
        return " + ".join(parts[:8]) + (" + ..." if len(parts) > 8 else "")

    def to_json(self):
        """Canonical serialization: sorted keys, reduced coefficients."""
        coeffs = []
        for g in sorted(self.coeffs):
            c = self.coeffs[g]
            if isinstance(c, Fraction):
                coeffs.append([list(g), f"{c.numerator}/{c.denominator}"])
            else:
                coeffs.append([list(g), int(c)])
        return {"group": list(self.group.orders), "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj, ring, group=None):
        if group is None:
            group = AbelianGroup(tuple(obj["group"]))
        coeffs = {}
        for key, val in obj["coeffs"]:
            if isinstance(val, str):
                num, den = val.split("/")
                c = Fraction(int(num), int(den))
            else:
                c = val
            coeffs[tuple(key)] = ring.coerce(c)
        return cls(group, ring, coeffs)

    def invert(self):
        """Inverse in R[G] via a linear solve; raises NotAUnit if singular.

        Cheap only for small groups; the callers keep |G| modest.
        """
        elems = self.group.elements()
        index = {g: i for i, g in enumerate(elems)}
        n = len(elems)
        ring = self.ring
        # multiplication-by-self matrix acting on coordinate vectors
        rows = [[ring.zero] * n for _ in range(n)]
        for h, c in self.coeffs.items():
            for g in elems:
                rows[index[self.group.mul(h, g)]][index[g]] = c
        rhs = [ring.zero] * n
        rhs[index[self.group.identity]] = ring.one
        sol = solve_residue(rows, rhs, ring)
        if sol is None:
            raise NotAUnit("group-ring element is not invertible")
        return GroupRingElement(
            self.group, ring, {g: sol[i] for g, i in index.items()}
        )


def norm_map(x, hom):
    """Lift x in R[H] along the surjection hom: G -> H by summing each fiber."""
    if x.group != hom.codomain:
        raise NotAQuotient(
            f"element lives over {x.group}, not the quotient {hom.codomain}"
        )
    fibers = hom.fibers()
    out = {}
    for h, c in x.coeffs.items():
        for g in fibers[h]:
            out[g] = c
    return GroupRingElement(hom.domain, x.ring, out)


def projection_map(x, hom):
    """Push x in R[G] forward along hom: G -> H (coefficientwise fiber sums)."""
    if x.group != hom.domain:
        raise MismatchedGroup("element not over the domain of the surjection")
    ring = x.ring
    out = {}
    for g, c in x.coeffs.items():
        h = hom(g)
        out[h] = ring.add(out.get(h, ring.zero), c)
    return GroupRingElement(hom.codomain, ring, out)


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


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel of a dense rational matrix (see echelon_kernel)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return echelon_kernel(sparse_echelon(enumerate(row) for row in rows), ncols)


def residue_echelon(rows, ring):
    """Gaussian elimination over Z/p^m pivoting only on units.

    Returns (matrix, pivot_columns, nonunit_columns): columns where no unit
    pivot was available are reported rather than silently divided by.
    """
    mat = [[ring.coerce(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    nonunit = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if ring.is_unit(mat[i][c]):
                pr = i
                break
        if pr is None:
            if any(mat[i][c] for i in range(r, nrows)):
                nonunit.append(c)
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ring.inv(mat[r][c])
        mat[r] = [ring.mul(x, inv) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [ring.add(x, ring.neg(ring.mul(f, y))) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots, nonunit


def solve_residue(rows, rhs, ring):
    """Solve A x = b over Z/p^m; None when elimination meets a non-unit pivot."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    mat, pivots, nonunit = residue_echelon(aug, ring)
    if nonunit and any(c < ncols for c in nonunit):
        return None
    if ncols in pivots:
        return None
    sol = [ring.zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = mat[r][ncols]
    for i in range(n):
        acc = ring.zero
        for j in range(ncols):
            acc = ring.add(acc, ring.mul(ring.coerce(rows[i][j]), sol[j]))
        if acc != ring.coerce(rhs[i]):
            return None
    return sol
