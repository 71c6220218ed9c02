"""Kolyvagin primes and Kurihara numbers.

The sieve picks the primes l with l = 1 mod p^max(m, n+1) whose reduction has
cyclic p^m-torsion; each carries a fixed generator h_l of (Z/l)^* and discrete
logarithms to that base.  delta_d in Z/p^m is read from theta_d, as
`mazurtate.plus_values` streams it, over the primes of d (`sieved_factors`,
once per row), by three routes.  Direct weighs each unit by its own per-prime
log lists.  Via and the derivative read the buckets of one projection to the
p-part quotient Gal(Q(d)/Q), stepped from the generator images: direct == via
checks the two sets of logs against each other, and the derivative checks the
norm-multiple shape of D_d theta_d mod p.
"""

from math import isqrt, prod

from .curve import count_divisible, p_torsion_structure, primes_upto
from .errors import NotAUnit, NotSquarefree, PrimeNotKolyvagin
from .exactmath import (
    AbelianGroup,
    GroupRingElement,
    ResidueRing,
    factorize,
    is_prime,
    primitive_root,
    unit_group,
)
from .records import record

DLOG_TABLE_LIMIT = 1 << 16  # full table below, baby-step/giant-step above


@record
class KolyvaginPrime:
    """A sieved prime with its generator and discrete-log context.

    The discrete-log list, indexed by residue (for ell <= DLOG_TABLE_LIMIT),
    or above the limit the baby steps of `_dlog_bsgs`, is built on first use
    by `dlog` or the direct route; neither takes part in equality or repr.
    """

    ell: int
    p: int
    generator: int
    _table = None
    _baby = None

    @property
    def p_part_order(self):
        k = 1
        n = self.ell - 1
        while n % self.p == 0:
            n //= self.p
            k *= self.p
        return k

    def _logs(self):
        """The discrete log of each residue mod ell, as a list (None at 0).

        Built on first use for ell <= DLOG_TABLE_LIMIT; None above it.
        """
        t = self._table
        if t is None and self.ell <= DLOG_TABLE_LIMIT:
            t = self._table = [None] * self.ell
            x = 1
            for i in range(self.ell - 1):
                t[x] = i
                x = x * self.generator % self.ell
        return t

    def dlog(self, a):
        """Exponent k with generator^k = a mod ell, in Z/(ell-1)."""
        a %= self.ell
        if a == 0:
            raise NotAUnit(f"{a} is not a unit mod {self.ell}")
        t = self._logs()
        if t is not None:
            return t[a]
        if self._baby is None:
            self._baby = _baby_steps(self.generator, self.ell)
        return _dlog_bsgs(a, self.generator, self.ell, self._baby)


def _baby_steps(g, l):
    """{g^j mod l: j} for 0 <= j <= isqrt(l - 1), the baby steps of `_dlog_bsgs`."""
    return {pow(g, j, l): j for j in range(isqrt(l - 1) + 1)}


def _dlog_bsgs(a, g, l, baby):
    """Exponent k with g^k = a mod the prime l, by baby-step/giant-step."""
    w = isqrt(l - 1) + 1
    ginv_w = pow(g, -w, l)
    y = a % l
    for i in range(w + 1):
        j = baby.get(y)
        if j is not None:
            return (i * w + j) % (l - 1)
        y = y * ginv_w % l
    raise NotAUnit(f"no discrete log for {a} base {g} mod {l}")


def kolyvagin_predicate(E, ell, p, m=1, n=0):
    """Membership test for the sieve, evaluated from scratch.

    ell must be a prime of good reduction other than p with
    ell = 1 mod p^max(m, n+1), p^m must divide #E(F_ell) (`count_divisible`,
    which refuses most candidates from one point, without a count), and the
    p-primary part of E(F_ell) must be cyclic.
    """
    if ell == p or not is_prime(ell) or E.discriminant % ell == 0:
        return False
    modulus = p ** max(m, n + 1)
    if (ell - 1) % modulus != 0:
        return False
    if not count_divisible(E, ell, p**m):
        return False
    kind, _ = p_torsion_structure(E, ell, p)
    return kind == "cyclic"


def sieve(E, p, m, n, bound, workers=1):
    """All Kolyvagin primes up to `bound` with their dlog contexts attached.

    The sieve is serial; `workers` accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"workers={workers}: the sieve runs serially, only 1 is accepted")
    modulus = p ** max(m, n + 1)
    return [
        KolyvaginPrime(ell, p, primitive_root(ell))
        for ell in (primes_upto(bound) if bound >= 2 else [])
        if (ell - 1) % modulus == 0 and kolyvagin_predicate(E, ell, p, m, n)
    ]


def sieved_factors(d, registry):
    """The primes of d, which must be squarefree with every prime sieved."""
    fac = factorize(d)
    if any(e > 1 for e in fac.values()):
        raise NotSquarefree(f"{d} is not squarefree")
    ells = sorted(fac)
    for ell in ells:
        if ell not in registry:
            raise PrimeNotKolyvagin(f"{ell} | d was not produced by the sieve")
    return ells


def kurihara_number_direct(values, ells, ring, registry):
    """delta_d in Z/p^m as the plain weighted sum of theta_d over the units mod d.

    `values` are the runs (bs, _, cs) of `mazurtate.plus_values`, c the
    coefficient at b^-1, and `ells` the primes of d (`sieved_factors`).  A
    unit weighs the product over l | d of its log to h_l mod p^m: at b^-1,
    (-1)^nu(d) times the product for b, from the lists t[b % l] (`dlog`
    above DLOG_TABLE_LIMIT).  p^m must divide each l - 1 (ValueError
    otherwise), so d > 1 means d > 2, and then each c counts twice, as -b^-1
    weighs the same: log(-1) = (l - 1)/2 is 0 mod p^m (p odd).  No
    projection is read, so the route stays independent of the other two.
    """
    pk = ring.modulus
    for ell in ells:
        if (ell - 1) % pk:
            raise ValueError(f"{pk} does not divide {ell} - 1")
    logs = [(ell, registry[ell]._logs(), registry[ell].dlog) for ell in ells]
    total = 0
    for bs, _, cs in values:
        for ell, t, dlog in logs:
            cs = [c and c * (t[b % ell] if t is not None else dlog(b)) for b, c in zip(bs, cs)]
        total = (total + sum(cs)) % pk
    return total * (-1) ** len(ells) * (2 if ells else 1) % pk


@record
class ThetaProjection:
    """Image of theta_d in Z/p^m[Gal(Q(d)/Q)], the buckets via and the
    derivative read.  sigma_a sits at the logs of a to the h_l mod |G_l|, so
    h_l maps to the l-th basis element: the one choice of generator of G_l."""

    d: int
    quotient: AbelianGroup
    images: list  # the image of the inverse of each generator of (Z/d)^*
    element: GroupRingElement = None

    def fold(self, values, ring):
        """Pass on the runs of `plus_values`, adding each c into the bucket of
        b^-1 (twice for d > 2: sigma_{-1} maps to 1, as |G_l| divides
        (l - 1)/2), and set `element` when the runs end."""
        buckets = [0] * self.quotient.order
        for bs, gs, cs in values:
            for g, c in zip(gs, cs):
                buckets[g] += c
            yield bs, gs, cs
        coeffs = ring.reduce_all([x * 2 for x in buckets] if self.d > 2 else buckets)
        self.element = GroupRingElement.from_values(self.quotient, ring, coeffs)


def project_theta(ells, registry):
    """The empty projection of theta_d to Z/p^m[Gal(Q(d)/Q)], for `fold`.

    d is the product of the sieved primes `ells`; the map is fixed by the
    negated logs of the generators' residues, nu(d)^2 logs in all.
    """
    group = unit_group(prod(ells))
    orders = [registry[ell].p_part_order for ell in ells]
    images = [
        tuple(-registry[ell].dlog(a) % n for ell, n in zip(ells, orders))
        for a in map(group.residue, group.basis())
    ]
    return ThetaProjection(group.n, AbelianGroup(orders), images)


def kurihara_number_via_ed(projection):
    """delta_d in Z/p^m as sum a_sigma prod_l coord_l(sigma) over the buckets.

    A coordinate is the log to h_l mod |G_l|, and p^m divides |G_l|.  These
    are the projection's logs, not the direct route's lists.  The name (kept
    with the suite's `ed_route_agreement` and the tracer's) recalls a transport
    through e_d = #Gal(Q(mu_d)/Q(d)) whose factors cancel exactly.
    """
    pk = projection.element.ring.modulus
    total = 0
    for g, weight in projection.element.items():
        for coord in g:
            weight = weight * coord % pk
        total += weight
    return total % pk


@record
class DerivativeData:
    norm_coefficient: int  # coefficient at the identity of D_d theta_d mod p
    closed_form: int       # (-1)^nu(d) sum a_sigma prod log_{g_l}(sigma) mod p
    is_norm_multiple: bool  # expansion == closed_form * N_d exactly
    nonzero: bool           # D_d theta_d mod p != 0 as a whole element


def derivative_data(projection, via):
    """Literal expansion of D_d theta_d in F_p[Gal(Q(d)/Q)], from via's buckets.

    D_l = sum k g_l^k with g_l the image of h_l, the l-th basis element; the
    product of the D_l times the projection mod p must be the closed form
    (-1)^nu(d) sum a_sigma prod log_{g_l}(sigma) = (-1)^nu(d) via mod p times
    the norm element.
    """
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
    is_multiple = all(expansion.coefficient(g) == closed for g in quotient.elements())
    return DerivativeData(
        norm_coefficient=expansion.coefficient(quotient.identity),
        closed_form=closed,
        is_norm_multiple=is_multiple,
        nonzero=not expansion.is_zero(),
    )
