"""Kolyvagin primes and Kurihara numbers.

The sieve picks the primes l with l = 1 mod p^max(m, n+1) whose reduction has
cyclic p^m-torsion; each carries a fixed generator h_l of (Z/l)^* and discrete
logarithms to that base.  delta_d in Z/p^m is read from theta_d in
Z/p^m[(Z/d)^*], as `mazurtate.plus_values` streams it, over the primes of d
that `sieved_factors` reads once per row, by three routes: the direct
weighted sum over the units, whose weights come from one list of logs per
prime; the transport through e_d, from one projection to the p-part quotient
Gal(Q(d)/Q) filled from the same stream; and the Kolyvagin-derivative
expansion of that projection mod p, checked against the transported value
times the norm element.  The first two return their value as an int.
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
    """Image of theta_d in Z/p^m[Gal(Q(d)/Q)], shared by via-e_d and the derivative."""

    d: int
    quotient: AbelianGroup
    images: list  # the image of the inverse of each generator of (Z/d)^*
    ells: tuple
    e_d: int
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

    d is the product of the sieved primes `ells`.  Gal(Q(d)/Q) = prod of the
    p-parts G_l; sigma_a lands on the logs of a mod the p-part orders, so the
    map is fixed by the (negated, for the inverses) logs of the generators'
    residues, nu(d)^2 logs in all.  e_d = #Gal(Q(mu_d)/Q(d)) is the
    prime-to-p index prod (l - 1)/|G_l|.
    """
    d = prod(ells)
    group = unit_group(d)
    orders = [registry[ell].p_part_order for ell in ells]
    images = [
        tuple(-registry[ell].dlog(a) % n for ell, n in zip(ells, orders))
        for a in map(group.residue, group.basis())
    ]
    e_d = prod((ell - 1) // n for ell, n in zip(ells, orders))
    return ThetaProjection(d, AbelianGroup(orders), images, tuple(ells), e_d)


def kurihara_number_via_ed(projection):
    """delta_d in Z/p^m through the p-part quotient and transported generators.

    Logs are taken to the base g_l = image of h_l^{e_d} with
    e_d = #Gal(Q(mu_d)/Q(d)), so each coordinate of sigma, a log to h_l, is
    multiplied by e_d^{-1}; the sum of a_sigma prod_l log_{g_l}(sigma),
    times the unit e_d^{nu(d)}, is the direct-route value.
    """
    pk = projection.element.ring.modulus
    e_d = projection.e_d
    ed_inv = pow(e_d, -1, pk)
    total = 0
    for g, weight in projection.element.items():
        for coord in g:
            weight = weight * coord * ed_inv % pk
        total += weight
    return total * pow(e_d, len(projection.ells), pk) % pk


@record
class DerivativeData:
    norm_coefficient: int  # coefficient at the identity of D_d theta_d mod p
    closed_form: int       # (-1)^nu(d) sum a_sigma prod log_{g_l}(sigma) mod p
    is_norm_multiple: bool  # expansion == closed_form * N_d exactly
    nonzero: bool           # D_d theta_d mod p != 0 as a whole element


def derivative_data(projection, via):
    """Literal expansion of D_d theta_d in F_p[Gal(Q(d)/Q)].

    The projection is reduced mod p.  D_l = sum i g_l^i with g_l the image of
    h_l^{e_d}; the product of the D_l is convolved against the projected
    theta_d and compared with the closed form
    (-1)^nu(d) sum a_sigma prod log_{g_l}(sigma) times the norm element.
    That sum is via-e_d's value `via` over e_d^{nu(d)}, so the closed form
    is via (-e_d)^{-nu(d)} mod p.
    """
    p = projection.element.ring.p
    ring = ResidueRing(p, 1)
    projected = projection.element.change_ring(ring)
    e_d, nu = projection.e_d, len(projection.ells)
    quotient = projected.group
    deriv = GroupRingElement.one(quotient, ring)
    for i, order in enumerate(quotient.orders):
        gl = tuple(e_d % order if j == i else 0 for j in range(nu))
        term = {}
        acc = quotient.identity
        for k in range(order):
            if k:
                term[acc] = k % p
            acc = quotient.mul(acc, gl)
        deriv = deriv * GroupRingElement(quotient, ring, term)
    expansion = deriv * projected

    closed = via * pow(-e_d, -nu, p) % p

    is_multiple = all(expansion.coefficient(g) == closed for g in quotient.elements())
    return DerivativeData(
        norm_coefficient=expansion.coefficient(quotient.identity),
        closed_form=closed,
        is_norm_multiple=is_multiple,
        nonzero=not expansion.is_zero(),
    )
