"""Mazur-Tate modular elements and their ordinary stabilizations.

theta(d, n) collects the plus-symbol values over (Z/dp^n)^* from the one
walk, `plus_values`, which the delta_d rows stream; vartheta applies the
unit-root stabilization, xi_tilde assembles the Kurihara combination over the
divisor lattice of d.  Everything is a finite truncation: the projective
limits exist only level-by-level here, and the limit relations are exercised
as finite identities by the verifier suite.
"""

from itertools import compress

from .curve import trace_of_frobenius
from .errors import (
    BadPrime,
    CorrectnessAlarm,
    DenominatorDivisibleByP,
    HypothesisViolation,
    NonInvertibleEll,
    NotSquarefree,
    Supersingular,
)
from .exactmath import (
    QQ,
    AbelianGroup,
    GroupRingElement,
    ResidueRing,
    factorize,
    norm_map,
    unit_group,
    unit_reduction,
    xgcd,
)
from .modsym import eval_plus
from .records import record

THETA_CACHE = 2**9  # theta elements kept per symbol; the oldest goes first


@record(frozen=True)
class UnitRoot:
    p: int
    m: int
    alpha: int  # unit root of x^2 - a_p x + p in Z/p^m

    @property
    def ring(self):
        return ResidueRing(self.p, self.m)


def unit_root(E, p, m):
    """Hensel lift of the unit root of x^2 - a_p x + p to Z/p^m."""
    if E.discriminant % p == 0:
        raise BadPrime(f"{p} is a prime of bad reduction")
    a_p = trace_of_frobenius(E, p)
    if a_p % p == 0:
        raise Supersingular(f"a_p = {a_p} = 0 mod {p}")
    mod = p**m
    x = a_p % p
    for _ in range(m + 1):
        f = (x * x - a_p * x + p) % mod
        df = (2 * x - a_p) % mod
        x = (x - f * pow(df, -1, mod)) % mod
    if (x * x - a_p * x + p) % mod or x % p == 0:
        raise CorrectnessAlarm(
            f"Hensel lift {x} is not a unit root of x^2 - {a_p} x + {p} mod {mod}"
        )
    if x % p == 1 % p:
        raise HypothesisViolation(
            "unit root is 1 mod p; hypothesis (c) fails (p | #E(F_p))"
        )
    return UnitRoot(p, m, x)


def _check_level(E, d, p=None):
    fac = factorize(d)
    if any(e > 1 for e in fac.values()):
        raise NotSquarefree(f"{d} is not squarefree")
    for ell in fac:
        if E.discriminant % ell == 0:
            raise BadPrime(f"{ell} | d is a prime of bad reduction")
        if p is not None and ell == p:
            raise BadPrime(f"d = {d} is not coprime to p = {p}")


def plus_values(symbol, level, ring, runs):
    """theta_level in `ring`, streamed by the one walk a run at a time.

    Per run (units, indices) of (Z/level)^*, as `UnitGroup.runs` yields them,
    yields the walked units b, their indices and c = [b^-1/level]^+.  Above
    level 2 only b < level/2 is walked; c stands for -b^-1 too (the star
    symmetry).  A value not p-integral raises DenominatorDivisibleByP on its
    own, so no sum hides it; at the end the last b is checked by `eval_plus`.
    """
    for bs, gs in runs:
        if level > 2:
            keep = [2 * b < level for b in bs]
            bs, gs = list(compress(bs, keep)), list(compress(gs, keep))
        try:
            cs = ring.scale_all(*symbol.plus_numerators(level, bs))
        except DenominatorDivisibleByP as exc:
            msg = f"theta at level {level} is not p-integral: {exc}"
            raise DenominatorDivisibleByP(msg) from exc
        last = (bs[-1], cs[-1]) if bs else last  # the first run walks b = 1
        yield bs, gs, cs
    a = pow(last[0], -1, level)
    if last[1] != ring.coerce(eval_plus(symbol, a, level)):
        raise CorrectnessAlarm(f"the integer walk differs from eval_plus at {a}/{level}")


def plus_element(symbol, level, ring):
    """[a/level]^+ at sigma_a over (Z/level)^*, with coefficients in `ring`.

    The whole element from `plus_values` over one run of every unit (whose
    indices are not read), uncached: each value is keyed by b, and sigma_a
    reads the key a^-1 (the residue at the negated exponents) or level - a^-1.
    """
    group = unit_group(level)
    units = [b for run, _ in group.runs(AbelianGroup(()), [()] * len(group.orders)) for b in run]
    value = {}
    for bs, _, cs in plus_values(symbol, level, ring, [(units, units)]):
        value.update(zip(bs, cs))
    keys = map(units.__getitem__, group.negated())
    values = [value[b] if b in value else value[level - b] for b in keys]
    return GroupRingElement.from_values(group, ring, values)


def theta(symbol, d, n=0, p=None):
    """The modular element over (Z/dp^n)^* with rational coefficients.

    Cached per symbol and level, at most THETA_CACHE levels: the identity
    suites revisit the same levels many times and the element is immutable.
    """
    if n > 0 and p is None:
        raise ValueError("n > 0 requires p")
    key = (d, n, p)
    cache = symbol._theta_cache
    if cache is None:
        cache = symbol._theta_cache = {}
    cached = cache.get(key)
    if cached is not None:
        return cached
    _check_level(symbol.curve, d, p)
    out = cache[key] = plus_element(symbol, d * (p**n if n else 1), QQ)
    while len(cache) > THETA_CACHE:
        del cache[next(iter(cache))]
    return out


def _sigma_ell(group, ell):
    """sigma_ell in (Z/D)^* for the level D of `group`.

    For ell | D (necessarily to the first power here), the Frobenius at ell
    only makes sense on the prime-to-ell component: take the class that is
    1 on mu_ell and ell elsewhere.  For ell coprime to D it is plain sigma_ell.
    """
    D = group.n
    if D % ell != 0:
        return group.sigma(ell)
    rest = D
    v = 0
    while rest % ell == 0:
        rest //= ell
        v += 1
    lv = ell**v
    if rest == 1:
        return group.identity
    # CRT: x = 1 mod ell^v, x = ell mod rest
    g, u, w = xgcd(lv, rest)
    if g != 1:
        raise CorrectnessAlarm(f"gcd({lv}, {rest}) = {g} after removing {ell} from {D}")
    x = (1 * w * rest + (ell % rest) * u * lv) % D
    return group.sigma(x)


def stabilization_scalar(group, root):
    """(1 - alpha^{-1} sigma_p)(1 - alpha^{-1} sigma_p^{-1}) over Z/p^m[group]."""
    ring = root.ring
    ainv = ring.inv(root.alpha)
    sp = group.sigma(root.p)
    one = GroupRingElement.one(group, ring)
    f1 = one - GroupRingElement.monomial(group, ring, sp, ainv)
    f2 = one - GroupRingElement.monomial(group, ring, group.inv(sp), ainv)
    return f1 * f2


def vartheta(symbol, d, n, p, m):
    """Ordinary-stabilized element at level d p^n with Z/p^m coefficients.

    For n >= 1 this is alpha^{-n} (theta_{dp^n} - alpha^{-1} nu(theta_{dp^{n-1}})).
    At n = 0 the stabilization degenerates to the scalar
    (1 - alpha^{-1} sigma_p)(1 - alpha^{-1} sigma_p^{-1}) acting on theta_d,
    which is taken as the definition of the bottom layer.
    """
    root = unit_root(symbol.curve, p, m)
    ring = root.ring
    ainv = ring.inv(root.alpha)
    if n == 0:
        th = theta(symbol, d, 0, p).change_ring(ring)
        return stabilization_scalar(th.group, root) * th
    top = theta(symbol, d, n, p).change_ring(ring)
    below = theta(symbol, d, n - 1, p).change_ring(ring)
    hom = unit_reduction(top.group, below.group)
    lifted = norm_map(below, hom)
    diff = top - lifted.scale(ainv)
    return diff.scale(pow(ainv, n, ring.modulus))


def xi_tilde(symbol, d, n, p, m):
    """The Kurihara combination over the divisor lattice of squarefree d.

    xi = sum over e | d of nu_{d,e}((prod_{l | d/e} -sigma_l^{-1}) vartheta_e),
    then xi_tilde twists by prod_{l | d} (-l sigma_l)^{-1}.  Exactly 2^nu(d)
    terms enter the sum.
    """
    return kurihara_combination(symbol, d, n, p, m, lambda e: vartheta(symbol, e, n, p, m))


def kurihara_combination(symbol, d, n, p, m, stabilized):
    """xi_tilde with vartheta_e read from `stabilized(e)` for each e | d.

    The identity suite passes its memo of vartheta here, so that the
    divisors shared by many levels are stabilized once.
    """
    E = symbol.curve
    _check_level(E, d, p)
    ring = ResidueRing(p, m)
    primes = sorted(factorize(d))
    for ell in primes:
        if ell % p == 0:
            raise NonInvertibleEll(f"{ell} is not invertible mod {p}^{m}")
    top_group = unit_group(d * p**n if n else d)
    total = GroupRingElement.zero(top_group, ring)
    for mask in range(1 << len(primes)):
        e = 1
        for i, ell in enumerate(primes):
            if mask & (1 << i):
                e *= ell
        v = stabilized(e)
        for ell in primes:
            if e % ell:
                s_inv = v.group.inv(_sigma_ell(v.group, ell))
                v = v.translate(s_inv).scale(ring.neg(ring.one))
        hom = unit_reduction(top_group, v.group)
        total = total + norm_map(v, hom)
    for ell in primes:
        s_inv = top_group.inv(_sigma_ell(top_group, ell))
        total = total.translate(s_inv).scale(ring.neg(ring.inv(ring.coerce(ell))))
    return total


def euler_factor(E, ell, group, ring):
    """(a_l - sigma_l - sigma_l^{-1}) as a group-ring element."""
    a = trace_of_frobenius(E, ell)
    s = group.sigma(ell)
    out = GroupRingElement.monomial(group, ring, group.identity, a)
    out = out - GroupRingElement.monomial(group, ring, s)
    out = out - GroupRingElement.monomial(group, ring, group.inv(s))
    return out


def frobenius_factor(E, ell, group, ring):
    """P_l(sigma_l^{-1}) = sigma_l^{-2} - l^{-1} a_l sigma_l^{-1} + l^{-1}."""
    a = trace_of_frobenius(E, ell)
    if not ring.is_unit(ring.coerce(ell)):
        raise NonInvertibleEll(f"{ell} not invertible in {ring}")
    linv = ring.inv(ring.coerce(ell))
    s_inv = group.inv(group.sigma(ell))
    out = GroupRingElement.monomial(group, ring, group.mul(s_inv, s_inv))
    out = out - GroupRingElement.monomial(group, ring, s_inv, ring.mul(linv, ring.coerce(a)))
    out = out + GroupRingElement.monomial(group, ring, group.identity, linv)
    return out
