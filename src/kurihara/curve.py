"""Elliptic-curve data over Q and point counting over prime fields.

A curve is carried as an integral Weierstrass model with its conductor and
Tamagawa product supplied (not computed: no Tate's algorithm here).  Traces of
Frobenius come from exact point counting; the module also classifies the
p-primary part of E(F_l) far enough to recognise Kolyvagin primes and checks
the running hypotheses on (E, p).

#E(F_l) is counted exactly in one of two ways.  For l <= NAIVE_COUNT_LIMIT a
table of square roots mod l is summed over every x, O(l).  Above it,
baby-step/giant-step (Shanks-Mestre; Cremona, Algorithms for Modular
Elliptic Curves, ch. 3) searches the Hasse window l + 1 +- isqrt(4l) for
the multiples of drawn points' orders, O(l^(1/4)) group operations a point,
and keeps the common ones.  When a point leaves the candidates unchanged
while more than one remains (the group exponent has several multiples in the
window), the square-table count finishes the job, so every count ends.
Points are added on short_model's Y^2 = X^3 + A X + B; ec_mul runs
double-and-add inline.  Microseconds per count, each row averaged over ten
primes from l on 11a1, 37a1, 389a1 and 5077a1 (median of three runs, 2-vCPU
shared host, Python 3.11):

    l        53    71   101   151   211   307   401   1009   3001
    table    17    21    26    38    50    79   106    278    833
    BSGS     21    23    23    26    27    35    45     51     51

The two costs meet near 80-100, so the limit is 100.

The points are fixed, not random: draw_point(A, B, l, i) is the first X with
a square right-hand side from DRAW_START + i floor(l / phi) mod l, with Y
negated at odd i, so a count, a refusal and a certificate depend on (E, l)
alone and no module state.

The sieve asks only whether k = p^m divides #E(F_l).  For every l > 3,
count_divisible takes P = draw_point(A, B, l, 0) and searches j in
[ceil(lo/k), floor(hi/k)] for j(kP) = O (_window_multiples).  The count lies
in the window and kills P, so an empty search proves k does not divide it;
otherwise the count decides, and the point sets only the speed.  On the
sieves of 5077a1 (p = 7), 37a1 (p = 5, 7 and p^m = 25) and 11a1 (p = 7) to
20000 and 389a1 (p = 5) to 30000, it refused 2,165 of the 2,209 candidates
that p^m does not divide (44 of the 46 with l <= 300), at 13 us each for
l <= 300, 23 us for l < 2000 and 46 us from 20000 to 30000, against 18, 39
and 92 us for a count (k = 7 on the four curves, median of the best of
five).  When E(Q) has a point of order p (11a1, p = 5) it never refuses.

The p-primary part S of E(F_l), of order p^v, is classified by points
alone.  For v >= 2 and p | l - 1, p_torsion_structure multiplies the drawn
points by the prime-to-p part of #E(F_l) until one of two exact certificates
appears: a point of order p^v (S is cyclic), or two points of order p, one
not a multiple of the other (E(F_l)[p] is full).  A point whose order does
not divide p^v, or TORSION_CERTIFICATE_DRAWS points with neither
certificate, means the count is wrong (CorrectnessAlarm).  On 11a1, 37a1,
389a1 and 5077a1 with p in {3, 5, 7, 11} and l < 30000, the 1,947 cases with
p^2 | #E(F_l) and p | l - 1 (1,078 full, 869 cyclic) took at most 7 draws,
and 1,595 of them one or two.
"""

import json
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import BadCurve, BadPrime, CorrectnessAlarm, HypothesisViolation
from .exactmath import factorize, is_prime
from .records import record

# Square-table count for l up to here; above it BSGS in l + 1 +- isqrt(4l),
# finished by the square table when the window stays ambiguous.  The two
# costs meet near 80-100 (measured table in the module docstring).
NAIVE_COUNT_LIMIT = 100
POINT_COUNT_CACHE = 1 << 14  # (curve, l) pairs whose #E(F_l) and short model are kept
SURJECTIVITY_SCAN = 1000  # Frobenius samples at the good primes below this
# Points drawn for a certificate of E(F_l)[p^oo]; none in this many means the
# count is wrong (see p_torsion_structure).
TORSION_CERTIFICATE_DRAWS = 64
# 2^64 / phi: draw_point's first start mod l, and its step l / phi
DRAW_START = 0x9E3779B97F4A7C15


@record(frozen=True)
class CurveData:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    tamagawa_product: int
    label: str = ""
    mod_p_surjective: tuple = ()
    _discriminant = None  # computed on the first read; the fields cannot change

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self):
        b2 = self.b2
        return b2 * (36 * self.b4 - b2 * b2) - 216 * self.b6

    @property
    def discriminant(self):
        d = self._discriminant
        if d is None:
            d = (self.c4**3 - self.c6**2) // 1728
            object.__setattr__(self, "_discriminant", d)
        return d

    def validate(self, stated_discriminant=None):
        if not all(type(x) is int for x in (*self.ainvs(), self.conductor, self.tamagawa_product)):
            raise BadCurve("a-invariants, conductor and Tamagawa product must be integers")
        if self.discriminant == 0:
            raise BadCurve("singular Weierstrass model")
        if stated_discriminant is not None and stated_discriminant != self.discriminant:
            raise BadCurve(
                f"stated discriminant {stated_discriminant} != computed {self.discriminant}"
            )
        if self.conductor < 1 or self.tamagawa_product < 1:
            raise BadCurve("conductor and Tamagawa product must be positive")
        for q in factorize(self.conductor):
            if self.discriminant % q != 0:
                raise BadCurve(f"conductor prime {q} does not divide the discriminant")
        return self

    def __str__(self):
        return self.label or f"E{self.ainvs()}"


def curve_from_json(obj):
    """A validated curve from its JSON record; BadCurve when it is not one."""
    try:
        a1, a2, a3, a4, a6 = obj["ainvs"]
        E = CurveData(
            a1, a2, a3, a4, a6,
            conductor=obj["conductor"],
            tamagawa_product=obj["tamagawa_product"],
            label=obj.get("label", ""),
            mod_p_surjective=tuple(obj.get("mod_p_surjective", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCurve(f"malformed curve record: {exc!r}") from exc
    return E.validate(obj.get("discriminant"))


def load_curve(path):
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as exc:  # not JSON, or not text
            raise BadCurve(f"{path}: not a JSON curve record: {exc}") from exc
    return curve_from_json(obj)


# ---------------------------------------------------------------------------
# arithmetic of points over F_l, on the short model Y^2 = X^3 + A X + B
# (None = infinity)


@lru_cache(maxsize=POINT_COUNT_CACHE)
def short_model(E, l):
    """(-27 c4, -54 c6) mod l: Y^2 = X^3 + A X + B is isomorphic to E over F_l.

    X = 36x + 3 b2 and Y = 108 (2y + a1 x + a3) carry E onto it (Silverman,
    AEC III.1), an isomorphism when 6 is a unit mod l, so l must exceed 3
    (BadPrime otherwise).  Kept per (E, l) like the point count, so
    count_divisible, _count_bsgs and p_torsion_structure share one pair.
    """
    if l <= 3:
        raise BadPrime(f"the short model needs l > 3, not {l}")
    return -27 * E.c4 % l, -54 * E.c6 % l


def ec_neg(l, P):
    return None if P is None else (P[0], -P[1] % l)


def ec_add(A, l, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, l) % l
    elif (y1 + y2) % l == 0:
        return None
    else:  # P = Q, not of order 2
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, l) % l
    x3 = (lam * lam - x1 - x2) % l
    return (x3, (lam * (x1 - x3) - y1) % l)


def ec_mul(A, l, k, P):
    """kP for k >= 0, by left-to-right double-and-add.

    The tangent and chord steps run inline on (x, y), with x = None for O.
    Doubling O or a point of order 2 gives O, and a sum whose first term is
    +-P goes through ec_add, the one general addition.
    """
    if P is None or not k:
        return None
    px, py = P
    x, y = P
    for bit in bin(k)[3:]:
        if y:
            lam = (3 * x * x + A) * pow(2 * y, -1, l) % l
            x3 = (lam * lam - 2 * x) % l
            x, y = x3, (lam * (x - x3) - y) % l
        else:  # O, or a point of order 2
            x = None
        if bit == "1":
            if x is None:
                x, y = P
            elif x != px:
                lam = (py - y) * pow(px - x, -1, l) % l
                x3 = (lam * lam - x - px) % l
                x, y = x3, (lam * (x - x3) - y) % l
            else:
                x, y = ec_add(A, l, (x, y), P) or (None, 0)
    return None if x is None else (x, y)


def sqrt_mod(a, l):
    """A square root of a mod prime l (Tonelli-Shanks), or None."""
    a %= l
    if a == 0:
        return 0
    if l == 2:
        return a
    if pow(a, (l - 1) // 2, l) != 1:  # Euler's criterion
        return None
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    q, s = l - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (l - 1) // 2, l) != l - 1:
        z += 1
    m, c, t, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, b * b % l
        t, r = t * c % l, r * b % l
    return r


def draw_point(A, B, l, i):
    """The i-th fixed point of the short model mod l, for i >= 0.

    The first X with a square right-hand side from DRAW_START + i floor(l /
    phi) mod l, a golden-ratio sequence of starts that spreads over F_l for
    every l, with Y negated at odd i.  It depends on (l, i) alone, so reruns
    agree and no generator is kept.
    """
    start = (DRAW_START + i * (l * DRAW_START >> 64)) % l
    for x in range(start, start + l):
        x %= l
        y = sqrt_mod((x * x + A) * x + B, l)
        if y is not None:
            return (x, -y % l) if i & 1 else (x, y)
    raise BadPrime(f"E(F_{l}) has no affine point")


# ---------------------------------------------------------------------------
# point counting


def _affine_points(E, l):
    """Number of affine solutions of E's Weierstrass equation over F_l.

    For odd l, completing the square turns the equation into
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the count is the sum
    over x of the number of square roots of the right-hand side, read from a
    table of how often each residue is a square.
    """
    if l == 2:
        return sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + E.a1 * x * y + E.a3 * y - x**3 - E.a2 * x * x - E.a4 * x - E.a6) % 2 == 0
        )
    b2, b4, b6 = E.b2 % l, (2 * E.b4) % l, E.b6 % l
    roots = bytearray(l)
    for y in range(l):
        roots[y * y % l] += 1
    return sum(roots[(((4 * x + b2) * x + b4) * x + b6) % l] for x in range(l))


def _count_naive(E, l):
    return 1 + _affine_points(E, l)


def _window_multiples(A, l, P, lo, hi):
    """The set of m in [lo, hi] with mP = O, by baby steps and giant steps.

    The baby steps jP, 0 <= j < w, either meet O first (then P has order
    j < w and its multiples are listed directly) or are distinct; in the
    second case each giant block [b, b + w) holds at most one multiple of the
    order, found as the j with bP + jP = O, so the set is complete.
    """
    w = isqrt(hi - lo) + 1
    baby = {None: 0}
    R = P
    for j in range(1, w):
        if R is None:
            return set(range(lo + (-lo) % j, hi + 1, j))
        baby[R] = j
        R = ec_add(A, l, R, P)
    found = set()
    S = ec_mul(A, l, lo, P)
    for b in range(lo, hi + 1, w):
        j = baby.get(ec_neg(l, S))
        if j is not None and b + j <= hi:
            found.add(b + j)
        S = ec_add(A, l, S, R)  # R = wP
    return found


def _count_bsgs(E, l):
    """#E(F_l) by baby-step/giant-step in the Hasse window (Shanks-Mestre).

    #E(F_l) lies in l + 1 +- isqrt(4l) and is a multiple of every point's
    order.  Each drawn point keeps the candidates that are multiples of its
    order; a point that removes none (the lcm of the orders stopped growing
    while several candidates remain, as when the group exponent is small)
    ends the search with the square-table count, which must be a candidate.
    A pass that does not return shrinks the candidate set, so the loop ends.
    """
    A, B = short_model(E, l)
    r = isqrt(4 * l)
    lo, hi = l + 1 - r, l + 1 + r
    candidates = set(range(lo, hi + 1))
    i = 0
    while len(candidates) > 1:
        narrowed = candidates & _window_multiples(A, l, draw_point(A, B, l, i), lo, hi)
        i += 1
        if not narrowed:
            raise CorrectnessAlarm(f"no multiple of the point orders in the Hasse window at l={l}")
        if narrowed == candidates:
            n = _count_naive(E, l)
            if n not in candidates:
                raise CorrectnessAlarm(
                    f"#E(F_{l}) = {n} is not a multiple of the point orders in the Hasse window"
                )
            return n
        candidates = narrowed
    return candidates.pop()


def _require_good(E, l):
    # a composite l can hang sqrt_mod's Tonelli-Shanks loop
    if not is_prime(l):
        raise BadPrime(f"{l} is not prime")
    if E.discriminant % l == 0:
        raise BadPrime(f"{l} divides the discriminant")


def count_points(E, l):
    """#E(F_l) for a prime of good reduction, including the point at infinity."""
    _require_good(E, l)
    return _count(E, l)


@lru_cache(maxsize=POINT_COUNT_CACHE)
def _count(E, l):
    if l <= NAIVE_COUNT_LIMIT:
        return _count_naive(E, l)
    return _count_bsgs(E, l)


def count_divisible(E, l, k):
    """Whether k divides #E(F_l), for a prime l of good reduction.

    For l > 3 one point fixed by l refuses most k that do not divide the
    count without counting (module docstring); the cached count decides the
    rest, l being checked here once.  BadPrime for any other l.
    """
    _require_good(E, l)
    if l > 3:
        r = isqrt(4 * l)
        lo, hi = -(-(l + 1 - r) // k), (l + 1 + r) // k
        if lo > hi:
            return False
        A, B = short_model(E, l)
        Q = ec_mul(A, l, k, draw_point(A, B, l, 0))
        if Q is not None and not _window_multiples(A, l, Q, lo, hi):
            return False
    return _count(E, l) % k == 0


def trace_of_frobenius(E, l):
    return l + 1 - count_points(E, l)


def primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return list(compress(range(n + 1), sieve))


# ---------------------------------------------------------------------------
# hypotheses (a), (b), (c)


@record
class HypothesisReport:
    p: int
    ordinary: bool          # (a): p good and a_p != 0 mod p
    points_ok: bool         # (c): p does not divide #E(F_p)
    tamagawa_ok: bool       # (c): p does not divide the Tamagawa product
    surjectivity: str       # (b): "asserted" | "heuristically-confirmed" | "unknown"
    ap: int = 0

    @property
    def passed(self):
        return (
            self.ordinary
            and self.points_ok
            and self.tamagawa_ok
            and self.surjectivity in ("asserted", "heuristically-confirmed")
        )

    def to_json(self):
        return {
            "p": self.p,
            "ordinary": self.ordinary,
            "points_ok": self.points_ok,
            "tamagawa_ok": self.tamagawa_ok,
            "surjectivity": self.surjectivity,
            "ap": self.ap,
            "passed": self.passed,
        }


def _surjectivity_witnesses(E, p):
    """Three primes whose Frobenius elements prove rho_{E,p} surjective, or None.

    Serre's criterion (Propriétés galoisiennes des points d'ordre fini des
    courbes elliptiques, Invent. Math. 15 (1972), §2, Prop. 19): for p >= 5,
    a subgroup of GL_2(F_p) containing elements of these three kinds
    contains SL_2(F_p):

    - s1 with u = tr^2 / det not in {0, 1, 2, 4} and u^2 - 3u + 1 != 0, so
      its image in PGL_2(F_p) has order above 5 (no exceptional image);
    - s2 with tr != 0 and tr^2 - 4 det a nonzero square (not in the
      normalizer of a non-split Cartan);
    - s3 with tr != 0 and tr^2 - 4 det a non-square (not in a Borel or in
      the normalizer of a split Cartan).

    Frob_l at a good l != p has trace a_l and determinant l mod p, and det
    rho_{E,p} is the mod-p cyclotomic character, onto F_p^*, so the image is
    then all of GL_2(F_p).  Returns the least l below SURJECTIVITY_SCAN of
    each kind, (l1, l2, l3), one l serving more than one kind; None for
    p < 5 or when some kind is not found.
    """
    if p < 5:
        return None
    found = [None, None, None]
    for l in primes_upto(SURJECTIVITY_SCAN):
        if l == p or E.discriminant % l == 0:
            continue
        t, det = trace_of_frobenius(E, l) % p, l % p
        u = t * t * pow(det, -1, p) % p
        euler = pow(t * t - 4 * det, (p - 1) // 2, p)  # 1: nonzero square, p - 1: non-square
        kinds = (
            u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0,
            t != 0 and euler == 1,
            t != 0 and euler == p - 1,
        )
        found = [l if w is None and kind else w for w, kind in zip(found, kinds)]
        if None not in found:
            return tuple(found)
    return None


def check_hypotheses(E, p):
    """Report on hypotheses (a)-(c) for the pair (E, p)."""
    if p < 3:
        raise BadPrime("p must be an odd prime >= 3")
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if E.discriminant % p == 0:
        raise BadPrime(f"{p} is a prime of bad reduction")
    a_p = trace_of_frobenius(E, p)
    ordinary = E.conductor % p != 0 and a_p % p != 0
    points_ok = (p + 1 - a_p) % p != 0
    tamagawa_ok = E.tamagawa_product % p != 0
    if p in E.mod_p_surjective:
        verdict = "asserted"
    elif _surjectivity_witnesses(E, p):
        verdict = "heuristically-confirmed"
    else:
        verdict = "unknown"
    return HypothesisReport(p, ordinary, points_ok, tamagawa_ok, verdict, ap=a_p)


def require_hypotheses(E, p):
    report = check_hypotheses(E, p)
    if not report.passed:
        raise HypothesisViolation(f"hypotheses fail for ({E}, p={p}): {report.to_json()}")
    return report


# ---------------------------------------------------------------------------
# the p-primary structure of E(F_l)


def p_torsion_structure(E, l, p):
    """Classify the p^infinity-part of E(F_l): 'trivial', 'cyclic', or 'full'.

    With n = #E(F_l) = p^v n' and p not dividing n', S = n' E(F_l) is the
    p-primary part, of order p^v; 'full' means E(F_l) contains (Z/p)^2.  S is
    cyclic when v <= 1, and when p does not divide l - 1 (full p-torsion puts
    mu_p in F_l, by the Weil pairing).  Otherwise the points P =
    draw_point(A, B, l, i), i = 0, 1, ..., give Q = n' P, whose order p^k
    must divide p^v, or the count is wrong (CorrectnessAlarm).  Each Q ends
    in one of two certificates or in nothing:

    - k = v: Q generates a subgroup of order p^v = |S|, so S is cyclic.
    - Against G, the drawn point of largest order p^g, with T = p^(g-1) G:
      U = p^(k-1) Q must be a multiple i T (0 < i < p), and then
      Q - i p^(g-k) G has smaller order; a U outside <T> is a second point
      of order p, so E(F_l)[p] = (Z/p)^2 whatever the count.  A Q that
      reaches O lies in <G>, and a Q of larger order than G takes its place.

    Once G has the larger order p^a of S = Z/p^a x Z/p^b, a draw certifies
    full torsion unless it falls into <G>, with probability p^-b (the draw
    counts are in the module docstring).  Reaching TORSION_CERTIFICATE_DRAWS
    means S has neither certificate, so the count is wrong
    (CorrectnessAlarm).
    """
    if E.discriminant % l == 0 or l == p:
        raise BadPrime(f"{l} is bad or equals p")
    n = count_points(E, l)
    cofactor, v = n, 0
    while cofactor % p == 0:
        cofactor //= p
        v += 1
    if v == 0:
        return ("trivial", 0)
    if v == 1 or (l - 1) % p != 0:
        return ("cyclic", v)
    A, B = short_model(E, l)
    G, g = None, 0
    for draw in range(TORSION_CERTIFICATE_DRAWS):
        Q = ec_mul(A, l, cofactor, draw_point(A, B, l, draw))
        while Q is not None:
            k, R = 0, Q  # p^k is the order of Q, U = p^(k-1) Q
            while R is not None:
                if k == v:
                    raise CorrectnessAlarm(f"#E(F_{l}) = {n} does not kill a point of E(F_{l})")
                k, U, R = k + 1, R, ec_mul(A, l, p, R)
            if k == v:
                return ("cyclic", v)
            if k > g:  # Q takes G's place, and the old G is reduced next
                G, g, Q = Q, k, G
                digits = {ec_mul(A, l, i, U): i for i in range(1, p)}  # {i T: i}, T = U
                continue
            i = digits.get(U)
            if i is None:
                return ("full", v)
            Q = ec_add(A, l, Q, ec_neg(l, ec_mul(A, l, i * p ** (g - k), G)))
    raise CorrectnessAlarm(
        f"#E(F_{l}) = {n}: no certificate of E(F_{l})[{p}^oo] in "
        f"{TORSION_CERTIFICATE_DRAWS} points"
    )


# ---------------------------------------------------------------------------
# a_q at bad primes (only needed by the L-series plumbing)


def bad_prime_aq(E, q):
    """a_q for q | N: 0 if additive, +-1 for split/non-split multiplicative."""
    if E.conductor % (q * q) == 0:
        return 0
    # count nonsingular points: for multiplicative reduction the singular
    # point contributes exactly one affine solution, standing in for the
    # point at infinity, so the affine count is #E^ns(F_q) = q - a_q
    return q - _affine_points(E, q)
