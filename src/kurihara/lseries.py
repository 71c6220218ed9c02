"""Numerical L(E,1), real period, and rational reconstruction.

This is the floating-point side used to calibrate the integral eigensymbol
and as the independent oracle in the golden-run tests.  Everything exact
lives elsewhere; here plain float64 suffices for the 1e-8 targets.
"""

import cmath
import math
from fractions import Fraction

from .curve import bad_prime_aq, primes_upto, trace_of_frobenius
from .errors import CorrectnessAlarm

LRATIO_MAX_DEN = 10**4  # largest denominator L(E,1)/Omega+ is reconstructed with


def an_list(E, nmax):
    """Fourier coefficients a_1..a_nmax from multiplicativity."""
    a = [0] * (nmax + 1)
    a[1] = 1
    for q in primes_upto(nmax):
        aq = bad_prime_aq(E, q) if E.discriminant % q == 0 else trace_of_frobenius(E, q)
        # prime powers
        powers = {1: 1, q: aq}
        qk = q * q
        while qk <= nmax:
            if E.conductor % q == 0:
                powers[qk] = powers[qk // q] * aq
            else:
                powers[qk] = aq * powers[qk // q] - q * powers[qk // q // q]
            qk *= q
        for qk, val in powers.items():
            if qk == 1:
                continue
            for m in range(1, nmax // qk + 1):
                if m % q != 0 and a[m] != 0 and m * qk <= nmax:
                    a[m * qk] = a[m] * val
    return a


def _partial_sum(E, a, t):
    """F(t) = sum a_n/n exp(-2 pi n t / sqrt(N))."""
    c = 2 * math.pi * t / math.sqrt(E.conductor)
    total = 0.0
    for n in range(len(a) - 1, 0, -1):
        if a[n]:
            total += a[n] / n * math.exp(-c * n)
    return total


def lvalue_and_sign(E, eps=1e-12):
    """(L(E,1), numerical functional-equation sign).

    L(E,1) = F(1/t) + w F(t) for every t > 0, where F(t) is the incomplete
    sum above.  For w = -1 this forces F(t) = F(1/t) identically, which is
    how the sign is detected; two test points guard against a coincidence.
    """
    N = E.conductor
    tmin = 1 / 1.5
    x = math.exp(-2 * math.pi * tmin / math.sqrt(N))
    nmax = 20
    while x**nmax > eps and nmax < 10**7:
        nmax *= 2
    a = an_list(E, nmax)
    scale = max(1.0, abs(_partial_sum(E, a, 1.0)))
    deltas = []
    values = []
    for t in (1.2, 1.45):
        ft, fit = _partial_sum(E, a, t), _partial_sum(E, a, 1 / t)
        deltas.append(abs(fit - ft))
        values.append(fit + ft)
    if max(deltas) < 1e-9 * scale:
        return 0.0, -1
    if not abs(values[0] - values[1]) < 1e-9 * scale:
        raise CorrectnessAlarm(
            f"functional equation fails: L(E,1) reads {values[0]!r} at t = 1.2 "
            f"and {values[1]!r} at t = 1.45"
        )
    return values[0], +1


def _cubic_roots(c2, c1, c0):
    """Roots of x^3 + c2 x^2 + c1 x + c0 (Cardano + Newton polish)."""
    a, b, c = complex(c2), complex(c1), complex(c0)
    p = b - a * a / 3
    q = 2 * a**3 / 27 - a * b / 3 + c
    disc = (q / 2) ** 2 + (p / 3) ** 3
    s = cmath.sqrt(disc)
    for candidate in (-q / 2 + s, -q / 2 - s):
        if abs(candidate) > 1e-30:
            u = candidate ** (1 / 3)
            break
    else:
        u = complex(0)
    roots = []
    omega = complex(-0.5, math.sqrt(3) / 2)
    for k in range(3):
        w = u * omega**k
        z = w - p / (3 * w) - a / 3 if abs(w) > 1e-30 else -a / 3
        for _ in range(60):
            f = z**3 + a * z * z + b * z + c
            df = 3 * z * z + 2 * a * z + b
            if abs(df) < 1e-300:
                break
            step = f / df
            z -= step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        roots.append(z)
    return roots


def real_period(E):
    """Least positive real period of the Neron differential, by the AGM.

    Omega^+ = 2 * int_{e1}^{inf} dx / sqrt(4x^3 + b2 x^2 + 2 b4 x + b6)
    = pi / AGM(sqrt(e1 - e2), sqrt(e1 - e3)), with e1 the largest real root
    and principal square roots.  For a complex pair e2, e3 the two square
    roots are conjugate, so the AGM is real from its first step on.
    """
    roots = _cubic_roots(
        Fraction(E.b2, 4), Fraction(2 * E.b4, 4), Fraction(E.b6, 4)
    )
    i = max(
        (k for k, z in enumerate(roots) if abs(z.imag) < 1e-7 * (1 + abs(z))),
        key=lambda k: roots[k].real,
    )
    e1 = roots[i].real
    e2, e3 = roots[:i] + roots[i + 1:]
    a, b = cmath.sqrt(e1 - e2), cmath.sqrt(e1 - e3)
    while abs(a - b) > 1e-15 * abs(a):
        a, b = (a + b) / 2, cmath.sqrt(a * b)
    return math.pi / a.real


def rational_reconstruct(x, max_den, tol=1e-8):
    """Nearest rational with small denominator, or None when ambiguous."""
    if not math.isfinite(x):
        return None
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) <= tol * max(1.0, abs(x)):
        return frac
    return None


def lratio(E):
    """(float L(E,1)/Omega+, reconstructed Fraction or None).

    A reconstructed 0 means the L-value vanishes to working precision (odd
    functional equation); calibration is then impossible and skipped.
    """
    L, _ = lvalue_and_sign(E)
    omega = real_period(E)
    ratio = L / omega
    rec = rational_reconstruct(ratio, LRATIO_MAX_DEN, tol=1e-6)
    return ratio, rec
