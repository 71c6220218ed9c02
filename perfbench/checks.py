"""Output checks for each workload, written against the rendered text.

The expected values come from the README's golden run (37a1 at p=5), the
test suite's frozen coset count, the ROADMAP's sieve prefix (5077a1 at p=7)
and the seed commit's output, never from the package at run time.  The
sieved primes are re-derived with the arithmetic below: a naive point count
over F_l decides every candidate whose l-torsion question the count settles.
Each check returns a list of problems (empty when the output is right).
"""

import hashlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH_P = 5
SEARCH_BOUND = 300
SEARCH_PRIMES = [61, 211, 281]
# the README's rank-one golden run, as `kurihara search` prints it
SEARCH_GOLDEN = """\
curve 37a1, p = 5 (mod p^1)
sieve bound 300: primes [61, 211, 281]
  delta_1 = 0 (factors [], routes_agree=True)
  delta_61 = 4 (factors [61], routes_agree=True) *
  delta_211 = 0 (factors [211], routes_agree=True)
  delta_281 = 4 (factors [281], routes_agree=True) *
delta-minimal: [61, 281]
Selmer dimension: 1
upper bound: 1
IMC witness: True
parity: pass (w_E = -1)"""

COSET_DIM3 = 25272
# xi_tilde(d=17, n=2, p=7, m=2) of 11a1 lives in Z/49[(Z/49)^* x (Z/17)^*]
XI_GROUP = [42, 16]
XI_MODULUS = 49
XI_SHA256 = "56c585f1d6a3e6fc324634dae643287cd81fa8c0291cc07b8949877b526d370a"

SIEVE_P = 7
SIEVE_BOUND = 2000
SIEVE_COUNT = 8
SIEVE_PREFIX = [113, 211, 463, 547, 673]


def _curve(path):
    return json.loads((ROOT / path).read_text())["ainvs"]


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_primitive_root(g, ell):
    return g % ell != 0 and all(
        pow(g, (ell - 1) // q, ell) != 1 for q in _prime_factors(ell - 1)
    )


def _discriminant(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _count_points(ainvs, ell):
    """#E(F_l) for odd l of good reduction, by counting y over every x."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    squares = {x * x % ell for x in range(1, ell)}
    total = ell + 1
    for x in range(ell):
        v = (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % ell
        if v:
            total += 1 if v in squares else -1
    return total


def sieve_problems(ainvs, p, bound, ells):
    """Problems with `ells` as the Kolyvagin primes of E up to `bound`.

    A Kolyvagin prime l has l = 1 mod p, p | #E(F_l) and E(F_l)[p] cyclic.
    The count alone settles every candidate but those with p^2 | #E(F_l),
    where E(F_l)[p] may be cyclic or not; those are left to the frozen list.
    """
    problems = []
    listed = set(ells)
    disc = _discriminant(ainvs)
    for ell in listed:
        if not _is_prime(ell) or ell % p != 1 or ell > bound:
            problems.append(f"{ell} is not a prime = 1 mod {p} up to {bound}")
    for ell in range(2 * p + 1, bound + 1, 2 * p):
        if not _is_prime(ell) or disc % ell == 0:
            continue
        order = _count_points(ainvs, ell)
        if order % p and ell in listed:
            problems.append(f"{ell} is listed, but p does not divide #E = {order}")
        if order % p == 0 and order % (p * p) and ell not in listed:
            problems.append(f"{ell} is missing: #E = {order} has cyclic p-part")
    return problems


def check_search(text):
    problems = sieve_problems(_curve("curves/37a1.json"), SEARCH_P, SEARCH_BOUND,
                              SEARCH_PRIMES)
    got, want = text.split("\n"), SEARCH_GOLDEN.split("\n")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"line {i + 1} is {g!r}, the README has {w!r}")
            break
    if len(got) != len(want):
        problems.append(f"{len(got)} lines, the README has {len(want)}")
    return problems


def check_theta(text):
    selftest, _, xi = text.partition("\n{\"group\"")
    xi = '{"group"' + xi
    try:
        suites = {s["name"]: s for s in json.loads(selftest)["suites"]}
        coset = {c["name"]: c for c in suites["coset_verifier"]["cases"]}
        element = json.loads(xi)
        coeffs = {tuple(k): v for k, v in element["coeffs"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc}"]
    problems = [f"suite {name} has {s['failures']} failures"
                for name, s in suites.items() if s["failures"]]
    problems += [f"case {name} is {c['status']}"
                 for name, c in coset.items() if c["status"] != "pass"]
    if coset.get("coset_lemma_dim3", {}).get("instances") != COSET_DIM3:
        problems.append("coset_lemma_dim3 instance count")
    if element["group"] != XI_GROUP:
        problems.append(f"xi lives in group {element['group']}")
    if set(coeffs) != {(i, j) for i in range(XI_GROUP[0]) for j in range(XI_GROUP[1])}:
        problems.append("xi coefficients do not cover the group")
    if not all(isinstance(v, int) and 0 <= v < XI_MODULUS for v in coeffs.values()):
        problems.append(f"xi coefficients outside Z/{XI_MODULUS}")
    if hashlib.sha256(xi.encode()).hexdigest() != XI_SHA256:
        problems.append("xi differs from the seed commit's")
    return problems


def check_sieve(text):
    problems = []
    ells = []
    for line in text.split("\n"):
        m = re.fullmatch(r"l = (\d+)  h_l = (\d+)  \|G_l\| = (\d+)", line)
        if not m:
            return [f"unparsable sieve line {line!r}"]
        ell, g, order = (int(x) for x in m.groups())
        ells.append(ell)
        if not _is_prime(ell):
            problems.append(f"{ell} is not prime")
            continue
        if not _is_primitive_root(g, ell):
            problems.append(f"{g} is not a primitive root mod {ell}")
        part = 1
        while (ell - 1) % (part * SIEVE_P) == 0:
            part *= SIEVE_P
        if order != part:
            problems.append(f"|G_l| = {order} for l = {ell}, expected {part}")
    if len(ells) != SIEVE_COUNT:
        problems.append(f"{len(ells)} primes, expected {SIEVE_COUNT}")
    if ells[:len(SIEVE_PREFIX)] != SIEVE_PREFIX:
        problems.append(f"sieve starts {ells[:len(SIEVE_PREFIX)]}")
    if ells != sorted(set(ells)):
        problems.append("primes not strictly increasing")
    problems += sieve_problems(_curve("perfbench/5077a1.json"), SIEVE_P, SIEVE_BOUND,
                               ells)
    return problems


CHECKS = {
    "search-37a1": check_search,
    "theta-11a1": check_theta,
    "sieve-5077a1": check_sieve,
}
