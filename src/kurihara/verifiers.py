"""Finite exhaustive verifiers and the cross-identity suite.

The coset verifier checks, over all 4-tuples of nonzero functionals on F_3^k
whose span has dimension >= 3, that no choice of shifts covers the group with
the four kernel cosets.  A coset g ker(phi) is determined by c = phi(g), so
shift tuples reduce exactly to value tuples c in F_3^4; a tuple admits a
covering choice of c iff the union over its value-image S of the "survivor"
grids {c : c_i != y_i for all i} misses some c.

S is the span of the tuple's k coordinate vectors y_j = (f1[j], .., f4[j]) in
F_3^4.  The search walks the y_j one coordinate at a time and carries S as its
annihilator, the 81-bit mask of the c in F_3^4 with c.y_j = 0 for every j so
far: one AND per coordinate.  Only the 40 hyperplanes and F_3^4 itself are
judged.  A prefix's leaves are counted at once against its span, and looped
over one by one only when one of them can reach an uncovered span, to name
the counterexamples.  Every tuple is still visited and judged.
"""

from functools import lru_cache, reduce
from itertools import compress, product
from math import gcd
from operator import and_, or_

from .curve import primes_upto
from .errors import IdentityFailure
from .exactmath import (
    ResidueRing,
    factorize,
    projection_map,
    unit_reduction,
)
from .kolyvagin import KolyvaginPrime, sieve
from .mazurtate import (
    euler_factor,
    frobenius_factor,
    kurihara_combination,
    stabilization_scalar,
    unit_root,
    vartheta,
)
from .records import field, record
from .search import delta_row

STABILIZED_MEMO = 2**11  # vartheta elements one suite run keeps (the golden grid: 808)
FULL81 = (1 << 81) - 1
_VECS = [tuple(y // 3**i % 3 for i in range(4)) for y in range(81)]  # base-3 digits


def _per_digit(tables):
    """[tables[0][y_0] | .. | tables[3][y_3] for y = y_0 + 3 y_1 + 9 y_2 + 27 y_3]."""
    return [a | b | c | d for d, c, b, a in product(*reversed(tables))]


def _survivor_grids():
    """grids[y] = bitmask of the 2^4 points c in F_3^4 with c_i != y_i for all i.

    The c with c_i == v fill the v-th run of 3^i bits in every 3^(i+1); a grid
    is the complement of the OR of these per-digit masks over the digits of y.
    """
    hits = []
    for i in range(4):
        run = 3**i
        repeat = sum(1 << 3 * run * j for j in range(27 // run))
        hits.append([((1 << run) - 1) * repeat << v * run for v in range(3)])
    return [FULL81 ^ m for m in _per_digit(hits)]


def _kernels():
    """K[y] = bitmask of the c in F_3^4 with c.y = c_0 y_0 + .. + c_3 y_3 == 0 mod 3.

    The dot product is symmetric, so K[c] is also the set of the y that c
    kills: the hyperplane ker c for c != 0, all of F_3^4 for c = 0.  Read
    digit by digit, sums[t] masks the c over the digits so far whose dot
    product with those of y is t; digit i of value v places the c with
    c_i = 0, 1, 2 in runs of 3^i bits, from the classes t, t - v, t - 2v.
    Vectors that share low digits share these masks.
    """
    sums = [(1, 0, 0)]
    for run in (1, 3, 9):
        sums = [
            tuple(s[t] | s[(t - v) % 3] << run | s[(t + v) % 3] << 2 * run for t in range(3))
            for v in range(3)
            for s in sums
        ]
    return [s[0] | s[-v % 3] << 27 | s[v] << 54 for v in range(3) for s in sums]


def _coordinate_choices(reduced):
    """Allowed coordinate vectors per "f_i still zero" mask (bit i).

    inner[mask] lists (y, mask') for a coordinate before the last, last[mask]
    the y that leave every f_i nonzero.  With `reduced`, a functional's first
    nonzero entry must be 1, so a still-zero f_i takes 0 or 1 next.  Built
    digit by digit, as `_kernels` is: only digit 0 keeps bit i of the mask;
    digits 1 and 0, and 3 and 2, are joined per two mask bits, then the two
    halves per mask, the higher digits slower so that y ascends.
    """
    # digit[i][bit i of the mask]: the (value, kept bit) choices of digit i
    digit = [
        [[(v * 3**i, 0) for v in range(3)], [(0, 1 << i), (3**i, 0)] + ([] if reduced else [(2 * 3**i, 0)])]
        for i in range(4)
    ]

    def join(high, low):
        return [(a + b, left_a | left_b) for a, left_a in high for b, left_b in low]

    low = [join(digit[1][bits >> 1], digit[0][bits & 1]) for bits in range(4)]
    high = [join(digit[3][bits >> 1], digit[2][bits & 1]) for bits in range(4)]
    inner = [join(high[mask >> 2], low[mask & 3]) for mask in range(16)]
    return inner, [[y for y, left in steps if not left] for steps in inner]


def _functionals(path):
    """(k, f1, f2, f3, f4) from the coordinate vectors y_1..y_k."""
    return (len(path),) + tuple(
        tuple(_VECS[y][i] for y in path) for i in range(4)
    )


def _bits(mask):
    """Bit y of `mask` as byte y, 0 or 1: the selector `compress` takes."""
    return bin(mask)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _grid_unions(K, grids):
    """{K[c]: the union of the grids over the y in K[c]}: the 40 hyperplanes
    ker c (K[c] == K[2c]) and, as K[0] == FULL81, F_3^4 itself."""
    return {h: reduce(or_, compress(grids, _bits(h))) for h in set(K)}


def _span_of(ann, K):
    """The vectors every c in the annihilator `ann` kills: the span itself."""
    return reduce(and_, compress(K, _bits(ann)))


@record
class CosetReport:
    max_dim: int
    reduced: bool
    instances: dict          # k -> number of span>=3 tuples checked
    by_span_dim: dict        # span dim -> count
    counterexamples: list    # tuples admitting a covering shift (must stay empty)

    @property
    def ok(self):
        return not self.counterexamples


def verify_coset_lemma(max_dim, reduced=True):
    """Exhaustively confirm that 4 kernel cosets never cover F_3^k (span >= 3).

    `reduced` drops each functional's sign (g ker(phi) = g ker(-phi), and the
    value tuples c range over all of F_3^4 either way); the unreduced search
    enumerates both signs and must agree, which is tested on F_3^3.

    A tuple (f1, f2, f3, f4) of functionals on F_3^k is walked as its k
    coordinate vectors y_j = (f1[j], f2[j], f3[j], f4[j]) in F_3^4, one level
    per coordinate, carrying the annihilator of span(y_1..y_j): |ann| = 81,
    27, 9, 3, 1 for dimension 0 to 4.  Each leaf is one tuple, and every
    tuple is visited and judged by its span's grid union.

    K, the coordinate choices and the verdicts are built here, on every
    call.  A span of dimension 3 is ker c for the c != 0 in its annihilator,
    and `uncovered` holds the c whose ker c has a union that is not full;
    F_3^4 has a verdict of its own, as bit 0 is in every annihilator.  A
    prefix's leaves inside its span keep its dimension and the rest gain
    one; they are taken one by one only when one can reach an uncovered span.
    """
    if max_dim not in (3, 4):
        raise ValueError(f"coset lemma is verified on F_3^3 and F_3^4, not F_3^{max_dim}")
    K = _kernels()
    inner, last = _coordinate_choices(reduced)
    unions = _grid_unions(K, _survivor_grids())
    uncovered = sum(1 << c for c in range(1, 81) if unions[K[c]] != FULL81)
    whole_uncovered = unions[FULL81] != FULL81
    # per last-coordinate mask: the leaves, as a count and a mask, and the
    # uncovered c that one of them kills (a leaf's annihilator is ann & K[z]),
    # so that the hyperplane y_i = 0 flags no prefix whose f_i is still 0
    ends = [
        (len(zs), sum(1 << z for z in zs), reduce(or_, map(K.__getitem__, zs), 0) & uncovered)
        for zs in last
    ]
    spans = {}
    instances = {}
    by_dim = [0] * 6  # leaves by span dimension; 2 and 5 are never read
    bad = []

    def walk(path, j, ann, mask):
        if j < len(path) - 2:
            for y, left in inner[mask]:
                path[j] = y
                walk(path, j + 1, ann & K[y], left)
            return
        for y, left in inner[mask]:
            a = ann & K[y]
            if a.bit_count() > 9:
                continue  # a span of dimension <= 1: its leaves span <= 2
            if a not in spans:
                spans[a] = 4 - (1, 3, 9).index(a.bit_count()), _span_of(a, K)
            dim, span = spans[a]
            n, ends_mask, targets = ends[left]
            inside = (span & ends_mask).bit_count()
            by_dim[dim] += inside
            by_dim[dim + 1] += n - inside
            if a & targets or dim >= 3 and whole_uncovered:
                path[j] = y
                for z in last[left]:
                    leaf = a & K[z]
                    size = leaf.bit_count()
                    if size == 3 and leaf & uncovered or size == 1 and whole_uncovered:
                        path[j + 1] = z
                        bad.append(_functionals(path))

    for k in range(3, max_dim + 1):
        before = by_dim[3] + by_dim[4]
        walk([0] * k, 0, FULL81, 15)
        instances[k] = by_dim[3] + by_dim[4] - before
    bad.sort()  # the order of a (f1, f2, f3, f4) loop over sorted functionals
    return CosetReport(max_dim, reduced, instances, {3: by_dim[3], 4: by_dim[4]}, bad)


def span_two_covering_witness():
    """The span-dimension-2 configuration that *is* covered by four cosets.

    With phi3 = phi1 + phi2 and phi4 = phi1 - phi2 on F_3^2, the value tuple
    c = (0, 0, 0, 0) covers the group; returns (functionals, c, cover check).
    """
    fns = [(1, 0), (0, 1), (1, 1), (1, 2)]  # pr1, pr2, pr1+pr2, pr1-pr2
    c = (0, 0, 0, 0)
    covered = all(
        any(sum(f[i] * x[i] for i in range(2)) % 3 == c[j] for j, f in enumerate(fns))
        for x in product(range(3), repeat=2)
    )
    return fns, c, covered


# ---------------------------------------------------------------------------
# cross-identity suite


@record
class SuiteResult:
    identity: str
    instances: int
    failures: list = field(default_factory=list)


@record
class SuiteReport:
    """What a passing run of the identity suite checked (a failing run raises)."""

    results: dict
    vacuous: bool = False
    samples: tuple = ()  # the (l, u) the seed drew for generator_covariance
    seed: int = 0

    def to_json(self):
        """The `identity_suite` section of `kurihara selftest`."""
        return {
            "name": "identity_suite",
            "tests": len(self.results),
            "failures": 0,
            "vacuous": self.vacuous,
            "seed": self.seed,
            "covariance_samples": [list(s) for s in self.samples],
            "cases": [
                {"name": name, "status": "pass", "instances": r.instances, "failures": []}
                for name, r in self.results.items()
            ],
        }


def _squarefree_good(E, p, bound):
    """Squarefree products of good primes (!= p) up to `bound`, including 1."""
    goods = [
        q for q in primes_upto(bound)
        if q != p and E.discriminant % q != 0
    ]
    out = [1]
    for q in goods:
        out.extend([d * q for d in out if d * q <= bound])
    return sorted(d for d in out if d <= bound)


def run_identity_suite(
    symbol,
    p,
    d_ell_max=200,
    n_max=1,
    m_max=2,
    remark_d_max=200,
    route_prime_bound=300,
    covariance_samples=10,
    seed=0,
):
    """Exercise every registered cross-identity over the configured grid.

    Norm relations are checked for all squarefree good d and good primes l
    with d*l under the bound; the route identities run over sieved Kolyvagin
    products through `delta_row`, which checks all three routes on one walk
    of (Z/d)^* and raises CorrectnessAlarm on a disagreement.  Any other
    failure is reported through IdentityFailure naming the (identity,
    instance) pair.

    Each stabilized element vartheta is computed once per run and shared by
    every identity and every xi_tilde that reads it, up to STABILIZED_MEMO
    elements (least recently used go first).
    """
    E = symbol.curve
    stabilized = lru_cache(maxsize=STABILIZED_MEMO)(
        lambda d, n, m: vartheta(symbol, d, n, p, m)
    )

    def xi(d, n, m):
        return kurihara_combination(symbol, d, n, p, m, lambda e: stabilized(e, n, m))

    results = {
        name: SuiteResult(name, 0)
        for name in (
            "xi_norm_relation",
            "vartheta_euler_relation",
            "stabilization_bridge",
            "stabilizer_unit",
            "derivative_closed_form",
            "derivative_vanishing",
            "ed_route_agreement",
            "generator_covariance",
            "projective_system",
        )
    }

    ds = _squarefree_good(E, p, d_ell_max)
    for m in range(1, m_max + 1):
        ring = ResidueRing(p, m)
        for n in range(0, n_max + 1):
            for d in ds:
                goods = [
                    q for q in primes_upto(d_ell_max // d)
                    if q != p and E.discriminant % q != 0 and d % q != 0
                ]
                if not goods:
                    continue
                # the d-level elements, shared by every l
                xd = xi(d, n, m)
                vd = stabilized(d, n, m)
                for ell in goods:
                    xdl = xi(d * ell, n, m)
                    hom = unit_reduction(xdl.group, xd.group)
                    lhs = projection_map(xdl, hom)
                    rhs = frobenius_factor(E, ell, xd.group, ring) * xd
                    results["xi_norm_relation"].instances += 1
                    if lhs != rhs:
                        results["xi_norm_relation"].failures.append(
                            (d, ell, n, m)
                        )
                    vdl = stabilized(d * ell, n, m)
                    homv = unit_reduction(vdl.group, vd.group)
                    lhsv = projection_map(vdl, homv)
                    rhsv = euler_factor(E, ell, vd.group, ring) * vd
                    results["vartheta_euler_relation"].instances += 1
                    if lhsv != rhsv:
                        results["vartheta_euler_relation"].failures.append(
                            (d, ell, n, m)
                        )

    # bottom-layer stabilization bridge and unit-ness of the scalar
    for m in range(1, m_max + 1):
        root = unit_root(E, p, m)
        for d in _squarefree_good(E, p, remark_d_max):
            v1 = stabilized(d, 1, m)
            v0 = stabilized(d, 0, m)
            hom = unit_reduction(v1.group, v0.group)
            results["stabilization_bridge"].instances += 1
            if projection_map(v1, hom) != v0:
                results["stabilization_bridge"].failures.append((d, m))
            # the scalar is a unit in the ring where the derivative machinery
            # lives, Z/p^m over the p-part quotient Gal(Q(d)/Q).  A group ring
            # of a p-group over Z/p^m is local: an element is a unit exactly
            # when its augmentation is a unit mod p.  Projecting to the
            # quotient keeps the augmentation, so it is read here directly.
            scal = stabilization_scalar(v0.group, root)
            results["stabilizer_unit"].instances += 1
            if not scal.ring.is_unit(scal.augmentation()):
                results["stabilizer_unit"].failures.append((d, m))

    # route identities over sieved products (vacuous when the sieve is empty)
    primes = sieve(E, p, 1, 0, route_prime_bound)
    registry = {kp.ell: kp for kp in primes}
    mod_p = ResidueRing(p, 1)
    products = []
    if registry:
        products = [1]
        for kp in primes:
            products.extend(
                [d * kp.ell for d in products if len(factorize(d * kp.ell)) <= 2]
            )
        products = sorted(set(products))
    for d in products:
        delta_row(symbol, d, mod_p, registry)
        for name in ("ed_route_agreement", "derivative_closed_form", "derivative_vanishing"):
            results[name].instances += 1

    # generator covariance on single sieved primes: one row per registry
    import random  # here only: no other run needs it

    rng = random.Random(seed)
    samples = []
    for _ in range(covariance_samples if primes else 0):
        kp = rng.choice(primes)
        u = rng.randrange(2, kp.ell - 1)
        while gcd(u, kp.ell - 1) != 1:
            u = rng.randrange(2, kp.ell - 1)
        samples.append((kp.ell, u))
        alt_reg = dict(registry)
        alt_reg[kp.ell] = KolyvaginPrime(kp.ell, kp.p, pow(kp.generator, u, kp.ell))
        base = delta_row(symbol, kp.ell, mod_p, registry)
        twisted = delta_row(symbol, kp.ell, mod_p, alt_reg)
        results["generator_covariance"].instances += 1
        if twisted.delta != base.delta * pow(u, -1, p) % p:
            results["generator_covariance"].failures.append((kp.ell, u))

    # projective system across n for small d
    for d in _squarefree_good(E, p, min(20, d_ell_max)):
        for n in range(1, n_max + 1):
            vtop = stabilized(d, n + 1, 1)
            vlow = stabilized(d, n, 1)
            hom = unit_reduction(vtop.group, vlow.group)
            results["projective_system"].instances += 1
            if projection_map(vtop, hom) != vlow:
                results["projective_system"].failures.append((d, n))

    vacuous = any(r.instances == 0 for r in results.values())
    failures = [
        (name, inst) for name, r in results.items() for inst in r.failures
    ]
    if failures:
        raise IdentityFailure(f"identity failures: {failures}")
    return SuiteReport(results, vacuous, tuple(samples), seed)
