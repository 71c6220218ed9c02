"""Weight-2 modular symbols for Gamma0(N), plus quotient.

Manin-symbol presentation indexed by P^1(Z/N) (Stein, Algorithms 8.29/8.32),
quotient by the 2-term, 3-term and star relations, boundary map to cusp
classes (Cremona, Prop. 2.2.3), Hecke action through Merel's matrices, and
extraction of the rational eigensymbol attached to a curve.

The eigensymbol is stored as a linear functional on the plus quotient (the
dual Hecke eigenvector): pairing it with the unimodular decomposition of
{oo -> a/d} evaluates the normalized plus modular symbol at the cusp a/d,
exactly, up to the recorded calibration unit.  Two loops decompose a/d: the
convergent loop of `ManinSpace.path_symbols`, the exact reference that
`eval_plus` reads, and the walk `EigenSymbol.plus_numerators`, which reads
the pieces of {oo -> b^-1/d} backwards as the Euclidean remainders of (d, b).
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import lseries
from .curve import primes_upto, trace_of_frobenius
from .errors import (
    AmbiguousEigenspace,
    CalibrationError,
    CorrectnessAlarm,
    EigensymbolNotFound,
    FrickeNotScalar,
    NotCoprime,
)
from .exactmath import echelon_kernel, factorize, sparse_echelon, xgcd
from .records import record

QMAX = 100  # the eigenline chains draw the good primes q <= QMAX
HOLDOUT_COUNT = 3  # further good primes checked on the extracted eigenvectors


# ---------------------------------------------------------------------------
# P^1(Z/N)


def _lift_unit(a, d, n):
    """Lift a unit a mod d (with d | n) to a unit mod n."""
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    _, x, y = xgcd(u, v)
    return (u * x + a * y * v) % n


class P1List:
    """Canonical representatives of P^1(Z/N) with index lookup.

    The representatives are listed in the order of a scan over all N^2 pairs,
    so (0 : 1) comes first and (1 : s) is representative 1 + s. A class
    (u : v) with u a unit mod N is (1 : v u^-1), found without a search
    (Stein, *Modular Forms: A Computational Approach*, Alg. 8.29), with u^-1
    read from a table of the N residues built once; at prime N only
    u = 0 mod N is left to `normalize` and the dictionary.
    """

    def __init__(self, N):
        if N < 1:
            raise ValueError(f"level must be positive, got {N}")
        self.N = N
        # u^-1 mod N at each unit u, None elsewhere (and at 0 when N = 1)
        inv = [None] * N
        for u in range(1, N):
            if inv[u] is None and gcd(u, N) == 1:
                w = pow(u, -1, N)
                inv[u], inv[w] = w, u
        self._inv = inv
        seen = {}
        reps = []
        if N == 1:
            reps = [(0, 0)]
            seen[(0, 0)] = 0
        else:
            # (c : d) normalises to (g : *) with g = gcd(c, N) < c unless c
            # is 0 or a divisor of N, and row g lists that class first; so the
            # rows c = 0 and c = g | N give the order of the full N x N scan
            for c in [0] + [g for g in range(1, N) if N % g == 0]:
                for d in range(N):
                    r = self.normalize(c, d)
                    if r is not None and r not in seen:
                        seen[r] = len(reps)
                        reps.append(r)
        self.reps = reps
        self._index = seen

    def __len__(self):
        return len(self.reps)

    def normalize(self, u, v):
        """Canonical form of (u : v), or None when gcd(u, v, N) > 1."""
        N = self.N
        if N == 1:
            return (0, 0)
        u %= N
        v %= N
        if u == 0:
            return (0, 1) if gcd(v, N) == 1 else None
        w = self._inv[u]
        if w is not None:
            return (1, v * w % N)
        g = gcd(u, N)
        if gcd(g, v) > 1:
            return None
        _, _, s = xgcd(N, u)  # s*u = g mod N
        v = _lift_unit(s % N, N // g, N) * v % N
        best = min(
            v * t % N for t in range(1, N, N // g) if gcd(t, N) == 1
        )
        return (g, best)

    def index(self, u, v):
        """Index of the class of (u : v), or None when gcd(u, v, N) > 1."""
        N = self.N
        w = self._inv[u % N]
        if w is not None:
            return 1 + v * w % N
        r = self.normalize(u, v)
        return None if r is None else self._index[r]


# ---------------------------------------------------------------------------
# cusps


def _cusp_normalize(a, c):
    g = gcd(a, c)
    if g:
        a, c = a // g, c // g
    if c < 0:
        a, c = -a, -c
    if c == 0:
        a = 1
    return (a, c)


def _cusp_equivalent(N, cusp1, cusp2):
    """Gamma0(N)-equivalence of cusps (Cremona, Prop. 2.2.3)."""
    p1, q1 = cusp1
    p2, q2 = cusp2

    def inv_mod(p, q):
        if q == 0:
            return 1
        if q == 1:
            return 0
        return pow(p % q, -1, q)

    s1, s2 = inv_mod(p1, q1), inv_mod(p2, q2)
    return (s1 * q2 - s2 * q1) % gcd(q1 * q2, N) == 0


class CuspClasses:
    """Cusp classes for Gamma0(N), folded by the star involution a/c -> -a/c."""

    def __init__(self, N):
        self.N = N
        self.reps = []

    def index(self, a, c):
        cusp = _cusp_normalize(a, c)
        star = _cusp_normalize(-cusp[0], cusp[1])
        for i, rep in enumerate(self.reps):
            if _cusp_equivalent(self.N, cusp, rep) or _cusp_equivalent(self.N, star, rep):
                return i
        self.reps.append(cusp)
        return len(self.reps) - 1


def _sl2_lift(c, d, N):
    """An SL2(Z) matrix with bottom row congruent to (c, d) mod N."""
    if N == 1:
        return (1, 0, 0, 1)
    c %= N
    d %= N
    if c == 0 and d == 0:
        raise ValueError("not a P1 element")
    while gcd(c, d) != 1:
        d += N
    g, x, y = xgcd(d, c)
    if g != 1:
        raise CorrectnessAlarm(f"lift ({c}, {d}) of a P^1 class is not coprime")
    # a*d - b*c = 1 with (a, b) = (x, -y)
    return (x, -y, c, d)


# ---------------------------------------------------------------------------
# Merel's matrices for the Hecke action on Manin symbols


def merel_matrices(n):
    """Matrices (a, b; c, d), det = n, a > b >= 0, d > c >= 0 (Merel's set)."""
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return out


# ---------------------------------------------------------------------------
# the plus-quotient space


class ManinSpace:
    """Plus quotient of weight-2 Manin symbols for Gamma0(N).

    Coordinates live on the free basis chosen by row reduction of the 2-term,
    3-term, and star relations; generator i is `proj_nums[i]`, sparse integer
    numerators over `proj_den`, the scale of the boundary and Hecke matrices.
    """

    def __init__(self, N):
        self.N = N
        self.p1 = P1List(N)
        G = len(self.p1)
        expected = N
        for q in factorize(N):
            expected = expected // q * (q + 1)
        if G != expected:
            raise CorrectnessAlarm(f"P^1(Z/{N}) has {G} classes, expected {expected}")

        # relations as sorted (index, coeff) tuples, coefficients merged
        relations = []
        seen = set()

        def add_rel(items):
            merged = {}
            for i, coeff in items:
                merged[i] = merged.get(i, 0) + coeff
            rel = tuple(sorted((i, c) for i, c in merged.items() if c))
            if rel and rel not in seen:
                seen.add(rel)
                relations.append(rel)

        idx = self.p1.index
        for i, (c, d) in enumerate(self.p1.reps):
            add_rel([(i, 1), (idx(d, -c), 1)])
            add_rel([(i, 1), (idx(c + d, -c), 1), (idx(d, -c - d), 1)])
            add_rel([(i, 1), (idx(-c, d), -1)])
        self.relations = relations

        red = sparse_echelon(relations)
        self.free = [j for j in range(G) if j not in red]
        self.dim = len(self.free)
        free_pos = {j: k for k, j in enumerate(self.free)}

        # a free generator is its own coordinate, a pivot minus the rest of its row
        den = self.proj_den = lcm(*(x.denominator for row in red.values() for x in row.values()))
        nums = [None] * G
        for k, j in enumerate(self.free):
            nums[j] = [(k, den)]
        for c, row in red.items():
            nums[c] = [(free_pos[j], -x.numerator * (den // x.denominator))
                       for j, x in sorted(row.items()) if j != c]
        self.proj_nums = nums

        # boundary map on the free basis: one sparse integer row per cusp class
        cusps = CuspClasses(N)
        rows = {}
        for k, j in enumerate(self.free):
            a, b, ct, dt = _sl2_lift(*self.p1.reps[j], N)
            for i, s in ((cusps.index(a, ct), 1), (cusps.index(b, dt), -1)):
                row = rows.setdefault(i, {})
                row[k] = row.get(k, 0) + s
        self.boundary = [{k: x for k, x in rows[i].items() if x} for i in range(len(cusps.reps))]
        self._hecke_cache = {}

    # -- Hecke ------------------------------------------------------------

    def hecke_full(self, q):
        """proj_den * T_q as an integer matrix (columns act on coordinates)."""
        mat = self._hecke_cache.get(q)
        if mat is not None:
            return mat
        fam = merel_matrices(q)
        index, nums, dim = self.p1.index, self.proj_nums, self.dim
        # numerators of the image of each generator, over self.proj_den
        images = []
        for c, d in self.p1.reps:
            acc = [0] * dim
            for a, b, cc, dd in fam:
                t = index(c * a + d * cc, c * b + d * dd)
                if t is not None:
                    for r, x in nums[t]:
                        acc[r] += x
            images.append(acc)
        # the action must kill the relation submodule (Merel / star-equivariance)
        for rel in self.relations:
            acc = [0] * dim
            for i, coeff in rel:
                for r, x in enumerate(images[i]):
                    acc[r] += coeff * x
            if any(acc):
                raise CorrectnessAlarm(f"T_{q} does not descend to the quotient")
        mat = [[images[j][r] for j in self.free] for r in range(dim)]
        self._hecke_cache[q] = mat
        return mat

    # -- paths -------------------------------------------------------------

    def path_symbols(self, a, d):
        """Indices of the unimodular pieces of {oo -> a/d} (Manin's trick).

        One pass of Euclid's algorithm on a/d: each quotient extends the
        convergents p_k/q_k, and the piece between p_{k-1}/q_{k-1} and
        p_k/q_k has bottom row (q_k, +-q_{k-1}).
        """
        if d == 0:
            return []
        if d < 0:
            a, d = -a, -d
        index = self.p1.index
        out = []
        x, y = a, d
        # convergents k-1 and k, seeded with p_{-2}/q_{-2} = 0/1, p_{-1}/q_{-1} = 1/0
        p_prev, q_prev, p, q = 0, 1, 1, 0
        while y:
            quot, r = divmod(x, y)
            x, y = y, r
            p_prev, q_prev, p, q = p, q, quot * p + p_prev, quot * q + q_prev
            det = p * q_prev - p_prev * q
            if det == 1:
                out.append(index(q, q_prev))
            elif det == -1:
                out.append(index(q, -q_prev))
            else:
                raise CorrectnessAlarm(f"convergents of {a}/{d} are not unimodular")
        return out

    def path_vector(self, a, d):
        """Coordinates of the path {oo -> a/d}, as numerators over proj_den."""
        v = [0] * self.dim
        for i in self.path_symbols(a, d):
            for r, x in self.proj_nums[i]:
                v[r] += x
        return v

    def path_between(self, cusp1, cusp2):
        """Numerators over proj_den of {cusp1 -> cusp2}; cusps are (num, den) pairs."""
        v2 = self.path_vector(cusp2[0], cusp2[1])
        v1 = self.path_vector(cusp1[0], cusp1[1])
        return [x - y for x, y in zip(v2, v1)]

    def fricke_matrix(self):
        """Columns of the action of [0, -1; N, 0] on the plus quotient.

        Column j is the image of free generator j, in free-basis coordinates
        as numerators over proj_den.
        """
        cols = []
        for j in self.free:
            c, d = self.p1.reps[j]
            a, b, ct, dt = _sl2_lift(c, d, self.N)
            # symbol = {b/dt -> a/ct}; eta(p/q) = -q/(N p)
            alpha = _cusp_normalize(-dt, self.N * b)
            beta = _cusp_normalize(-ct, self.N * a)
            cols.append(self.path_between(alpha, beta))
        return cols


def build_space(N):
    return ManinSpace(N)


# ---------------------------------------------------------------------------
# eigensymbol


@record
class EigenSymbol:
    """The rational Hecke eigensymbol of a curve, as an evaluation functional.

    `vector` is a content-1 integral left eigenvector of every T_q (the dual
    action); `column` is the matching content-1 column eigenvector inside the
    cuspidal subspace, kept for the boundary and Fricke checks.
    """

    space: ManinSpace
    curve: object
    vector: tuple
    column: tuple
    hecke_pairs: tuple
    holdout_pairs: tuple
    chain_dims: tuple
    calibration_status: str
    calibration_unit: Fraction
    _wfree = None  # (generator numerators, denominator), filled on first use
    _theta_cache = None  # theta per (d, n, p), made by mazurtate.theta

    def generator_values(self):
        """Functional evaluated on each Manin generator (pulled back once).

        Stored as integer numerators over one common denominator so that the
        hot evaluation path sums plain ints.  The pull-back is also a star
        certificate: the star involution sends the Manin symbol (c : d) to
        (-c : d), and the two must carry the same value, as the quotient's
        star relation says, or CorrectnessAlarm is raised.  With it
        [-a/d]^+ = [a/d]^+ for every a/d, so a walk of (Z/d)^* evaluates
        one unit of each pair {a, d - a} and reads the other from it.
        """
        if self._wfree is None:
            space, w = self.space, self.vector
            nums = [sum(w[r] * x for r, x in pv) for pv in space.proj_nums]
            index = space.p1.index
            for i, (c, d) in enumerate(space.p1.reps):
                if nums[i] != nums[index(-c, d)]:
                    raise CorrectnessAlarm(
                        f"the functional differs on ({c} : {d}) and its star image"
                    )
            self._wfree = (nums, space.proj_den)
        return self._wfree

    def plus_numerators(self, level, units):
        """The integer walk: (totals, scale) with [b^-1/level]^+ = total * scale.

        `totals` yields, for each unit b in `units`, the sum of the
        `generator_values()` numerators over the pieces of {oo -> b^-1/level}.
        Their bottom rows (q_k : +-q_{k-1}), the convergent denominators of
        b^-1/level (or of its star image), read backwards are the remainders
        of Euclid on (level, b), so no inverse is taken (the reversal of
        continuants, Knuth, TAOCP 4.5.3); the signs drop out by the star
        symmetry.  A row (x : y) with x a unit mod N is the class
        1 + y x^-1 mod N, read inline; `P1List.index` takes the rest.  Euclid
        ends at gcd(level, b): a non-unit b raises CorrectnessAlarm.
        """
        nums, den = self.generator_values()
        N, inv, index = self.space.N, self.space.p1._inv, self.space.p1.index
        closing = nums[1]

        def totals():
            for b in units:
                x, y = level, b % level
                total = closing
                while y:  # index() is None only when a non-unit b shares a prime with N
                    w = inv[x % N]
                    total += nums[1 + y * w % N if w is not None else index(x, y) or 0]
                    x, y = y, x % y
                if x != 1:
                    raise CorrectnessAlarm(f"{b} is not a unit mod {level}")
                yield total

        return totals(), self.calibration_unit / den

    def to_json(self):
        return {
            "N": self.space.N,
            "sign": 1,
            "basis_dim": self.space.dim,
            "vector": [str(x) for x in self.vector],
            "hecke_pairs": [[q, aq] for q, aq in self.hecke_pairs],
            "calibration": {
                "status": self.calibration_status,
                "unit": f"{self.calibration_unit.numerator}/{self.calibration_unit.denominator}",
            },
        }


def eval_plus(symbol, a, d):
    """[a/d]+ = Re([a/d])/Omega+ as an exact rational, up to the calibration unit.

    The path {oo -> a/d} is decomposed into unimodular pieces through the
    continued-fraction convergents of a/d (`path_symbols`), and the
    numerators of `generator_values()` are summed over the pieces; the
    result depends only on a mod d.  This is the exact reference: the
    calibration reads it, and `mazurtate.plus_values`, which walks the
    units by `EigenSymbol.plus_numerators` instead, checks one unit per
    level against it.
    """
    if d <= 0:
        raise NotCoprime("denominator must be positive")
    if gcd(a, d) != 1:
        raise NotCoprime(f"gcd({a}, {d}) != 1")
    nums, den = symbol.generator_values()
    total = 0
    for i in symbol.space.path_symbols(a, d):
        total += nums[i]
    unit = symbol.calibration_unit
    return Fraction(total * unit.numerator, den * unit.denominator)


def _eigen_chain(space, pairs, dual):
    """Eigenspace of T_q = a_q for the (q, a_q) in `pairs`, one q at a time.

    It is the kernel of stacked integer rows: for the column (dual=False) the
    boundary rows and the rows of each proj_den * (T_q - a_q), so it starts
    from the cuspidal subspace; for the functional (dual=True, w T_q = a_q w)
    the columns of each proj_den * (T_q - a_q), starting from the whole
    quotient. Each step reduces the previous RREF rows together with the new
    ones in one `sparse_echelon`. The chain stops once the eigenspace is zero,
    or a line after at least one q.
    Returns (kernel basis, used pairs, kernel dimension before and after each q).
    """
    dim = space.dim
    red = {} if dual else sparse_echelon(row.items() for row in space.boundary)
    dims = [dim - len(red)]
    used = []
    for q, aq in pairs:
        if dims[-1] <= 1 and used:
            break
        T, s = space.hecke_full(q), aq * space.proj_den
        rows = zip(*T) if dual else T
        new = ([(j, x - (s if r == j else 0)) for j, x in enumerate(row)] for r, row in enumerate(rows))
        red = sparse_echelon(chain((row.items() for row in red.values()), new))
        used.append((q, aq))
        dims.append(dim - len(red))
        if dims[-1] == 0:
            break
    return echelon_kernel(red, dim), used, dims


def extract_eigensymbol(space, E, calibrate=True):
    """Cut the eigenline of E out of the plus quotient and package it.

    Requires E to be the Gamma0(N)-optimal curve of its class (asserted by the
    caller; the calibration unit records any leftover rational scalar).
    """
    if E.conductor != space.N:
        raise EigensymbolNotFound(
            f"curve conductor {E.conductor} does not match level {space.N}"
        )
    good_q = [q for q in primes_upto(QMAX) if space.N % q != 0]

    def pair_stream():
        for q in good_q:
            yield q, trace_of_frobenius(E, q)

    col_basis, used, chain_dims = _eigen_chain(space, pair_stream(), dual=False)
    if not col_basis:
        raise EigensymbolNotFound(
            "no cuspidal eigenvector matches the a_q of the curve "
            "(wrong conductor, inconsistent a_q, or non-optimal input)"
        )
    if len(col_basis) > 1:
        raise AmbiguousEigenspace(
            f"eigenspace still {len(col_basis)}-dimensional after q <= {QMAX}"
        )
    column = tuple(col_basis[0])

    dual_basis, dual_used, _ = _eigen_chain(space, pair_stream(), dual=True)
    if len(dual_basis) != 1:
        raise AmbiguousEigenspace(
            f"dual eigenspace has dimension {len(dual_basis)} after q <= {QMAX}"
        )
    vector = tuple(dual_basis[0])

    pairs = tuple(sorted(set(used) | set(dual_used)))
    used_qs = {q for q, _ in pairs}
    holdout = []
    for q in good_q:
        if q not in used_qs:
            holdout.append((q, trace_of_frobenius(E, q)))
            if len(holdout) >= HOLDOUT_COUNT:
                break
    for q, aq in holdout:
        T, s = space.hecke_full(q), aq * space.proj_den
        if any(sum(map(mul, row, column)) != s * v for row, v in zip(T, column)):
            raise CorrectnessAlarm(f"held-out T_{q} fails on the column")
        if any(sum(map(mul, vector, col)) != s * w for col, w in zip(zip(*T), vector)):
            raise CorrectnessAlarm(f"held-out T_{q} fails on the functional")
    for row in space.boundary:
        if sum(x * column[k] for k, x in row.items()):
            raise CorrectnessAlarm("the eigenline is not cuspidal")

    status, unit = "uncalibrated", Fraction(1)
    if calibrate:
        _, rec = lseries.lratio(E)
        if rec is not None and rec != 0:
            sym0 = EigenSymbol(
                space, E, vector, column, pairs, tuple(holdout), tuple(chain_dims),
                "uncalibrated", Fraction(1),
            )
            raw0 = eval_plus(sym0, 0, 1)
            if raw0 == 0:
                raise CalibrationError(
                    "L(E,1) != 0 numerically but the symbol vanishes at {oo -> 0}"
                )
            status, unit = "calibrated", rec / raw0
    return EigenSymbol(
        space, E, vector, column, pairs, tuple(holdout), tuple(chain_dims), status, unit
    )


def fricke_eigenvalue(symbol):
    """Eigenvalue of the Fricke involution on the eigensymbol line (+1 or -1)."""
    w, den = symbol.vector, symbol.space.proj_den
    # numerators over proj_den of the Fricke image of the functional
    img = [sum(x * y for x, y in zip(w, col)) for col in symbol.space.fricke_matrix()]
    eps = next((Fraction(x, den * y) for x, y in zip(img, w) if y), None)
    if eps is None:
        raise FrickeNotScalar("eigensymbol is zero")
    for x, y in zip(img, w):
        if x != eps * den * y:
            raise FrickeNotScalar("Fricke image is not a scalar multiple; convention bug")
    if eps not in (1, -1):
        raise FrickeNotScalar(f"Fricke eigenvalue {eps} is not a sign")
    return int(eps)
