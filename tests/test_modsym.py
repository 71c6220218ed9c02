import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest

from kurihara.curve import CurveData, load_curve, trace_of_frobenius, primes_upto, bad_prime_aq
from kurihara.kolyvagin import sieve
from kurihara.errors import (
    CorrectnessAlarm,
    DenominatorDivisibleByP,
    EigensymbolNotFound,
    NotCoprime,
)
from kurihara import modsym, search
from kurihara.exactmath import QQ, GroupRingElement, ResidueRing, unit_group
from kurihara.mazurtate import plus_element, theta
from kurihara.modsym import (
    EigenSymbol,
    P1List,
    _eigen_chain,
    build_space,
    eval_plus,
    extract_eigensymbol,
    fricke_eigenvalue,
    merel_matrices,
)
from kurihara.records import replace
from conftest import residue_items, residues


@pytest.fixture(scope="module")
def sym15():
    # 15a1: conductor 15 is composite, unlike that of every golden curve
    E = CurveData(
        1, 1, 1, -10, -10, conductor=15, tamagawa_product=8, label="15a1"
    ).validate()
    return extract_eigensymbol(build_space(15), E)


class TestP1:
    def test_sizes(self):
        # |P^1(Z/N)| = N prod (1 + 1/q)
        assert len(P1List(1)) == 1
        assert len(P1List(11)) == 12
        assert len(P1List(12)) == 24

    def test_direct_orbit_enumeration_oracle(self):
        # compare against brute-force orbit counting under unit scaling
        for N in (12, 15, 24):
            pairs = {
                (c, d)
                for c in range(N)
                for d in range(N)
                if gcd(gcd(c, d), N) == 1
            }
            units = [u for u in range(1, N) if gcd(u, N) == 1]
            orbits = set()
            for c, d in pairs:
                orbits.add(min((u * c % N, u * d % N) for u in units))
            assert len(P1List(N)) == len(orbits)

    def test_normalize_is_orbit_invariant(self):
        p1 = P1List(30)
        rng = random.Random(0)
        for _ in range(200):
            c, d = rng.randrange(30), rng.randrange(30)
            i = p1.index(c, d)
            if i is None:
                continue
            u = rng.choice([u for u in range(1, 30) if gcd(u, 30) == 1])
            assert p1.index(u * c, u * d) == i


    @pytest.mark.parametrize("N", [2, 4, 11, 12, 36, 37, 60, 64, 90, 121, 210, 389, 720])
    def test_reps_in_full_scan_order(self, N):
        # the representatives fix the free basis, so the divisor-by-divisor
        # listing must keep the order of a scan over all N^2 pairs
        p1 = P1List(N)
        seen, reps = set(), []
        for c in range(N):
            for d in range(N):
                r = p1.normalize(c, d)
                if r is not None and r not in seen:
                    seen.add(r)
                    reps.append(r)
        assert p1.reps == reps

    @pytest.mark.parametrize("N", [1, 2, 4, 11, 12, 30, 37, 389])
    def test_index_matches_normalize(self, N):
        # the unit row (u a unit: class 1 + v/u) and the normalize fallback
        # against the dictionary, on non-unit u and on non-classes (None)
        p1 = P1List(N)
        for u in range(-N, 2 * N):
            for v in range(-N, 2 * N):
                assert p1.index(u, v) == p1._index.get(p1.normalize(u, v))

    @pytest.mark.parametrize("N", [1, 2, 4, 11, 12, 30, 37, 389])
    def test_unit_inverse_table_matches_pow(self, N):
        p1 = P1List(N)
        assert len(p1._inv) == N
        for u in range(N):
            want = pow(u, -1, N) if N > 1 and gcd(u, N) == 1 else None
            assert p1._inv[u] == want

    def test_prime_level_needs_no_xgcd(self, space37, monkeypatch):
        # at prime N every first coordinate is a unit or 0 mod N
        def no_xgcd(a, b):
            raise AssertionError("xgcd called")

        monkeypatch.setattr(modsym, "xgcd", no_xgcd)
        assert P1List(37).reps == space37.p1.reps
        rng = random.Random(8)
        for _ in range(500):
            d = rng.randrange(1, 10**6)
            space37.path_symbols(rng.randrange(-d, d), d)
        assert [space37.p1.index(37 * k, 1) for k in range(-1, 2)] == [0, 0, 0]

    def test_level_5077_size(self):
        assert len(P1List(5077)) == 5078


class TestSpace:
    def test_cuspidal_dimensions(self, space11, space37):
        # independent oracle: genus of X0(N) for prime N from the index
        # formula g = 1 + mu/12 - mu2/4 - mu3/3 - 1, mu = N + 1
        def genus(N):
            from fractions import Fraction

            def legendre(a):  # Euler's criterion, N prime
                return {1: 1, N - 1: -1}[pow(a, (N - 1) // 2, N)]

            mu = N + 1
            mu2 = 1 + legendre(-1)
            mu3 = 1 + legendre(-3)
            g = 1 + Fraction(mu, 12) - Fraction(mu2, 4) - Fraction(mu3, 3) - 1
            assert g.denominator == 1
            return int(g)

        assert genus(11) == 1 and genus(37) == 2
        # with no Hecke pair the column chain is the kernel of the boundary rows
        for space, N in ((space11, 11), (space37, 37)):
            basis, _, dims = _eigen_chain(space, [], dual=False)
            assert len(basis) == dims[0] == genus(N)

    def test_relations_hold_in_quotient(self, space37):
        # image of every generator satisfies the 2- and 3-term identities
        idx = space37.p1.index
        proj = _dense_proj(space37)
        for i, (c, d) in enumerate(space37.p1.reps):
            s = proj[i]
            s2 = proj[idx(d, -c)]
            assert all(x + y == 0 for x, y in zip(s, s2))
            u1 = proj[idx(c + d, -c)]
            u2 = proj[idx(d, -c - d)]
            assert all(x + y + z == 0 for x, y, z in zip(s, u1, u2))
            star = proj[idx(-c, d)]
            assert s == star

    def test_hecke_commutativity(self, space37):
        T2 = space37.hecke_full(2)
        T3 = space37.hecke_full(3)
        n = space37.dim

        def product(A, B):
            return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

        assert product(T2, T3) == product(T3, T2)

    def test_trace_matches_ap_on_11(self, e11, sym11, space11):
        # the cuspidal subspace at 11 is the eigenline: T_q acts on it by a_q
        v = sym11.column
        n = space11.dim
        for q in (2, 3, 5, 7, 13):
            T = space11.hecke_full(q)  # proj_den * T_q
            aq = trace_of_frobenius(e11, q)
            assert [sum(T[r][j] * v[j] for j in range(n)) for r in range(n)] == [
                aq * space11.proj_den * x for x in v
            ]

    def test_hecke_on_zero_vector(self, space11):
        T = space11.hecke_full(2)
        assert [sum(row) * 0 for row in T] == [0] * space11.dim

    def test_merel_determinants(self):
        for n in (2, 3, 5, 7):
            for a, b, c, d in merel_matrices(n):
                assert a * d - b * c == n
                assert a > b >= 0 and d > c >= 0

    def test_bad_level_and_sign_rejected_python_O(self, run_python_O):
        # an input check, so -O must keep it
        script = (
            "import kurihara.modsym as M\n"
            "try:\n"
            "    M.P1List(0)\n"
            "except ValueError as exc:\n"
            "    print('REJECTED', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == ["REJECTED"]


def _dense_rref(rows):
    """Reference: dense reduced row echelon form over Q, (rows, pivots)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _dense_quotient(N):
    """Reference: free basis, proj and relation count from dense relation rows."""
    p1 = P1List(N)
    G = len(p1)
    rows, seen = [], set()
    for i, (c, d) in enumerate(p1.reps):
        for items in ([(i, 1), (p1.index(d, -c), 1)],
                      [(i, 1), (p1.index(c + d, -c), 1), (p1.index(d, -c - d), 1)],
                      [(i, 1), (p1.index(-c, d), -1)]):
            row = [0] * G
            for j, coeff in items:
                row[j] += coeff
            if any(row) and tuple(row) not in seen:
                seen.add(tuple(row))
                rows.append(row)
    red, pivots = _dense_rref(rows)
    free = [j for j in range(G) if j not in pivots]
    proj = [None] * G
    for k, j in enumerate(free):
        proj[j] = [Fraction(int(k == t)) for t in range(len(free))]
    for r, c in enumerate(pivots):
        proj[c] = [-red[r][j] for j in free]
    return p1, free, proj, len(rows)


def _dense_hecke(p1, free, proj, q):
    """Reference: T_q as Fraction sums of proj over Merel's matrices."""
    dim = len(free)
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for k, j in enumerate(free):
        c, d = p1.reps[j]
        for a, b, cc, dd in merel_matrices(q):
            t = p1.index(c * a + d * cc, c * b + d * dd)
            if t is not None:
                for r in range(dim):
                    mat[r][k] += proj[t][r]
    return mat


def _dense_proj(space):
    """The quotient coordinates as dense Fraction rows, from proj_nums / proj_den."""
    proj = []
    for nums in space.proj_nums:
        v = [Fraction(0)] * space.dim
        for r, x in nums:
            v[r] = Fraction(x, space.proj_den)
        proj.append(v)
    return proj


def _dense_hecke_of(space, q):
    """T_q as Fractions, from the integer matrix proj_den * T_q."""
    return [[Fraction(x, space.proj_den) for x in row] for row in space.hecke_full(q)]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


class TestSparseQuotient:
    @pytest.mark.parametrize("N", [2, 4, 11, 12, 36, 37, 60, 64, 90, 121])
    def test_matches_dense_reference(self, N):
        p1, free, proj, nrel = _dense_quotient(N)
        sp = build_space(N)
        assert sp.free == free
        assert _dense_proj(sp) == proj
        assert len(sp.relations) == nrel
        for q in [q for q in (2, 3, 5, 7) if N % q][:2]:
            assert _dense_hecke_of(sp, q) == _dense_hecke(p1, free, proj, q)

    def test_level_389_frozen(self):
        # SHA-256 of the free basis, proj and T_2 from the dense Fraction rref,
        # rebuilt here from the integer numerators over proj_den
        sp = build_space(389)
        assert len(sp.relations) == 714 and sp.dim == 33
        proj = _dense_proj(sp)
        assert _digest({"free": sp.free, "proj": [[str(x) for x in v] for v in proj]}) == (
            "b5a344a23085b8a74cb876a47e0a6f6bdca85cfd694f8b2ffeff15cf1e54c457"
        )
        assert _digest([[str(x) for x in row] for row in _dense_hecke_of(sp, 2)]) == (
            "d4ac0ba2e8125d59107e1da148bb1765ca4a1b4f15dcd6f5fdfa02a5b25e5b1f"
        )

    def test_corrupted_relation_alarms(self):
        sp = build_space(11)
        (i, c), *rest = sp.relations[0]
        sp.relations[0] = ((i, c + 1), *rest)
        with pytest.raises(CorrectnessAlarm, match="does not descend"):
            sp.hecke_full(2)


class TestEigenChain:
    """Multi-step chains at N = 37 (dim 3, cuspidal dim 2); values frozen from the
    dense Bareiss chain the single echelon replaced."""

    def test_two_step_chain(self, space37):
        # a_7 = -1 does not split the cuspidal plane, a_2 = -2 cuts the line
        pairs = [(7, -1), (2, -2)]
        assert _eigen_chain(space37, pairs, dual=False) == ([[0, 2, -1]], pairs, [2, 2, 1])
        assert _eigen_chain(space37, pairs, dual=True) == ([[0, 1, 0]], pairs, [3, 2, 1])

    def test_empty_eigenspace_stops(self, space37):
        # 5 is no eigenvalue of T_2 at 37: the chain stops at dimension 0
        pairs = iter([(2, 5), (3, 0)])
        assert _eigen_chain(space37, pairs, dual=False) == ([], [(2, 5)], [2, 0])
        assert next(pairs) == (3, 0)  # the next pair is never drawn
        assert _eigen_chain(space37, [(2, 5)], dual=True) == ([], [(2, 5)], [3, 0])


class TestEigensymbol:
    def test_repr_leaves_out_the_caches(self, sym11):
        sym11.generator_values()  # _wfree is filled
        text = repr(sym11)
        assert text.startswith("EigenSymbol(space=")
        assert text.endswith(f"calibration_unit={sym11.calibration_unit!r})")
        assert "_wfree" not in text and "_theta_cache" not in text

    def test_caches_take_no_part_in_equality(self, e11):
        # the generator values and the theta cache are filled on first use;
        # a copy made before, or after, compares equal and starts empty
        sym = extract_eigensymbol(build_space(11), e11)
        cold = replace(sym)
        sym.generator_values()
        theta(sym, 17, 1, 7)
        assert cold._wfree is None and cold._theta_cache is None
        assert cold == sym
        warm = replace(sym)
        assert warm == sym
        assert warm._wfree is None and warm._theta_cache is None

    def test_389a1_frozen(self):
        # SHA-256 of the eigensymbol from the dense Bareiss chains
        E = load_curve(os.path.join(os.path.dirname(__file__), "..", "curves", "389a1.json"))
        sym = extract_eigensymbol(build_space(389), E, calibrate=False)
        assert sym.chain_dims == (32, 1)
        assert _digest({
            "vector": list(sym.vector),
            "column": list(sym.column),
            "chain_dims": list(sym.chain_dims),
            "hecke_pairs": [list(p) for p in sym.hecke_pairs],
            "holdout_pairs": [list(p) for p in sym.holdout_pairs],
        }) == "8e1cbd364e065616ab365afc3f6308f588d45431b3e300a0e1b979a529e11f3a"

    def test_11a1_extraction(self, sym11):
        assert sym11.chain_dims[0] == 1  # space already one-dimensional
        assert sym11.calibration_status == "calibrated"
        g = 0
        for x in sym11.vector:
            g = gcd(g, x)
        assert g == 1

    def test_37a1_dimension_drop(self, sym37, e37):
        # two Galois orbits of newforms at 37 with distinct a_2
        assert sym37.chain_dims == (2, 1)
        assert sym37.hecke_pairs[0] == (2, -2)

    def test_held_out_eigen_identity(self, sym37, space37, e37):
        used = {q for q, _ in sym37.hecke_pairs}
        checked = 0
        for q in primes_upto(60):
            if q in used or 37 % q == 0 or q == 37:
                continue
            s = trace_of_frobenius(e37, q) * space37.proj_den
            T = space37.hecke_full(q)  # proj_den * T_q
            n = space37.dim
            w = sym37.vector
            assert all(
                sum(w[r] * T[r][c] for r in range(n)) == s * w[c] for c in range(n)
            )
            v = sym37.column
            assert all(
                sum(T[r][j] * v[j] for j in range(n)) == s * v[r] for r in range(n)
            )
            checked += 1
            if checked == 3:
                break
        assert checked == 3

    def test_wrong_held_out_aq_alarms_python_O(self, run_python_O):
        # the held-out check guards a proved statement, so -O must keep it
        script = (
            "import kurihara.modsym as M\n"
            "from kurihara.curve import CurveData\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "E = CurveData(0, -1, 1, -10, -20, conductor=11, tamagawa_product=5)\n"
            "space = M.build_space(11)\n"
            "q = M.extract_eigensymbol(space, E, calibrate=False).holdout_pairs[0][0]\n"
            "true_trace = M.trace_of_frobenius\n"
            "M.trace_of_frobenius = lambda E, l: true_trace(E, l) + (l == q)\n"
            "try:\n"
            "    M.extract_eigensymbol(space, E, calibrate=False)\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ALARM held-out T_")

    def test_boundary_consistency(self, sym37, space37):
        for row in space37.boundary:  # sparse integer rows {position: coefficient}
            assert sum(x * sym37.column[k] for k, x in row.items()) == 0

    def test_hasse_consistency_random_good_q(self, sym11, space11, e11):
        # eigenvalue recovered from the symbol equals the point-count a_q
        rng = random.Random(3)
        qs = [q for q in primes_upto(100) if q != 11]
        for q in rng.sample(qs, 10):
            T = space11.hecke_full(q)  # proj_den * T_q
            w = sym11.vector
            n = space11.dim
            img = [sum(w[r] * T[r][c] for r in range(n)) for c in range(n)]
            ratios = {Fraction(x, y * space11.proj_den) for x, y in zip(img, w) if y}
            assert ratios == {Fraction(trace_of_frobenius(e11, q))}

    def test_wrong_conductor_rejected(self, space11, e37):
        with pytest.raises(EigensymbolNotFound):
            extract_eigensymbol(space11, e37)

    def test_un_eigenvalue_matches_tangent_splitting(self, sym11, sym37):
        for sym in (sym11, sym37):
            N = sym.space.N
            T = sym.space.hecke_full(N)  # proj_den * U_N
            w = sym.vector
            n = sym.space.dim
            img = [sum(w[r] * T[r][c] for r in range(n)) for c in range(n)]
            ratios = {Fraction(x, y * sym.space.proj_den) for x, y in zip(img, w) if y}
            assert ratios == {Fraction(bad_prime_aq(sym.curve, N))}


class TestEvalPlus:
    def test_lvalue_calibrated(self, sym11):
        assert eval_plus(sym11, 0, 1) == Fraction(1, 5)

    def test_37a1_vanishes_at_zero(self, sym37):
        assert eval_plus(sym37, 0, 1) == 0

    def test_not_coprime(self, sym11):
        with pytest.raises(NotCoprime):
            eval_plus(sym11, 2, 4)

    def test_evenness_exhaustive_small(self, sym11, sym37):
        for sym in (sym11, sym37):
            for d in range(1, 51):
                for a in range(1, d + 1):
                    if gcd(a, d) == 1:
                        assert eval_plus(sym, a, d) == eval_plus(sym, d - a, d)

    def test_periodicity(self, sym11):
        for d in (5, 7, 12):
            for a in range(1, d):
                if gcd(a, d) == 1:
                    assert eval_plus(sym11, a, d) == eval_plus(sym11, a + d, d)

    def test_decomposition_independence(self, sym37):
        # {oo -> (a + d)/d} uses a different continued fraction but the same
        # class; 1000 random samples
        rng = random.Random(4)
        for _ in range(1000):
            d = rng.randrange(2, 300)
            a = rng.randrange(1, d)
            if gcd(a, d) != 1:
                continue
            v1 = sym37.space.path_vector(a, d)
            v2 = sym37.space.path_vector(a + d, d)
            assert v1 == v2

    @pytest.mark.parametrize("d, count, digest", [
        (2501, 2400, "3bb836914f8aedd845099b86f790be3ae271ff335c010d17165f8ff80a5dfae4"),
        (5371, 5200, "5d70d5f623cf2b4f37e217683ebbf6d60aca6c75d374ae03c9f6a68fc4c23cc1"),
    ])
    def test_389a1_walk_frozen(self, sym389, d, count, digest):
        # SHA-256 of the sorted (a, value) pairs of the walk, from the
        # two-list path symbols and the P^1 dictionary
        units = sorted(residue_items(plus_element(sym389, d, ResidueRing(5))))
        assert len(units) == count
        assert _digest([list(u) for u in units]) == digest

    def test_calibrated_theta_frozen(self, space11, e11):
        # unit 1/5: the one-Fraction product with the calibration unit, on a
        # fresh symbol so that no cached theta answers
        sym = extract_eigensymbol(space11, e11)
        assert sym.calibration_unit == Fraction(1, 5)
        assert _digest(theta(sym, 17, 2, 7).to_json()) == (
            "57b373573edccd96476136bd2775a1e68a6a0042058d478d89f0e37d5a288114"
        )


CURVE_11A1 = os.path.join(os.path.dirname(__file__), "..", "curves", "11a1.json")
CURVE_37A1 = os.path.join(os.path.dirname(__file__), "..", "curves", "37a1.json")



def _break_star_pair(space, vector):
    """Put one generator value off its star partner's: add (k, 1) to
    proj_nums[i] for a class i whose star image is another class, at a
    coordinate k that the functional `vector` reads."""
    i = next(i for i, (c, d) in enumerate(space.p1.reps) if space.p1.index(-c, d) != i)
    k = next(k for k, x in enumerate(vector) if x)
    space.proj_nums[i] = space.proj_nums[i] + [(k, 1)]


def _full_walk(symbol, d, p):
    """Reference: every unit a mod d evaluated, none read from a mirror."""
    ring = ResidueRing(p, 1)
    return [(a, ring.coerce(eval_plus(symbol, a, d))) for a in range(1, d + 1) if gcd(a, d) == 1]


class TestHalfWalk:
    """The walk evaluates a <= d/2 and reads d - a from a (star certificate)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 12, 17, 30, 61, 211, 2501])
    def test_mirrored_walk_equals_full_walk(self, sym11, sym37, sym389, d):
        for sym, p in ((sym11, 7), (sym37, 5), (sym389, 5)):
            walked = plus_element(sym, d, ResidueRing(p))
            assert sorted(residue_items(walked)) == _full_walk(sym, d, p)

    @pytest.mark.parametrize("n", [1, 2])
    def test_mirrored_theta_equals_full_theta(self, sym11, n):
        level = 17 * 7**n
        fresh = replace(sym11)
        group = unit_group(level)
        full = [eval_plus(sym11, a, level) for a in residues(group)]
        assert theta(fresh, 17, n, 7) == GroupRingElement.from_values(group, QQ, full)

    def test_star_certificate_on_cached_symbol(self, e11):
        # the generator values are certified on first use, before they are
        # cached; a fresh space keeps the shared fixtures unbroken
        fresh = extract_eigensymbol(build_space(11), e11)
        _break_star_pair(fresh.space, fresh.vector)
        with pytest.raises(CorrectnessAlarm, match="star image"):
            fresh.generator_values()

    def test_corrupted_star_pair_alarms_python_O(self, run_python_O):
        # one generator value off its star partner: the walk would mirror
        # a wrong value, so the certificate must hold under -O as well
        script = (
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing\n"
            "from kurihara.mazurtate import plus_element\n"
            "from kurihara.modsym import build_space, extract_eigensymbol\n"
            "from kurihara.records import replace\n"
            f"E = load_curve({CURVE_11A1!r})\n"
            "space = build_space(11)\n"
            "sym = extract_eigensymbol(space, E)\n"
            "print('BEFORE', next(plus_element(sym, 17, ResidueRing(7)).items()))\n"
            "i = next(i for i, (c, d) in enumerate(space.p1.reps) if space.p1.index(-c, d) != i)\n"
            "k = next(k for k, x in enumerate(sym.vector) if x)\n"
            "space.proj_nums[i] = space.proj_nums[i] + [(k, 1)]\n"
            "try:\n"
            "    plus_element(replace(sym), 17, ResidueRing(7))\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["BEFORE", "ALARM"]
        assert "star image" in lines[1]


def _walk_against_eval_plus(sym, level, ring):
    """(walked coefficients, reference) at each unit, in element order; a
    DenominatorDivisibleByP of either side is returned as its message."""
    try:
        walked = [c for _, c in residue_items(plus_element(sym, level, ring))]
    except DenominatorDivisibleByP as exc:
        walked = str(exc)
    units = residues(unit_group(level))
    walked_b = [b for b in units if 2 * b < level] if level > 2 else units
    try:
        for b in walked_b:  # the walk's order, so the first failure is the same one
            ring.coerce(eval_plus(sym, pow(b, -1, level), level))
        reference = [ring.coerce(eval_plus(sym, a, level)) for a in units]
    except DenominatorDivisibleByP as exc:
        reference = f"theta at level {level} is not p-integral: {exc}"
    return walked, reference


RINGS = (QQ, ResidueRing(5), ResidueRing(5, 2), ResidueRing(7, 2))


class TestIntegerWalk:
    """plus_element's integer walk against ring.coerce(eval_plus(...))."""

    @pytest.mark.parametrize("curve, level", [
        ("sym11", 17 * 49), ("sym37", 61 * 211), ("sym389", 2501),
    ])
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_every_unit_equals_eval_plus(self, request, curve, level, ring):
        walked, reference = _walk_against_eval_plus(request.getfixturevalue(curve), level, ring)
        assert walked == reference
        # 11a1's calibration unit 1/5 leaves theta not 5-integral there
        assert isinstance(walked, str) == (curve == "sym11" and getattr(ring, "p", None) == 5)

    def test_denominator_p_raised_where_coerce_raises(self, sym11):
        # unit 1/5 on 11a1: at p = 5 a level is refused exactly when one of
        # its values has 5 in its denominator, with the same message; a
        # symbol scaled by 5 is 5-integral at every level
        fives = replace(sym11, calibration_unit=Fraction(1))
        for level in range(1, 60):
            if level % 11:
                walked, reference = _walk_against_eval_plus(sym11, level, ResidueRing(5))
                assert walked == reference and isinstance(walked, str), level
                walked, reference = _walk_against_eval_plus(fives, level, ResidueRing(5, 2))
                assert walked == reference and not isinstance(walked, str), level

    @pytest.mark.parametrize("level", [7 * 13, 17 * 49, 2 * 7 * 13, 3001])
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_composite_conductor_every_unit(self, sym15, monkeypatch, level, ring):
        # N = 15: a remainder x that shares 3 or 5 with N, x != 0 mod N, has
        # no inline P^1 read, so the walk takes P1List.index mid-chain
        p1 = sym15.space.p1
        original = p1.index
        shared = []

        def counting(u, v):
            if gcd(u, 15) > 1 and u % 15:
                shared.append(u)
            return original(u, v)

        monkeypatch.setattr(p1, "index", counting)
        walked = [c for _, c in residue_items(plus_element(sym15, level, ring))]
        monkeypatch.undo()
        assert len(shared) > 1
        assert walked == [ring.coerce(eval_plus(sym15, a, level))
                          for a in residues(unit_group(level))]

    @staticmethod
    def _mixed_up(monkeypatch):
        # the walk fed b^-1 in place of b, so it reads [b/level]^+ where
        # [b^-1/level]^+ belongs
        original = EigenSymbol.plus_numerators

        def mixed_up(symbol, level, units):
            return original(symbol, level, [pow(b, -1, level) for b in units])

        monkeypatch.setattr(EigenSymbol, "plus_numerators", mixed_up)

    def test_inverse_mix_up_alarms(self, sym37, monkeypatch):
        # the last unit walked at 41 is b = 7, checked at 7^-1 = 6: 6^2 != +-1
        # mod 41, and [7/41]^+ != [6/41]^+; at 61 it is b = 23, checked at 8
        assert pow(6, 2, 41) not in (1, 40) and pow(7, -1, 41) == 6
        assert eval_plus(sym37, 7, 41) != eval_plus(sym37, 6, 41)
        reg = {kp.ell: kp for kp in sieve(sym37.curve, 5, 1, 0, 100)}
        self._mixed_up(monkeypatch)
        for ring in (QQ, ResidueRing(5)):
            with pytest.raises(CorrectnessAlarm, match="differs from eval_plus at 6/41"):
                plus_element(sym37, 41, ring)
        with pytest.raises(CorrectnessAlarm, match="differs from eval_plus at 8/61"):
            search.delta_row(sym37, 61, ResidueRing(5), reg)

    def test_non_unit_residue_alarms(self, sym37):
        # the units 1 and 2 are walked, then Euclid on (91, 7) ends at 7
        totals, _ = sym37.plus_numerators(91, [1, 2, 7])
        next(totals), next(totals)
        with pytest.raises(CorrectnessAlarm, match="7 is not a unit mod 91"):
            list(totals)
        # a non-unit sharing the prime 37 with N: the remainders (74, 37)
        # have no P^1 class, and Euclid still ends at the gcd 37
        with pytest.raises(CorrectnessAlarm, match="37 is not a unit mod 74"):
            list(sym37.plus_numerators(74, [37])[0])

    def test_new_walk_alarms_python_O(self, run_python_O):
        script = (
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing\n"
            "from kurihara.mazurtate import plus_element\n"
            "from kurihara.modsym import EigenSymbol, build_space, extract_eigensymbol\n"
            f"E = load_curve({CURVE_37A1!r})\n"
            "sym = extract_eigensymbol(build_space(37), E)\n"
            "print('BEFORE', not list(plus_element(sym, 41, ResidueRing(5)).items()))\n"
            "try:\n"
            "    list(sym.plus_numerators(91, [1, 2, 7])[0])\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
            "original = EigenSymbol.plus_numerators\n"
            "EigenSymbol.plus_numerators = lambda symbol, level, units: original(\n"
            "    symbol, level, [pow(b, -1, level) for b in units])\n"
            "try:\n"
            "    plus_element(sym, 41, ResidueRing(5))\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "BEFORE False",
            "ALARM 7 is not a unit mod 91",
            "ALARM the integer walk differs from eval_plus at 6/41",
        ]

    def test_off_by_one_walk_alarms(self, sym37, monkeypatch):
        original = EigenSymbol.plus_numerators
        reg = {kp.ell: kp for kp in sieve(sym37.curve, 5, 1, 0, 100)}

        def off_by_one(symbol, level, units):
            totals, scale = original(symbol, level, units)
            return (t + 1 for t in totals), scale

        monkeypatch.setattr(EigenSymbol, "plus_numerators", off_by_one)
        for ring in (QQ, ResidueRing(5)):
            with pytest.raises(CorrectnessAlarm, match="differs from eval_plus at 8/61"):
                plus_element(sym37, 61, ring)
        with pytest.raises(CorrectnessAlarm, match="differs from eval_plus at 8/61"):
            search.delta_row(sym37, 61, ResidueRing(5), reg)

    def test_off_by_one_walk_alarms_python_O(self, run_python_O):
        script = (
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing\n"
            "from kurihara.mazurtate import plus_element\n"
            "from kurihara.modsym import EigenSymbol, build_space, extract_eigensymbol\n"
            f"E = load_curve({CURVE_37A1!r})\n"
            "sym = extract_eigensymbol(build_space(37), E)\n"
            "print('BEFORE', not list(plus_element(sym, 61, ResidueRing(5)).items()))\n"
            "original = EigenSymbol.plus_numerators\n"
            "def off_by_one(symbol, level, units):\n"
            "    totals, scale = original(symbol, level, units)\n"
            "    return (t + 1 for t in totals), scale\n"
            "EigenSymbol.plus_numerators = off_by_one\n"
            "try:\n"
            "    plus_element(sym, 61, ResidueRing(5))\n"
            "except CorrectnessAlarm as exc:\n"
            "    print('ALARM', exc)\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "BEFORE False", "ALARM the integer walk differs from eval_plus at 8/61",
        ]


def _two_list_path_symbols(space, a, d):
    """Reference walk: all quotients first, then the convergent lists, then the
    dictionary index of each normalised bottom row."""
    if d == 0:
        return []
    if d < 0:
        a, d = -a, -d
    quotients = []
    aa, dd = a, d
    while dd:
        qq, rr = divmod(aa, dd)
        quotients.append(qq)
        aa, dd = dd, rr
    ps, qs = [1], [0]
    for qq in quotients:
        if len(ps) == 1:
            ps.append(qq)
            qs.append(1)
        else:
            ps.append(qq * ps[-1] + ps[-2])
            qs.append(qq * qs[-1] + qs[-2])
    out = []
    for k in range(1, len(ps)):
        det = ps[k] * qs[k - 1] - ps[k - 1] * qs[k]
        assert det in (1, -1)
        bottom = (qs[k], qs[k - 1]) if det == 1 else (qs[k], -qs[k - 1])
        out.append(space.p1._index.get(space.p1.normalize(*bottom)))
    return out


class TestPathSymbols:
    @pytest.mark.parametrize("N", [11, 37, 389])
    def test_one_pass_matches_two_list_walk(self, N):
        space = build_space(N)
        rng = random.Random(N)
        cases = [(0, 0), (5, 0), (0, 1), (0, 7), (3, -7), (-3, -7), (1, -1), (6, 4),
                 (N, 2 * N), (-N, 3 * N)]
        for top in (10, 10**3, 10**6):
            for _ in range(700):
                d = rng.randrange(-top, top + 1)
                a = rng.randrange(-2 * top, 2 * top + 1)
                g = rng.choice([1, 1, 2, 3, N])
                cases += [(a, d), (a * g, d * g)]
        for a, d in cases:
            assert space.path_symbols(a, d) == _two_list_path_symbols(space, a, d), (a, d)



class TestFricke:
    def test_golden_signs(self, sym11, sym37):
        # w_E = -eps: 11a1 has L(E,1) != 0 so w = +1; 37a1 has rank 1, w = -1
        assert fricke_eigenvalue(sym11) == -1
        assert fricke_eigenvalue(sym37) == 1

    def test_involution_squares_to_one(self, sym37):
        # column j is the image of basis vector j, as numerators over proj_den
        cols = sym37.space.fricke_matrix()
        n = sym37.space.dim
        # column j of proj_den^2 W^2 is W applied to column j of W
        W2 = [[sum(col[k] * cols[k][r] for k in range(n)) for r in range(n)] for col in cols]
        # the square acts as the identity on the eigenline
        w = sym37.vector
        img = [sum(x * y for x, y in zip(w, col)) for col in W2]
        assert img == [sym37.space.proj_den**2 * x for x in w]


class TestPositiveDiscriminantCalibration:
    def test_15a1_two_component_period_path(self):
        # disc 15^4 > 0 exercises the two-real-component period integral;
        # the ratio reconstructs to 1/4 in the least-positive-period
        # convention (tables using the full E(R) measure quote 1/8, a factor
        # 2 = p-unit; Tamagawa 8 corroborated by 1/8 = Tam/torsion^2 with
        # torsion Z/8 and trivial Sha)
        from fractions import Fraction as F

        from kurihara.curve import CurveData
        from kurihara.lseries import lratio
        from kurihara.modsym import build_space, extract_eigensymbol

        E = CurveData(
            1, 1, 1, -10, -10, conductor=15, tamagawa_product=8, label="15a1"
        ).validate()
        assert E.discriminant == 50625
        _, rec = lratio(E)
        assert rec == F(1, 4)
        sym = extract_eigensymbol(build_space(15), E)
        assert sym.calibration_status == "calibrated"
        assert eval_plus(sym, 0, 1) == F(1, 4)
        for d in (7, 11, 13):
            for a in range(1, d):
                assert eval_plus(sym, a, d) == eval_plus(sym, d - a, d)


class TestFrickeCompositeLevel:
    def test_15a1_root_number(self):
        # rank 0 forces w = +1; exercises the Fricke path at composite level
        from kurihara.curve import CurveData

        E = CurveData(
            1, 1, 1, -10, -10, conductor=15, tamagawa_product=8, label="15a1"
        )
        sym = extract_eigensymbol(build_space(15), E)
        assert -fricke_eigenvalue(sym) == 1
