from collections import Counter
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest

from kurihara import verifiers
from kurihara.errors import CorrectnessAlarm, IdentityFailure
from kurihara.modsym import EigenSymbol
from kurihara.verifiers import (
    FULL81,
    SuiteResult,
    span_two_covering_witness,
    run_identity_suite,
    verify_coset_lemma,
)


# ---------------------------------------------------------------------------
# reference: the per-tuple coset search, one span tracker probe per coordinate


def _grid_masks():
    """gridmask[y] = bitmask of the c in F_3^4 with c_i != y_i for all i."""
    masks = []
    cs = list(product(range(3), repeat=4))
    for y in product(range(3), repeat=4):
        m = 0
        for ci, c in enumerate(cs):
            if all(c[i] != y[i] for i in range(4)):
                m |= 1 << ci
        masks.append(m)
    return masks


def _nonzero_functionals(k, up_to_sign):
    """Nonzero functionals on F_3^k as coefficient tuples."""
    out = []
    for v in product(range(3), repeat=k):
        if any(v):
            if up_to_sign:
                # keep one of {v, -v}: first nonzero coordinate equal to 1
                lead = next(x for x in v if x)
                if lead != 1:
                    continue
            out.append(v)
    return out


_POW3 = [1, 3, 9, 27]
_VECTORS = [tuple(y // p3 % 3 for p3 in _POW3) for y in range(81)]  # base-3 digits


def _enc_add(a, b):
    out = 0
    for p3 in _POW3:
        out += ((a // p3 + b // p3) % 3) * p3
    return out


class _SpanTracker:
    """Incremental subspaces of F_3^4 with memoized ids and grid unions."""

    def __init__(self, gridmasks):
        self.gridmasks = gridmasks
        self.spans = [frozenset([0])]  # elements encoded base 3
        self.ids = {self.spans[0]: 0}
        self.trans = {}
        self.union = {0: gridmasks[0]}

    def add(self, span_id, y):
        key = (span_id, y)
        nid = self.trans.get(key)
        if nid is not None:
            return nid
        base = self.spans[span_id]
        if y in base:
            self.trans[key] = span_id
            return span_id
        new = set(base)
        for s in base:
            # add s + j*y for j = 1, 2 (componentwise mod 3 on base-3 codes)
            a = _enc_add(s, y)
            new.add(a)
            new.add(_enc_add(a, y))
        fs = frozenset(new)
        nid = self.ids.get(fs)
        if nid is None:
            nid = len(self.spans)
            self.spans.append(fs)
            self.ids[fs] = nid
            u = 0
            for s in fs:
                u |= self.gridmasks[s]
            self.union[nid] = u
        self.trans[key] = nid
        return nid

    def dim(self, span_id):
        n = len(self.spans[span_id])
        d = 0
        while n > 1:
            n //= 3
            d += 1
        return d


def _reference_coset_lemma(max_dim, reduced, gridmasks=None):
    """(instances, by_span_dim, counterexamples) by a loop over every tuple."""
    tracker = _SpanTracker(gridmasks or _grid_masks())
    instances = {}
    by_dim = {3: 0, 4: 0}
    bad = []
    for k in range(3, max_dim + 1):
        fns = _nonzero_functionals(k, up_to_sign=reduced)
        count = 0
        for f1, f2, f3, f4 in product(fns, repeat=4):
            sid = 0
            for j in range(k):
                sid = tracker.add(sid, f1[j] + 3 * f2[j] + 9 * f3[j] + 27 * f4[j])
            d = tracker.dim(sid)
            if d < 3:
                continue
            count += 1
            by_dim[d] += 1
            if tracker.union[sid] != FULL81:
                bad.append((k, f1, f2, f3, f4))
        instances[k] = count
    return instances, by_dim, bad


def _bits(mask):
    return {y for y in range(81) if mask >> y & 1}


def _rank_mod3(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % 3), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c] % 3  # 1 and 2 are their own inverses mod 3
        rows[rank] = [x * inv % 3 for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % 3:
                f = rows[i][c]
                rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _annihilator_span(K, grids, fns):
    """(dimension, grid union) of the span of fns on F_3^k, read as the search
    reads it: the AND of K over the coordinate vectors, its popcount, and the
    span of the annihilator by `_span_of`."""
    ann = FULL81
    for j in range(len(fns[0])):
        ann &= K[sum(3**i * f[j] for i, f in enumerate(fns))]
    dim = {81: 0, 27: 1, 9: 2, 3: 3, 1: 4}[ann.bit_count()]
    span = verifiers._span_of(ann, K)
    return dim, reduce(or_, (g for y, g in enumerate(grids) if span >> y & 1))


def _covered_by_value_image(fns):
    """Brute force: some c in F_3^4 with every x hit by a coset phi_i(x) = c_i."""
    image = {
        tuple(sum(a * b for a, b in zip(f, x)) % 3 for f in fns)
        for x in product(range(3), repeat=len(fns[0]))
    }
    return any(
        all(y[0] == c0 or y[1] == c1 or y[2] == c2 or y[3] == c3 for y in image)
        for c0, c1, c2, c3 in product(range(3), repeat=4)
    )


def _reference_coordinate_choices(reduced):
    """The verifier's former construction: an any() per mask and vector."""
    vecs = [tuple(y // 3**i % 3 for i in range(4)) for y in range(81)]
    inner, last = [], []
    for mask in range(16):
        steps, ends = [], []
        for y, digits in enumerate(vecs):
            if reduced and any(mask >> i & 1 and d == 2 for i, d in enumerate(digits)):
                continue
            left = mask & ~sum(1 << i for i, d in enumerate(digits) if d)
            steps.append((y, left))
            if not left:
                ends.append(y)
        inner.append(steps)
        last.append(ends)
    return inner, last


class TestTables:
    def test_kernels_against_brute_force(self):
        # every bit of K[y] from a dot product, and each hyperplane's grid
        # union from members closed under _enc_add, not from the masks
        K = verifiers._kernels()
        assert len(K) == 81 and K[0] == FULL81
        for y, vy in enumerate(_VECTORS):
            for c, vc in enumerate(_VECTORS):
                assert (K[y] >> c & 1) == (sum(a * b for a, b in zip(vy, vc)) % 3 == 0)
        grids = verifiers._survivor_grids()
        assert grids == _grid_masks()
        unions = verifiers._grid_unions(K, grids)
        assert len(unions) == 41
        for c in range(1, 81):
            members = frozenset(y for y in range(81) if K[c] >> y & 1)
            # ker c: 27 vectors holding 0 and closed under addition
            assert len(members) == 27 and 0 in members
            assert all(_enc_add(a, b) in members for a in members for b in members)
            assert K[_enc_add(c, c)] == K[c]  # ker c == ker 2c
            union = 0
            for y in members:
                union |= grids[y]
            assert unions[K[c]] == union
            # the annihilator {0, c, 2c} of a hyperplane spans it back
            ann = 1 | 1 << c | 1 << _enc_add(c, c)
            assert verifiers._span_of(ann, K) == K[c]
        assert unions[FULL81] == reduce(or_, grids)
        # with grid y = {y} but grid 0 empty, each union is the span's own
        # membership mask without 0, so none is full, F_3^4's included
        ones = [1 << y if y else 0 for y in range(81)]
        assert verifiers._grid_unions(K, ones) == {h: h ^ 1 for h in K}
        assert verifiers._span_of(1, K) == FULL81 and verifiers._span_of(FULL81, K) == 1
        # every subspace of F_3^4 is reached as an AND of kernels, once per
        # annihilator, and spans back to a subspace of the dual size
        anns, grow = {FULL81}, [FULL81]
        for ann in grow:
            for k in K:
                if ann & k not in anns:
                    anns.add(ann & k)
                    grow.append(ann & k)
        assert Counter(a.bit_count() for a in anns) == {81: 1, 27: 40, 9: 130, 3: 40, 1: 1}
        for ann in anns:
            span = _bits(verifiers._span_of(ann, K))
            assert len(span) * ann.bit_count() == 81
            assert all(_enc_add(a, b) in span for a in span for b in span)

    @pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
    def test_coordinate_choices_match_reference(self, reduced):
        inner, last = verifiers._coordinate_choices(reduced)
        assert (inner, last) == _reference_coordinate_choices(reduced)
        # mask 15 ends only on vectors with four nonzero digits; reduced,
        # that is (1, 1, 1, 1) alone, a one-element list the leaf picker
        # must not turn into a scalar
        ones = [y for y in range(81) if all(y // 3**i % 3 for i in range(4))]
        assert last[15] == ([40] if reduced else ones)
        assert len(ones) == 16


class TestCosetLemma:
    def test_dim3_exhaustive(self):
        rep = verify_coset_lemma(3)
        assert rep.ok
        assert rep.counterexamples == []
        # reproducible instance count (sign-reduced functional tuples of
        # span >= 3 on F_3^3)
        assert rep.instances == {3: 25272}

    @pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
    def test_matches_per_tuple_reference(self, reduced):
        instances, by_dim, bad = _reference_coset_lemma(3, reduced)
        rep = verify_coset_lemma(3, reduced=reduced)
        assert (rep.instances, rep.by_span_dim, rep.counterexamples) == (instances, by_dim, bad)

    def test_other_dimensions_rejected_python_O(self, run_python_O):
        # the range check must survive -O: F_3^2 would give a vacuous pass and
        # F_3^5 a search of hours
        script = (
            "from kurihara.verifiers import verify_coset_lemma\n"
            "for d in (2, 5):\n"
            "    try:\n"
            "        verify_coset_lemma(d)\n"
            "    except ValueError:\n"
            "        print('REJECTED', d)\n"
            "    else:\n"
            "        raise SystemExit(f'accepted {d}')\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["REJECTED", "2", "REJECTED", "5"]

    def test_span_two_tuples_judged_by_tables(self):
        # the annihilator masks the search carries must see the covered
        # span-2 configurations, or a "never covered" verdict is empty
        K = verifiers._kernels()
        grids = verifiers._survivor_grids()
        fns, c, covered = span_two_covering_witness()
        dim, union = _annihilator_span(K, grids, fns)
        assert covered and dim == 2 and union != FULL81
        span_two = covered_two = 0
        for tup in product(_nonzero_functionals(3, up_to_sign=True), repeat=4):
            dim, union = _annihilator_span(K, grids, tup)
            assert dim == _rank_mod3(tup)
            if dim == 2:
                span_two += 1
                judged = union != FULL81
                assert judged == _covered_by_value_image(tup)
                covered_two += judged
        assert (covered_two, span_two) == (936, 3276)

    def test_corrupted_grid_reports_real_counterexamples(self, monkeypatch):
        # drop c = 0 from the survivor grids of the y with y_0 == y_1: a span
        # whose only vectors with all coordinates nonzero have y_0 == y_1 then
        # misses c = 0, so its tuples must come back as counterexamples
        def corrupt(grids):
            return [m & ~1 if y % 3 == y // 3 % 3 else m for y, m in enumerate(grids)]

        grids = corrupt(verifiers._survivor_grids())
        monkeypatch.setattr(verifiers, "_survivor_grids", lambda: grids)
        rep = verify_coset_lemma(3)
        assert not rep.ok and rep.instances == {3: 25272}
        assert 0 < len(rep.counterexamples) < 25272
        _, _, bad = _reference_coset_lemma(3, True, corrupt(_grid_masks()))
        assert rep.counterexamples == bad
        fns = set(_nonzero_functionals(3, up_to_sign=True))
        for k, *tup in rep.counterexamples:
            assert k == 3 and set(tup) <= fns
            assert _rank_mod3(tup) >= 3

    def test_corrupted_grid_reports_real_counterexamples_python_O(self, run_python_O):
        # the same corruption with asserts stripped: an uncovered span is
        # still reported, because no verdict rests on an assert
        script = (
            "from kurihara import verifiers\n"
            "grids = [m & ~1 if y % 3 == y // 3 % 3 else m\n"
            "         for y, m in enumerate(verifiers._survivor_grids())]\n"
            "verifiers._survivor_grids = lambda: grids\n"
            "rep = verifiers.verify_coset_lemma(3)\n"
            "print(rep.ok, rep.instances[3], len(rep.counterexamples))\n"
        )
        proc = run_python_O(script)
        assert proc.returncode == 0, proc.stderr
        ok, instances, bad = proc.stdout.split()
        assert (ok, instances) == ("False", "25272") and 0 < int(bad) < 25272

    def test_few_uncovered_hyperplanes_match_reference(self, monkeypatch):
        # drop c = 0 from the grids of the y in ker(1,1,1,0) or ker(1,0,2,1):
        # only the hyperplanes whose vectors with no zero digit all lie in
        # those two lose c = 0, and only tuples spanning them may come back
        K = verifiers._kernels()
        c1, c2 = 1 + 3 + 9, 1 + 18 + 27
        killed = K[c1] | K[c2]

        def corrupt(grids):
            return [m & ~1 if killed >> y & 1 else m for y, m in enumerate(grids)]

        grids = corrupt(verifiers._survivor_grids())
        monkeypatch.setattr(verifiers, "_survivor_grids", lambda: grids)
        unions = verifiers._grid_unions(K, grids)
        open_hyperplanes = {K[c] for c in range(1, 81) if unions[K[c]] != FULL81}
        assert unions[FULL81] == FULL81 and {K[c1], K[c2]} <= open_hyperplanes
        assert len(open_hyperplanes) < 10  # a few, among them y_i = 0 (never a span)
        rep = verify_coset_lemma(3)
        _, _, bad = _reference_coset_lemma(3, True, corrupt(_grid_masks()))
        assert rep.counterexamples == bad and 0 < len(bad) < 25272
        for k, *tup in bad:
            ann = reduce(and_, (K[sum(3**i * f[j] for i, f in enumerate(tup))] for j in range(k)))
            assert verifiers._span_of(ann, K) in open_hyperplanes - {K[1], K[3], K[9], K[27]}

    def test_corrupted_whole_space_flags_only_span_four(self, monkeypatch):
        # a union of all grids that misses a point leaves every hyperplane
        # covered: bit 0 of each annihilator must not carry the whole
        # space's verdict to a span-3 tuple, and every span-4 tuple is flagged
        true_unions = verifiers._grid_unions

        def whole_open(K, grids):
            return {**true_unions(K, grids), FULL81: FULL81 ^ 1}

        monkeypatch.setattr(verifiers, "_grid_unions", whole_open)
        rep = verify_coset_lemma(3)
        assert rep.ok and (rep.instances, rep.by_span_dim) == _reference_coset_lemma(3, True)[:2]
        # 1.5 million counterexamples: name each by k alone to keep them small
        monkeypatch.setattr(verifiers, "_functionals", len)
        rep = verify_coset_lemma(4)
        assert rep.by_span_dim == {3: 1036152, 4: 1516320}
        assert rep.counterexamples == [4] * 1516320

    def test_reduced_and_unreduced_agree_on_f27(self):
        reduced = verify_coset_lemma(3, reduced=True)
        unreduced = verify_coset_lemma(3, reduced=False)
        assert reduced.ok and unreduced.ok
        # dropping one sign per functional divides the tuple count by 2^4
        assert unreduced.instances[3] == 16 * reduced.instances[3]

    def test_projection_configuration_never_covered(self):
        # the four coordinate projections of F_3^4: for every shift tuple an
        # uncovered point exists with pr_i(g_i) != h_i for all i
        for c in product(range(3), repeat=4):
            h = tuple((ci + 1) % 3 for ci in c)
            assert all(h[i] != c[i] for i in range(4))

    def test_span_two_remark_has_covering_witness(self):
        fns, c, covered = span_two_covering_witness()
        assert covered
        # explicit: every element of F_3^2 lies in one of the four cosets
        for x in product(range(3), repeat=2):
            assert any(
                sum(f[i] * x[i] for i in range(2)) % 3 == cj
                for f, cj in zip(fns, c)
            )

    def test_single_coset_size(self):
        # any single coset g ker(phi), phi != 0, covers exactly |G| / 3
        phi = (1, 2, 0)
        for c in range(3):
            size = sum(
                1
                for x in product(range(3), repeat=3)
                if sum(f * xi for f, xi in zip(phi, x)) % 3 == c
            )
            assert size == 27 // 3


class TestIdentitySuite:
    def test_fresh_failures_each(self):
        a, b = SuiteResult("x", 0), SuiteResult("x", 0)
        a.failures.append((1, 2))
        assert b.failures == [] and a.failures == [(1, 2)]
        assert repr(b) == "SuiteResult(identity='x', instances=0, failures=[])"

    def test_small_grid_passes(self, sym11):
        rep = run_identity_suite(
            sym11, 7, d_ell_max=30, n_max=1, m_max=1, remark_d_max=20,
            route_prime_bound=300, covariance_samples=3,
        )
        assert not rep.vacuous
        assert rep.results["xi_norm_relation"].instances > 0

    def test_deterministic(self, sym11):
        kw = dict(d_ell_max=20, n_max=1, m_max=1, remark_d_max=10,
                  route_prime_bound=200, covariance_samples=2, seed=5)
        a = run_identity_suite(sym11, 7, **kw).to_json()
        b = run_identity_suite(sym11, 7, **kw).to_json()
        assert a == b
        # the `identity_suite` section of `kurihara selftest`, seed included
        assert list(a) == [
            "name", "tests", "failures", "vacuous", "seed", "covariance_samples", "cases",
        ]
        assert (a["name"], a["seed"], len(a["covariance_samples"])) == ("identity_suite", 5, 2)

    def test_sign_flip_mutation_detected(self, sym37):
        # corrupting one coordinate of the evaluation functional breaks the
        # Hecke structure; the suite must notice, not absorb it
        bad_vector = list(sym37.vector)
        bad_vector[0] = -bad_vector[0] if bad_vector[0] else 1
        mutant = EigenSymbol(
            sym37.space, sym37.curve, tuple(bad_vector), sym37.column,
            sym37.hecke_pairs, sym37.holdout_pairs, sym37.chain_dims,
            sym37.calibration_status, sym37.calibration_unit,
        )
        with pytest.raises(IdentityFailure):
            run_identity_suite(
                mutant, 5, d_ell_max=15, n_max=1, m_max=1, remark_d_max=6,
                route_prime_bound=300, covariance_samples=0,
            )

    def test_each_stabilized_element_once(self, sym11, monkeypatch):
        # the norm, Euler, bridge and projective identities and every xi_tilde
        # read one memo of vartheta per run
        from kurihara import mazurtate

        calls, vartheta = [], mazurtate.vartheta

        def counting(symbol, d, n, p, m):
            calls.append((d, n, p, m))
            return vartheta(symbol, d, n, p, m)

        monkeypatch.setattr(verifiers, "vartheta", counting)
        monkeypatch.setattr(mazurtate, "vartheta", counting)
        rep = run_identity_suite(
            sym11, 7, d_ell_max=30, n_max=1, m_max=2, remark_d_max=20,
            route_prime_bound=1, covariance_samples=0,
        )
        assert rep.results["xi_norm_relation"].instances > 0
        assert len(calls) == len(set(calls)) == 66

    def test_route_rows_go_through_delta_row(self, sym11, monkeypatch):
        # the route block and the covariance block check all three routes by
        # the search's row function, which walks once per row; the covariance
        # block takes one row per registry for each sampled prime
        from kurihara import search

        walks, rows = [], []
        walk, row = search.plus_values, search.delta_row

        def counting_walk(*args):
            walks.append(args[1])
            return walk(*args)

        def counting_row(symbol, d, ring, registry):
            rows.append(d)
            return row(symbol, d, ring, registry)

        monkeypatch.setattr(search, "plus_values", counting_walk)
        monkeypatch.setattr(verifiers, "delta_row", counting_row)
        rep = run_identity_suite(
            sym11, 7, d_ell_max=1, n_max=-1, m_max=0, remark_d_max=0,
            route_prime_bound=300, covariance_samples=3,
        )
        products = rep.results["ed_route_agreement"].instances
        assert products == rep.results["derivative_closed_form"].instances
        assert products == rep.results["derivative_vanishing"].instances
        assert rep.results["generator_covariance"].instances == 3
        assert walks == rows and len(rows) == products + 2 * 3
        assert rows[products::2] == rows[products + 1::2]

    def test_route_disagreement_alarms(self, sym11, monkeypatch):
        from kurihara import search
        from kurihara.records import replace

        original = search.derivative_data

        def corrupted(projection, via):
            return replace(original(projection, via), is_norm_multiple=False)

        monkeypatch.setattr(search, "derivative_data", corrupted)
        with pytest.raises(CorrectnessAlarm, match="route disagreement at d=1"):
            run_identity_suite(
                sym11, 7, d_ell_max=1, n_max=-1, m_max=0, remark_d_max=0,
                route_prime_bound=300, covariance_samples=0,
            )

    def test_empty_grid_vacuous_warning(self, sym11):
        rep = run_identity_suite(
            sym11, 7, d_ell_max=1, n_max=-1, m_max=0, remark_d_max=0,
            route_prime_bound=2, covariance_samples=0,
        )
        assert rep.vacuous

    def test_one_empty_identity_makes_the_suite_vacuous(self, sym11):
        # an identity that ran no instance is unchecked, however many
        # instances the others ran
        rep = run_identity_suite(
            sym11, 7, d_ell_max=30, n_max=1, m_max=1, remark_d_max=20,
            route_prime_bound=300, covariance_samples=0,
        )
        assert rep.results["generator_covariance"].instances == 0
        assert rep.results["xi_norm_relation"].instances > 0
        assert rep.vacuous


class TestDeeperTower:
    def test_identities_at_n_two(self, sym11):
        # the stabilized elements two layers up the tower still satisfy the
        # norm relations and project onto the lower layers
        rep = run_identity_suite(
            sym11, 7, d_ell_max=15, n_max=2, m_max=2, remark_d_max=10,
            route_prime_bound=200, covariance_samples=0,
        )
        assert rep.results["xi_norm_relation"].instances > 0
        assert rep.results["projective_system"].instances > 0


class TestCosetLemmaDimFour:
    def test_dim4_exhaustive_with_frozen_counts(self):
        rep = verify_coset_lemma(4)
        assert rep.ok and rep.counterexamples == []
        assert rep.instances == {3: 25272, 4: 2527200}
        # span-4 tuples can never be covered (a coordinatewise-avoiding point
        # always exists); span-3 tuples reduce to the F_3^3 case
        assert rep.by_span_dim == {3: 1036152, 4: 1516320}
