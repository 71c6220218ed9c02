import copy
import json
import os
from math import prod

import pytest

from kurihara import search
from kurihara.errors import (
    BadReport,
    CorrectnessAlarm,
    DenominatorDivisibleByP,
    FrickeNotScalar,
    MissingRootNumber,
    SearchExhausted,
)
from kurihara.exactmath import QQ, ResidueRing, unit_group
from kurihara.kolyvagin import KolyvaginPrime, sieve
from kurihara.mazurtate import plus_element
from kurihara.modsym import EigenSymbol, fricke_eigenvalue
from kurihara.records import replace
from conftest import residue_items
from kurihara.search import (
    DeltaReport,
    attach_parity,
    find_delta_minimal,
    parity_check,
    selmer_report,
)


CURVE_37A1 = os.path.join(os.path.dirname(__file__), "..", "curves", "37a1.json")


@pytest.fixture(scope="module")
def report11(sym11):
    rep = find_delta_minimal(sym11, 7, prime_bound=500, nu_max=2)
    return selmer_report(rep)


@pytest.fixture(scope="module")
def report37(sym37):
    rep = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2)
    return selmer_report(rep)


class TestGoldenRuns:
    def test_rank_zero(self, report11, sym11):
        assert report11.delta_minimal == (1,)
        assert report11.selmer_dim == 0
        assert report11.upper_bound == 0
        assert report11.imc_witness
        assert report11.table[1].delta == 3
        assert attach_parity(report11, sym11) == "pass"
        assert report11.root_number == 1

    def test_rank_one(self, report37, sym37):
        assert report37.table[1].delta == 0
        assert report37.delta_minimal
        assert all(len(report37.table[d].factors) == 1 for d in report37.delta_minimal)
        assert report37.selmer_dim == 1
        assert attach_parity(report37, sym37) == "pass"
        assert report37.root_number == -1

    def test_minimality_reverified(self, report37):
        assert report37.verify()
        for p in (2, 9, 15):
            with pytest.raises(CorrectnessAlarm, match=f"p = {p} is not an odd prime"):
                replace(report37, p=p).verify()

    def test_json_round_trip_and_typed_shape_errors(self, report37):
        obj = json.loads(json.dumps(report37.to_json()))
        assert search.DeltaReport.from_json(obj).to_json() == obj
        with pytest.raises(ValueError, match="'selmer_dim' must be an integer or null"):
            search.DeltaReport.from_json(dict(obj, selmer_dim="1"))  # BadReport is one
        del obj["delta_table"][1]["routes_agree"]
        with pytest.raises(BadReport, match="row has no 'routes_agree'"):
            search.DeltaReport.from_json(obj)

    def test_minimality_read_mod_p(self, sym37):
        # the m = 2 sieve to 5000 gives 2251 and 4651 (l = 1 mod 25), with
        # delta 3 and 18 in Z/25.  5 is a nonzero element of Z/25 but zero
        # mod p: it no longer makes 2251 delta-minimal, and a report that
        # says so is refused
        rep = selmer_report(find_delta_minimal(sym37, 5, prime_bound=5000, nu_max=1, m=2))
        assert rep.sieved == (2251, 4651) and rep.delta_minimal == (2251, 4651)
        assert rep.verify()
        rep.table[2251].delta = 5
        with pytest.raises(CorrectnessAlarm, match="delta_minimal"):
            rep.verify()
        search._conclude(rep)
        assert rep.delta_minimal == (4651,)
        assert rep.verify()

    def test_delta_1_divisible_by_p_makes_no_dim_0_claim(self, report37):
        # delta_1 = p at m = 2: nonzero in Z/p^m, but the dimension is read
        # mod p, where it vanishes; it is still an IMC witness
        rep = copy.deepcopy(report37)
        rep.m = 2
        for d in rep.table:
            rep.table[d].delta = 5 if d == 1 else 0
        search._conclude(rep)
        assert rep.delta_minimal == ()
        assert rep.selmer_dim is None and rep.upper_bound is None
        assert rep.imc_witness
        rep.table[61].delta = 7
        search._conclude(rep)
        assert rep.delta_minimal == (61,)
        assert rep.selmer_dim == 1 and rep.upper_bound == 1


class TestSearchMechanics:
    def test_exhausted_carries_table(self, sym37):
        with pytest.raises(SearchExhausted) as info:
            find_delta_minimal(sym37, 5, prime_bound=300, nu_max=0)
        table = info.value.report.table
        assert set(table) == {1}
        assert table[1].delta == 0
        assert info.value.report.selmer_dim is None

    def test_exhaustive_flag_consistency(self, sym37):
        # dimension consistency at scale: all minimal d share one nu and
        # every nonvanishing d has nu >= that dimension
        rep = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2, exhaustive=True)
        rep = selmer_report(rep)
        dim = rep.selmer_dim
        assert dim == 1
        nus = {len(rep.table[d].factors) for d in rep.delta_minimal}
        assert nus == {1}
        for d, row in rep.table.items():
            if row.delta % 5 != 0:
                assert len(row.factors) >= dim

    def test_workers_other_than_one_rejected(self, sym37):
        with pytest.raises(ValueError):
            find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2, workers=2)
        with pytest.raises(ValueError):
            sieve(sym37.curve, 5, 1, 0, 300, workers=2)

    def test_determinism(self, sym37):
        a = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=1)
        b = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=1)
        assert json.dumps(selmer_report(a).to_json(), sort_keys=True) == json.dumps(
            selmer_report(b).to_json(), sort_keys=True
        )


class TestParity:
    def test_root_numbers_fricke(self, sym11, sym37):
        # w_E = -(Fricke eigenvalue on the eigensymbol line)
        assert -fricke_eigenvalue(sym11) == 1
        assert -fricke_eigenvalue(sym37) == -1

    def test_synthetic_mismatch_alarms(self, sym37):
        rep = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2)
        rep = selmer_report(rep)
        with pytest.raises(CorrectnessAlarm):
            parity_check(rep, +1)  # wrong sign injected
        assert rep.parity == "fail"

    def test_missing_root_number(self, report37):
        with pytest.raises(MissingRootNumber):
            parity_check(report37, 0)

    def test_override_hierarchy(self, sym37):
        rep = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2)
        rep = selmer_report(rep)
        assert attach_parity(rep, sym37, w_override=-1) == "pass"

    def test_fricke_not_scalar_skips_with_reason(self, report37, sym37, monkeypatch):
        def not_scalar(symbol):
            raise FrickeNotScalar("Fricke eigenvalue 3 is not a sign")

        monkeypatch.setattr(search, "fricke_eigenvalue", not_scalar)
        rep = copy.deepcopy(report37)
        assert attach_parity(rep, sym37) == "skipped"
        assert rep.parity == "skipped"
        assert rep.provenance["parity_skipped"] == "Fricke eigenvalue 3 is not a sign"

    def test_other_fricke_errors_propagate(self, report37, sym37, monkeypatch):
        def broken(symbol):
            raise ZeroDivisionError("bug in the Fricke matrix")

        monkeypatch.setattr(search, "fricke_eigenvalue", broken)
        with pytest.raises(ZeroDivisionError):
            attach_parity(copy.deepcopy(report37), sym37)


class TestReportShape:
    def test_fresh_provenance_each(self):
        a = DeltaReport("11a1", 7, 1, 300, 1, (), {})
        b = DeltaReport("11a1", 7, 1, 300, 1, (), {})
        a.provenance["notes"] = ["only a"]
        assert b.provenance == {} and a.provenance is not b.provenance
        assert (b.delta_minimal, b.selmer_dim, b.parity) == ((), None, "skipped")

    def test_replace_leaves_the_original(self, report37):
        copy_ = replace(report37, parity="mismatch")
        assert copy_.parity == "mismatch" and report37.parity != "mismatch"
        assert copy_.table is report37.table  # fields are passed on, not copied
        assert copy_ != report37 and replace(report37) == report37

    def test_json_fields(self, report37):
        obj = report37.to_json()
        for key in (
            "curve", "p", "delta_table", "delta_minimal", "selmer_dim",
            "upper_bound", "imc_witness", "parity", "provenance",
        ):
            assert key in obj
        row = obj["delta_table"][0]
        for key in ("d", "factors", "delta", "routes_agree", "generators"):
            assert key in row


class TestRankTwo:
    @pytest.fixture(scope="class")
    def sym389(self):
        from kurihara.curve import CurveData
        from kurihara.modsym import build_space, extract_eigensymbol

        E = CurveData(
            0, 1, 1, -2, 0, conductor=389, tamagawa_product=1, label="389a1"
        ).validate()
        return extract_eigensymbol(build_space(389), E)

    def test_389a1_dimension_two(self, sym389):
        # the classical rank-2 curve: delta vanishes at nu <= 1 and a
        # delta-minimal product of two sieved primes appears, so the
        # dimension readout is 2 and the parity matches w = +1
        rep = selmer_report(find_delta_minimal(sym389, 5, prime_bound=70, nu_max=2))
        assert rep.table[1].delta == 0
        assert rep.table[41].delta == 0 and rep.table[61].delta == 0
        assert rep.delta_minimal == (41 * 61,)
        assert rep.table[41 * 61].delta != 0
        assert rep.selmer_dim == 2
        assert attach_parity(rep, sym389) == "pass"
        assert rep.root_number == +1

    def test_389a1_prime_bound_300_frozen(self, sym389):
        # the full rank-2 golden run (p = 5, prime bound 300, nu <= 2): six
        # sieved primes, 22 rows, every nu <= 1 row zero and 14 of the 15
        # products delta-minimal
        rep = selmer_report(find_delta_minimal(sym389, 5, prime_bound=300, nu_max=2))
        assert rep.sieved == (41, 61, 131, 211, 251, 271)
        assert {d: row.delta for d, row in rep.table.items()} == {
            1: 0, 41: 0, 61: 0, 131: 0, 211: 0, 251: 0, 271: 0,
            2501: 4, 5371: 1, 7991: 2, 8651: 2, 10291: 3, 11111: 3, 12871: 4,
            15311: 1, 16531: 4, 27641: 0, 32881: 1, 35501: 4, 52961: 2,
            57181: 3, 68021: 3,
        }
        assert all(row.routes_agree for row in rep.table.values())
        assert rep.delta_minimal == (
            2501, 5371, 7991, 8651, 10291, 11111, 12871, 15311, 16531,
            32881, 35501, 52961, 57181, 68021,
        )
        assert (rep.selmer_dim, rep.upper_bound, rep.imc_witness) == (2, 2, True)
        assert attach_parity(rep, sym389) == "pass"
        assert rep.root_number == +1


class TestSmallPrime:
    def test_p3_heuristic_self_limits_and_asserted_run_passes(self, e11):
        # mod 3 the split-eigenvalue-ratio test can never fire ((Z/3)^* = {1,-1}),
        # so the verdict stays unknown without an assertion; with the assertion
        # the rank-0 run goes through with delta_1 = 1/5 = 2 mod 3
        from kurihara.curve import check_hypotheses
        from kurihara.modsym import build_space, extract_eigensymbol

        assert check_hypotheses(e11, 3).surjectivity == "unknown"
        E = replace(e11, mod_p_surjective=(3, 7))
        assert check_hypotheses(E, 3).passed
        sym = extract_eigensymbol(build_space(11), E)
        rep = selmer_report(find_delta_minimal(sym, 3, prime_bound=200, nu_max=1))
        assert rep.table[1].delta == 2  # 1/5 mod 3
        assert rep.delta_minimal == (1,)
        assert rep.selmer_dim == 0
        assert attach_parity(rep, sym) == "pass"


class TestSecondOrbit:
    def test_37b1_extraction_and_dimension_zero(self):
        # the other rational newform at level 37: a_2 = 0 separates it, the
        # calibration unit is 1/3 (ratio 2/3 in the least-period convention),
        # and the p = 7 search reads off dimension 0
        from fractions import Fraction as F

        from kurihara.curve import CurveData, check_hypotheses
        from kurihara.modsym import build_space, eval_plus, extract_eigensymbol

        E = CurveData(
            0, 1, 1, -23, -50, conductor=37, tamagawa_product=3, label="37b1"
        ).validate()
        assert E.discriminant == 37**3
        assert check_hypotheses(E, 7).passed
        sym = extract_eigensymbol(build_space(37), E)
        assert sym.chain_dims == (2, 1)
        assert sym.hecke_pairs[0] == (2, 0)
        assert eval_plus(sym, 0, 1) == F(2, 3)
        rep = selmer_report(find_delta_minimal(sym, 7, prime_bound=400, nu_max=1))
        assert rep.table[1].delta == 2 * pow(3, -1, 7) % 7
        assert rep.delta_minimal == (1,)
        assert rep.selmer_dim == 0
        assert attach_parity(rep, sym) == "pass"
        assert rep.root_number == +1


class TestStreamedRow:
    """delta_row's one streamed pass against a sum over every unit of a whole
    plus_element, with each unit's own discrete logs."""

    @pytest.mark.parametrize("curve, p, m, bound", [
        ("sym37", 5, 1, 300), ("sym37", 5, 2, 4651), ("sym389", 5, 1, 70), ("sym11", 7, 1, 500),
    ])
    def test_row_is_the_sum_over_every_unit(self, request, curve, p, m, bound):
        sym = request.getfixturevalue(curve)
        reg = {kp.ell: kp for kp in sieve(sym.curve, p, m, 0, bound)}
        ells = sorted(reg)
        ds = [1] + ells + [a * b for a in ells for b in ells if a < b and a * b < 20000]
        assert len(ds) >= 3
        ring = ResidueRing(p, m)
        for d in ds:
            want = sum(
                c * prod(reg[ell].dlog(a) for ell in ells if d % ell == 0)
                for a, c in residue_items(plus_element(sym, d, ring))
            ) % p**m
            row = search.delta_row(sym, d, ring, reg)
            assert (row.delta, row.routes_agree) == (want, True), d

    def test_non_integral_value_raises_per_value(self, sym37):
        # at unit 1/5 each value [a/211]^+ that is nonzero mod 5 has 5 in its
        # denominator, while the weighted sum delta_211 stays 5-integral
        # (delta_211 = 0 mod 5 at unit 1): only a check per value refuses it
        reg = {kp.ell: kp for kp in sieve(sym37.curve, 5, 1, 0, 300)}
        ring = ResidueRing(5)
        assert search.delta_row(sym37, 211, ring, reg).delta == 0
        fifth = replace(sym37, calibration_unit=sym37.calibration_unit / 5)
        exact = sum(c * reg[211].dlog(a) for a, c in residue_items(plus_element(fifth, 211, QQ)))
        assert exact.denominator % 5 != 0
        with pytest.raises(DenominatorDivisibleByP, match="theta at level 211 is not p-integral"):
            search.delta_row(fifth, 211, ring, reg)


class TestOneWalk:
    """delta_row walks (Z/d)^* once and checks all three routes on it."""

    @pytest.fixture(scope="class")
    def reg37(self, e37):
        return {kp.ell: kp for kp in sieve(e37, 5, 1, 0, 300)}

    @staticmethod
    def _count_evaluations(monkeypatch):
        # the level of each unit the integer walk evaluates
        calls = []
        original = EigenSymbol.plus_numerators

        def counting(symbol, level, residues):
            calls.extend(level for _ in residues)
            return original(symbol, level, residues)

        monkeypatch.setattr(EigenSymbol, "plus_numerators", counting)
        return calls

    # phi(d)/2 evaluations for d > 2: the units a < d/2 once each, d - a
    # read from its mirror (the star symmetry of the plus quotient)

    def test_phi_d_evaluations_per_row(self, sym37, reg37, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        d = 61 * 211
        row = search.delta_row(sym37, d, ResidueRing(5), reg37)
        assert row.factors == (61, 211) and row.routes_agree
        assert len(calls) == 60 * 210 // 2

    def test_phi_d_evaluations_per_search(self, sym37, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        rep = find_delta_minimal(sym37, 5, prime_bound=300, nu_max=2)
        walked = {1: 1, 61: 30, 211: 105, 281: 140}
        assert sorted(calls) == sorted(d for d in rep.table for _ in range(walked[d]))

    def test_p_times_unit_agrees_at_m_2(self, sym37, e37):
        # theta scaled by p gives delta_d = p*u in Z/p^2: nonzero in Z/25 but
        # zero mod p, which is what the derivative route reads
        reg = {kp.ell: kp for kp in sieve(e37, 5, 2, 0, 2251)}
        ring = ResidueRing(5, 2)
        assert search.delta_row(sym37, 2251, ring, reg).delta == 3
        fives = replace(sym37, calibration_unit=5 * sym37.calibration_unit)
        row = search.delta_row(fives, 2251, ring, reg)
        assert row.delta == 15 and row.routes_agree

    def test_corrupted_direct_weight_alarms(self, sym37, reg37):
        # one entry of a fresh prime's log list off by one, at a walked unit
        # b < 61/2 whose value (at b^-1) is nonzero and which is no generator
        # residue, so only the direct route reads it
        ring = ResidueRing(5)
        theta = dict(residue_items(plus_element(sym37, 61, ring)))
        group = unit_group(61)
        gens = {group.residue(g) for g in group.basis()}
        b0 = next(b for b in range(2, 31) if theta[pow(b, -1, 61)] and b not in gens)
        assert search.delta_row(sym37, 61, ring, reg37).delta == 4
        bad = KolyvaginPrime(61, 5, reg37[61].generator)
        assert bad.dlog(b0) == reg37[61].dlog(b0)
        bad._table[b0] += 1
        with pytest.raises(CorrectnessAlarm, match="route disagreement at d=61"):
            search.delta_row(sym37, 61, ring, {**reg37, 61: bad})

    def test_corrupted_projection_alarms(self, sym37, reg37, monkeypatch):
        # the generator's image moved by one in G_61 = Z/5: a well-defined
        # map, but not the quotient map, so the buckets land wrong
        original = search.project_theta

        def corrupted(ells, registry):
            proj = original(ells, registry)
            return replace(proj, images=[((x + 1) % 5,) for (x,) in proj.images])

        monkeypatch.setattr(search, "project_theta", corrupted)
        with pytest.raises(CorrectnessAlarm, match="route disagreement at d=61"):
            search.delta_row(sym37, 61, ResidueRing(5), reg37)

    @pytest.mark.parametrize("doubled", [
        ["kurihara_number_via_ed"],
        ["kurihara_number_via_ed", "kurihara_number_direct"],
    ], ids=["via_ed", "via_ed_and_direct"])
    def test_derivative_reads_via_ed(self, sym37, reg37, monkeypatch, doubled):
        # via-e_d doubled, delta_61 = 4 -> 3: the row alarms.  With the direct
        # route doubled too, the two sums agree, and only the derivative
        # expansion, whose closed form is read from via-e_d, refuses the row
        for name in doubled:
            route = getattr(search, name)
            monkeypatch.setattr(search, name, lambda *args, f=route: 2 * f(*args) % 5)
        with pytest.raises(CorrectnessAlarm, match="route disagreement at d=61"):
            search.delta_row(sym37, 61, ResidueRing(5), reg37)

    def test_derivative_reads_via_ed_python_O(self, run_python_O):
        # the doubled via-e_d alarms under `python -O` too
        proc = run_python_O(
            "from kurihara import search\n"
            "from kurihara.curve import load_curve\n"
            "from kurihara.errors import CorrectnessAlarm\n"
            "from kurihara.exactmath import ResidueRing\n"
            "from kurihara.kolyvagin import sieve\n"
            "from kurihara.modsym import build_space, extract_eigensymbol\n"
            f"E = load_curve({CURVE_37A1!r})\n"
            "sym = extract_eigensymbol(build_space(37), E)\n"
            "reg = {kp.ell: kp for kp in sieve(E, 5, 1, 0, 300)}\n"
            "row = search.delta_row(sym, 61, ResidueRing(5), reg)\n"
            "via = search.kurihara_number_via_ed\n"
            "search.kurihara_number_via_ed = lambda projection: 2 * via(projection) % 5\n"
            "try:\n"
            "    search.delta_row(sym, 61, ResidueRing(5), reg)\n"
            "    alarm = 'none'\n"
            "except CorrectnessAlarm as exc:\n"
            "    alarm = str(exc).split(':')[0]\n"
            "print(row.delta, alarm)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "4 route disagreement at d=61"
