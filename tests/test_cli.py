import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kurihara.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
CURVES = os.path.join(ROOT, "curves")


def curve_path(name):
    return os.path.join(CURVES, f"{name}.json")


# the README's rank-one golden run
SEARCH_37 = ["search", "--curve", curve_path("37a1"), "--p", "5",
             "--prime-bound", "300", "--nu-max", "2"]


class TestExitCodes:
    def test_search_11a1_ok(self, capsys):
        code = main(
            ["search", "--curve", curve_path("11a1"), "--p", "7",
             "--prime-bound", "300", "--nu-max", "2", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["selmer_dim"] == 0
        assert out["parity"] == "pass"

    def test_check_tamagawa_failure_exits_65(self, capsys):
        code = main(["check", "--curve", curve_path("11a1"), "--p", "5"])
        assert code == 65

    def test_search_hypothesis_failure_exits_65(self):
        code = main(
            ["search", "--curve", curve_path("11a1"), "--p", "5"]
        )
        assert code == 65

    def test_search_exhausted_exits_2(self, capsys):
        code = main(
            ["search", "--curve", curve_path("37a1"), "--p", "5",
             "--prime-bound", "300", "--nu-max", "0"]
        )
        assert code == 2

    def test_selftest_exits_0(self, capsys):
        code = main(["selftest", "--coset-dim", "3"])
        assert code == 0

    def test_usage_error_exits_64(self, capsys):
        code = main(["check", "--curve", "/does/not/exist.json", "--p", "7"])
        assert code == 64

    @pytest.mark.parametrize("body", [
        '{"ainvs": [0, 0, 0, 0, 0], "conductor": 11, "tamagawa_product": 1}',
        "not json",
        '{"conductor": 11, "tamagawa_product": 1}',
        '{"ainvs": ["0", 0, 1, -1, 0], "conductor": 37, "tamagawa_product": 1}',
    ], ids=["singular", "not_json", "no_ainvs", "not_integers"])
    def test_malformed_curve_exits_64(self, tmp_path, capsys, body):
        path = tmp_path / "curve.json"
        path.write_text(body)
        assert main(["check", "--curve", str(path), "--p", "5"]) == 64
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["delta", "--curve", curve_path("37a1"), "--p", "5", "--d", "0"],
        ["delta", "--curve", curve_path("37a1"), "--p", "5", "--d", "-61"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--d", "0"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--d", "-61"],
        ["delta", "--curve", curve_path("37a1"), "--p", "5", "--m", "0"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--m", "0"],
        ["search", "--curve", curve_path("37a1"), "--p", "5", "--m", "0"],
        ["sieve", "--curve", curve_path("37a1"), "--p", "5", "--m", "0"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--n", "-1"],
        ["theta", "--curve", curve_path("11a1"), "--p", "4", "--d", "3"],
        ["selftest", "--curve", curve_path("11a1"), "--p", "0"],
        ["selftest", "--curve", curve_path("11a1")],
        ["selftest", "--p", "7"],
        ["sieve", "--curve", curve_path("37a1"), "--p", "5", "--bound", "0"],
        ["delta", "--curve", curve_path("37a1"), "--p", "5", "--bound", "-300"],
        ["search", "--curve", curve_path("37a1"), "--p", "5", "--prime-bound", "0"],
        ["search", "--curve", curve_path("37a1"), "--p", "5", "--nu-max", "-1"],
        ["selftest", "--curve", curve_path("11a1"), "--p", "7", "--grid", "0"],
    ])
    def test_out_of_range_argument_exits_64(self, argv, capsys):
        # rejected while parsing, before any curve is loaded or suite skipped
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "error: " in capsys.readouterr().err


class TestLargeM:
    @pytest.mark.parametrize("m", ["6000", "3000000"])
    @pytest.mark.parametrize("argv", [
        ["sieve", "--curve", curve_path("11a1"), "--p", "7", "--bound", "10"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--kind", "vartheta"],
        ["delta", "--curve", curve_path("11a1"), "--p", "7", "--bound", "10"],
        ["search", "--curve", curve_path("11a1"), "--p", "7", "--prime-bound", "10"],
    ], ids=["sieve", "theta", "delta", "search"])
    def test_m_past_the_print_limit_exits_64(self, argv, m, capsys, monkeypatch):
        # refused before the curve is read or p^m formed: the sieve, theta
        # and the search are never reached
        import kurihara.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the m check comes first")

        monkeypatch.setattr(cli, "load_curve", unreachable)
        assert main(argv + ["--m", m]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --m {m} is too large for p = 7")

    def test_limit_is_exact(self, monkeypatch):
        # under Python's default limit of 4300 digits, 7^5088 - 1 has 4300
        # and prints, 7^5089 - 1 has 4301
        from kurihara.cli import _check_m
        from kurihara.errors import UsageError

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        assert 7**5088 - 1 < 10**4300 <= 7**5089 - 1
        _check_m(7, 5088)
        with pytest.raises(UsageError):
            _check_m(7, 5089)

    def test_m_2000_still_prints(self, capsys):
        argv = ["search", "--curve", curve_path("11a1"), "--p", "7", "--prime-bound", "10",
                "--m", "2000"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "curve 11a1, p = 7 (mod p^2000)"
        assert lines[2].startswith("  delta_1 = 1256521764494529687261620711527")


class TestSubcommands:
    def test_sieve_output(self, capsys):
        code = main(
            ["sieve", "--curve", curve_path("37a1"), "--p", "5",
             "--bound", "300", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["ell"] for row in out] == [61, 211, 281]

    @pytest.mark.parametrize("name, args, count, head, tail, absent, digests", [
        ("5077a1", ["--p", "7", "--bound", "20000"], 52,
         [113, 211, 463, 547], [19013, 19139, 19531], [14071], ["5915828f", "759715d4"]),
        ("37a1", ["--p", "5", "--m", "2", "--bound", "20000"], 4,
         [2251, 4651, 10151, 18451], [], [14071], ["bee8bbeb", "965913c7"]),
        ("37a1", ["--p", "5", "--bound", "20000"], 103,
         [61, 211, 281, 491], [19391, 19751, 19991], [], ["6b83236e", "70629bd5"]),
        ("37a1", ["--p", "7", "--bound", "20000"], 52,
         [43, 71, 701, 1009], [18691, 19013, 19139], [], ["952987f3", "a70b56a0"]),
        ("11a1", ["--p", "7", "--bound", "20000"], 44,
         [113, 379, 701, 1051], [17921, 19069, 19447], [], ["993aca2c", "25388d68"]),
        ("389a1", ["--p", "5", "--bound", "30000"], 140,
         [41, 61, 131, 211], [29611, 29761, 29881], [], ["5bc3df99", "a24d6b1a"]),
    ], ids=["5077a1-p7", "37a1-p5-m2", "37a1-p5", "37a1-p7", "11a1-p7", "389a1-p5"])
    def test_sieve_golden_bytes(self, capsys, name, args, count, head, tail, absent, digests):
        # the text and JSON bytes of six sieves to 20000 or 30000, which
        # guard the one-point refusal at every l: 5077a1 leaves out
        # l = 14071, its one full case (test_curve), and 37a1 at m = 2 keeps
        # the l = 1 mod 25 with 25 | #E(F_l)
        argv = ["sieve", "--curve", curve_path(name)] + args
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)
        primes = [row["ell"] for row in rows]
        assert len(primes) == count and not set(absent) & set(primes)
        assert primes[:len(head)] == head and primes[len(primes) - len(tail):] == tail
        assert text.splitlines() == [
            f"l = {row['ell']}  h_l = {row['generator']}  |G_l| = {row['p_part']}"
            for row in rows
        ]
        assert [hashlib.sha256(x.encode()).hexdigest()[:8] for x in (text, out)] == digests

    def test_delta_route_agreement(self, capsys):
        code = main(
            ["delta", "--curve", curve_path("37a1"), "--p", "5",
             "--d", "61", "--bound", "300", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta"] == 4
        assert out["routes_agree"]

    def test_delta_checks_derivative_route(self, monkeypatch, capsys):
        # `delta` runs the same three-route row as `search`: a derivative
        # route that no longer matches the other two is an alarm
        from kurihara import search
        from kurihara.records import replace

        original = search.derivative_data

        def corrupted(projection, via):
            return replace(original(projection, via), is_norm_multiple=False)

        monkeypatch.setattr(search, "derivative_data", corrupted)
        code = main(
            ["delta", "--curve", curve_path("37a1"), "--p", "5",
             "--d", "61", "--bound", "300"]
        )
        assert code == 3
        assert "route disagreement at d=61" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [61 * 61, 13 * 10**6 + 1])
    def test_delta_bad_d_rejected_before_walk(self, d, monkeypatch, capsys):
        # the row streams the walk, so a walk is caught at its first run
        from kurihara.modsym import EigenSymbol

        def no_walk(*args):
            raise AssertionError("walked (Z/d)^* for an invalid d")

        monkeypatch.setattr(EigenSymbol, "plus_numerators", no_walk)
        code = main(
            ["delta", "--curve", curve_path("37a1"), "--p", "5",
             "--d", str(d), "--bound", "300"]
        )
        assert code == 64
        err = capsys.readouterr().err
        assert "not squarefree" in err or "not produced by the sieve" in err

    def test_theta_dump(self, capsys):
        code = main(
            ["theta", "--curve", curve_path("11a1"), "--p", "7",
             "--d", "3", "--kind", "theta", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["group"] == [2]

    def test_theta_xi_golden_bytes(self, capsys):
        # the theta-11a1 benchmark's command; "group" prints before "coeffs"
        assert main(["theta", "--curve", curve_path("11a1"), "--kind", "xi", "--d=17",
                     "--n=2", "--p=7", "--m=2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest().startswith("d93e1a9d")

    def test_report_round_trip(self, tmp_path, capsys):
        assert main(SEARCH_37) == 0
        text = capsys.readouterr().out
        assert main(SEARCH_37 + ["--format", "json"]) == 0
        report = capsys.readouterr().out
        path = tmp_path / "rep.json"
        path.write_text(report)
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out == text
        assert main(["report", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == report


# a small 11a1 search, the one command with a cache
SEARCH_11 = ["search", "--curve", curve_path("11a1"), "--p", "7",
             "--prime-bound", "200", "--nu-max", "1"]


class TestCaching:
    @pytest.mark.parametrize("body", ["[1, 2]", '{"schema": 1}'], ids=["list", "no_value"])
    def test_malformed_entry_is_a_miss(self, tmp_path, capsys, body):
        # JSON that is not a cache entry is recomputed and rewritten, like
        # unreadable JSON, instead of crashing the run
        cache_dir = str(tmp_path / "cache")
        args = SEARCH_11 + ["--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        (entry,) = Path(cache_dir).iterdir()
        written = entry.read_text()
        entry.write_text(body)
        assert main(args) == 0
        assert capsys.readouterr().out == cold
        assert entry.read_text() == written

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_write_keeps_the_report(self, tmp_path, capsys, monkeypatch, fmt):
        # the report is printed before the entry is written: a full disk
        # loses no finished search, and still ends as a usage error
        from kurihara.cache import JsonCache

        assert main(SEARCH_11 + ["--format", fmt]) == 0
        uncached = capsys.readouterr().out

        def disk_full(self, key, value):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(JsonCache, "put", disk_full)
        argv = SEARCH_11 + ["--format", fmt, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == uncached
        assert captured.err.startswith("error: ") and "No space left" in captured.err

    def test_no_cache_module_without_a_cache(self, run_python, tmp_path):
        # without --cache-dir or KURIHARA_CACHE_DIR no key is computed, and the
        # cache module, with hashlib and tempfile, is never imported; theta
        # and delta keep no cache, so KURIHARA_CACHE_DIR leaves them alone
        unused = tmp_path / "never-made"
        script = (
            "import os, sys\n"
            "os.environ.pop('KURIHARA_CACHE_DIR', None)\n"
            "from kurihara.cli import main\n"
            f"codes = [main(['sieve', '--curve', {curve_path('11a1')!r}, '--p', '7',"
            " '--bound', '300'])]\n"
            f"os.environ['KURIHARA_CACHE_DIR'] = {str(unused)!r}\n"
            f"codes.append(main(['theta', '--curve', {curve_path('11a1')!r}, '--p', '7',"
            " '--d', '3']))\n"
            f"codes.append(main(['delta', '--curve', {curve_path('37a1')!r}, '--p', '5',"
            " '--d', '61', '--bound', '300']))\n"
            "print(codes, sorted(m for m in ('kurihara.cache', 'hashlib', 'tempfile')"
            " if m in sys.modules))\n"
        )
        proc = run_python(script, "-S")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
        assert not unused.exists()

    def test_same_seed_byte_identical(self, capsys):
        # selftest is the one command that reads --seed (the identity
        # suite's generator-covariance samples)
        args = ["selftest", "--coset-dim", "3", "--curve", curve_path("11a1"),
                "--p", "7", "--grid", "20", "--seed", "11", "--format", "json"]
        assert main(args) == 0
        a = capsys.readouterr().out
        assert main(args) == 0
        b = capsys.readouterr().out
        assert a == b

    def test_seed_shows_in_the_report(self, capsys):
        # the seed and the samples it draws are data of the identity suite,
        # so two seeds give two reports
        args = ["selftest", "--coset-dim", "3", "--curve", curve_path("11a1"),
                "--p", "7", "--grid", "20", "--format", "json"]
        outs = []
        for seed in ("1", "2", "1"):
            assert main(args + ["--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1] and outs[0] == outs[2]
        suite = json.loads(outs[1])["suites"][1]
        assert suite["seed"] == 2
        assert len(suite["covariance_samples"]) == 10
        assert {ell for ell, _ in suite["covariance_samples"]} == {113}  # the one sieved prime


class TestFlags:
    def test_workers_flag_exits_64(self, capsys):
        # the package is serial; an option for parallelism is a usage error
        with pytest.raises(SystemExit) as exc:
            main(SEARCH_37 + ["--workers", "2"])
        assert exc.value.code == 64
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        SEARCH_37 + ["--n", "1"],  # the search sieves at n = 0
        ["check", "--curve", curve_path("37a1"), "--p", "5", "--m", "2"],
        ["check", "--curve", curve_path("37a1"), "--p", "5", "--no-assume-optimal"],
        ["sieve", "--curve", curve_path("37a1"), "--p", "5", "--no-assume-optimal"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--assert-surjective"],
        # only selftest reads --seed; only search opens a cache
        ["check", "--curve", curve_path("37a1"), "--p", "5", "--seed", "5"],
        ["sieve", "--curve", curve_path("37a1"), "--p", "5", "--cache-dir", "X"],
        ["report", "saved-report.json", "--seed", "1"],
        ["theta", "--curve", curve_path("11a1"), "--p", "7", "--cache-dir", "X"],
        ["delta", "--curve", curve_path("37a1"), "--p", "5", "--cache-dir", "X"],
        ["selftest", "--coset-dim", "3", "--cache-dir", "X"],
    ])
    def test_option_the_command_ignores_exits_64(self, argv, capsys):
        # each option is offered only where it is read
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        SEARCH_37 + ["--nu", "1"],
        ["selftest", "--coset", "3"],
        ["sieve", "--curve", curve_path("37a1"), "--p", "5", "--bo", "300"],
        ["check", "--curve", curve_path("37a1"), "--p", "5", "--form", "json"],
    ])
    def test_prefix_is_not_read_as_a_longer_option(self, argv, capsys):
        # `--nu 1` would otherwise set --nu-max to 1
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_routes_leave_the_theta_cache_as_found(self, sym37, monkeypatch, capsys):
        # the delta routes walk (Z/d)^* uncached; only theta fills the cache
        import kurihara.cli as cli
        from kurihara.mazurtate import theta
        from kurihara.records import replace

        sym = replace(sym37)
        theta(sym, 3)
        before = dict(sym._theta_cache)
        monkeypatch.setattr(cli, "_load_symbol", lambda E, calibrate: sym)
        assert main(SEARCH_37) == 0
        assert main(["delta", "--curve", curve_path("37a1"), "--p", "5",
                     "--d", "12871", "--bound", "300"]) == 0
        assert "delta_12871 = " in capsys.readouterr().out
        assert sym._theta_cache == before

    def test_assert_surjective_flag(self, capsys):
        args = ["check", "--curve", curve_path("37a1"), "--p", "13",
                "--format", "json"]
        assert main(args) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(args + ["--assert-surjective"]) == 0
        asserted = json.loads(capsys.readouterr().out)
        assert base["surjectivity"] == "heuristically-confirmed"
        assert asserted["surjectivity"] == "asserted"

    def test_no_assume_optimal_skips_calibration(self, capsys):
        args = ["theta", "--curve", curve_path("11a1"), "--p", "7", "--d", "1",
                "--kind", "theta", "--no-assume-optimal", "--format", "json"]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        # uncalibrated: the raw integral functional value, not 1/5
        assert out["coeffs"][0][1] != "1/5"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_search_result_cached(self, tmp_path, capsys, monkeypatch, fmt):
        import kurihara.cli as cli

        cache_dir = str(tmp_path / "c")
        args = SEARCH_11 + ["--cache-dir", cache_dir, "--format", fmt]
        assert main(args) == 0
        first = capsys.readouterr().out
        # the search report alone, under a key of the inputs (schema 2):
        # the key of earlier versions held the eigensymbol's JSON instead of
        # the curve record, and served one record's report for another
        assert os.listdir(cache_dir) == [
            "2c2b6e65392fbeebf4195e0dfcd371e34b508fc618ac2a0eac3b687411338e3e.json"
        ]

        def recomputed(*args, **kwargs):
            raise AssertionError("the second run must be a cache hit")

        monkeypatch.setattr(cli, "find_delta_minimal", recomputed)
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @staticmethod
    def _copy_11a1(tmp_path, **changes):
        """A copy of the 11a1 record with `changes`, and its path."""
        record = json.loads(Path(curve_path("11a1")).read_text())
        record.update(changes)
        path = tmp_path / f"{record['label']}.json"
        path.write_text(json.dumps(record))
        return str(path)

    @staticmethod
    def _search(curve, *extra):
        """Exit code and stdout of a small 11a1-like search."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["search", "--curve", curve, "--p", "7", "--prime-bound", "200",
                         "--nu-max", "1", "--format", "json", *extra])
        return code, out.getvalue()

    def test_relabelled_record_misses_the_cache(self, tmp_path):
        # the same curve under another label, with no surjectivity stated:
        # the key holds the record, so the cached report is not served
        cache = ["--cache-dir", str(tmp_path / "c")]
        copy_path = self._copy_11a1(tmp_path, label="11a1-copy", mod_p_surjective=[])
        assert self._search(curve_path("11a1"), *cache)[0] == 0
        fresh = self._search(copy_path)
        assert self._search(copy_path, *cache) == fresh
        report = json.loads(fresh[1])
        assert report["curve"] == "11a1-copy"
        assert report["provenance"]["hypotheses"]["surjectivity"] == "heuristically-confirmed"
        assert len(os.listdir(tmp_path / "c")) == 2

    def test_asserted_surjectivity_misses_the_cache(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "c")]
        copy_path = self._copy_11a1(tmp_path, mod_p_surjective=[])
        assert self._search(copy_path, *cache)[0] == 0
        fresh = self._search(copy_path, "--assert-surjective")
        assert self._search(copy_path, "--assert-surjective", *cache) == fresh
        assert json.loads(fresh[1])["provenance"]["hypotheses"]["surjectivity"] == "asserted"
        assert len(os.listdir(tmp_path / "c")) == 2

    def test_hit_does_no_modular_symbol_work(self, tmp_path, monkeypatch):
        import kurihara.cli as cli

        cache = ["--cache-dir", str(tmp_path / "c")]
        first = self._search(curve_path("11a1"), *cache)

        def refused(*args, **kwargs):
            raise AssertionError("a cache hit must not build the eigensymbol")

        monkeypatch.setattr(cli, "build_space", refused)
        monkeypatch.setattr(cli, "extract_eigensymbol", refused)
        assert self._search(curve_path("11a1"), *cache) == first

    def test_selftest_with_identity_suite(self, capsys):
        code = main(["selftest", "--coset-dim", "3", "--curve",
                     curve_path("11a1"), "--p", "7", "--grid", "20",
                     "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in out["suites"]]
        assert names == ["coset_verifier", "identity_suite"]
        assert all(s["failures"] == 0 for s in out["suites"])

    def test_selftest_coset_dim_4(self, capsys):
        code = main(["selftest", "--coset-dim", "4", "--format", "json"])
        assert code == 0
        (suite,) = json.loads(capsys.readouterr().out)["suites"]
        cases = {c["name"]: c for c in suite["cases"]}
        assert suite["failures"] == 0
        assert cases["coset_lemma_dim3"]["instances"] == 25272
        assert cases["coset_lemma_dim4"]["instances"] == 2527200
        assert all(c["status"] == "pass" for c in cases.values())


@pytest.fixture(scope="module")
def saved_search(tmp_path_factory):
    """The golden 37a1 search run once with a cache: (cache dir, JSON report)."""
    cache_dir = str(tmp_path_factory.mktemp("cache"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(SEARCH_37 + ["--cache-dir", cache_dir, "--format", "json"]) == 0
    return cache_dir, json.loads(out.getvalue())


def _corrupt(report, kind):
    """Tamper with one conclusion or row of the saved golden 37a1 report."""
    rows = {row["d"]: row for row in report["delta_table"]}
    if kind == "zero_minimal":
        rows[61]["delta"] = 0
    elif kind == "nonzero_divisor":
        rows[1]["delta"] = 1
    elif kind == "selmer_dim":
        report["selmer_dim"] = 3
    elif kind == "upper_bound":
        report["upper_bound"] = 0
    elif kind == "imc_witness":
        report["imc_witness"] = False
    elif kind == "root_number":
        # parity stays "pass", which w_E = +1 contradicts at nu = 1
        report["root_number"] = 1
    elif kind == "routes_disagree":
        for row in rows.values():
            row["routes_agree"] = False
    elif kind == "wrong_factors":
        rows[61]["factors"] = [211]
    elif kind == "generator_value":
        rows[61]["generators"] = {"61": 3}  # the provenance's h_61 is 2
    elif kind == "generator_prime":
        rows[61]["generators"] = {"211": 2}
    elif kind == "missing_divisor":
        report["delta_table"].remove(rows[1])
    elif kind == "delta_out_of_range":
        rows[61]["delta"] = 9  # 4 mod 5, but not an element of Z/5
    elif kind == "notes":
        report["provenance"]["notes"].pop()
    elif kind == "sieve_m":
        report["m"] = 2  # 61, 211 and 281 are not 1 mod 25
    elif kind == "sieve_composite":
        report["sieved_primes"].append(286)  # 5 | 285: only the primality test refuses it
    elif kind == "sieve_generator":
        report["provenance"]["generators"]["61"] = 1  # 2 is the least primitive root
        for row in rows.values():
            if "61" in row["generators"]:
                row["generators"]["61"] = 1
    elif kind == "p_composite":
        report["p"] = 15  # without the odd-prime check, the sieve check refuses it at 281
    elif kind == "sieve_huge_m":
        report["m"] = 3_000_000  # refused without forming 5^m
    else:
        raise ValueError(kind)


# each `_corrupt` kind and the start of the alarm of the check that refuses it
REFUSED_BY = {
    "zero_minimal": "stored delta_minimal (61, 281) differs from the derived (281,)",
    # delta_1 != 0 makes d = 1 delta-minimal, which the re-derived parity refutes
    "nonzero_divisor": "parity alarm: w_E = -1 but a delta-minimal d has (-1)^nu = 1",
    "selmer_dim": "stored selmer_dim 3 differs from the derived 1",
    "upper_bound": "stored upper_bound 0 differs from the derived 1",
    "imc_witness": "stored imc_witness False differs from the derived True",
    "root_number": "parity alarm: w_E = 1 but a delta-minimal d has (-1)^nu = -1",
    "routes_disagree": "delta_1: routes_agree is False",
    "wrong_factors": "delta_61: factors [211] are not its sieved primes",
    "generator_value": "delta_61: generators {61: 3} are not the provenance's",
    "generator_prime": "delta_61: generators {211: 2} are not the provenance's",
    "missing_divisor": "no row for [1], proper divisors of 61",
    "delta_out_of_range": "delta_61 = 9 is not an element of Z/5^1",
    "notes": "stored notes differ from the derived notes",
    "sieve_m": "sieved prime 61: not a prime l <= 300 above 1 with 5^2 | l - 1",
    "sieve_composite": "sieved prime 286: not a prime l <= 300 above 281 with 5^1 | l - 1",
    "sieve_generator": "the provenance's generators are not the sieve's h_l",
    "sieve_huge_m": "sieved prime 61: not a prime l <= 300 above 1 with 5^3000000 | l - 1",
    "p_composite": "p = 15 is not an odd prime",
}


def _malform(report, kind):
    """Break the shape of the saved golden 37a1 report; returns the new object."""
    row = report["delta_table"][0]
    if kind == "no_delta_table":
        del report["delta_table"]
    elif kind == "p_not_int":
        report["p"] = "five"
    elif kind == "m_bool":
        report["m"] = True
    elif kind == "row_without_delta":
        del row["delta"]
    elif kind == "factors_not_ints":
        row["factors"] = [[61]]
    elif kind == "generator_key":
        row["generators"] = {"sixty-one": 2}
    elif kind == "duplicate_row":
        report["delta_table"].append(copy.deepcopy(row))
    elif kind == "not_an_object":
        return report["delta_table"]
    else:
        raise ValueError(kind)
    return report


class TestMalformedReport:
    # a report that lacks a field or has a mistyped one is a usage error
    # (exit 64) with a one-line message, not a traceback
    @pytest.mark.parametrize("where", ["report", "cache_hit"])
    @pytest.mark.parametrize("kind", [
        "no_delta_table", "p_not_int", "m_bool", "row_without_delta",
        "factors_not_ints", "generator_key", "duplicate_row", "not_an_object",
    ])
    def test_malformed_report_exits_64(self, saved_search, tmp_path, kind, where):
        cache_dir, saved = saved_search
        if where == "report":
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(_malform(copy.deepcopy(saved), kind)))
            argv = ["report", str(path)]
        else:
            work = tmp_path / "cache"
            shutil.copytree(cache_dir, work)
            malformed = 0
            for entry_path in work.iterdir():
                entry = json.loads(entry_path.read_text())
                if "delta_table" in entry["value"]:
                    entry["value"] = _malform(entry["value"], kind)
                    entry_path.write_text(json.dumps(entry))
                    malformed += 1
            assert malformed == 1
            argv = SEARCH_37 + ["--cache-dir", str(work)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 64
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""

    def test_report_not_json_exits_64(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text("curve 37a1, p = 5\n")
        assert main(["report", str(path)]) == 64
        assert "not a JSON report" in capsys.readouterr().err


class TestReverification:
    @pytest.mark.parametrize("optimize", [False, True], ids=["in_process", "python_O"])
    @pytest.mark.parametrize("where", ["report", "cache_hit"])
    @pytest.mark.parametrize("kind", list(REFUSED_BY))
    def test_broken_minimality_exits_3(self, saved_search, tmp_path, kind, where, optimize):
        cache_dir, saved = saved_search
        if where == "report":
            report = copy.deepcopy(saved)
            _corrupt(report, kind)
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(report))
            argv = ["report", str(path)]
        else:
            work = tmp_path / "cache"
            shutil.copytree(cache_dir, work)
            corrupted = 0
            for entry_path in work.iterdir():
                entry = json.loads(entry_path.read_text())
                if "delta_table" in entry["value"]:
                    _corrupt(entry["value"], kind)
                    entry_path.write_text(json.dumps(entry))
                    corrupted += 1
            assert corrupted == 1
            argv = SEARCH_37 + ["--cache-dir", str(work)]
        if optimize:
            # -O strips assert statements; the verifier must not rely on them
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "kurihara.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            code, err = proc.returncode, proc.stderr
        else:
            err_buf = io.StringIO()
            with contextlib.redirect_stderr(err_buf):
                code = main(argv)
            err = err_buf.getvalue()
        assert code == 3
        # the check meant for this corruption refuses it, not a later one
        assert f"CORRECTNESS ALARM: {REFUSED_BY[kind]}" in err

    def test_consistent_edit_caught_by_rewalk(self, saved_search, tmp_path, capsys):
        # delta_61 edited to 0 together with the conclusions: the report
        # re-derives, and only walking its rows again from the curve finds it
        report = copy.deepcopy(saved_search[1])
        for row in report["delta_table"]:
            if row["d"] == 61:
                row["delta"] = 0
        report["delta_minimal"] = [281]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path), "--curve", curve_path("37a1")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'d': 61" in captured.err and "'delta': 4" in captured.err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rewalk_keeps_the_golden_bytes(self, saved_search, tmp_path, capsys, fmt):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(saved_search[1]))
        outs = []
        for extra in ([], ["--curve", curve_path("37a1")]):
            assert main(["report", str(path), "--format", fmt] + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["other_curve", "relabelled", "sieved"])
    def test_rewalk_refuses_another_curve_or_sieve(self, saved_search, tmp_path, capsys, kind):
        report = copy.deepcopy(saved_search[1])
        curve = curve_path("11a1" if kind == "other_curve" else "37a1")
        if kind == "relabelled":
            report["curve"] = "37b1"
        elif kind == "sieved":
            report["sieved_primes"].append(311)  # a prime the sieve to 300 cannot give
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(report))
        code = main(["report", str(path), "--curve", curve])
        assert code == (3 if kind == "sieved" else 64)
        err = capsys.readouterr().err
        # 311 is above the prime bound, which `verify` refuses before any walk
        assert ("sieved prime 311" if kind == "sieved" else "is for curve") in err
