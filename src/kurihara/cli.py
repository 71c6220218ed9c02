"""Command-line front end.

Subcommands: check, sieve, theta, delta, search, report, selftest.
Exit codes: 0 success, 2 search exhausted, 3 correctness alarm,
64 usage error, 65 hypothesis failure.
"""

import argparse
import json
import math
import os
import sys

from .curve import check_hypotheses, load_curve, require_hypotheses
from .errors import (
    BadReport,
    CorrectnessAlarm,
    HypothesisViolation,
    IdentityFailure,
    KuriharaError,
    SearchExhausted,
    UsageError,
)
from .exactmath import ResidueRing, is_prime
from .kolyvagin import sieve
from .mazurtate import theta, vartheta, xi_tilde
from .modsym import build_space, extract_eigensymbol
from .records import replace
from .verifiers import span_two_covering_witness, run_identity_suite, verify_coset_lemma
from .search import DeltaReport, attach_parity, delta_row, find_delta_minimal, selmer_report

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_ALARM = 3
EXIT_USAGE = 64
EXIT_HYPOTHESIS = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(ok, want):
    """argparse type: an integer for which ok(value) holds."""
    def integer(text):
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {value}")
        return value
    return integer


_POSITIVE = _checked(lambda v: v >= 1, "a positive integer")
_NONNEGATIVE = _checked(lambda v: v >= 0, "a nonnegative integer")
_ODD_PRIME = _checked(lambda v: v >= 3 and is_prime(v), "an odd prime")


def _parser():
    # allow_abbrev=False everywhere: an option a command lacks is never read
    # as a longer one it has
    common = _Parser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("json", "text"), default="text")

    p = _Parser(prog="kurihara", allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, summary):
        return sub.add_parser(name, parents=[common], help=summary, allow_abbrev=False)

    def curve_opts(sp, *read):
        # --m, --n, --assert-surjective, --no-assume-optimal: only those read
        sp.add_argument("--curve", required=True, help="curve JSON file")
        sp.add_argument("--p", type=_ODD_PRIME, required=True)
        if "m" in read:
            sp.add_argument("--m", type=_POSITIVE, default=1)
        if "n" in read:
            sp.add_argument("--n", type=_NONNEGATIVE, default=0)
        if "assert_surjective" in read:
            sp.add_argument(
                "--assert-surjective", action="store_true",
                help="assert mod-p surjectivity for this p (hypothesis (b))",
            )
        if "assume_optimal" in read:
            sp.add_argument(
                "--no-assume-optimal", dest="assume_optimal", action="store_false",
                help="do not assert Gamma0(N)-optimality; skips calibration",
            )

    sp = command("check", "hypothesis report for (E, p)")
    curve_opts(sp, "assert_surjective")

    sp = command("sieve", "list Kolyvagin primes")
    curve_opts(sp, "m", "n", "assert_surjective")
    sp.add_argument("--bound", type=_POSITIVE, default=10**4)

    sp = command("theta", "dump theta / vartheta / xi elements")
    curve_opts(sp, "m", "n", "assume_optimal")
    sp.add_argument("--d", type=_POSITIVE, default=1)
    sp.add_argument("--kind", choices=("theta", "vartheta", "xi"), default="theta")

    sp = command("delta", "a single Kurihara number")
    curve_opts(sp, "m", "n", "assert_surjective", "assume_optimal")
    sp.add_argument("--d", type=_POSITIVE, default=1)
    sp.add_argument("--bound", type=_POSITIVE, default=10**4)

    sp = command("search", "full delta-minimal search and report")
    curve_opts(sp, "m", "assert_surjective", "assume_optimal")
    # the one command with a cache: a finished search is worth keeping
    sp.add_argument("--cache-dir", default=os.environ.get("KURIHARA_CACHE_DIR"))
    sp.add_argument("--prime-bound", type=_POSITIVE, default=10**4)
    sp.add_argument("--nu-max", type=_NONNEGATIVE, default=3)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--root-number", type=int, choices=(1, -1), default=None)

    sp = command("report", "re-render and re-verify a saved report")
    sp.add_argument("path")
    sp.add_argument("--curve", help="curve JSON file: walk every row of the report again")

    sp = command("selftest", "exhaustive verifiers and identity suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coset-dim", type=int, choices=(3, 4), default=3)
    sp.add_argument("--curve", default=None)
    sp.add_argument("--p", type=_ODD_PRIME, default=None)
    sp.add_argument("--grid", type=_POSITIVE, default=60, help="d*l bound for the identity suite")
    return p


def _check_m(p, m):
    """Refuse an m whose residues mod p^m have more digits than str() takes
    (judged by m log10 p, so that a large p^m is never formed)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and (m * math.log10(p) > limit + 1 or p**m > 10**limit):
        raise UsageError(f"--m {m} is too large for p = {p}: residues mod {p}^{m} have"
                         f" more than {limit} digits, Python's limit for printing an integer")


def _emit(args, obj, text):
    if args.format == "json":
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        print(text)


def _load_curve(args):
    E = load_curve(args.curve)
    if getattr(args, "assert_surjective", False) and args.p not in E.mod_p_surjective:
        E = replace(E, mod_p_surjective=tuple(E.mod_p_surjective) + (args.p,))
    return E


def _load_symbol(E, calibrate):
    """The eigensymbol of E, extracted afresh: a stored one would have to run
    both eigenline chains again to be certified, which is most of the work."""
    return extract_eigensymbol(build_space(E.conductor), E, calibrate=calibrate)


def _verified_report(obj):
    """A saved report, refused unless its conclusions re-derive.

    A malformed report is BadReport (exit 64), a well-formed one whose
    conclusions do not follow from its table CorrectnessAlarm (exit 3).
    """
    report = DeltaReport.from_json(obj)
    report.verify()
    return report


def _rewalk(report, curve_path):
    """Refuse a verified report whose rows the curve does not give.

    The curve must be the report's: its name (label, or a-invariants) is the
    report's `curve`, or BadReport.  The sieve to the report's prime bound
    must give its sieved primes, and the symbol, rebuilt with the report's
    calibration, its calibration unit.  Each row is then walked again by
    `delta_row`; a stored row that differs is CorrectnessAlarm.
    """
    E = load_curve(curve_path)
    if str(E) != report.curve:
        raise BadReport(f"the report is for curve {report.curve}, not {E}")
    calibration = report.provenance.get("calibration")
    if type(calibration) is not dict:
        raise BadReport("the report's provenance has no calibration object")
    p, m = report.p, report.m
    primes = sieve(E, p, m, 0, report.prime_bound)
    sieved = [kp.ell for kp in primes]
    if tuple(sieved) != report.sieved:
        raise CorrectnessAlarm(
            f"stored sieved primes {list(report.sieved)} differ from the sieve's {sieved}"
        )
    sym = _load_symbol(E, calibration.get("status") == "calibrated")
    derived = {"status": sym.calibration_status, "unit": str(sym.calibration_unit)}
    if derived != calibration:
        raise CorrectnessAlarm(f"stored calibration {calibration} differs from the curve's {derived}")
    registry = {kp.ell: kp for kp in primes}
    ring = ResidueRing(p, m)
    for d, stored in sorted(report.table.items()):
        row = delta_row(sym, d, ring, registry)
        if row != stored:
            raise CorrectnessAlarm(
                f"stored row {stored.to_json()} differs from the walked {row.to_json()}"
            )


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "selftest" and (args.curve is None) != (args.p is None):
        parser.error("selftest: --curve and --p go together (the identity suite needs both)")
    try:
        return _dispatch(args)
    except HypothesisViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(json.dumps(exc.report.to_json(), indent=1, sort_keys=True))
        return EXIT_EXHAUSTED
    except (CorrectnessAlarm, IdentityFailure) as exc:
        print(f"CORRECTNESS ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM
    except KuriharaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args):
    cmd = args.command
    if cmd == "selftest":
        rep = verify_coset_lemma(args.coset_dim)
        fns, c, covered = span_two_covering_witness()
        cases = [
            {
                "name": f"coset_lemma_dim{k}",
                "status": "pass" if rep.ok else "fail",
                "instances": n,
            }
            for k, n in rep.instances.items()
        ]
        cases.append({
            "name": "span2_span_two_covering_witness",
            "status": "pass" if covered else "fail",
            "witness": {"functionals": fns, "values": list(c)},
        })
        suites = [{
            "name": "coset_verifier",
            "tests": len(cases),
            "failures": sum(1 for case in cases if case["status"] == "fail"),
            "cases": cases,
        }]
        if args.curve is not None:
            sym = _load_symbol(load_curve(args.curve), True)
            suite = run_identity_suite(sym, args.p, d_ell_max=args.grid, seed=args.seed)
            suites.append(suite.to_json())
        out = {"suites": suites}
        _emit(args, out, json.dumps(out, indent=1))
        return EXIT_OK if rep.ok and covered else EXIT_ALARM

    if cmd == "report":
        with open(args.path) as f:
            try:
                obj = json.load(f)
            except ValueError as exc:  # not JSON, or not text
                raise BadReport(f"{args.path}: not a JSON report: {exc}") from exc
        report = _verified_report(obj)
        if args.curve is not None:
            _rewalk(report, args.curve)
        _emit(args, report.to_json(), report.to_text())
        return EXIT_OK

    if getattr(args, "m", None) is not None:
        _check_m(args.p, args.m)
    E = _load_curve(args)

    if cmd == "check":
        rep = check_hypotheses(E, args.p)
        _emit(args, rep.to_json(), _hypothesis_text(E, rep))
        return EXIT_OK if rep.passed else EXIT_HYPOTHESIS

    if cmd == "sieve":
        require_hypotheses(E, args.p)
        primes = sieve(E, args.p, args.m, args.n, args.bound)
        out = [
            {"ell": kp.ell, "generator": kp.generator, "p_part": kp.p_part_order}
            for kp in primes
        ]
        _emit(args, out, "\n".join(
            f"l = {kp.ell}  h_l = {kp.generator}  |G_l| = {kp.p_part_order}"
            for kp in primes
        ) or "(none)")
        return EXIT_OK

    if cmd == "theta":
        sym = _load_symbol(E, args.assume_optimal)
        if args.kind == "theta":
            el = theta(sym, args.d, args.n, args.p)
        elif args.kind == "vartheta":
            el = vartheta(sym, args.d, args.n, args.p, args.m)
        else:
            el = xi_tilde(sym, args.d, args.n, args.p, args.m)
        obj = el.to_json()
        _emit(args, obj, json.dumps(obj))
        return EXIT_OK

    if cmd == "delta":
        require_hypotheses(E, args.p)
        sym = _load_symbol(E, args.assume_optimal)
        primes = sieve(E, args.p, args.m, args.n, args.bound)
        registry = {kp.ell: kp for kp in primes}
        row = delta_row(sym, args.d, ResidueRing(args.p, args.m), registry)
        # the reported value is the direct route's, checked against the other two
        obj = dict(row.to_json(), route="direct")
        _emit(args, obj, f"delta_{args.d} = {row.delta} (mod {args.p}^{args.m}),"
                         f" routes_agree={row.routes_agree}")
        return EXIT_OK

    if cmd == "search":
        require_hypotheses(E, args.p)
        cache = obj = None
        if args.cache_dir:
            from .cache import JsonCache  # hashlib and tempfile load only with a cache

            cache = JsonCache(args.cache_dir)
            # every input of the report and nothing computed from them, so
            # that a hit does no modular-symbol work
            key = cache.key(
                "search",
                {
                    "curve": {name: getattr(E, name) for name in E.__record_fields__},
                    "assume_optimal": args.assume_optimal, "p": args.p, "m": args.m,
                    "prime_bound": args.prime_bound, "nu_max": args.nu_max,
                    "exhaustive": args.exhaustive, "root_number": args.root_number,
                },
            )
            obj = cache.get(key)
        if obj is None:
            sym = _load_symbol(E, args.assume_optimal)
            report = find_delta_minimal(
                sym,
                args.p,
                prime_bound=args.prime_bound,
                nu_max=args.nu_max,
                m=args.m,
                exhaustive=args.exhaustive,
            )
            report = selmer_report(report)
            attach_parity(report, sym, w_override=args.root_number)
        else:
            report = _verified_report(obj)
        out = report.to_json()
        _emit(args, out, report.to_text())
        if cache and obj is None:
            # after the report is printed, so that a failed write (a full
            # disk, a read-only directory) loses no finished search
            cache.put(key, out)
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")


def _hypothesis_text(E, rep):
    lines = [f"curve {E}, p = {rep.p}:"]
    lines.append(f"  (a) good ordinary: {'ok' if rep.ordinary else 'FAIL'} (a_p = {rep.ap})")
    lines.append(f"  (c) p | #E(F_p): {'ok' if rep.points_ok else 'FAIL'}")
    lines.append(f"  (c) p | Tamagawa: {'ok' if rep.tamagawa_ok else 'FAIL'}")
    lines.append(f"  (b) mod-p surjectivity: {rep.surjectivity}")
    lines.append(f"  overall: {'pass' if rep.passed else 'fail'}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
