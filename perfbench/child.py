"""One timed run of one workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload search-37a1 --seed 0 --trace 0 [--run-id ID]

The run calls the package's public functions in the order
``kurihara.cli._dispatch`` uses for the equivalent command, with no cache and
``workers=1``, and reads the clock only between those top-level calls.  It
prints one JSON line: the ``time.monotonic()`` stamps at the end of setup and
at the end of solve (the parent holds the process start), the rendered text
the command would print, the process's peak RSS, and with ``--trace 1`` the
tracer's report.  An exception is reported in the line, not raised.
"""

import json
import resource
import sys
import time
import traceback

SEARCH_CURVE = "curves/37a1.json"
THETA_CURVE = "curves/11a1.json"
SIEVE_CURVE = "perfbench/5077a1.json"
SEARCH_PRIME_BOUND = 300
THETA_ARGS = {"d": 17, "n": 2, "p": 7, "m": 2}
SIEVE_BOUND = 2000


class Alarm(Exception):
    """The run reached a state the CLI reports with a non-zero exit code."""


def _import_package():
    import kurihara.curve
    import kurihara.exactmath
    import kurihara.kolyvagin
    import kurihara.lseries
    import kurihara.mazurtate
    import kurihara.modsym
    import kurihara.search
    import kurihara.verifiers

    return kurihara


# Each workload is (setup, solve): setup(K) returns the state solve needs,
# solve(K, state) returns the text `kurihara <command>` prints (less its
# final newline).  Both mirror kurihara.cli._dispatch for the command in
# CLI_ARGS.


def _setup_search(K):
    E = K.curve.load_curve(SEARCH_CURVE)
    require = K.curve.check_hypotheses(E, 5)
    if not require.passed:
        raise Alarm(f"hypotheses fail: {require.to_json()}")
    space = K.modsym.build_space(E.conductor)
    return K.modsym.extract_eigensymbol(space, E, calibrate=True)


def _solve_search(K, sym):
    report = K.search.find_delta_minimal(
        sym, 5, prime_bound=SEARCH_PRIME_BOUND, nu_max=2, m=1, exhaustive=False,
        workers=1,
    )
    report = K.search.selmer_report(report)
    K.search.attach_parity(report, sym, w_override=None)
    report.to_json()
    return report.to_text()


def _setup_theta(K):
    E = K.curve.load_curve(THETA_CURVE)
    space = K.modsym.build_space(E.conductor)
    return K.modsym.extract_eigensymbol(space, E, calibrate=True)


def _solve_theta(K, sym):
    # `kurihara selftest --coset-dim 3`, which loads no curve
    V = K.verifiers
    rep = V.verify_coset_lemma(3)
    fns, c, covered = V.span_two_covering_witness()
    cases = [
        {"name": f"coset_lemma_dim{k}", "status": "pass" if rep.ok else "fail",
         "instances": n}
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
    selftest = json.dumps({"suites": suites}, indent=1)
    if not (rep.ok and covered):
        raise Alarm("selftest reports a failure")
    # `kurihara theta --kind xi` on the curve set up above
    a = THETA_ARGS
    xi = K.mazurtate.xi_tilde(sym, a["d"], a["n"], a["p"], a["m"])
    return selftest + "\n" + json.dumps(xi.to_json())


def _setup_sieve(K):
    E = K.curve.load_curve(SIEVE_CURVE)
    rep = K.curve.check_hypotheses(E, 7)
    if not rep.passed:
        raise Alarm(f"hypotheses fail: {rep.to_json()}")
    return E


def _solve_sieve(K, E):
    primes = K.kolyvagin.sieve(E, 7, 1, 0, SIEVE_BOUND, workers=1)
    return "\n".join(
        f"l = {kp.ell}  h_l = {kp.generator}  |G_l| = {kp.p_part_order}"
        for kp in primes
    ) or "(none)"


WORKLOADS = {
    "search-37a1": (_setup_search, _solve_search),
    "theta-11a1": (_setup_theta, _solve_theta),
    "sieve-5077a1": (_setup_sieve, _solve_sieve),
}

# The equivalent `kurihara` command lines of each workload, run one after the
# other.
CLI_ARGS = {
    "search-37a1": [["search", "--curve", SEARCH_CURVE, "--p", "5",
                     "--prime-bound", str(SEARCH_PRIME_BOUND), "--nu-max", "2"]],
    "theta-11a1": [["selftest", "--coset-dim", "3"],
                   ["theta", "--curve", THETA_CURVE, "--kind", "xi"]
                   + [f"--{k}={v}" for k, v in THETA_ARGS.items()]],
    "sieve-5077a1": [["sieve", "--curve", SIEVE_CURVE, "--p", "7",
                      "--bound", str(SIEVE_BOUND)]],
}


def run(workload, seed, trace, run_id):
    """Setup and solve one workload; the result as a JSON-ready dict."""
    setup, solve = WORKLOADS[workload]
    out = {"workload": workload, "seed": seed, "trace": trace}
    tracer = None
    try:
        K = _import_package()
        if trace:
            from tracer import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        state = setup(K)
        out["setup_end"] = time.monotonic()
        out["output"] = solve(K, state)
        out["solve_end"] = time.monotonic()
    except Exception as exc:  # reported to the parent, which counts a failure
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["tracer"] = tracer.report()
    return out


def main(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    result = run(args["--workload"], int(args["--seed"]), args["--trace"] == "1",
                 args.get("--run-id", ""))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
