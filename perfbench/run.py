"""Benchmark of the kurihara package, measured from outside the package.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-37a1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Each run of a workload is a fresh single-threaded interpreter
(``perfbench/child.py``) that calls the package's public API the way the
equivalent ``kurihara`` command does, with no cache and ``workers=1``.  Runs
repeat until ``--seconds`` is used up (at least one).  Wall, solve and CPU
time are reported as the fastest run, set-up time and memory as medians (see
``fastest`` below).  With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics of traced runs (``perfbench/tracer.py``)
interleaved with untraced ones.  Every run's rendered output is checked
(``perfbench/checks.py``); a run that raises, alarms or fails its check counts
as failed.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  All
samples, the environment and the spans of one traced run are written to
``.perfbench_out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS
from child import SEARCH_CURVE, SIEVE_CURVE, THETA_CURVE, WORKLOADS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _stat(rep, name, i):
    return rep["stats"].get(name, (0, 0.0, 0.0))[i]


def _calls(name):
    return lambda rep: _stat(rep, name, 0)


def _total(name):
    return lambda rep: _stat(rep, name, 1)


def _self(name):
    return lambda rep: _stat(rep, name, 2)


def _distinct(name):
    return lambda rep: rep["distinct"].get(name, 0)


def _count(name):
    return lambda rep: rep["counts"].get(name, 0)


def _ratio(num, den):
    def value(rep):
        d = den(rep)
        return num(rep) / d if d else 0.0
    return value


def _repeat_ratio(name):
    """1 - distinct/calls: the share of calls that repeat an earlier argument."""
    share = _ratio(_distinct(name), _calls(name))
    return lambda rep: 1.0 - share(rep) if _calls(name)(rep) else 0.0


def _layer_self(layer):
    return lambda rep: sum(v[2] for n, v in rep["stats"].items()
                           if n.split(".")[0] == layer)


# (metric, unit, better, value from a tracer report)
PER_LAYER = [
    ("modsym.build_space.s", "s", "lower", _total("modsym.build_space")),
    ("modsym.p1_size", "count", "lower", _count("modsym.p1_size")),
    ("modsym.relations", "count", "lower", _count("modsym.relations")),
    ("modsym.dim", "count", "lower", _count("modsym.dim")),
    ("modsym.hecke_full.calls", "count", "lower", _calls("modsym.hecke_full")),
    ("modsym.hecke_full.self_s", "s", "lower", _self("modsym.hecke_full")),
    ("modsym.extract_eigensymbol.self_s", "s", "lower",
     _self("modsym.extract_eigensymbol")),
    ("lseries.lratio.s", "s", "lower", _total("lseries.lratio")),
    ("modsym.eval_plus.calls", "count", "lower", _calls("modsym.eval_plus")),
    ("modsym.eval_plus.distinct", "count", "lower", _distinct("modsym.eval_plus")),
    ("modsym.eval_plus.repeat_ratio", "ratio", "lower", _repeat_ratio("modsym.eval_plus")),
    ("modsym.eval_plus.self_s", "s", "lower", _self("modsym.eval_plus")),
    ("kolyvagin.direct.calls", "count", "lower", _calls("kolyvagin.direct")),
    ("kolyvagin.direct.self_s", "s", "lower", _self("kolyvagin.direct")),
    ("kolyvagin.via_ed.calls", "count", "lower", _calls("kolyvagin.via_ed")),
    ("kolyvagin.via_ed.self_s", "s", "lower", _self("kolyvagin.via_ed")),
    ("kolyvagin.derivative.calls", "count", "lower", _calls("kolyvagin.derivative")),
    ("kolyvagin.derivative.self_s", "s", "lower", _self("kolyvagin.derivative")),
    ("search.rows", "count", "higher", _count("search.rows")),
    ("search.find_delta_minimal.self_s", "s", "lower",
     _self("search.find_delta_minimal")),
    ("exactmath.group_ring_mul.calls", "count", "lower",
     _calls("exactmath.group_ring_mul")),
    ("exactmath.group_ring_mul.self_s", "s", "lower", _self("exactmath.group_ring_mul")),
    ("mazurtate.theta.calls", "count", "lower", _calls("mazurtate.theta")),
    ("mazurtate.theta.distinct", "count", "lower", _distinct("mazurtate.theta")),
    ("mazurtate.theta.self_s", "s", "lower", _self("mazurtate.theta")),
    ("mazurtate.vartheta.calls", "count", "lower", _calls("mazurtate.vartheta")),
    ("mazurtate.vartheta.distinct", "count", "lower", _distinct("mazurtate.vartheta")),
    ("mazurtate.vartheta.self_s", "s", "lower", _self("mazurtate.vartheta")),
    ("mazurtate.xi_tilde.calls", "count", "lower", _calls("mazurtate.xi_tilde")),
    ("mazurtate.xi_tilde.distinct", "count", "lower", _distinct("mazurtate.xi_tilde")),
    ("mazurtate.xi_tilde.self_s", "s", "lower", _self("mazurtate.xi_tilde")),
    ("exactmath.unit_reduction.calls", "count", "lower",
     _calls("exactmath.unit_reduction")),
    ("exactmath.unit_reduction.distinct", "count", "lower",
     _distinct("exactmath.unit_reduction")),
    ("exactmath.unit_reduction.self_s", "s", "lower", _self("exactmath.unit_reduction")),
    ("exactmath.norm_map.self_s", "s", "lower", _self("exactmath.norm_map")),
    ("verifiers.verify_coset_lemma.s", "s", "lower", _total("verifiers.verify_coset_lemma")),
    ("verifiers.coset_instances", "count", "higher", _count("verifiers.coset_instances")),
    ("curve.count_points.calls", "count", "lower", _calls("curve.count_points")),
    ("curve.count_points.self_s", "s", "lower", _self("curve.count_points")),
    ("curve.p_torsion_structure.calls", "count", "lower",
     _calls("curve.p_torsion_structure")),
    ("curve.p_torsion_structure.self_s", "s", "lower", _self("curve.p_torsion_structure")),
    ("kolyvagin.sieve.s", "s", "lower", _total("kolyvagin.sieve")),
    ("kolyvagin.sieve.candidates", "count", "lower", _calls("kolyvagin.predicate")),
    ("kolyvagin.sieve.accepted", "count", "higher", _count("kolyvagin.sieve.accepted")),
    ("kolyvagin.sieve.accept_ratio", "ratio", "higher",
     _ratio(_count("kolyvagin.sieve.accepted"), _calls("kolyvagin.predicate"))),
    ("curve.check_hypotheses.calls", "count", "lower", _calls("curve.check_hypotheses")),
    ("curve.check_hypotheses.s", "s", "lower", _total("curve.check_hypotheses")),
] + [
    (f"layer.{layer}.self_s", "s", "lower", _layer_self(layer))
    for layer in LAYERS
]
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def child_env():
    """The environment of a run: the checkout's sources, no cache directory,
    and a fixed hash seed so that set and dict order repeat from run to run."""
    env = dict(os.environ)
    env.pop("KURIHARA_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, trace, run_id, env, deadline, checked):
    """One fresh interpreter; a sample dict with timings, output and problems.

    `checked` maps each output already checked to its problems: a run repeats
    its output, so each distinct text is checked once.  The interpreter starts
    with -S: the package needs only the standard library, and skipping
    site-packages keeps their start-up hooks out of every sample.
    """
    cmd = [sys.executable, "-S", str(CHILD), "--workload", workload, "--seed",
           str(seed), "--trace", "1" if trace else "0", "--run-id", run_id]
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        if proc.returncode is None:  # timed out, or this process is exiting
            proc.kill()
            proc.communicate()
    if stdout is None:
        return {"run_id": run_id, "trace": trace,
                "elapsed_s": time.monotonic() - t_spawn, "problems": ["timed out"]}
    t_end = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sample = {"run_id": run_id, "trace": trace, "elapsed_s": t_end - t_spawn,
              "returncode": proc.returncode, "problems": []}
    try:
        res = json.loads(stdout.decode().strip().split("\n")[-1])
    except (ValueError, IndexError):
        sample["problems"].append(f"no result line (exit {proc.returncode})")
        return sample
    if proc.returncode != 0:
        sample["problems"].append(f"exit {proc.returncode}")
    if "error" in res:
        sample["problems"].append(res["error"])
        sample["traceback"] = res.get("traceback")
        return sample
    sample.update(
        setup_s=res["setup_end"] - t_spawn,
        wall_s=t_end - t_spawn,
        solve_s=res["solve_end"] - res["setup_end"],
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=res["peak_rss_kb"] / 1024,
        output=res["output"],
    )
    if res["output"] not in checked:
        checked[res["output"]] = CHECKS[workload](res["output"])
    sample["problems"] += checked[res["output"]]
    if trace:
        sample["tracer"] = res["tracer"]
    return sample


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit,
    }


def measure(workload, seed, seconds, trace):
    """Run `workload` for `seconds` (at least once); the list of samples.

    The first run warms the file cache and the bytecode: it is checked like
    the others, but its times are not used.
    """
    env = child_env()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    samples = []
    checked = {}

    def child(traced):
        run_id = f"{workload}-s{seed}-{len(samples)}"
        sample = run_child(workload, seed, traced, run_id, env, deadline, checked)
        sample["warmup"] = not samples
        samples.append(sample)
        return not sample["problems"]

    def longest(traced):
        return max((s["elapsed_s"] for s in samples if s["trace"] == traced),
                   default=0.0)

    def fits(est):
        return time.monotonic() - start + est <= seconds

    # a failed run stops the measurement: the program will not get better
    if not child(False):
        return samples
    if trace:
        # untraced and traced runs alternate, at least one traced
        while child(True) and fits(longest(False) + longest(True)) and child(False):
            pass
    else:
        while fits(longest(False)) and child(False):
            pass
    return samples


def fastest(values):
    """The shortest of a run's times.

    The program is deterministic and single-threaded, so a run only gets
    slower than its own cost when something else holds the processor or its
    caches; on a shared host that happens in bursts of seconds.  The fastest
    of many short runs is the cost with the least of that added, and repeats
    from run to run where the median does not.
    """
    return min(values) if values else None


def _median(values):
    return statistics.median(values) if values else None


def _high(values):
    """The highest percentile with at least ten samples beyond it, as (p, value)."""
    values = sorted(values)
    for p in (99, 95, 90, 75):
        k = math.ceil(len(values) * p / 100) - 1
        if len(values) - 1 - k >= 10:
            return p, values[k]
    return None


# the statistic of each end-to-end metric over a run's timed samples
STATISTIC = {"wall_s": fastest, "setup_s": _median, "solve_s": fastest,
             "cpu_s": fastest, "peak_rss_mb": _median}


def summarize(trace, samples):
    """The result line of a run, and the timed samples behind it."""
    ok = [s for s in samples if not s["problems"]]
    untraced = [s for s in ok if not s["trace"]]
    untraced = [s for s in untraced if not s["warmup"]] or untraced
    traced = [s for s in ok if s["trace"]]
    failed = len(samples) - len(ok)
    # the traced output must be byte-identical to the untraced output
    if ok:
        for s in traced:
            if s["output"] != ok[0]["output"]:
                s["problems"].append("traced output differs from untraced output")
                failed += 1
        traced = [s for s in traced if not s["problems"]]
    metrics = {}
    if trace and traced and untraced:
        for name, unit, _, value in PER_LAYER:
            # the lower median keeps call counts whole
            v = statistics.median_low([value(s["tracer"]) for s in traced])
            metrics[name] = {"value": v, "unit": unit}
        metrics[TRACE_OVERHEAD[0]] = {
            "value": fastest([s["wall_s"] for s in traced])
            - fastest([s["wall_s"] for s in untraced]),
            "unit": "s",
        }
    elif not trace and untraced:
        for name, unit in END_TO_END:
            value = STATISTIC[name]([s[name] for s in untraced])
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }, untraced


def write_out(workload, seed, seconds, trace, samples, result, env_info):
    OUT_DIR.mkdir(exist_ok=True)
    first_traced = next((s for s in samples if s["trace"] and "tracer" in s), None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "result": result,
        "samples": [{k: v for k, v in s.items() if k not in ("output", "tracer")}
                    for s in samples],
    }
    if first_traced is not None:
        rep = first_traced["tracer"]
        record["trace_stats"] = rep["stats"]
        record["trace_distinct"] = rep["distinct"]
        record["trace_counts"] = rep["counts"]
        record["spans"] = rep["spans"]
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record))


def print_human(workload, result, timed, samples, env_info):
    print(f"== {workload}: python {env_info['python']}, nproc {env_info['nproc']}, "
          f"loadavg {env_info['loadavg'][0]:.2f}, commit {env_info['commit']}")
    for name, m in result["metrics"].items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if name in STATISTIC:
            values = [s[name] for s in timed]
            line += f"  ({STATISTIC[name].__name__.strip('_')} of {len(values)}"
            if STATISTIC[name] is not _median:
                line += f"; median {_median(values):.6g}"
            high = _high(values)
            if high:
                line += f"; p{high[0]} {high[1]:.6g}"
            line += ")"
        print(line)
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    for s in samples:
        for p in s["problems"]:
            print(f"  FAILED {s['run_id']}: {p}")
    if result["metrics"] and any(s["trace"] for s in samples):
        selfs = {n: m["value"] for n, m in result["metrics"].items()
                 if n.endswith(".self_s") and not n.startswith("layer.")}
        top = sorted(selfs, key=selfs.get, reverse=True)[:3]
        print("  top self time: " + ", ".join(f"{n} {selfs[n]:.3g} s" for n in top))


def bench(workload, seed, seconds, trace):
    env_info = environment()
    samples = measure(workload, seed, seconds, trace)
    result, timed = summarize(trace, samples)
    write_out(workload, seed, seconds, trace, samples, result, env_info)
    print_human(workload, result, timed, samples, env_info)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in ("src/kurihara/__init__.py", SEARCH_CURVE, THETA_CURVE,
                           SIEVE_CURVE) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a kurihara checkout, missing {missing}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
