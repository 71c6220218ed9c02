"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
(a few seconds: each workload runs once untraced, once traced and once
through the ``kurihara`` CLI).
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from child import CLI_ARGS, WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())
SEED = 5


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced(request):
    """One untraced and one traced run of a workload."""
    workload = request.param
    samples = run.measure(workload, SEED, 0, trace=True)
    result, _ = run.summarize(True, samples)
    return workload, samples, result


def test_benchmark_json_matches_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (n, u, b) for n, u, b, _ in run.PER_LAYER] + [run.TRACE_OVERHEAD]
    predicted = {n for p in PREDICTIONS["predictions"] for n in p["per_layer"]}
    assert predicted <= {n for n, _, _, _ in run.PER_LAYER}


def test_traced_run_is_correct_and_identical(traced):
    workload, samples, result = traced
    assert result["correct"], [s["problems"] for s in samples]
    outputs = {s["output"] for s in samples}
    assert len(outputs) == 1  # traced output is byte-identical to untraced


def test_predicted_layers_are_measured(traced):
    """A wrapper missed in a by-name import would read zero here."""
    workload, samples, result = traced
    metrics = result["metrics"]
    assert set(metrics) == {n for n, _, _, _ in run.PER_LAYER} | {"trace.overhead_s"}
    for pred in PREDICTIONS["predictions"]:
        if workload in pred["on"]:
            for name in pred["per_layer"]:
                assert metrics[name]["value"] > 0, (workload, name)


def test_predicted_layer_leads(traced):
    workload, samples, result = traced
    metrics = result["metrics"]
    lead = PREDICTIONS["leads"][workload]
    if "function" in lead:
        selfs = {n[:-len(".self_s")]: m["value"] for n, m in metrics.items()
                 if n.endswith(".self_s") and not n.startswith("layer.")}
        assert max(selfs, key=selfs.get) == lead["function"]
    else:
        layers = {n.split(".")[1]: m["value"] for n, m in metrics.items()
                  if n.startswith("layer.")}
        ahead = sum(layers[x] for x in lead["layers"])
        assert all(ahead > v for x, v in layers.items() if x not in lead["layers"])


def test_cli_prints_what_the_benchmark_renders(traced):
    workload, samples, _ = traced
    out = "".join(
        subprocess.run(
            [sys.executable, "-m", "kurihara.cli"] + args, cwd=run.ROOT,
            env=run.child_env(), capture_output=True, text=True, check=True,
        ).stdout
        for args in CLI_ARGS[workload]
    )
    assert out == samples[0]["output"] + "\n"


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    monkeypatch.setattr(checks, "SIEVE_PREFIX", [113, 211, 463, 547, 677])
    samples = run.measure("sieve-5077a1", SEED, 0, trace=False)
    result, _ = run.summarize(False, samples)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


# altered copies of a correct output, which the checks must reject
MUTATIONS = {
    "search-37a1": [
        lambda t: t.replace("Selmer dimension: 1", "Selmer dimension: 2"),
        lambda t: t.replace("routes_agree=True", "routes_agree=False", 1),
        lambda t: t.replace("delta_211 = 0", "delta_211 = 1"),
        lambda t: t.replace("routes_agree=True) *\n", "routes_agree=True)\n", 1),
        lambda t: t.replace("parity: pass", "parity: fail"),
        lambda t: t + "\n",
    ],
    "theta-11a1": [
        lambda t: t.replace('"instances": 25272', '"instances": 25271'),
        lambda t: t.replace('"status": "pass"', '"status": "fail"', 1),
        lambda t: t.replace("[[0, 0], 33]", "[[0, 0], 34]"),
        lambda t: t.replace('"group": [42, 16]', '"group": [42, 17]'),
        lambda t: t.replace("[[0, 1], 14], ", ""),
    ],
    "sieve-5077a1": [
        lambda t: t.replace("h_l = 3", "h_l = 9", 1),
        lambda t: t.replace("|G_l| = 7", "|G_l| = 49", 1),
        lambda t: t.rsplit("\n", 1)[0],
        lambda t: t.replace("l = 113 ", "l = 127 "),
        lambda t: t.replace("l = 757  h_l = 2  |G_l| = 7\n", ""),
    ],
}


def test_checks_reject_wrong_output(traced):
    workload, samples, _ = traced
    good = samples[0]["output"]
    assert checks.CHECKS[workload](good) == []
    for i, bad in enumerate(MUTATIONS[workload]):
        assert bad(good) != good, i
        assert checks.CHECKS[workload](bad(good)) != [], i


def test_tracer_wraps_every_binding(monkeypatch):
    """Names bound by `from .x import f` are wrapped where they are bound."""
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    import child
    import tracer

    K = child._import_package()
    originals = {name: getattr(getattr(K, mod), attr)
                 for mod, attr, name, _, _ in tracer.FUNCTIONS}
    tracer.Tracer("test").install()
    modules = [m for n, m in sys.modules.items() if n.startswith("kurihara")]
    for name, fn in originals.items():
        assert not [m.__name__ for m in modules if fn in vars(m).values()], name
    assert K.mazurtate.eval_plus is K.modsym.eval_plus
    assert K.verifiers.vartheta.__wrapped__ is originals["mazurtate.vartheta"]
    assert K.search.kurihara_number_direct.__wrapped__ is originals["kolyvagin.direct"]


def test_child_env_drops_cache_dir(monkeypatch):
    monkeypatch.setenv("KURIHARA_CACHE_DIR", "somewhere")
    env = run.child_env()
    assert "KURIHARA_CACHE_DIR" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "sieve-5077a1", "--seed", "0",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
