import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_gc_phases_smoke_theta_11a1():
    # the unmodified benchmark child under the collection hook: one JSON line
    # with the collections of generations 0, 1 and 2 in each phase
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ci", "gc_phases.py"), "--workload", "theta-11a1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["workload"] == "theta-11a1" and out["solve_s"] > 0
    phases = out["phases"]
    assert list(phases) == ["import+setup", "solve", "exit"]
    for counts in phases.values():
        assert len(counts) == 3 and all(type(c) is int and c >= 0 for c in counts)
    # importing the package allocates enough for a young collection
    assert phases["import+setup"][0] > 0


def test_gc_phases_usage():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ci", "gc_phases.py"), "--workload"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Usage" in proc.stderr


def test_compile_cost_smoke():
    # one JSON line: each module the benchmark child's imports load, with its
    # lines (as in the file) and a positive compile time, and the totals
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ci", "compile_cost.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    modules = out["modules"]
    assert out["repeat"] == 1
    assert set(modules) == {"kurihara"} | {
        f"kurihara.{name}" for name in (
            "curve", "errors", "exactmath", "kolyvagin", "lseries", "mazurtate", "modsym",
            "records", "search", "verifiers",
        )
    }
    for name, entry in modules.items():
        path = os.path.join(ROOT, "src", *name.split("."), "__init__.py")
        if not os.path.exists(path):
            path = os.path.join(ROOT, "src", *name.split(".")) + ".py"
        with open(path) as fh:
            assert entry["lines"] == len(fh.read().splitlines()), name
        assert entry["compile_s"] > 0
    assert out["total"]["lines"] == sum(m["lines"] for m in modules.values())
    bad = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ci", "compile_cost.py"), "--repeat", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert bad.returncode == 2 and "Usage" in bad.stderr
