"""Count the garbage collections of one benchmark run, per phase and generation.

Usage (from the repository root)::

    python ci/gc_phases.py --workload theta-11a1

Starts a fresh interpreter as ``perfbench/run.py`` starts its children
(``-S``, the checkout's ``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED=0``) on
this script with ``--child W``, which puts a ``gc.callbacks`` hook in place
and then execs the unmodified ``perfbench/child.py --workload W --seed 0
--trace 0``.  The hook stamps the
start of each collection with ``time.monotonic()``.  The child's own two
stamps, at the end of setup and at the end of solve, split the collections
into the phases ``import+setup``, ``solve`` and ``exit``.  Prints one JSON
line: the workload, the run's ``solve_s``, and per phase the number of
collections of generations 0, 1 and 2.

A collection of an older generation costs far more than one of generation 0,
and it lands in whichever phase reaches its threshold, so two trees whose
``solve_s`` is compared should show the same counts here.  The counts also
depend on whether the modules are compiled from source or read from a
bytecode cache (``PYTHONDONTWRITEBYTECODE`` and any ``__pycache__``), so
compare trees in the same state.  Standard library only.
"""

import gc
import sys
import time

PHASES = ("import+setup", "solve", "exit")


def _child(workload):
    """In the fresh interpreter: run child.py under the hook, then print the stamps."""
    stamps = []

    def hook(phase, info):
        if phase == "start":
            stamps.append((time.monotonic(), info["generation"]))

    path = "perfbench/child.py"
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    sys.argv = [path, "--workload", workload, "--seed", "0", "--trace", "0"]
    sys.path[0] = "perfbench"  # where `python perfbench/child.py` looks first
    gc.callbacks.append(hook)
    try:
        exec(code, {"__name__": "__main__", "__file__": path})
    except SystemExit:
        pass
    gc.callbacks.remove(hook)
    sys.stdout.write(repr(stamps) + "\n")


def count(workload):
    """{"workload", "solve_s", "phases": {phase: [gen 0, gen 1, gen 2]}} of one run."""
    import ast
    import json
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("KURIHARA_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-S", str(Path(__file__).resolve()), "--child", workload],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    result, stamps = proc.stdout.splitlines()
    result = json.loads(result)
    if "error" in result:
        raise RuntimeError(f"{workload}: {result['error']}")
    ends = (result["setup_end"], result["solve_end"])
    phases = {name: [0, 0, 0] for name in PHASES}
    for t, generation in ast.literal_eval(stamps):
        phases[PHASES[sum(t > end for end in ends)]][generation] += 1
    return {"workload": workload, "solve_s": ends[1] - ends[0], "phases": phases}


def main(argv):
    if len(argv) == 2 and argv[0] == "--child":
        _child(argv[1])
        return 0
    if len(argv) != 2 or argv[0] != "--workload":
        sys.stderr.write(__doc__)
        return 2
    import json

    print(json.dumps(count(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
