"""Lines and compile time of the modules a benchmark run loads.

Usage (from the repository root)::

    python ci/compile_cost.py [--repeat N]

Imports ``kurihara.{curve,exactmath,kolyvagin,lseries,mazurtate,modsym,search,
verifiers}``, as ``perfbench/child.py`` does, without writing bytecode, and
lists every ``kurihara`` module that import loaded.  Each module's source is
then compiled with ``compile()`` N times (default 7) and the fastest time
kept.  A benchmark child compiles these modules from source on every sample
(``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``), so their lines are a
start-up cost of every workload, at a few microseconds a line.  Prints one
JSON line: per module its lines and best compile time in seconds, and the
totals.  Standard library only.
"""

import importlib
import json
import sys
import time
from pathlib import Path

CHILD_IMPORTS = (
    "curve", "exactmath", "kolyvagin", "lseries", "mazurtate", "modsym", "search", "verifiers",
)


def measure(repeat):
    """{"repeat", "modules": {name: {"lines", "compile_s"}}, "total": {...}}."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for name in CHILD_IMPORTS:
        importlib.import_module(f"kurihara.{name}")
    modules = {}
    for name in sorted(n for n in sys.modules if n == "kurihara" or n.startswith("kurihara.")):
        path = sys.modules[name].__file__
        source = Path(path).read_text()
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            compile(source, path, "exec")
            best = min(best, time.perf_counter() - t0)
        modules[name] = {"lines": len(source.splitlines()), "compile_s": round(best, 6)}
    total = {
        "lines": sum(m["lines"] for m in modules.values()),
        "compile_s": round(sum(m["compile_s"] for m in modules.values()), 6),
    }
    return {"repeat": repeat, "modules": modules, "total": total}


def main(argv):
    if argv and (len(argv) != 2 or argv[0] != "--repeat" or not argv[1].isdecimal()
                 or int(argv[1]) < 1):
        sys.stderr.write(__doc__)
        return 2
    print(json.dumps(measure(int(argv[1]) if argv else 7)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
