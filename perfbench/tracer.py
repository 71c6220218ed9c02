"""Per-layer tracing of the kurihara package from outside.

The tracer replaces public functions of the package with timing wrappers, in
the namespace of every kurihara module that binds them by name (so a
function imported with ``from .modsym import eval_plus`` is wrapped where it
is called), and wraps two methods on their classes.  Nothing under ``src/``
changes.

Two kinds of wrapped call:

* coarse calls get a span ``[name, start, end, parent, run_id]``, where
  ``parent`` is the index of the enclosing span (or -1);
* hot leaves (called up to about a million times per run) only aggregate
  their count and time in place.

Every wrapped call adds to ``stats[name] = [calls, total_s, self_s]``.  Self
time is the call's duration minus the time covered by wrapped calls made
inside it.  Everything stays in memory until ``report()``.
"""

import sys
from time import perf_counter

# (module, attribute, metric name, hot, key of the arguments for .distinct)
FUNCTIONS = (
    ("curve", "load_curve", "curve.load_curve", False, None),
    ("curve", "check_hypotheses", "curve.check_hypotheses", False, None),
    ("curve", "count_points", "curve.count_points", True, None),
    ("curve", "p_torsion_structure", "curve.p_torsion_structure", False, None),
    ("lseries", "lratio", "lseries.lratio", False, None),
    ("modsym", "build_space", "modsym.build_space", False, None),
    ("modsym", "extract_eigensymbol", "modsym.extract_eigensymbol", False, None),
    ("modsym", "eval_plus", "modsym.eval_plus", True,
     lambda symbol, a, d: (a, d)),
    ("modsym", "fricke_eigenvalue", "modsym.fricke_eigenvalue", False, None),
    ("kolyvagin", "sieve", "kolyvagin.sieve", False, None),
    ("kolyvagin", "kolyvagin_predicate", "kolyvagin.predicate", False, None),
    ("kolyvagin", "kurihara_number_direct", "kolyvagin.direct", False, None),
    ("kolyvagin", "kurihara_number_via_ed", "kolyvagin.via_ed", False, None),
    ("kolyvagin", "derivative_data", "kolyvagin.derivative", False, None),
    ("mazurtate", "theta", "mazurtate.theta", True,
     lambda symbol, d, n=0, p=None: (d, n, p)),
    ("mazurtate", "vartheta", "mazurtate.vartheta", False,
     lambda symbol, d, n, p, m: (d, n, p, m)),
    ("mazurtate", "xi_tilde", "mazurtate.xi_tilde", False,
     lambda symbol, d, n, p, m: (d, n, p, m)),
    ("exactmath", "unit_reduction", "exactmath.unit_reduction", True,
     lambda big, small: (big.n, small.n)),
    ("exactmath", "norm_map", "exactmath.norm_map", True, None),
    ("search", "find_delta_minimal", "search.find_delta_minimal", False, None),
    ("search", "selmer_report", "search.selmer_report", False, None),
    ("search", "attach_parity", "search.attach_parity", False, None),
    ("verifiers", "verify_coset_lemma", "verifiers.verify_coset_lemma", False, None),
    ("verifiers", "span_two_covering_witness", "verifiers.span_two_covering_witness",
     False, None),
)

# (module, class, method, metric name, hot)
METHODS = (
    ("modsym", "ManinSpace", "hecke_full", "modsym.hecke_full", False),
    ("exactmath", "GroupRingElement", "__mul__", "exactmath.group_ring_mul", True),
)

LAYERS = ("curve", "lseries", "modsym", "kolyvagin", "mazurtate", "exactmath",
          "search", "verifiers")


def _shape_counts(name, result, counts):
    """Counts read from the objects the package returns."""
    if name == "modsym.build_space":
        counts["modsym.p1_size"] = len(result.p1)
        counts["modsym.relations"] = len(result.relations)
        counts["modsym.dim"] = result.dim
    elif name == "search.find_delta_minimal":
        counts["search.rows"] = counts.get("search.rows", 0) + len(result.table)
    elif name == "kolyvagin.sieve":
        counts["kolyvagin.sieve.accepted"] = (
            counts.get("kolyvagin.sieve.accepted", 0) + len(result)
        )
    elif name == "verifiers.verify_coset_lemma":
        counts["verifiers.coset_instances"] = (
            counts.get("verifiers.coset_instances", 0) + sum(result.instances.values())
        )


class Tracer:
    """Wraps the package's layers and records spans and counts in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stats = {}
        self.distinct = {}
        self.counts = {}
        self._frames = []  # time covered by wrapped children, per open call
        self._open = []    # span index per open coarse call

    def _wrap(self, name, fn, hot, key):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        if key is not None:
            seen = self.distinct.setdefault(name, set())

        if hot:
            def wrapper(*args, **kwargs):
                if key is not None:
                    seen.add(key(*args, **kwargs))
                frames.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frames.pop()
                    if frames:
                        frames[-1] += dt
        else:
            spans, opened, run_id, counts = self.spans, self._open, self.run_id, self.counts

            def wrapper(*args, **kwargs):
                if key is not None:
                    seen.add(key(*args, **kwargs))
                parent = opened[-1] if opened else -1
                opened.append(len(spans))
                span = [name, 0.0, 0.0, parent, run_id]
                spans.append(span)
                frames.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    dt = t1 - t0
                    span[1], span[2] = t0, t1
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frames.pop()
                    opened.pop()
                    if frames:
                        frames[-1] += dt
                _shape_counts(name, result, counts)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every listed function wherever a kurihara module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kurihara" or n.startswith("kurihara."))]
        for modname, attr, name, hot, key in FUNCTIONS:
            fn = getattr(sys.modules["kurihara." + modname], attr)
            wrapper = self._wrap(name, fn, hot, key)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, bound, wrapper)
        for modname, clsname, attr, name, hot in METHODS:
            cls = getattr(sys.modules["kurihara." + modname], clsname)
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), hot, None))

    def report(self):
        """Aggregates and spans as plain JSON-ready data."""
        return {
            "stats": self.stats,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "counts": self.counts,
            "spans": self.spans,
        }
