"""Breadth-first search for delta-minimal integers and the final reports.

Levels are enumerated by the number of prime factors nu; every proper divisor
of a level-nu integer lives at an earlier level, so delta-minimality is read
off the table.  The Selmer dimension equals nu(d) of any delta-minimal d
(conditional on the dictionary theorems), the upper bound comes from any
nonvanishing d, and the parity verdict compares (-1)^nu(d) with the root
number.  All of these conclusions are derived in one place, `_conclude`, for
the search, the readout and the verifier of saved reports alike.
"""

from itertools import combinations
from math import prod

from .curve import require_hypotheses
from .errors import (
    BadReport,
    CorrectnessAlarm,
    FrickeNotScalar,
    MissingRootNumber,
    SearchExhausted,
)
from .exactmath import ResidueRing, is_prime, primitive_root, unit_group
from .kolyvagin import (
    derivative_data,
    kurihara_number_direct,
    kurihara_number_via_ed,
    project_theta,
    sieve,
    sieved_factors,
)
from .mazurtate import plus_values
from .modsym import fricke_eigenvalue
from .records import field, record, replace


def _is_int(x):
    return type(x) is int  # a JSON true or false is no count


def _is_ints(x):
    return type(x) is list and all(map(_is_int, x))


def _is_int_or_null(x):
    return x is None or _is_int(x)


def _same(x):
    return x


def _field(name, accepts, want, attr=None, out=_same, into=_same):
    """One JSON field of a saved record, in the order it is written: (JSON
    name, attribute, accepts, what it must be, attribute to JSON, JSON to
    attribute)."""
    return name, attr or name, accepts, want, out, into


def _to_json(rec, fields):
    return {name: out(getattr(rec, attr)) for name, attr, _, _, out, _ in fields}


def _from_json(cls, obj, fields, where):
    """`cls` from the JSON object `obj`; BadReport unless each field is there
    and well typed, all checked before any is converted."""
    if type(obj) is not dict:
        raise BadReport(f"{where} is not a JSON object")
    for name, _, accepts, want, _, _ in fields:
        if name not in obj:
            raise BadReport(f"{where} has no {name!r}")
        if not accepts(obj[name]):
            raise BadReport(f"{where}: {name!r} must be {want}, got {obj[name]!r}")
    return cls(**{attr: into(obj[name]) for name, attr, _, _, _, into in fields})


@record
class DeltaRow:
    d: int
    factors: tuple
    delta: int
    routes_agree: bool
    generators: dict

    def to_json(self):
        return _to_json(self, _ROW_FIELDS)

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; BadReport when a field is missing or mistyped."""
        return _from_json(cls, obj, _ROW_FIELDS, "delta_table row")


_ROW_FIELDS = (
    _field("d", _is_int, "an integer"),
    _field("factors", _is_ints, "a list of integers", out=list, into=tuple),
    _field("delta", _is_int, "an integer"),
    _field("routes_agree", lambda x: type(x) is bool, "true or false"),
    _field(
        "generators",
        lambda x: type(x) is dict
        and all(type(k) is str and k.isdecimal() and _is_int(g) for k, g in x.items()),
        "an object from primes to integers",
        out=lambda gens: {str(l): g for l, g in gens.items()},
        into=lambda gens: {int(l): g for l, g in gens.items()},
    ),
)


def _table_from_json(rows):
    table = {}
    for obj in rows:
        row = DeltaRow.from_json(obj)
        if row.d in table:
            raise BadReport(f"delta_table lists d={row.d} twice")
        table[row.d] = row
    return table


@record
class DeltaReport:
    curve: str
    p: int
    m: int
    prime_bound: int
    nu_max: int
    sieved: tuple
    table: dict          # d -> DeltaRow
    # conclusions, set by _conclude from the table, p, m and root_number
    delta_minimal: tuple = ()
    selmer_dim: object = None   # int or None
    upper_bound: object = None  # int or None
    imc_witness: bool = False
    parity: str = "skipped"
    root_number: object = None
    provenance: dict = field(default_factory=dict)

    def verify(self):
        """Re-derive every conclusion from the table and refuse a difference.

        p must be an odd prime, and the sieved primes what a sieve to
        prime_bound can give: primes <= prime_bound, increasing, each l with
        v_p(l - 1) >= m (by division: no power of an unchecked m is formed),
        and the provenance's generators the `primitive_root` of each.  Each
        row must be a checked row: its factors are distinct sieved primes
        whose product is d, its generators are the provenance's generator of
        each of them and no other prime's, its delta lies in Z/p^m, and its
        routes agree.
        The delta-minimal list, the Selmer dimension, the upper bound, the
        IMC witness, the parity verdict and (when stored) the notes must be
        what `_conclude` and `_notes` derive.  Raises CorrectnessAlarm naming
        the first field that differs.
        """
        p, m = self.p, self.m
        if p < 3 or not is_prime(p):
            raise CorrectnessAlarm(f"p = {p} is not an odd prime")
        last = 1
        for ell in self.sieved:
            n, v = ell - 1, 0
            while v < m and n > 0 and n % p == 0:
                n, v = n // p, v + 1
            if not last < ell <= self.prime_bound or v < m or not is_prime(ell):
                raise CorrectnessAlarm(
                    f"sieved prime {ell}: not a prime l <= {self.prime_bound} above {last}"
                    f" with {p}^{m} | l - 1"
                )
            last = ell
        generators = {ell: primitive_root(ell) for ell in self.sieved}
        if self.provenance.get("generators") != {str(l): g for l, g in generators.items()}:
            raise CorrectnessAlarm("the provenance's generators are not the sieve's h_l")
        for d, row in self.table.items():
            factors = list(row.factors)
            if factors != sorted(generators.keys() & factors) or prod(factors) != d:
                raise CorrectnessAlarm(f"delta_{d}: factors {factors} are not its sieved primes")
            if row.generators != {ell: generators[ell] for ell in factors}:
                raise CorrectnessAlarm(
                    f"delta_{d}: generators {row.generators} are not the provenance's"
                    f" for its factors {factors}"
                )
            # delta < 2^m < p^m needs no power of an unchecked m
            if row.delta < 0 or row.delta.bit_length() > m and row.delta >= p**m:
                raise CorrectnessAlarm(f"delta_{d} = {row.delta} is not an element of Z/{p}^{m}")
            if row.routes_agree is not True:
                raise CorrectnessAlarm(f"delta_{d}: routes_agree is {row.routes_agree}")
        derived = replace(self)
        _conclude(derived)
        for name in ("delta_minimal", "selmer_dim", "upper_bound", "imc_witness", "parity"):
            stored, want = getattr(self, name), getattr(derived, name)
            if stored != want:
                raise CorrectnessAlarm(
                    f"stored {name} {stored!r} differs from the derived {want!r}"
                )
        notes = self.provenance.get("notes")
        if notes is not None and notes != _notes(derived):
            raise CorrectnessAlarm("stored notes differ from the derived notes")
        return True

    def to_json(self):
        return _to_json(self, _REPORT_FIELDS)

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; BadReport when a field is missing or mistyped.

        Only the shape is checked here; `verify` checks what the fields say.
        """
        return _from_json(cls, obj, _REPORT_FIELDS, "report")

    def to_text(self):
        lines = [
            f"curve {self.curve}, p = {self.p} (mod p^{self.m})",
            f"sieve bound {self.prime_bound}: primes {list(self.sieved)}",
        ]
        for d in sorted(self.table):
            row = self.table[d]
            mark = " *" if d in self.delta_minimal else ""
            lines.append(
                f"  delta_{d} = {row.delta}"
                f" (factors {list(row.factors) or '[]'}, routes_agree={row.routes_agree}){mark}"
            )
        lines.append(f"delta-minimal: {list(self.delta_minimal) or 'none found'}")
        lines.append(f"Selmer dimension: {self.selmer_dim}")
        lines.append(f"upper bound: {self.upper_bound}")
        lines.append(f"IMC witness: {self.imc_witness}")
        lines.append(f"parity: {self.parity} (w_E = {self.root_number})")
        return "\n".join(lines)


_REPORT_FIELDS = (
    _field("curve", lambda x: type(x) is str, "a string"),
    _field("p", lambda x: _is_int(x) and x >= 2, "an integer >= 2"),
    _field("m", lambda x: _is_int(x) and x >= 1, "a positive integer"),
    _field("prime_bound", _is_int, "an integer"),
    _field("nu_max", _is_int, "an integer"),
    _field("sieved_primes", _is_ints, "a list of integers", attr="sieved", out=list, into=tuple),
    _field("delta_table", lambda x: type(x) is list, "a list of rows", attr="table",
           out=lambda table: [table[d].to_json() for d in sorted(table)], into=_table_from_json),
    _field("delta_minimal", _is_ints, "a list of integers", out=list, into=tuple),
    _field("selmer_dim", _is_int_or_null, "an integer or null"),
    _field("upper_bound", _is_int_or_null, "an integer or null"),
    _field("imc_witness", lambda x: type(x) is bool, "true or false"),
    _field("parity", lambda x: type(x) is str, "a string"),
    _field("root_number", _is_int_or_null, "an integer or null"),
    _field("provenance", lambda x: type(x) is dict, "an object"),
)


def delta_row(symbol, d, ring, registry):
    """delta_d by all three routes from one walk of (Z/d)^*, as a checked row.

    The primes of d are read once (`sieved_factors`).  theta_d streams from
    the walk (`plus_values`) in `ring` = Z/p^m, and is never built whole:
    one pass folds each value into the direct route's sum, weighed by its own
    per-prime logs, and into the buckets of the projection, keyed by logs
    stepped from the generator images.  Via sums those buckets, so
    direct == via checks the two sets of logs; the derivative reads the same
    buckets and checks their norm-multiple shape.  Any disagreement raises
    CorrectnessAlarm.
    """
    ells = sieved_factors(d, registry)
    projection = project_theta(ells, registry)
    runs = unit_group(d).runs(projection.quotient, projection.images)
    values = plus_values(symbol, d, ring, runs)
    direct = kurihara_number_direct(projection.fold(values, ring), ells, ring, registry)
    via = kurihara_number_via_ed(projection)
    deriv = derivative_data(projection, via)
    if direct != via or not deriv.is_norm_multiple or deriv.nonzero != (direct % ring.p != 0):
        raise CorrectnessAlarm(
            f"route disagreement at d={d}: direct={direct}, via_ed={via}, derivative={deriv}"
        )
    gens = {ell: registry[ell].generator for ell in ells}
    return DeltaRow(d, tuple(ells), direct, True, gens)


def find_delta_minimal(
    symbol, p, prime_bound=10**4, nu_max=3, m=1, exhaustive=False, workers=1
):
    """Search squarefree products of sieved primes for delta-minimal integers.

    Stops at the first level that produces one (or runs every level up to
    nu_max with `exhaustive`); raises SearchExhausted, carrying the table,
    when no witness appears within the budget.  The search is serial;
    `workers` accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"workers={workers}: the search runs serially, only 1 is accepted")
    E = symbol.curve
    report_h = require_hypotheses(E, p)
    primes = sieve(E, p, m, 0, prime_bound)
    registry = {kp.ell: kp for kp in primes}
    report = DeltaReport(
        curve=str(E),
        p=p,
        m=m,
        prime_bound=prime_bound,
        nu_max=nu_max,
        sieved=tuple(kp.ell for kp in primes),
        table={},
        provenance={
            "hypotheses": report_h.to_json(),
            "calibration": {
                "status": symbol.calibration_status,
                "unit": str(symbol.calibration_unit),
            },
            "generators": {str(kp.ell): kp.generator for kp in primes},
            "exhaustive": exhaustive,
        },
    )
    ring = ResidueRing(p, m)
    for nu in range(min(nu_max, len(primes)) + 1):
        for d in sorted(prod(c) for c in combinations(sorted(registry), nu)):
            report.table[d] = delta_row(symbol, d, ring, registry)
        _conclude(report)
        if report.delta_minimal and not exhaustive:
            break
    if not report.delta_minimal:
        raise SearchExhausted(
            f"no delta-minimal d with nu <= {nu_max}, primes <= {prime_bound}",
            report=report,
        )
    return report


def _conclude(report):
    """Derive every conclusion of `report` from its table, p, m and root number.

    A d is delta-minimal when delta_d != 0 mod p and delta_e = 0 mod p at
    every proper divisor e, looked up from the row's factors; a missing
    divisor row is an alarm.  The dimension statement is about delta_d mod p,
    so at m >= 2 a row with delta_d = p*u counts as vanishing.  Sets
    delta_minimal, selmer_dim (the common nu of the minimal d), upper_bound
    (the least nu of a d nonvanishing mod p), imc_witness (some delta_d != 0,
    each row being in [0, p^m): no power of m is formed) and parity.  Minimal
    witnesses of distinct nu, and a parity verdict of "fail", raise
    CorrectnessAlarm.
    """
    p, table = report.p, report.table

    def is_minimal(d):
        factors = table[d].factors
        divisors = [prod(c) for k in range(len(factors)) for c in combinations(factors, k)]
        missing = [e for e in divisors if e not in table]
        if missing:
            raise CorrectnessAlarm(f"no row for {missing}, proper divisors of {d}")
        return all(table[e].delta % p == 0 for e in divisors)

    nonzero = [d for d, row in table.items() if row.delta % p != 0]
    minimal = tuple(sorted(d for d in nonzero if is_minimal(d)))
    nus = {len(table[d].factors) for d in minimal}
    if len(nus) > 1:
        raise CorrectnessAlarm(f"delta-minimal witnesses with distinct nu: {nus}")
    report.delta_minimal = minimal
    report.selmer_dim = nus.pop() if nus else None
    report.upper_bound = min((len(table[d].factors) for d in nonzero), default=None)
    report.imc_witness = any(row.delta for row in table.values())
    w_E = report.root_number
    report.parity = (
        "skipped" if w_E is None or not minimal
        else "pass" if w_E == (-1) ** report.selmer_dim else "fail"
    )
    if report.parity == "fail":
        raise CorrectnessAlarm(
            f"parity alarm: w_E = {w_E} but a delta-minimal d has"
            f" (-1)^nu = {-w_E}; this contradicts a proved statement"
        )


def _notes(report):
    """The textual interpretation of a concluded report."""
    notes = []
    if report.selmer_dim is not None:
        notes.append(
            f"dim Sel(Q, E[{report.p}]) = {report.selmer_dim}: the localization map at the"
            f" primes dividing a delta-minimal d is an isomorphism onto"
            f" (+) E(Q_l) tensor F_p (conditional on the dictionary theorem)."
        )
    else:
        notes.append("no delta-minimal d found: no dimension claim.")
    if report.upper_bound is not None:
        notes.append(
            f"dim Sel(Q, E[{report.p}]) <= {report.upper_bound} from any d with"
            f" delta_d != 0."
        )
    if report.imc_witness:
        notes.append(
            "some delta_d != 0: numerical witness for the Iwasawa main"
            " conjecture (equivalence is a theorem, not recomputed here)."
        )
    return notes


def selmer_report(report):
    """Attach the dimension readout and its textual interpretation."""
    _conclude(report)
    report.provenance["notes"] = _notes(report)
    return report


def parity_check(report, w_E):
    """Verdict pass iff w_E = (-1)^nu(d) for every delta-minimal d.

    A verdict of "fail" contradicts a proved statement and raises
    CorrectnessAlarm, after the report records it.
    """
    if w_E not in (1, -1):
        raise MissingRootNumber(f"root number must be +-1, got {w_E}")
    report.root_number = w_E
    _conclude(report)
    return report.parity


def attach_parity(report, symbol, w_override=None):
    """Root-number hierarchy: ingested value, else w_E = -(Fricke eigenvalue), else skip."""
    if w_override is not None:
        return parity_check(report, w_override)
    try:
        w = -fricke_eigenvalue(symbol)
    except FrickeNotScalar as exc:
        report.parity = "skipped"
        report.provenance["parity_skipped"] = str(exc)
        return "skipped"
    return parity_check(report, w)
