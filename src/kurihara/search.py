"""Breadth-first search for delta-minimal integers and the final reports.

Levels are enumerated by the number of prime factors nu; every proper divisor
of a level-nu integer lives at an earlier level, so delta-minimality is read
off the memoized table.  The Selmer dimension equals nu(d) of any delta-minimal
d (conditional on the dictionary theorems), the upper bound comes from any
nonvanishing d, and the parity verdict compares (-1)^nu(d) with the root
number.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .curve import require_hypotheses
from .errors import (
    CorrectnessAlarm,
    FrickeNotScalar,
    MissingRootNumber,
    SearchExhausted,
)
from .kolyvagin import (
    derivative_data,
    kurihara_number_direct,
    kurihara_number_via_ed,
    project_theta,
    sieve,
    theta_residues,
)
from .modsym import fricke_eigenvalue


@dataclass
class DeltaRow:
    d: int
    factors: tuple
    delta: int
    routes_agree: bool
    generators: dict

    def to_json(self):
        return {
            "d": self.d,
            "factors": list(self.factors),
            "delta": self.delta,
            "routes_agree": self.routes_agree,
            "generators": {str(l): g for l, g in self.generators.items()},
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["d"],
            tuple(obj["factors"]),
            obj["delta"],
            obj["routes_agree"],
            {int(l): g for l, g in obj["generators"].items()},
        )


@dataclass
class DeltaReport:
    curve: str
    p: int
    m: int
    prime_bound: int
    nu_max: int
    sieved: tuple
    table: dict          # d -> DeltaRow
    delta_minimal: tuple
    selmer_dim: object   # int or None
    upper_bound: object  # int or None
    imc_witness: bool
    parity: str = "skipped"
    root_number: object = None
    provenance: dict = field(default_factory=dict)

    def verify_minimal(self):
        """Re-check the delta-minimal rows against the stored table.

        Raises CorrectnessAlarm when a recorded minimal d is missing or has
        delta_d = 0 in Z/p^m, when a proper divisor of it has delta != 0, or
        when two minimal witnesses differ in nu.
        """
        pk = self.p**self.m
        nus = set()
        for d in self.delta_minimal:
            row = self.table.get(d)
            if row is None or row.delta % pk == 0:
                raise CorrectnessAlarm(f"recorded minimal {d} has delta = 0 or no row")
            for e, other in self.table.items():
                if e != d and d % e == 0 and other.delta % pk != 0:
                    raise CorrectnessAlarm(
                        f"proper divisor {e} of minimal {d} has delta != 0"
                    )
            nus.add(len(row.factors))
        if len(nus) > 1:
            raise CorrectnessAlarm(f"delta-minimal witnesses with distinct nu: {nus}")
        return True

    def to_json(self):
        return {
            "curve": self.curve,
            "p": self.p,
            "m": self.m,
            "prime_bound": self.prime_bound,
            "nu_max": self.nu_max,
            "sieved_primes": list(self.sieved),
            "delta_table": [self.table[d].to_json() for d in sorted(self.table)],
            "delta_minimal": list(self.delta_minimal),
            "selmer_dim": self.selmer_dim,
            "upper_bound": self.upper_bound,
            "imc_witness": self.imc_witness,
            "parity": self.parity,
            "root_number": self.root_number,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json."""
        return cls(
            curve=obj["curve"],
            p=obj["p"],
            m=obj["m"],
            prime_bound=obj["prime_bound"],
            nu_max=obj["nu_max"],
            sieved=tuple(obj["sieved_primes"]),
            table={row["d"]: DeltaRow.from_json(row) for row in obj["delta_table"]},
            delta_minimal=tuple(obj["delta_minimal"]),
            selmer_dim=obj["selmer_dim"],
            upper_bound=obj["upper_bound"],
            imc_witness=obj["imc_witness"],
            parity=obj["parity"],
            root_number=obj["root_number"],
            provenance=obj["provenance"],
        )

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


def delta_row(theta, registry):
    """delta_d by all three routes from one walk of (Z/d)^*, as a checked row.

    `theta` is `theta_residues(symbol, d, p, m)`.  The direct route reads the
    walked units with its own dlog weights; one projection to
    Z/p^m[Gal(Q(d)/Q)] serves both via-e_d and the derivative.  Any
    disagreement raises CorrectnessAlarm.
    """
    direct = kurihara_number_direct(theta, registry)
    projection = project_theta(theta, registry)
    via = kurihara_number_via_ed(projection)
    deriv = derivative_data(projection)
    agree = (
        direct.value == via.value
        and deriv.is_norm_multiple
        and deriv.nonzero == direct.nonzero
    )
    if not agree:
        raise CorrectnessAlarm(
            f"route disagreement at d={theta.d}: direct={direct.value}, "
            f"via_ed={via.value}, derivative={deriv}"
        )
    return DeltaRow(theta.d, direct.factors, direct.value, agree, direct.generators)


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
    table = {}
    minimal = []
    min_nu = None
    for nu in range(0, nu_max + 1):
        if nu > len(primes):
            break
        if minimal and not exhaustive:
            break
        ds = sorted(
            _product(c) for c in combinations(sorted(registry), nu)
        )
        for d in ds:
            row = table[d] = delta_row(theta_residues(symbol, d, p, m), registry)
            if row.delta % p**m != 0:
                if all(
                    table[e].delta % p**m == 0
                    for e in table
                    if e != d and d % e == 0
                ):
                    minimal.append(d)
                    min_nu = nu if min_nu is None else min_nu
    nonzero = [d for d, row in table.items() if row.delta % p**m != 0]
    upper = min((len(table[d].factors) for d in nonzero), default=None)
    report = DeltaReport(
        curve=str(E),
        p=p,
        m=m,
        prime_bound=prime_bound,
        nu_max=nu_max,
        sieved=tuple(kp.ell for kp in primes),
        table=table,
        delta_minimal=tuple(sorted(minimal)),
        selmer_dim=min_nu,
        upper_bound=upper,
        imc_witness=bool(nonzero),
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
    if not minimal:
        raise SearchExhausted(
            f"no delta-minimal d with nu <= {nu_max}, primes <= {prime_bound}",
            report=report,
        )
    report.verify_minimal()
    return report


def _product(items):
    out = 1
    for x in items:
        out *= x
    return out


def selmer_report(report):
    """Attach the dimension readout and its textual interpretation."""
    notes = []
    if report.delta_minimal:
        nu = len(report.table[report.delta_minimal[0]].factors)
        report.selmer_dim = nu
        notes.append(
            f"dim Sel(Q, E[{report.p}]) = {nu}: the localization map at the"
            f" primes dividing a delta-minimal d is an isomorphism onto"
            f" (+) E(Q_l) tensor F_p (conditional on the dictionary theorem)."
        )
    else:
        report.selmer_dim = None
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
    report.provenance["notes"] = notes
    return report


def parity_check(report, w_E):
    """Verdict pass iff w_E = (-1)^nu(d) for every delta-minimal d."""
    if w_E not in (1, -1):
        raise MissingRootNumber(f"root number must be +-1, got {w_E}")
    report.root_number = w_E
    verdict = "pass"
    for d in report.delta_minimal:
        nu = len(report.table[d].factors)
        if w_E != (-1) ** nu:
            verdict = "fail"
    if not report.delta_minimal:
        verdict = "skipped"
    report.parity = verdict
    if verdict == "fail":
        raise CorrectnessAlarm(
            f"parity alarm: w_E = {w_E} but a delta-minimal d has"
            f" (-1)^nu = {-w_E}; this contradicts a proved statement"
        )
    return verdict


def root_number_fricke(symbol):
    """w_E = -(Fricke eigenvalue on the eigensymbol line)."""
    return -fricke_eigenvalue(symbol)


def attach_parity(report, symbol, w_override=None):
    """Root-number hierarchy: ingested value, else Fricke, else skip."""
    if w_override is not None:
        return parity_check(report, w_override)
    try:
        w = root_number_fricke(symbol)
    except FrickeNotScalar as exc:
        report.parity = "skipped"
        report.provenance["parity_skipped"] = str(exc)
        return "skipped"
    return parity_check(report, w)
