"""Exception hierarchy. The CLI maps these to exit codes."""


class KuriharaError(Exception):
    pass


class UsageError(KuriharaError):
    """Arguments that each parse but cannot go together, such as an --m too large for --p."""


# exact arithmetic
class MismatchedGroup(KuriharaError):
    pass


class MismatchedRing(KuriharaError):
    pass


class NotAQuotient(KuriharaError):
    pass


class NotASurjection(KuriharaError):
    pass


class NotAHomomorphism(KuriharaError):
    pass


class NotAUnit(KuriharaError):
    pass


# curve data
class BadCurve(KuriharaError, ValueError):
    """A curve record that is not valid JSON, lacks a field or is not a curve."""


class BadPrime(KuriharaError):
    pass


class NonInvertibleEll(KuriharaError):
    pass


class HypothesisViolation(KuriharaError):
    pass


# modular symbols
class EigensymbolNotFound(KuriharaError):
    pass


class AmbiguousEigenspace(KuriharaError):
    pass


class NotCoprime(KuriharaError):
    pass


class CalibrationError(KuriharaError):
    pass


# Mazur-Tate elements
class Supersingular(KuriharaError):
    pass


class DenominatorDivisibleByP(KuriharaError):
    pass


class NotSquarefree(KuriharaError):
    pass


class PrimeNotKolyvagin(KuriharaError):
    pass


# search / reports
class BadReport(KuriharaError, ValueError):
    """A saved report that is not JSON, lacks a field or has a mistyped one."""


class MissingRootNumber(KuriharaError):
    pass


class FrickeNotScalar(KuriharaError):
    pass


class CorrectnessAlarm(KuriharaError):
    """The computed data contradicts a proved statement; never ignore."""


class SearchExhausted(KuriharaError):
    """Search budget exhausted without a delta-minimal witness.

    Carries the full vanishing table as `report`.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IdentityFailure(KuriharaError):
    """An identity-suite instance failed; message pinpoints (identity, instance)."""
