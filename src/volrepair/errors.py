"""Exception types shared across the package."""


class VolRepairError(Exception):
    """Base class for all errors raised by this package."""


class QuoteParseError(VolRepairError):
    """A quote file row could not be parsed."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyInputError(VolRepairError):
    """The quote file contains no usable rows."""


class InsufficientDataError(VolRepairError):
    """Not enough quotes to run the requested fit."""


class DegenerateParityError(VolRepairError):
    """Call-put parity regression produced an unusable discount or forward."""


class InvalidPriceError(VolRepairError):
    """A normalized price is nonpositive or otherwise unusable."""


class PriceOutOfBandError(VolRepairError):
    """A price sits on or outside the static no-arbitrage band.

    Carries the violated bound so callers can report which side failed.
    """

    def __init__(self, price, bound_kind, bound_value, location=None):
        where = f" at {location}" if location is not None else ""
        super().__init__(
            f"price {price!r} violates {bound_kind} bound {bound_value!r}{where}"
        )
        self.price = price
        self.bound_kind = bound_kind
        self.bound_value = bound_value
        self.location = location


class InvalidKmaxError(VolRepairError):
    """The requested grid upper bound does not exceed every quoted strike."""


class DegenerateCalibrationError(VolRepairError):
    """The calibration sub-grid yields no negative difference quotient."""


class DuplicateConstraintError(VolRepairError):
    """The same calibration node was supplied twice."""


class SingularSystemError(VolRepairError):
    """A direct linear solve failed on a singular matrix."""


class ProblemTooLargeError(VolRepairError):
    """A problem exceeds a size cap: the exact LP's variable count, or a
    projection's path space N = L^m, checked before anything that size exists."""


class SolverError(VolRepairError, ArithmeticError):
    """A numerical routine stopped without a trustworthy answer.

    The exact simplex hit its iteration cap or a status that cannot occur on
    a well-posed problem; a scalar root-find or implied-vol inversion did
    not converge; or the joint signed measure missed its marginals or
    constraint system beyond tolerance, or its least-squares lift met an
    inconsistent system.
    """


class KmaxTooSmallError(VolRepairError):
    """The coupling program is infeasible; the grid upper bound was too small."""


class InstabilityError(VolRepairError):
    """A scaling substep overflowed its safe exponent range.

    Names the substep and suggests a larger regularization parameter.
    """

    def __init__(self, substep, detail=""):
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"numerical instability in substep {substep}{extra}; "
            "try a larger regularization epsilon"
        )
        self.substep = substep


class DomainViolationError(VolRepairError):
    """A dual variable left the domain of its conjugate term."""


class InvalidConfigError(VolRepairError, ValueError):
    """A config, scenario or marks file is malformed, or a field is out of range."""


class InvalidCalibrationError(VolRepairError):
    """A calibration mark names no quote, or the marked sub-grid is arbitrageable."""
