"""Exception hierarchy shared across the package."""


class CanrepError(Exception):
    """Base class for all domain errors raised by canrep."""


class ParseError(CanrepError):
    """Malformed scalar, file, or CLI payload."""


class DimensionMismatch(CanrepError):
    """Matrix or representation shapes do not line up."""


class AlgebraError(CanrepError):
    """Invalid algebra data (weights, parameters, relations)."""


class TubeError(CanrepError):
    """Invalid tube identifier or non-regular input to tube machinery."""


class DecompositionError(CanrepError):
    """Factoring or splitting could not finish or certify its result: no
    factoring backend for the field, a constant polynomial or a factorization
    that loses degree, a primary decomposition that does not fill the module,
    or a decomposition certificate or End(M) table that fails its check."""


class ApproximationError(CanrepError):
    """Approximation construction failed; carries a diagnostic payload."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic if diagnostic is not None else {}


class ChainError(CanrepError):
    """Slope-chain construction got stuck at some ratio."""

    def __init__(self, message, stuck_index=None):
        super().__init__(message)
        self.stuck_index = stuck_index
