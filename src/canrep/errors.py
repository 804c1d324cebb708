"""Exception hierarchy shared across the package."""


class CanrepError(Exception):
    """Base class for all domain errors raised by canrep; ``diagnostic`` is a
    JSON payload that the CLI prints with the message (empty if there is none)."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic if diagnostic is not None else {}


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


class ChainError(CanrepError):
    """Slope-chain construction got stuck at some ratio; the diagnostic payload
    names its index as {"stuck_index": k}."""

    def __init__(self, message, stuck_index=None):
        super().__init__(message, None if stuck_index is None else {"stuck_index": stuck_index})
        self.stuck_index = stuck_index
