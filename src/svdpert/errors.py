"""Error types shared across the package.

Each class maps one failure mode of the numerical pipeline; the CLI turns
them into its documented exit codes.
"""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class InvalidDims(ValueError):
    """Dimensions lie outside the supported regime."""


class ConvergenceFailure(RuntimeError):
    """An iterative kernel exhausted its sweep budget."""


class RankDeficient(RuntimeError):
    """Full column rank is required and the input does not have it."""


class IndexOutOfRange(IndexError):
    """Requested triplet index is not in 1..p."""


class GapTooSmall(RuntimeError):
    """Selected singular value is too close to the rest of the spectrum
    for a first-order expansion to be meaningful."""

    def __init__(self, k: int, gap: float):
        super().__init__(
            f"triplet {k}: spectral separation {gap:.3e} is below tolerance"
        )
        self.k = k
        self.gap = gap


class SingularSystem(RuntimeError):
    """The coupled correction system is numerically singular (this implies
    a spectral-gap failure upstream)."""


class ZeroVector(ValueError):
    """A nonzero vector is required."""


class TripletMatchAmbiguous(RuntimeError):
    """The perturbed triplet cannot be tracked back to the reference
    triplet with confidence."""

    def __init__(self, overlap: float, threshold: float, epsilon: float):
        super().__init__(
            f"at epsilon {epsilon:g} the tracked triplet's overlap "
            f"{overlap:.3f} with the unperturbed one is below the matching "
            f"threshold {threshold}"
        )
        self.overlap = overlap
        self.threshold = threshold
        self.epsilon = epsilon


class InsufficientSamples(RuntimeError):
    """Too few residual samples survive the noise floor to fit an order."""


class ParseError(ValueError):
    """An input file violates the expected format."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnsupportedFormat(ValueError):
    """The file header declares a format this reader does not handle."""
