"""Error types shared across the package.

Each class maps one failure mode of the numerical pipeline and carries
its own exit_code, the status the CLI exits with when the error reaches
it; each also keeps its builtin parent (ValueError, RuntimeError or
IndexError).
"""


class SvdpertError(Exception):
    """Base of every svdpert error; subclasses set exit_code."""
    exit_code: int


class DimensionMismatch(SvdpertError, ValueError):
    """Operands have incompatible shapes."""
    exit_code = 2


class InvalidDims(SvdpertError, ValueError):
    """Dimensions lie outside the supported regime."""
    exit_code = 2


class ConvergenceFailure(SvdpertError, RuntimeError):
    """An iterative kernel exhausted its sweep budget."""
    exit_code = 1


class RankDeficient(SvdpertError, RuntimeError):
    """Full column rank is required and the input does not have it."""
    exit_code = 1


class SpectrumOverflow(SvdpertError, ValueError):
    """A result lies beyond the double range."""
    exit_code = 2


class IndexOutOfRange(SvdpertError, IndexError):
    """Requested triplet index is not in 1..p."""
    exit_code = 2


class GapTooSmall(SvdpertError, RuntimeError):
    """Selected singular value is too close to the rest of the spectrum
    for a first-order expansion to be meaningful."""
    exit_code = 3

    def __init__(self, k: int, gap: float):
        super().__init__(
            f"triplet {k}: spectral separation {gap:.3e} is below tolerance"
        )
        self.k = k
        self.gap = gap


class SingularSystem(SvdpertError, RuntimeError):
    """The coupled correction system is numerically singular (this implies
    a spectral-gap failure upstream)."""
    exit_code = 1


class ZeroVector(SvdpertError, ValueError):
    """A nonzero vector is required."""
    exit_code = 2


class InsufficientSamples(SvdpertError, RuntimeError):
    """Too few residual samples survive the noise floor to fit an order."""
    exit_code = 4


class FitUnreliable(SvdpertError, RuntimeError):
    """A fitted order's r2 lies below the certification gate."""
    exit_code = 4


class NotDemonstrable(SvdpertError, RuntimeError):
    """A cataloged defect cannot be shown, or was not confirmed, on the
    errata instance."""
    exit_code = 5


class ParseError(SvdpertError, ValueError):
    """An input file violates the expected format."""
    exit_code = 1

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnsupportedFormat(SvdpertError, ValueError):
    """The file header declares a format this reader does not handle."""
    exit_code = 1
