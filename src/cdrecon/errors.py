"""Exception types shared across the package.  Each carries the command
line's exit code for it and its stderr prefix, ``cdrecon: <label>:``."""


class CdreconError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 1, "error"  # usage or validation


class GridError(CdreconError, ValueError):
    """Invalid grid parameters (too few nodes per side)."""


class DimensionError(CdreconError, ValueError):
    """Operands live on different grids or have inconsistent shapes."""


class FormatError(CdreconError, ValueError):
    """Malformed field, image, or config file; the message names the offending part."""

    exit_code, label = 2, "i/o error"  # an OSError is reported the same way


class AssemblyError(CdreconError, ValueError):
    """Discrete system cannot be assembled (e.g. nonpositive conductivity)."""

    exit_code, label = 3, "numeric error"


class SolverError(CdreconError, RuntimeError):
    """Linear solve failed."""

    exit_code, label = 3, "numeric error"


class NotSPDError(SolverError):
    """Conjugate gradients detected a direction of nonpositive curvature."""


class DataError(CdreconError, ValueError):
    """Degenerate or inadmissible input data (zero data, bad transform,
    degenerate scaling, unresolvable smoothing width, bad schedule, a config
    built with an invalid field)."""


class UsageError(CdreconError, ValueError):
    """Command line usage or configuration error."""
