"""Exception types shared across the package."""


class HydrostatError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HydrostatError):
    """Invalid grid/field/parameter configuration (shape, arity, ranges)."""


class DataError(HydrostatError):
    """Invalid field data (non-finite values, malformed snapshots)."""


class ConstraintViolationError(HydrostatError):
    """Barotropic / periodicity constraint violated beyond tolerance.

    Carries the offending relative residual in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class BlowUpError(HydrostatError):
    """Non-finite values appeared during time integration.

    ``last_good`` holds the last valid solver state.  ``series`` is None
    from a bare step; a recorded run (``integrate``, ``run_decomposition``)
    sets it to the rows it recorded before the blow-up.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good
        self.series = None


class SchedulingError(HydrostatError):
    """Driver fields supplied at times that do not match the RK stages."""


class ConfigError(HydrostatError):
    """Run-configuration file is malformed or violates invariants."""
