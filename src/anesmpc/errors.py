"""Exception types shared across the package."""


class AnesMpcError(Exception):
    """Base class for all package errors."""


class ModelConfigError(AnesMpcError):
    """Invalid model parameters or configuration (CLI exit code 2)."""


class GeometryError(AnesMpcError):
    """LP / polyhedron computation failed (cycling, infeasible input, ...)."""


class SolverInfeasibleError(AnesMpcError):
    """A QP that must be feasible in nominal operation was not (CLI exit code 3).

    Carries an optional ``report`` with the violated constraints, the QP
    solver ``status`` ("infeasible" or "max_iter") and, when raised by
    ``Controller.control_step``, the ``step`` index counted from the
    controller's last reset.
    """

    def __init__(self, message: str, report=None, step: int | None = None,
                 status: str = "infeasible"):
        super().__init__(message)
        self.report = report
        self.step = step
        self.status = status
