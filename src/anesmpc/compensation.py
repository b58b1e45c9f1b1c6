"""Slow-state disturbance compensation and input-set tightening.

The applied input is split as u = v + m with m = D x_s chosen so the
slow compartments stop driving the fast ones. Because m is nonpositive
and bounded below by -m_bar, the MPC input v must live in the tightened
box V = U (-) M, the Pontryagin difference of the input box by
{-m_bar <= m <= 0}: for axis-aligned boxes that is exactly
[u_min + m_bar, u_max].

The bound m_bar is either supplied ("fixed") or computed ("worst-case")
as |D x_s| at the steady state of the full model under maximal input,
one 8 x 8 linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError
from .pkpd import ContinuousDynamics, DiscreteDynamics, full_step_matrices

DISTURBANCE_MODES = ("worst-case", "fixed")


@dataclass(frozen=True)
class CompensationGain:
    """D maps the slow state to the input correction m = D x_s <= 0."""

    D: np.ndarray


@dataclass(frozen=True)
class InputBox:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ModelConfigError("input box bounds must have equal length")
        if np.any(lo > hi):
            raise ModelConfigError("input box has lower > upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def compensation_gain(dyn: ContinuousDynamics | DiscreteDynamics) -> CompensationGain:
    """Least-squares gain D = -(B'B)^-1 B' A_s, which zeroes A_s + B D.

    Identical for the continuous and the Euler-discretized matrices: the
    sampling period cancels in the pseudo-inverse.
    """
    B, A_s = dyn.B, dyn.A_s
    BtB = B.T @ B
    if np.linalg.matrix_rank(BtB) < B.shape[1]:
        raise ModelConfigError("input matrix B is rank deficient")
    D = -np.linalg.solve(BtB, B.T @ A_s)
    return CompensationGain(D=D)


def disturbance_bound(disc: DiscreteDynamics, U: InputBox, mode: str,
                      fixed=None) -> np.ndarray:
    """Componentwise bound m_bar with -m_bar <= D x_s <= 0.

    "worst-case" takes the global steady state of the full 8-state model
    under maximal input, x = (I - M)^-1 B u_max, and returns m_bar =
    -D x_s there. The model is positive, so from rest under constant
    input the slow states rise monotonically to that point and no
    trajectory from rest exceeds it; per drug it is the closed form
    (Cl2+Cl3)/Cl1 * u_max. "fixed" passes through a user-supplied vector.
    """
    if mode == "fixed":
        if fixed is None:
            raise ModelConfigError("disturbance bound mode 'fixed' needs a vector")
        m_bar = np.asarray(fixed, dtype=float).ravel()
        if m_bar.shape != (2,) or np.any(m_bar < 0.0):
            raise ModelConfigError("fixed disturbance bound 'm_bar' must be 2 nonnegative floats")
        return m_bar
    if mode == "worst-case":
        M, B = full_step_matrices(disc)
        x = np.linalg.solve(np.eye(8) - M, B @ U.upper)
        return -(compensation_gain(disc).D @ x[4:])
    raise ModelConfigError(f"unknown disturbance bound mode '{mode}'")


def tracking_input_set(U: InputBox, m_bar) -> InputBox:
    """Pontryagin difference of the input box by {-m_bar <= m <= 0}."""
    m_bar = np.asarray(m_bar, dtype=float).ravel()
    lower = U.lower + m_bar
    if np.any(lower > U.upper):
        raise ModelConfigError("input box too tight for disturbance bound")
    return InputBox(lower=lower, upper=U.upper.copy())
