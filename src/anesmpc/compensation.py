"""Slow-state disturbance compensation and input-set tightening.

The applied input is split as u = v + m with m = D x_s chosen so the
slow compartments stop driving the fast ones. Because m is nonpositive
and bounded below by -m_bar, the MPC input v must live in the tightened
box V = U (-) M, the Pontryagin difference of the input box by
{-m_bar <= m <= 0}: for axis-aligned boxes that is exactly
[u_min + m_bar, u_max].

The bound m_bar comes from the controller file. The model-derived bound,
|D x_s| at the steady state under maximal input, is (Cl2+Cl3)/Cl1 * u_max
per drug; on the shipped patient it exceeds the propofol limit and leaves
V empty, so it is not offered. `validate` checks the configured bound
against the nominal closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError
from .pkpd import ContinuousDynamics, DiscreteDynamics


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


def disturbance_bound(m_bar) -> np.ndarray:
    """The configured bound m_bar with -m_bar <= D x_s <= 0, checked to be
    2 nonnegative numbers."""
    m_bar = np.asarray(m_bar, dtype=float).ravel()
    if m_bar.shape != (2,) or not np.all(m_bar >= 0.0):
        raise ModelConfigError("disturbance bound 'm_bar' must be 2 nonnegative floats")
    return m_bar


def tracking_input_set(U: InputBox, m_bar) -> InputBox:
    """Pontryagin difference of the input box by {-m_bar <= m <= 0}."""
    m_bar = np.asarray(m_bar, dtype=float).ravel()
    lower = U.lower + m_bar
    if np.any(lower > U.upper):
        raise ModelConfigError("input box too tight for disturbance bound")
    return InputBox(lower=lower, upper=U.upper.copy())
