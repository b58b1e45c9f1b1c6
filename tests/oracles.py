"""Test oracles and file readers that no run of the package calls: the
hit-and-run sampler of X_a, the open-loop replay of the compensated
model, the readers of a bundle's matrix and polyhedron files, the
Chebyshev centre as a function of its own and the offset cost of a
steady input."""

import numpy as np

from anesmpc import geometry, terminal
from anesmpc.errors import GeometryError, ModelConfigError
from anesmpc.geometry import FEAS_TOL, Polyhedron
from anesmpc.mpc import VdSpec
from anesmpc.pkpd import DiscreteDynamics
from anesmpc.terminal import TerminalIngredients


def sample_invariant_set(ing: TerminalIngredients, n_samples: int,
                         seed: int = 0, burn_in: int = 50) -> np.ndarray:
    """Hit-and-run samples from X_a, started at the steady pair that
    _steady_shift picks: X_a's centre of symmetry."""
    F, g = ing.X_a.F, ing.X_a.g
    dim = F.shape[1]
    w, _, _ = terminal._steady_shift(ing.A_w, ing.X_a)
    if np.any(g - F @ w <= 0.0):
        raise ModelConfigError("hit-and-run start is not interior to X_a")
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, dim))
    kept = 0
    steps = 0
    while kept < n_samples:
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        Fd = F @ d
        resid = g - F @ w
        with np.errstate(divide="ignore"):
            t_hi = np.min(np.where(Fd > 1e-14, resid / Fd, np.inf))
            t_lo = np.max(np.where(Fd < -1e-14, resid / Fd, -np.inf))
        if np.isfinite(t_hi) and np.isfinite(t_lo) and t_hi > t_lo:
            w = w + rng.uniform(t_lo, t_hi) * d
            steps += 1
            if steps > burn_in:
                out[kept] = w
                kept += 1
    return out


def simulate_nominal_fast(disc: DiscreteDynamics, v_seq: np.ndarray, x0=None) -> np.ndarray:
    """Replay a tracking-input sequence through the compensated 4-state
    model x+ = A x + B v; returns the state trajectory (len(v_seq)+1, 4)."""
    x = np.zeros(4) if x0 is None else np.asarray(x0, float).copy()
    out = np.empty((len(v_seq) + 1, 4))
    out[0] = x
    for k, v in enumerate(v_seq):
        x = disc.A_f @ x + disc.B @ v
        out[k + 1] = x
    return out


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        r, c = (int(t) for t in fh.readline().split())
        M = np.array([[float(t) for t in fh.readline().split()] for _ in range(r)])
    if M.shape != (r, c):
        raise GeometryError(f"matrix file {path} does not match its header")
    return M


def load_polyhedron(path) -> Polyhedron:
    with open(path) as fh:
        n, k = (int(t) for t in fh.readline().split())
        F = np.array([[float(t) for t in fh.readline().split()] for _ in range(k)])
        g = np.array([float(t) for t in fh.readline().split()])
    if F.shape != (k, n) or g.shape != (k,):
        raise GeometryError(f"polyhedron file {path} does not match its header")
    return Polyhedron(F, g)


def chebyshev_centre(poly: Polyhedron) -> tuple[np.ndarray, float]:
    """Centre w0 and radius r of a largest ball in the set, by one LP with
    the radius capped at 1 (see geometry._centre). A flat set gives r = 0;
    an empty one raises GeometryError.
    """
    w0, r = geometry._centre(poly)
    if r < -FEAS_TOL:
        raise GeometryError("polyhedron is empty")
    return w0, max(r, 0.0)


def offset_cost(vd: VdSpec, v_a) -> float:
    """The offset cost q (a . v_a - b)^2 of the steady input v_a."""
    v_a = np.asarray(v_a, float)
    return float(vd.weight * (np.asarray(vd.coeffs, float) @ v_a - vd.offset) ** 2)
