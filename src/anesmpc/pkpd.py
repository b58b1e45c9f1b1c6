"""Two-drug compartment dynamics and the Hill output map.

State conventions, fixed here and asserted by the constructors:

* fast state  x_f = (p1, p4, r1, r4): blood and effect-site concentration
  of propofol [mg/L] then remifentanil [ug/L];
* slow state  x_s = (p2, p3, r2, r3): muscle and fat concentration per drug.

Inputs are infusion rates, u = (u_p [mg/s], u_r [ug/s]). All rate
constants are stored per second; the patient-file loader converts from
the clinical units (volumes L, clearances L/min, ke 1/min).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelConfigError

FAST_STATE_ORDER = ("p1", "p4", "r1", "r4")
SLOW_STATE_ORDER = ("p2", "p3", "r2", "r3")


@dataclass(frozen=True)
class DrugPkParams:
    """Per-drug three-compartment PK parameters, per-second units."""

    V1: float
    V2: float
    V3: float
    Cl1: float
    Cl2: float
    Cl3: float
    ke: float

    def __post_init__(self):
        for name in ("V1", "V2", "V3", "Cl1", "Cl2", "Cl3", "ke"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ModelConfigError(
                    f"PK parameter {name} must be finite and strictly positive")

    # transfer rates, 1/s
    @property
    def k10(self) -> float:
        return self.Cl1 / self.V1

    @property
    def k12(self) -> float:
        return self.Cl2 / self.V1

    @property
    def k13(self) -> float:
        return self.Cl3 / self.V1

    @property
    def k21(self) -> float:
        return self.Cl2 / self.V2

    @property
    def k31(self) -> float:
        return self.Cl3 / self.V3


@dataclass(frozen=True)
class PdParams:
    """Additive two-drug Hill model for the BIS."""

    E0: float
    Emax: float
    gamma: float
    Ce50p: float
    Ce50r: float

    def __post_init__(self):
        if not 0.0 < self.E0 <= 100.0:
            raise ModelConfigError("PD parameter E0 must lie in (0, 100]")
        for name in ("Emax", "gamma", "Ce50p", "Ce50r"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ModelConfigError(
                    f"PD parameter {name} must be finite and strictly positive")


@dataclass(frozen=True)
class ContinuousDynamics:
    """Split continuous-time matrices: d/dt x_f = A_f x_f + B u + A_s x_s,
    d/dt x_s = A_ss x_s + A_sf x_f."""

    A_f: np.ndarray
    A_s: np.ndarray
    A_ss: np.ndarray
    A_sf: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class DiscreteDynamics:
    """Euler forward discretization of ContinuousDynamics at period Ts.

    A_f = I + Ts A_f^c and A_ss = I + Ts A_ss^c hold the propagators of
    the diagonal blocks; A_s = Ts A_s^c, A_sf = Ts A_sf^c and B = Ts B^c
    carry the couplings, so one step of the full model reads
    x_f+ = A_f x_f + B u + A_s x_s,  x_s+ = A_ss x_s + A_sf x_f.
    """

    A_f: np.ndarray
    A_s: np.ndarray
    A_ss: np.ndarray
    A_sf: np.ndarray
    B: np.ndarray
    Ts: float


@dataclass(frozen=True)
class PatientModel:
    pk_propofol: DrugPkParams
    pk_remifentanil: DrugPkParams
    pd: PdParams
    label: str = ""


def _as_state(x, kind: str, order: tuple) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (4,):
        raise ModelConfigError(f"{kind} state must have 4 entries {order}")
    if not np.isfinite(x).all():
        raise ModelConfigError(f"{kind} state contains NaN or Inf")
    return x


def as_fast_state(x) -> np.ndarray:
    """Validate and return a fast-state vector ordered (p1, p4, r1, r4)."""
    return _as_state(x, "fast", FAST_STATE_ORDER)


def as_slow_state(x) -> np.ndarray:
    """Validate and return a slow-state vector ordered (p2, p3, r2, r3)."""
    return _as_state(x, "slow", SLOW_STATE_ORDER)


def build_continuous(pk_p: DrugPkParams, pk_r: DrugPkParams) -> ContinuousDynamics:
    """Assemble the block-diagonal two-drug matrices from the rate constants.

    Per drug the fast block is [[-(k10+k12+k13), 0], [ke, -ke]] acting on
    (blood, effect site), the slow coupling carries (k12, k13) into the
    blood row, the slow block is diag(-k21, -k31) with return flow
    (k21, k31) from the blood state, and the input column is (1/V1, 0).
    """

    def blocks(pk: DrugPkParams):
        Af = np.array([[-(pk.k10 + pk.k12 + pk.k13), 0.0], [pk.ke, -pk.ke]])
        As = np.array([[pk.k12, pk.k13], [0.0, 0.0]])
        Ass = np.array([[-pk.k21, 0.0], [0.0, -pk.k31]])
        Asf = np.array([[pk.k21, 0.0], [pk.k31, 0.0]])
        B = np.array([[1.0 / pk.V1], [0.0]])
        return Af, As, Ass, Asf, B

    Afp, Asp, Assp, Asfp, Bp = blocks(pk_p)
    Afr, Asr, Assr, Asfr, Br = blocks(pk_r)
    z2 = np.zeros((2, 2))
    z21 = np.zeros((2, 1))
    return ContinuousDynamics(
        A_f=np.block([[Afp, z2], [z2, Afr]]),
        A_s=np.block([[Asp, z2], [z2, Asr]]),
        A_ss=np.block([[Assp, z2], [z2, Assr]]),
        A_sf=np.block([[Asfp, z2], [z2, Asfr]]),
        B=np.block([[Bp, z21], [z21, Br]]),
    )


def discretize_euler(cont: ContinuousDynamics, Ts: float) -> DiscreteDynamics:
    """Euler forward discretization; rejects a Ts that breaks positivity or
    Schur stability of the fast propagator."""
    if not Ts > 0.0:
        raise ModelConfigError("sampling period Ts must be positive")
    A_fd = np.eye(4) + Ts * cont.A_f
    rho = float(np.max(np.abs(np.linalg.eigvals(A_fd))))
    if np.any(A_fd < 0.0):
        raise ModelConfigError(
            f"Ts={Ts} makes the discrete fast matrix lose positivity "
            f"(min entry {A_fd.min():.3g})"
        )
    if rho >= 1.0:
        raise ModelConfigError(
            f"Ts={Ts} makes the discrete fast matrix unstable (spectral radius {rho:.6g})"
        )
    return DiscreteDynamics(
        A_f=A_fd,
        A_s=Ts * cont.A_s,
        A_ss=np.eye(4) + Ts * cont.A_ss,
        A_sf=Ts * cont.A_sf,
        B=Ts * cont.B,
        Ts=float(Ts),
    )


def full_step_matrices(disc: DiscreteDynamics) -> tuple[np.ndarray, np.ndarray]:
    """(M, B) with one step of the full 8-state model x+ = M x + B u,
    x = (x_f, x_s)."""
    M = np.block([[disc.A_f, disc.A_s], [disc.A_sf, disc.A_ss]])
    B = np.vstack([disc.B, np.zeros((4, 2))])
    return M, B


def bis_output(xf, pd: PdParams) -> float:
    """BIS from the effect-site concentrations (additive interaction).
    xf is checked as as_fast_state checks it, and the Hill curve is
    evaluated on Python floats: a closed loop calls this once per step,
    where numpy's fixed cost on 4 entries would outweigh the arithmetic.
    Where numpy's power gave NaN or inf, math.pow raises: on a negative
    potency sum (non-integer gamma) or a power that overflows."""
    x = np.asarray(xf, dtype=float).ravel().tolist()
    if len(x) != 4 or not all(map(math.isfinite, x)):
        as_fast_state(xf)  # raises on a wrong length or a NaN or Inf
    U = x[1] / pd.Ce50p + x[3] / pd.Ce50r
    Ug = math.pow(U, pd.gamma)
    return pd.E0 - pd.Emax * Ug / (1.0 + Ug)


def hill_invert(y_ref: float, pd: PdParams) -> float:
    """Normalized potency total c with bis_output == y_ref whenever
    x4p/Ce50p + x4r/Ce50r == c. Defined for y_ref in (E0 - Emax, E0];
    NaN lies in no range."""
    if not pd.E0 - pd.Emax < y_ref <= pd.E0:
        raise ModelConfigError(
            f"BIS target 'y_ref' = {y_ref:g} outside the reachable range "
            f"({pd.E0 - pd.Emax:.6g}, {pd.E0:.6g}]"
        )
    num = pd.E0 - y_ref
    den = pd.Emax - pd.E0 + y_ref
    return float((num / den) ** (1.0 / pd.gamma))


def steady_output_row(disc: DiscreteDynamics, pd: PdParams, y_ref: float):
    """Coefficients of the steady BIS equation in the input: the steady
    inputs holding the target satisfy g_eff . v_a = c."""
    G = np.array([0.0, 1.0 / pd.Ce50p, 0.0, 1.0 / pd.Ce50r])
    g_eff = G @ np.linalg.solve(np.eye(4) - disc.A_f, disc.B)
    return g_eff, hill_invert(y_ref, pd)


_PK_KEYS = ("V1", "V2", "V3", "Cl1", "Cl2", "Cl3", "ke")
_PD_KEYS = ("E0", "Emax", "gamma", "Ce50p", "Ce50r")


def ini_numbers(cfg: configparser.ConfigParser, section: str, key: str, count: int,
                path) -> np.ndarray:
    """The `count` comma- or space-separated finite numbers of `key` in
    [section]; anything else raises ModelConfigError naming file, section and key."""
    if not cfg.has_section(section):
        raise ModelConfigError(f"{path}: missing [{section}] section")
    where = f"{path}: key '{key}' in [{section}]"
    raw = cfg.get(section, key, fallback=None)
    if raw is None:
        raise ModelConfigError(f"{where} is missing")
    try:
        vals = np.array([float(t) for t in raw.replace(",", " ").split()])
    except ValueError as exc:
        raise ModelConfigError(f"{where} is not numeric") from exc
    if vals.size != count:
        raise ModelConfigError(f"{where} needs {count} value{'s' if count > 1 else ''}")
    if not np.all(np.isfinite(vals)):
        raise ModelConfigError(f"{where} must be finite")
    return vals


def ini_reject_unknown(cfg: configparser.ConfigParser, layout: dict, path) -> None:
    """Raise ModelConfigError naming the file and the first section outside
    `layout` (section -> its keys), or the section and key of the first
    key outside its section's keys, so a typo or a retired name is not
    ignored."""
    for section in cfg.sections():
        if section not in layout:
            raise ModelConfigError(f"{path}: unknown section [{section}]")
        known = {key.lower() for key in layout[section]}  # configparser lower-cases keys
        for key in cfg.options(section):
            if key not in known:
                raise ModelConfigError(f"{path}: unknown key '{key}' in [{section}]")


def load_patient(path) -> PatientModel:
    """Read a patient file with [propofol], [remifentanil] and [pd]
    sections in clinical units and convert rates to per-second."""
    path = Path(path)
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cfg.read(path):
        raise ModelConfigError(f"cannot read patient file {path}")

    ini_reject_unknown(cfg, {"propofol": _PK_KEYS, "remifentanil": _PK_KEYS, "pd": _PD_KEYS},
                       path)

    def read(section, keys):
        return {key: float(ini_numbers(cfg, section, key, 1, path)[0]) for key in keys}

    def pk(section):  # volumes stay in L; clearances and ke go per minute -> per second
        return DrugPkParams(**{key: value if key.startswith("V") else value / 60.0
                               for key, value in read(section, _PK_KEYS).items()})

    return PatientModel(
        pk_propofol=pk("propofol"),
        pk_remifentanil=pk("remifentanil"),
        pd=PdParams(**read("pd", _PD_KEYS)),
        label=path.stem,
    )
