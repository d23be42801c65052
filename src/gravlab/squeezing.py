"""Squeezed-state generation and the Gaussian tomography model.

Two layers:

* A truncated two-mode Fock space that validates the operator chain
  from spin-changing collisions down to a pair of single-mode squeezing
  terms, evolves the vacuum, and splits the result into the symmetric
  and antisymmetric modes. Every operator is a sparse CSR array, and
  each propagator acts on the state through the action of the matrix
  exponential, so none is ever formed; only `build_operators` returns
  dense matrices, for small cutoffs. scipy.sparse is imported inside
  the functions that use it, so loading this module loads no scipy.
* A four-number Gaussian model (atom number, squeezing strength,
  optimal readout phase, detection noise) that reproduces the measured
  variance-vs-angle tomography and the squeezing parameter in dB.

The full many-body state is never sampled at realistic atom numbers;
the Gaussian model carries those regimes and the Fock machinery pins
down the algebra at small cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigError, DomainError, NumericalError

# Bounds the state dimension of the sparse chain (the Hamiltonians,
# evolve, mode_transform, the three-mode full model), whose operators
# hold a few nonzeros per row.
MAX_MATRIX_DIM = 20000
# Bounds build_operators, which returns four dense dim x dim arrays:
# 134 MB each at the limit (n_max = 63).
MAX_DENSE_DIM = 4096


@dataclass(frozen=True)
class FockSpace:
    """Two bosonic modes, each truncated at occupation n_max."""

    n_max: int = 40

    def __post_init__(self):
        if self.n_max < 4:
            raise ConfigError("n_max must be >= 4")
        if self.dim > MAX_MATRIX_DIM:
            raise ConfigError(
                f"two-mode dimension {self.dim} exceeds limit {MAX_MATRIX_DIM}"
            )

    @property
    def dim_single(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.dim_single**2


@dataclass(frozen=True)
class HamiltonianParams:
    """Quadratic Zeeman energy, interaction strength, pump atom number."""

    zeeman_q_rad_s: float = 1.0
    interaction_rad_s: float = 1.0
    pump_atoms: int = 100

    def __post_init__(self):
        if self.pump_atoms < 1:
            raise ConfigError("pump_atoms must be >= 1")


def _mode_ladders(dim_single: int, modes: int) -> list[sp.csr_array]:
    """Sparse annihilation operator of each mode on the product space of
    `modes` modes, each truncated at dim_single levels (mode 0 is the
    most significant Kronecker factor)."""
    import scipy.sparse as sp

    a = sp.diags_array(np.sqrt(np.arange(1.0, dim_single)), offsets=1, format="csr")
    eye = sp.eye_array(dim_single, format="csr")
    ladders = []
    for k in range(modes):
        op = a if k == 0 else eye
        for j in range(1, modes):
            op = sp.kron(op, a if j == k else eye, format="csr")
        ladders.append(op)
    return ladders


@dataclass(frozen=True)
class ModeOperators:
    """Annihilation and number operators on the two-mode product space."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray


def build_operators(space: FockSpace) -> ModeOperators:
    """Dense ladder operators; the canonical commutator holds everywhere
    except the final Fock row, which the truncation necessarily breaks."""
    if space.dim > MAX_DENSE_DIM:
        raise ConfigError(
            f"dense two-mode dimension {space.dim} exceeds limit {MAX_DENSE_DIM}"
        )
    a_plus, a_minus = _mode_ladders(space.dim_single, 2)
    return ModeOperators(
        a_plus=a_plus.toarray(),
        a_minus=a_minus.toarray(),
        n_plus=(a_plus.T @ a_plus).toarray(),
        n_minus=(a_minus.T @ a_minus).toarray(),
    )


@dataclass(frozen=True)
class Hamiltonians:
    """The operator chain on the two-mode space (and optionally the
    three-mode original with an explicit pump mode)."""

    two_mode: sp.csr_array
    undepleted: sp.csr_array
    symmetric_mode: sp.csr_array
    antisymmetric_mode: sp.csr_array
    full: sp.csr_array | None = None


def build_hamiltonians(
    space: FockSpace,
    params: HamiltonianParams,
    include_full: bool = False,
) -> Hamiltonians:
    """Build the squeezing Hamiltonian chain.

    undepleted      = (q - Omega)(N+ + N-) - Omega (a+ a- + a+^ a-^)
    two_mode        = undepleted at q = Omega
    symmetric_mode  = -(Omega/2)(as as + as^ as^)   with as = (a+ + a-)/sqrt(2)
    antisymmetric_mode analogously; two_mode = symmetric - antisymmetric
    full            = pump-explicit collision Hamiltonian on a three-mode
                      space (only for small cutoffs; validation use)

    Every piece is sparse (CSR) with O(dim) nonzeros.
    """
    a_plus, a_minus = _mode_ladders(space.dim_single, 2)
    om = params.interaction_rad_s
    q = params.zeeman_q_rad_s

    pair = a_plus @ a_minus
    two_mode = -om * (pair + pair.T)
    number = a_plus.T @ a_plus + a_minus.T @ a_minus
    undepleted = (q - om) * number + two_mode

    a_s = (a_plus + a_minus) / math.sqrt(2.0)
    a_a = (a_plus - a_minus) / math.sqrt(2.0)
    h_s = -0.5 * om * (a_s @ a_s + a_s.T @ a_s.T)
    h_a = -0.5 * om * (a_a @ a_a + a_a.T @ a_a.T)

    full = None
    if include_full:
        import scipy.sparse as sp

        d = space.dim_single
        if d**3 > MAX_MATRIX_DIM:
            raise ConfigError(
                f"three-mode dimension {d**3} exceeds limit {MAX_MATRIX_DIM}"
            )
        a0, ap, am = _mode_ladders(d, 3)
        n0 = a0.T @ a0
        nboth = ap.T @ ap + am.T @ am
        pump_pair = a0.T @ a0.T @ ap @ am
        n = params.pump_atoms
        full = (
            q * nboth
            - (om / n) * ((n0 - 0.5 * sp.eye_array(d**3)) @ nboth + pump_pair + pump_pair.T)
        ).tocsr()

    return Hamiltonians(
        two_mode=two_mode,
        undepleted=undepleted,
        symmetric_mode=h_s,
        antisymmetric_mode=h_a,
        full=full,
    )


def vacuum_state(space: FockSpace) -> np.ndarray:
    psi = np.zeros(space.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def evolve(
    hamiltonian: np.ndarray | sp.sparray, state: np.ndarray, duration: float
) -> np.ndarray:
    """exp(-i H t) |state> for a dense or sparse H.

    Applies the exponential to the state without forming it (truncated
    Taylor series with scaling, Al-Mohy & Higham, SIAM J. Sci. Comput.
    33, 488 (2011)). The cost is a sequence of products H @ psi, so a
    sparse H never becomes a dense dim x dim matrix.
    """
    from scipy.sparse.linalg import expm_multiply

    out = expm_multiply(-1j * duration * hamiltonian, state)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-8:
        raise NumericalError(f"evolution norm drift {abs(norm - 1.0):.2e}")
    return out


def mean_occupations(state: np.ndarray, space: FockSpace) -> tuple[float, float]:
    """(mean n of mode +, mean n of mode -) for a two-mode state."""
    psi = state.reshape(space.dim_single, space.dim_single)
    prob = np.abs(psi) ** 2
    n = np.arange(space.dim_single)
    return float(np.sum(prob.sum(axis=1) * n)), float(np.sum(prob.sum(axis=0) * n))


def occupation_distribution(state: np.ndarray, space: FockSpace, mode: int = 0) -> np.ndarray:
    """Marginal occupation distribution of one mode (0 = first)."""
    psi = state.reshape(space.dim_single, space.dim_single)
    prob = np.abs(psi) ** 2
    return prob.sum(axis=1) if mode == 0 else prob.sum(axis=0)


def mode_transform(state: np.ndarray, space: FockSpace) -> np.ndarray:
    """Rotate a two-mode state into the symmetric/antisymmetric basis.

    The first output mode is the symmetric superposition; applying this
    to the two-mode squeezed vacuum factors it into two single-mode
    squeezed vacua with opposite phases. Modeling the rf transfer as
    keeping only the symmetric mode then amounts to taking the first
    marginal.

    The beamsplitter exp(theta (a+^ a- - a+ a-^)) at theta = pi/4 acts
    on the state through its sparse generator, as in `evolve`; the real
    orthogonal dim x dim propagator is never formed.
    """
    if state.shape != (space.dim,):
        raise DomainError(f"state must have shape ({space.dim},)")
    from scipy.sparse.linalg import expm_multiply

    a_plus, a_minus = _mode_ladders(space.dim_single, 2)
    gen = a_plus.T @ a_minus - a_plus @ a_minus.T
    out = expm_multiply((math.pi / 4.0) * gen, state)
    norm = float(np.linalg.norm(out))
    if abs(norm - float(np.linalg.norm(state))) > 1e-8:
        raise NumericalError("mode transform broke normalization")
    return out


def squeezed_vacuum_stats(r: float) -> dict:
    """Analytic two-mode squeezed vacuum numbers for evolution time r.

    Mean occupation sinh^2(r) per mode; the extracted symmetric mode is
    a single-mode squeezed vacuum with quadrature variances e^{-2r}/2
    and e^{+2r}/2 (vacuum variance 1/2 convention).
    """
    if r < 0:
        raise DomainError("squeezing strength r must be >= 0")
    s2 = math.sinh(r) ** 2
    return {
        "mean_atoms_per_mode": s2,
        "mean_total": 2.0 * s2,
        "quadrature_var_minus": 0.5 * math.exp(-2.0 * r),
        "quadrature_var_plus": 0.5 * math.exp(2.0 * r),
    }


# ---------------------------------------------------------------------------
# Gaussian tomography model


@dataclass(frozen=True)
class SqueezingModel:
    """Gaussian readout model of the interferometer input state."""

    atom_number: float = 6000.0
    strength: float = 0.0           # r; 0 = coherent input
    optimal_phase_rad: float = 1.2 * math.pi
    detection_noise_atoms: float = 0.0  # std added to the imbalance

    def __post_init__(self):
        if self.atom_number <= 0:
            raise ConfigError("atom_number must be > 0")
        if self.strength < 0:
            raise ConfigError("squeezing strength must be >= 0")
        if self.detection_noise_atoms < 0:
            raise ConfigError("detection noise must be >= 0")


def tomography_variance(model: SqueezingModel, phi_rad: float) -> float:
    """Imbalance variance at tomography angle phi (atoms^2), period pi."""
    n, r = model.atom_number, model.strength
    if r == 0.0:
        # isotropic: exactly the projection limit at every angle
        return n / 4.0 + model.detection_noise_atoms**2
    d = phi_rad - model.optimal_phase_rad
    quantum = (n / 4.0) * (
        math.exp(-2.0 * r) * math.cos(d) ** 2 + math.exp(2.0 * r) * math.sin(d) ** 2
    )
    return quantum + model.detection_noise_atoms**2


def squeezing_parameter(variance_atoms2: float, atom_number: float) -> tuple[float, float]:
    """Number-squeezing parameter (linear, dB): 4 Var / N vs the
    quantum projection limit N/4."""
    if variance_atoms2 <= 0:
        raise DomainError("variance must be > 0")
    if atom_number <= 0:
        raise DomainError("atom number must be > 0")
    linear = 4.0 * variance_atoms2 / atom_number
    return linear, 10.0 * math.log10(linear)


def calibrate_model(
    min_db: float,
    max_db: float,
    atom_number: float,
    optimal_phase_rad: float = 1.2 * math.pi,
) -> SqueezingModel:
    """Solve the Gaussian model from the two tomography extremes.

    With A = 10^(min/10), B = 10^(max/10) and d = 4 sigma_det^2 / N:
        e^{-2r} + d = A,   e^{+2r} + d = B
    giving r = asinh((B - A)/2)/2 and d = A - e^{-2r}. Infeasible when
    d < 0, i.e. when the extremes are closer than a pure minimum-
    uncertainty state allows.
    """
    if min_db > max_db:
        raise DomainError("min_db must be <= max_db")
    lo = 10.0 ** (min_db / 10.0)
    hi = 10.0 ** (max_db / 10.0)
    r = 0.5 * math.asinh((hi - lo) / 2.0)
    d = lo - math.exp(-2.0 * r)
    if d < -1e-12:
        raise CalibrationError(
            f"targets ({min_db}, {max_db}) dB violate e^(-2r)+e^(2r) >= 2: "
            f"residual detection variance would be negative (d = {d:.3e})"
        )
    sigma_det = math.sqrt(max(d, 0.0) * atom_number / 4.0)
    return SqueezingModel(
        atom_number=atom_number,
        strength=r,
        optimal_phase_rad=optimal_phase_rad,
        detection_noise_atoms=sigma_det,
    )


def coherent_model(
    atom_number: float, optimal_phase_rad: float = 1.2 * math.pi
) -> SqueezingModel:
    """Ideal coherent input: projection noise only, 0 dB at every angle."""
    return SqueezingModel(
        atom_number=atom_number,
        strength=0.0,
        optimal_phase_rad=optimal_phase_rad,
        detection_noise_atoms=0.0,
    )
