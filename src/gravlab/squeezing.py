"""Squeezed-state generation and the Gaussian tomography model.

Two layers:

* A truncated two-mode Fock space that validates the operator chain
  from spin-changing collisions down to a pair of single-mode squeezing
  terms, evolves the vacuum, and splits the result into the symmetric
  and antisymmetric modes. Every operator is a sparse CSR array. Each
  Hamiltonian conserves a number (N+ - N-, N+ + N- or parity), so its
  propagator is block diagonal: `evolve` finds the blocks with numpy,
  exponentiates each occupied one by its eigendecomposition, and the
  beamsplitter is one more call to `evolve`. scipy.sparse, the only
  scipy it needs, is imported inside the functions that use it.
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

from .errors import COUNT, NON_NEGATIVE, NUMBER, POSITIVE, check_fields
from .errors import CalibrationError, ConfigError, DomainError, NumericalError

# Bounds the state vector (1 MB complex at the limit) of the two-mode
# space and of the three-mode full model; their sparse operators hold a
# few nonzeros per row.
MAX_MATRIX_DIM = 65536
# Bounds one conserved sector that evolve exponentiates as a dense
# block: 67 MB complex at the limit.
MAX_BLOCK_DIM = 2048


@dataclass(frozen=True)
class FockSpace:
    """Two bosonic modes, each truncated at occupation n_max."""

    n_max: int = 40

    def __post_init__(self):
        if not (isinstance(self.n_max, (int, np.integer)) and self.n_max >= 4):
            raise ConfigError(f"n_max must be an integer >= 4, got {self.n_max!r}")
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
        check_fields(self, zeeman_q_rad_s=NUMBER, interaction_rad_s=NUMBER, pump_atoms=COUNT)


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


def _sectors(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label each of range(n) by the smallest index of its component in the
    undirected graph of edges (rows[i], cols[i]): root hooking with pointer
    jumping (Shiloach & Vishkin, J. Algorithms 3, 57, 1982), each round
    hooking every root onto the smallest smaller root across its edges."""
    label = np.arange(n, dtype=np.int64)
    while True:
        ends = label.take(rows), label.take(cols)
        high, low = np.maximum(*ends), np.minimum(*ends)
        if not (cross := high != low).any():
            return label
        # sorted by (root, smaller root), a root's first edge has its minimum
        key = np.sort(high[cross] << 32 | low[cross])  # n < 2^31
        rows, cols = key >> 32, key & 0xFFFFFFFF
        head = np.flatnonzero(np.diff(rows, prepend=-1))
        label[rows[head]] = cols[head]
        while not np.array_equal(jumped := label.take(label), label):
            label = jumped


def evolve(
    hamiltonian: np.ndarray | sp.sparray, state: np.ndarray, duration: float
) -> np.ndarray:
    """exp(-i H t) |state> for a Hermitian H, dense or sparse.

    H is block diagonal over the connected components of its nonzero
    pattern, the sectors of whatever it conserves. Each sector the state
    occupies is exponentiated exactly through the eigendecomposition
    (numpy eigh) of its dense block; sectors where the state is zero stay
    zero. No dim x dim matrix is formed.
    """
    import scipy.sparse as sp

    h = sp.csr_array(hamiltonian)
    if abs(h - h.conj().T).max() > 1e-12 * max(1.0, abs(h).max()):
        raise NumericalError("hamiltonian is not Hermitian")
    h = h.tocoo()  # the entries toarray places: duplicates summed, zeros dropped
    h.sum_duplicates()
    h.eliminate_zeros()
    sector = _sectors(h.shape[0], h.row, h.col)
    occupied = np.unique(sector[state != 0])
    largest = np.bincount(sector)[occupied].max(initial=0)
    if largest > MAX_BLOCK_DIM:
        raise ConfigError(f"conserved sector of dimension {largest} exceeds limit {MAX_BLOCK_DIM}")

    # each occupied sector's indices, ascending, and its entries
    groups = []
    for labels in (sector, sector[h.row]):
        picked = np.flatnonzero(np.isin(labels, occupied))
        picked = picked[np.argsort(labels[picked], kind="stable")]
        groups.append(np.split(picked, np.searchsorted(labels[picked], occupied))[1:])
    out = np.zeros(state.shape, dtype=complex)
    for mine, inside in zip(*groups):
        block = np.zeros((len(mine), len(mine)), dtype=h.dtype)
        block[np.searchsorted(mine, h.row[inside]), np.searchsorted(mine, h.col[inside])] = h.data[inside]
        energy, vectors = np.linalg.eigh(block)
        out[mine] = vectors @ (np.exp(-1j * duration * energy) * (vectors.conj().T @ state[mine]))
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(state)))
    if drift > 1e-8:
        raise NumericalError(f"evolution norm drift {drift:.2e}")
    return out


def mean_occupations(state: np.ndarray, space: FockSpace) -> tuple[float, float]:
    """(mean n of mode +, mean n of mode -) for a two-mode state."""
    n = np.arange(space.dim_single)
    return tuple(float(np.sum(occupation_distribution(state, space, mode) * n)) for mode in (0, 1))


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

    The beamsplitter exp(theta G), G = a+^ a- - a+ a-^, at theta = pi/4
    is evolve under the Hermitian H = iG for t = pi/4. It conserves
    N+ + N-, so it acts block by block on fixed total number.
    """
    if state.shape != (space.dim,):
        raise DomainError(f"state must have shape ({space.dim},)")
    a_plus, a_minus = _mode_ladders(space.dim_single, 2)
    return evolve(1j * (a_plus.T @ a_minus - a_plus @ a_minus.T), state, math.pi / 4.0)


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
        check_fields(
            self, atom_number=POSITIVE, strength=NON_NEGATIVE, optimal_phase_rad=NUMBER,
            detection_noise_atoms=NON_NEGATIVE,
        )


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
        detection_noise_atoms=sigma_det,
    )


def coherent_model(atom_number: float) -> SqueezingModel:
    """Ideal coherent input: projection noise only, 0 dB at every angle."""
    return SqueezingModel(
        atom_number=atom_number,
        strength=0.0,
        detection_noise_atoms=0.0,
    )
