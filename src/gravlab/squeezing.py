"""Squeezed-state generation and the Gaussian tomography model.

Two layers:

* A truncated two-mode Fock space that validates the operator chain from
  spin-changing collisions down to a pair of single-mode squeezing terms,
  evolves the vacuum, and splits the result into the symmetric and
  antisymmetric modes. Every operator is a SparseOperator, numpy coordinate
  arrays of a few bands whose entries are products of the sqrt(n) read off
  each index i = n+ (n_max + 1) + n-: no Kronecker or matrix products. Each
  builder labels every index with the number its operator conserves (N+ - N-,
  N+ + N- or the parity of N+ + N-), over which the propagator is block
  diagonal. The index table (n+-, sqrt(n+-) and the two labels) belongs to
  the FockSpace, which computes it once for its beamsplitter and every chain
  on it. `evolve` exponentiates each occupied block by its eigendecomposition,
  which the operator keeps as long as it lives, so a sweep of durations on one
  H decomposes each block once. A chain builds each of its four operators on
  first access and keeps it, so a caller pays only for the ones it touches;
  likewise the beamsplitter, which its FockSpace builds once and keeps, is one
  more call to `evolve`, in the gauge diag(i^n+) where its generator is real.
  The pump-explicit model, which the chain approximates by an undepleted pump,
  is built on the only block it reaches from the pump vacuum, |N - 2k, k, k>:
  tridiagonal in k, whatever the pump's atom number N. The layer needs numpy only.
* A four-number Gaussian model (atom number, squeezing strength,
  tomography angle of the squeezed quadrature, detection noise) whose one
  readout_variance gives the shots' readout noise and the measured
  variance-vs-angle tomography, and the squeezing parameter in dB.

The full many-body state is never sampled at realistic atom numbers;
the Gaussian model carries those regimes and the Fock machinery pins
down the algebra at small cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import COUNT, NON_NEGATIVE, NUMBER, POSITIVE, SIZE, Rule, check_fields, float_or_array, in_float_range, require
from .errors import CalibrationError, ConfigError, DomainError, NumericalError, as_numbers, require_each, require_finite

# Bounds the state vector (1 MB complex at the limit) of the two-mode
# space, whose sparse operators hold a few nonzeros per row.
MAX_MATRIX_DIM = 65536
# Bounds one conserved sector that evolve exponentiates as a dense
# block (67 MB complex at the limit), and the eigenvector entries an
# operator keeps: MAX_BLOCK_DIM**2.
MAX_BLOCK_DIM = 2048


@dataclass(frozen=True)
class FockSpace:
    """Two bosonic modes, each truncated at occupation n_max; keeps mode_transform's beamsplitter."""

    n_max: int = 40

    def __post_init__(self):
        check_fields(self, n_max=Rule(lambda v: SIZE.test(v) and v >= 4, "an integer >= 4"))
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

    @cached_property
    def _levels(self) -> tuple[np.ndarray, ...]:
        """n+, n-, sqrt(n+), sqrt(n-), N+ - N- and N+ + N- (int16: checks gather two) of each n+ (n_max + 1) + n-."""
        plus, minus = np.divmod(np.arange(self.dim, dtype=np.int32), self.dim_single)
        return plus, minus, np.sqrt(plus), np.sqrt(minus), (plus - minus).astype(np.int16), (plus + minus).astype(np.int16)

    @cached_property
    def _beamsplitter(self) -> SparseOperator:
        """The real-gauge generator a+ a-^ + a+^ a- of mode_transform, labelled by N+ + N-."""
        d, (_, _, root_plus, root_minus, _, total) = self.dim_single, self._levels
        bands = {d - 1: root_plus[d - 1:] * root_minus[: 1 - d]}  # a+ a-^ at (i, i + d - 1)
        return _symmetric_bands(self.dim, bands, total)


@dataclass(frozen=True)
class HamiltonianParams:
    """Quadratic Zeeman energy, interaction strength, pump atom number."""

    zeeman_q_rad_s: float = 1.0
    interaction_rad_s: float = 1.0
    pump_atoms: int = 100

    def __post_init__(self):
        check_fields(self, zeeman_q_rad_s=NUMBER, interaction_rad_s=NUMBER, pump_atoms=COUNT)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A sparse operator as numpy coordinate arrays, data[i] at (rows[i], cols[i]) in no order,
    entries at one place summing as in scipy.sparse, with sector[j], an integer label of index j
    by a number the operator conserves: no entry joins two labels, so it is block diagonal over them.

    Construction copies the four arrays, rows and cols as int32 while the shape allows (as
    scipy.sparse does), and makes them read-only. It raises DomainError for a shape that is not
    square, index arrays that are not one integer in range per entry of data (or per index, for
    sector), a NaN or +-inf entry, or an entry whose row and column have different labels.
    `evolve` keeps on the operator the eigendecomposition of each block it decomposes, up to
    MAX_BLOCK_DIM**2 eigenvector entries, for as long as the operator lives."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    sector: np.ndarray
    # {label: (indices, energies, eigenvectors)} of the blocks evolve has decomposed
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.shape) != 2 or self.shape[0] != self.shape[1] or not SIZE.test(self.shape[0]):
            raise DomainError(f"SparseOperator.shape must be square, got {self.shape}")
        n = self.shape[0]
        for name in ("rows", "cols", "data", "sector"):
            shape = None if name == "rows" else (n,) if name == "sector" else self.rows.shape
            array = as_numbers(f"SparseOperator.{name}", getattr(self, name), shape)
            if name != "data" and (array.ndim != 1 or array.size and array.dtype.kind not in "iu"):
                raise DomainError(f"SparseOperator.{name} must be 1-d integers, got {array.dtype} {array.shape}")
            if index := name in ("rows", "cols"):  # checked before the copy to int32, which would wrap them
                if array.size and not 0 <= array.min() <= array.max() < n:
                    raise DomainError(f"SparseOperator.{name} must hold indices in [0, {n})")
            array = array.astype((np.int32 if n <= 2**31 else np.intp) if index else array.dtype)  # its own copy
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        require_finite("SparseOperator.data", self.data)
        if (across := self.sector.take(self.rows) != self.sector.take(self.cols)).any():
            row, col = self.rows[across.argmax()], self.cols[across.argmax()]
            raise DomainError(f"SparseOperator entry at ({row}, {col}) joins sectors {self.sector[row]} and {self.sector[col]}")

    @property
    def nnz(self) -> int:
        """The number of stored entries; `size` too, as scipy.sparse defines both."""
        return len(self.data)

    size = nnz

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense


def _symmetric_bands(dim: int, bands: dict[int, np.ndarray], sector: np.ndarray) -> SparseOperator:
    """Real symmetric operator labelled `sector`, with bands[k] (k >= 0) on diagonals
    +k and -k, entry i of each at row i of the upper one; zeros are not stored."""
    rows, cols, data = [], [], []
    for k, values in bands.items():
        at = np.flatnonzero(values)
        rows += [at, at + k] if k else [at]
        cols += [at + k, at] if k else [at]
        data += [values[at]] * (2 if k else 1)
    rows, cols, data = map(np.concatenate, (rows, cols, data))  # the pieces go before the operator copies these
    return SparseOperator((dim, dim), rows, cols, data, sector)


@dataclass(frozen=True)
class Hamiltonians:
    """The operator chain on the two-mode space, pump replaced by a number (see build_hamiltonians).

    Each operator is built on first access and kept as long as the chain lives, as a FockSpace
    keeps its beamsplitter, with the eigendecompositions `evolve` keeps on it; the four read the
    index table of `space`. Equality, hash and repr see `space` and `params` only. Construction
    raises DomainError if an entry would leave the float range."""

    space: FockSpace
    params: HamiltonianParams

    def __post_init__(self):
        # the largest |entry|, computed as the builders compute it: |Omega| sqrt(n_max)^2 on the
        # pair band, |q - Omega| 2 sqrt(n_max)^2 on undepleted's diagonal, at most half of the
        # pair band's on the halves; Python floats, so an overflow gives inf, not a numpy warning
        q, om, root = float(self.params.zeeman_q_rad_s), float(self.params.interaction_rad_s), math.sqrt(self.space.n_max)
        in_float_range(
            "max(|Omega|, 2|q - Omega|) n_max", lambda: max(abs(om), 2.0 * abs(q - om)) * (root * root),
            zeeman_q_rad_s=q, interaction_rad_s=om, n_max=self.space.n_max,
        )

    @cached_property
    def two_mode(self) -> SparseOperator:
        return self._pairs_and_number(0.0)

    @cached_property
    def undepleted(self) -> SparseOperator:
        return self._pairs_and_number(float(self.params.zeeman_q_rad_s) - float(self.params.interaction_rad_s))

    def _pairs_and_number(self, detuning: float) -> SparseOperator:
        """detuning (N+ + N-) - Omega (a+ a- + a+^ a-^); a zero diagonal is not stored."""
        d, (_, _, n_plus, n_minus, difference, _) = self.space.dim_single, self.space._levels
        bands = {0: detuning * (n_plus**2 + n_minus**2)} if detuning else {}
        bands[d + 1] = -float(self.params.interaction_rad_s) * (n_plus * n_minus)[d + 1:]  # a+ a- at (i, i + d + 1)
        return _symmetric_bands(self.space.dim, bands, difference)

    @cached_property
    def symmetric_mode(self) -> SparseOperator:
        return self._half(+1.0)

    @cached_property
    def antisymmetric_mode(self) -> SparseOperator:
        return self._half(-1.0)

    def _half(self, sign: float) -> SparseOperator:
        """-(Omega/2)(a a + a^ a^) of a = (a+ + sign a-)/sqrt(2)."""
        d, (_, _, n_plus, n_minus, _, total) = self.space.dim_single, self.space._levels
        # (a+ +- a-)/sqrt(2) as a product with 1/sqrt(2), as scipy.sparse divides, squared:
        # the a+ a+ and a- a- bands are shared, the cross band sums two equal products
        u, w = n_plus * (1.0 / math.sqrt(2.0)), n_minus * (1.0 / math.sqrt(2.0))
        cross, scale = sign * (u * w)[d + 1:], -0.5 * float(self.params.interaction_rad_s)
        bands = {2 * d: u[d:-d] * u[2 * d:], 2: w[1:-1] * w[2:], d + 1: cross + cross}
        return _symmetric_bands(self.space.dim, {k: scale * v for k, v in bands.items()}, total % 2)


def build_hamiltonians(space: FockSpace, params: HamiltonianParams) -> Hamiltonians:
    """The squeezing Hamiltonian chain, a new one on every call:

    undepleted      = (q - Omega)(N+ + N-) - Omega (a+ a- + a+^ a-^)
    two_mode        = undepleted at q = Omega
    symmetric_mode  = -(Omega/2)(as as + as^ as^)   with as = (a+ + a-)/sqrt(2)
    antisymmetric_mode analogously; two_mode = symmetric - antisymmetric

    Every piece is a SparseOperator with O(dim) nonzeros, labelled by
    N+ - N- (two_mode, undepleted) or the parity of N+ + N- (the halves).
    The chain builds each on first access and keeps it (see Hamiltonians),
    so a caller pays only for the pieces it touches; an equal chain built
    anew builds and decomposes afresh. Raises DomainError, naming q, Omega
    and n_max, if max(|Omega|, 2|q - Omega|) n_max leaves the float range.
    """
    return Hamiltonians(space, params)


def pump_block(space: FockSpace, params: HamiltonianParams) -> SparseOperator:
    """The pump-explicit collision Hamiltonian of a pump of N atoms,

        q (N+ + N-) - (Omega/N) [(N0 - 1/2)(N+ + N-) + a0^ a0^ a+ a- + a0 a0 a+^ a-^],

    on the levels |N - 2k, k, k> (pump, +, -), k = 0 ... min(n_max, N // 2),
    that it reaches from the pump vacuum |N, 0, 0> (index 0): it conserves
    N0 + N+ + N- and N+ - N-. Real symmetric tridiagonal: the pair
    cutoff n_max caps the block, never the pump.
    """
    n, om = params.pump_atoms, params.interaction_rad_s
    # the largest product under a square root; 10**400 is no float at all
    in_float_range("(N + 1)(N + 2)", lambda: (n + 1.0) * (n + 2.0), pump_atoms=n)
    k = np.arange(min(space.n_max, n // 2) + 1.0)
    pump = n - 2.0 * k  # N0 at level k
    return _symmetric_bands(len(k), {
        0: 2.0 * k * (params.zeeman_q_rad_s - (om / n) * (pump - 0.5)),
        1: -(om / n) * k[1:] * np.sqrt((pump[1:] + 1.0) * (pump[1:] + 2.0)),  # <k-1|H|k>
    }, np.zeros(len(k), dtype=np.int16))


def vacuum_state(space: FockSpace) -> np.ndarray:
    psi = np.zeros(space.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def evolve(hamiltonian: SparseOperator, state, duration: float) -> np.ndarray:
    """exp(-i H t) |state> for a Hermitian SparseOperator H.

    H is block diagonal over its sector labels. Each block the state occupies
    is exponentiated exactly through the eigendecomposition (numpy eigh) of
    its dense block, indices ascending, and must be Hermitian; blocks where
    the state is zero stay zero. No dim x dim matrix is formed.

    exp(-i H t) has the same eigenvectors at every t, so H keeps the
    decomposition of each block a state has occupied while those hold at
    most MAX_BLOCK_DIM**2 eigenvector entries (past that, a block is
    decomposed for the call and dropped): a sweep of durations on one H
    decomposes each block once, and a kept block gives the same bits as
    a fresh one. The Hermitian check (NumericalError) runs whenever a
    block is decomposed; the MAX_BLOCK_DIM refusal (ConfigError) and the
    norm guard run on every call, and so do the refusals (DomainError) of
    an H that is no SparseOperator and of a state that is ragged, not
    numbers, not of shape (d,) or not finite.
    """
    require(NUMBER, "duration", duration)
    if not isinstance(h := hamiltonian, SparseOperator):
        raise DomainError(f"hamiltonian must be a SparseOperator, got {type(h).__name__}")
    state = as_numbers("state", state, (h.shape[0],))
    require_finite("state", state)
    kept = h._blocks.copy()  # a snapshot: another thread may add to the operator's own
    occupied = np.unique(h.sector[state != 0]).tolist()
    fresh = {label: np.flatnonzero(h.sector == label) for label in occupied if label not in kept}
    sizes = [len(kept[label][0]) if label in kept else len(fresh[label]) for label in occupied]
    if (largest := max(sizes, default=0)) > MAX_BLOCK_DIM:
        raise ConfigError(f"conserved sector of dimension {largest} exceeds limit {MAX_BLOCK_DIM}")
    if fresh:
        of_entry = h.sector.take(h.rows)
        tolerance = 1e-12 * max(1.0, np.abs(h.data).max(initial=0.0))
    for label, inside in fresh.items():
        within = np.flatnonzero(of_entry == label)
        at = np.searchsorted(inside, h.rows[within]), np.searchsorted(inside, h.cols[within])
        block = np.zeros((len(inside), len(inside)), dtype=h.data.dtype)
        np.add.at(block, at, h.data[within])
        if np.abs(block - block.conj().T).max(initial=0.0) > tolerance:
            raise NumericalError("hamiltonian is not Hermitian")
        kept[label] = (inside, *np.linalg.eigh(block))
    # kept on H while it holds at most MAX_BLOCK_DIM**2 eigenvector entries, counting what
    # other threads have added by now; past that, this call's last blocks go first
    mine = [label for label in fresh if h._blocks.setdefault(label, kept[label]) is kept[label]]
    held = sum(vectors.size for _, _, vectors in h._blocks.copy().values())
    while mine and held > MAX_BLOCK_DIM**2:
        held -= h._blocks.pop(mine.pop())[2].size
    out = np.zeros(state.shape, dtype=complex)
    for label in occupied:
        inside, energy, vectors = kept[label]
        out[inside] = vectors @ (np.exp(-1j * duration * energy) * (vectors.conj().T @ state[inside]))
    if occupied:  # the guard is relative to |state|: a zero state evolves to zero
        at = np.concatenate([kept[label][0] for label in occupied])  # state and out are 0 elsewhere
        scale = np.abs(state[at]).max()  # in units of max|state|, no norm overflows or underflows
        norm = float(np.linalg.norm(state[at] / scale))
        if not (drift := abs(float(np.linalg.norm(out[at] / scale)) - norm)) <= 1e-8 * norm:  # NaN fails too
            raise NumericalError(f"evolution norm drift {drift:.2e}")
    return out


def mean_occupations(state: np.ndarray, space: FockSpace) -> tuple[float, float]:
    """(mean n of mode +, mean n of mode -) for a two-mode state."""
    n = np.arange(space.dim_single)
    return tuple(float(np.sum(occupation_distribution(state, space, mode) * n)) for mode in (0, 1))


def occupation_distribution(state: np.ndarray, space: FockSpace, mode: int = 0) -> np.ndarray:
    """Marginal occupation distribution of one mode (0 = first)."""
    require(Rule(lambda v: SIZE.test(v) and v <= 1, "0 or 1"), "mode", mode)
    psi = as_numbers("state", state, (space.dim,)).reshape(space.dim_single, space.dim_single)
    prob = np.abs(psi) ** 2
    return prob.sum(axis=1) if mode == 0 else prob.sum(axis=0)


def mode_transform(state, space: FockSpace) -> np.ndarray:
    """Rotate a two-mode state into the symmetric/antisymmetric basis.

    The first output mode is the symmetric superposition; applying this
    to the two-mode squeezed vacuum factors it into two single-mode
    squeezed vacua with opposite phases. Modeling the rf transfer as
    keeping only the symmetric mode then amounts to taking the first
    marginal.

    The beamsplitter exp(theta G), G = a+^ a- - a+ a-^, at theta = pi/4
    is evolve under the Hermitian H = iG for t = pi/4. It conserves N+ + N-, so it acts
    block by block on fixed total number. With D = diag(i^n+), D^ H D = a+^ a- + a+ a-^ is
    real: it is D evolve(D^ H D, D^ state, pi/4), D^ H D built once and kept by `space`.
    """
    state = as_numbers("state", state, (space.dim,))
    gauge = np.array([1, 1j, -1, -1j])[space._levels[0] % 4]  # D = diag(i^n+)
    return gauge * evolve(space._beamsplitter, gauge.conj() * state, math.pi / 4.0)


# ---------------------------------------------------------------------------
# Gaussian tomography model


@dataclass(frozen=True)
class SqueezingModel:
    """Gaussian readout model of the interferometer input state (see readout_variance). Its
    atom_number is the tomography's and, in a NoiseConfig, the campaign's mean per shot."""

    atom_number: float = 6000.0
    strength: float = 0.0           # r; 0 = coherent input
    optimal_phase_rad: float = 1.2 * math.pi  # tomography angle of the squeezed quadrature, which shots read at phi = 0
    detection_noise_atoms: float = 0.0  # std added to the imbalance

    def __post_init__(self):
        check_fields(
            self, atom_number=POSITIVE, strength=NON_NEGATIVE, optimal_phase_rad=NUMBER,
            detection_noise_atoms=NON_NEGATIVE,
        )


def readout_variance(model: SqueezingModel, atoms: float | np.ndarray, angle_rad: float | np.ndarray):
    """(atoms/4)(e^(-2r) cos^2 + e^(2r) sin^2) + sigma_det^2: the imbalance variance (atoms^2) of
    `atoms` read at `angle_rad` from the squeezed quadrature; numbers or arrays of one shape."""
    r = model.strength  # r = 0 is isotropic: exactly the projection limit at every angle
    shape = 1.0 if r == 0.0 else math.exp(-2.0 * r) * np.cos(angle_rad) ** 2 + math.exp(2.0 * r) * np.sin(angle_rad) ** 2
    return (atoms / 4.0) * shape + model.detection_noise_atoms**2


def tomography_variance(model: SqueezingModel, phi_rad: float | np.ndarray) -> float | np.ndarray:
    """Imbalance variance at tomography angle phi (atoms^2), period pi: readout at phi - optimal_phase_rad;
    a float for a number, an array for an array."""
    phi = require_each(NUMBER, "phi_rad", phi_rad, np.isfinite)
    if not np.size(phi):  # no angle, so no variance to leave the float range, as large as r may be
        return np.zeros(np.shape(phi))

    def variance():  # the model's atoms at each angle, so a coherent model's variance has phi's shape too
        return float_or_array(readout_variance(model, np.full(np.shape(phi), model.atom_number), phi - model.optimal_phase_rad))

    return in_float_range("the imbalance variance", variance, model=model, phi_rad=phi)


def squeezing_parameter(variance_atoms2: float | np.ndarray, atom_number: float) -> tuple:
    """Number-squeezing parameter (linear, dB): 4 Var / N vs the quantum
    projection limit N/4; floats for a number, arrays for an array."""
    variance = require_each(POSITIVE, "variance_atoms2", variance_atoms2, lambda v: np.isfinite(v) & (v > 0))
    require(POSITIVE, "atom_number", atom_number)
    arguments = {"variance_atoms2": variance, "atom_number": atom_number}
    linear = in_float_range("4 Var / N", lambda: 4.0 * variance / atom_number, **arguments)
    # math.log10 of each value, as numpy's log10 differs in the last bit; NaN where 4 Var / N underflowed to 0
    logs = np.fromiter((math.log10(v) if v else math.nan for v in np.ravel(linear)), float, np.size(linear))
    return linear, in_float_range("4 Var / N", lambda: float_or_array(10.0 * logs.reshape(np.shape(linear))), **arguments)


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
    require(NUMBER, "min_db", min_db)
    require(NUMBER, "max_db", max_db)
    require(POSITIVE, "atom_number", atom_number)
    if min_db > max_db:
        raise DomainError("min_db must be <= max_db")
    hi = in_float_range("10^(max_db/10)", lambda: 10.0 ** (max_db / 10.0), min_db=min_db, max_db=max_db)
    lo = 10.0 ** (min_db / 10.0)  # <= hi
    r = 0.5 * math.asinh((hi - lo) / 2.0)
    d = lo - math.exp(-2.0 * r)
    if d < -1e-12:
        raise CalibrationError(
            f"targets ({min_db}, {max_db}) dB violate e^(-2r)+e^(2r) >= 2: "
            f"residual detection variance would be negative (d = {d:.3e})"
        )
    sigma_det = in_float_range(
        "sigma_det", lambda: math.sqrt(max(d, 0.0) * atom_number / 4.0),
        min_db=min_db, max_db=max_db, atom_number=atom_number,
    )
    return SqueezingModel(atom_number=atom_number, strength=r, detection_noise_atoms=sigma_det)


def coherent_model(atom_number: float) -> SqueezingModel:
    """Ideal coherent input: projection noise only, 0 dB at every angle."""
    require(POSITIVE, "atom_number", atom_number)
    return SqueezingModel(atom_number=atom_number, strength=0.0, detection_noise_atoms=0.0)
