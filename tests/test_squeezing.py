"""Operator chain, truncated-space evolution, and the Gaussian model.

Evolution results are checked against analytic pair-production
statistics (mean occupation, joint and marginal distributions, extracted
single-mode distribution) rather than against the solver itself. The
pump-explicit model lives on its block |N - 2k, k, k>: it is checked
against the three-mode product-space construction restricted to that
block, and its pair number against the undepleted-pump limit sinh^2 r,
whose error must fall as 1/N from N = 60 to the paper's 6000 atoms.
"""

import functools
import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from gravlab import squeezing
from gravlab import (
    CalibrationError,
    ConfigError,
    DomainError,
    FockSpace,
    HamiltonianParams,
    NumericalError,
    SqueezingModel,
    build_hamiltonians,
    calibrate_model,
    coherent_model,
    evolve,
    mean_occupations,
    mode_transform,
    occupation_distribution,
    pump_block,
    squeezing_parameter,
    tomography_variance,
    vacuum_state,
)
from gravlab.squeezing import SparseOperator, readout_variance
from sector_oracle import as_operator, csgraph_sectors, smallest_of_each


def as_csr(op: SparseOperator) -> sp.csr_array:
    """A SparseOperator as a canonical scipy CSR array, for the scipy
    oracles: the conversion must sum no two entries (the builders store
    each place once) and find no zero stored."""
    csr = sp.csr_array((op.data, (op.rows, op.cols)), shape=op.shape)
    assert csr.has_canonical_format and csr.nnz == op.nnz
    assert np.all(csr.data != 0)
    return csr


# closed-form calibration from the (-5.4, +9.9) dB tomography extremes
FROZEN_R = 1.1302698853537816
FROZEN_SIGMA_DET = 16.61816667208982


def pair_distribution(r: float, n: np.ndarray) -> np.ndarray:
    """Per-mode occupation law of the optimally pair-correlated state:
    geometric in tanh^2(r)."""
    t2 = math.tanh(r) ** 2
    return (1.0 - t2) * t2**n


def extracted_distribution(r: float, n_max: int) -> np.ndarray:
    """Occupation law of the symmetric combination: even terms only,
    (2m)!/(4^m m!^2) tanh^{2m} r / cosh r."""
    p = np.zeros(n_max + 1)
    for m in range(0, n_max // 2 + 1):
        p[2 * m] = (
            math.factorial(2 * m)
            / (4.0**m * math.factorial(m) ** 2)
            * math.tanh(r) ** (2 * m)
            / math.cosh(r)
        )
    return p


class TestOperators:
    def test_canonical_commutator_below_cutoff(self):
        space = FockSpace(n_max=8)
        a_plus = dense_ladders(space.n_max, 2)[0]
        comm = a_plus @ a_plus.T - a_plus.T @ a_plus
        # exact identity except on states touching the top Fock level
        d = space.dim_single
        keep = np.array([i // d < d - 1 for i in range(space.dim)])
        assert np.allclose(comm[np.ix_(keep, keep)], np.eye(space.dim)[np.ix_(keep, keep)])

    def test_modes_commute(self):
        a_plus, a_minus = dense_ladders(6, 2)
        assert np.max(np.abs(a_plus @ a_minus - a_minus @ a_plus)) == 0.0

    def test_number_operator_spectrum(self):
        space = FockSpace(n_max=5)
        a_plus = dense_ladders(space.n_max, 2)[0]
        diag = np.diag(a_plus.T @ a_plus)
        assert set(np.round(diag).astype(int)) == set(range(space.dim_single))

    def test_space_validation(self):
        with pytest.raises(ConfigError):
            FockSpace(n_max=3)
        with pytest.raises(ConfigError):
            FockSpace(n_max=300)

    def test_oversized_sector_refused(self):
        # only parity is conserved: at n_max = 70 the vacuum's sector
        # holds 2521 states, above MAX_BLOCK_DIM
        space = FockSpace(n_max=70)
        h = build_hamiltonians(space, HamiltonianParams())
        with pytest.raises(ConfigError):
            evolve(h.symmetric_mode, vacuum_state(space), 0.5)


class TestHamiltonianChain:
    def test_pair_terms_cancel_number_terms_at_matched_zeeman(self):
        space = FockSpace(n_max=10)
        h = build_hamiltonians(space, HamiltonianParams(zeeman_q_rad_s=1.0, interaction_rad_s=1.0))
        assert np.max(np.abs(h.undepleted.toarray() - h.two_mode.toarray())) == 0.0

    def test_mode_split_reassembles_exactly(self):
        # acceptance-level identity at n_max = 12
        space = FockSpace(n_max=12)
        h = build_hamiltonians(space, HamiltonianParams())
        two_mode, h_s, h_a = (m.toarray() for m in (h.two_mode, h.symmetric_mode, h.antisymmetric_mode))
        assert np.max(np.abs(two_mode - (h_s - h_a))) < 1e-10

    def test_all_pieces_hermitian(self):
        h = build_hamiltonians(FockSpace(n_max=8), HamiltonianParams())
        for m in (h.two_mode, h.undepleted, h.symmetric_mode, h.antisymmetric_mode):
            m = m.toarray()
            assert np.max(np.abs(m - m.conj().T)) < 1e-12


def dense_ladders(n_max: int, modes: int) -> list[np.ndarray]:
    """Annihilation operator of each mode from dense Kronecker products,
    mode 0 the most significant factor."""
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    return [
        functools.reduce(np.kron, [a if j == k else eye for j in range(modes)])
        for k in range(modes)
    ]


def dense_chain(n_max: int, params: HamiltonianParams) -> dict:
    """The two-mode operator chain from dense Kronecker products: the
    reference construction the sparse build must reproduce."""
    a_plus, a_minus = dense_ladders(n_max, 2)
    om, q = params.interaction_rad_s, params.zeeman_q_rad_s
    pair = a_plus @ a_minus
    two_mode = -om * (pair + pair.T)
    a_s = (a_plus + a_minus) / math.sqrt(2.0)
    a_a = (a_plus - a_minus) / math.sqrt(2.0)
    return {
        "two_mode": two_mode,
        "undepleted": (q - om) * (a_plus.T @ a_plus + a_minus.T @ a_minus) + two_mode,
        "symmetric_mode": -0.5 * om * (a_s @ a_s + a_s.T @ a_s.T),
        "antisymmetric_mode": -0.5 * om * (a_a @ a_a + a_a.T @ a_a.T),
    }


class TestSparseChainOracle:
    # q != Omega so that undepleted carries its number terms; Omega = 1
    # makes the evolution time equal to the squeezing strength r
    PARAMS = HamiltonianParams(zeeman_q_rad_s=1.3, interaction_rad_s=1.0)

    @pytest.mark.parametrize("n_max", [4, 8, 12])
    def test_sparse_chain_equals_dense_kronecker_construction(self, n_max):
        h = build_hamiltonians(FockSpace(n_max=n_max), self.PARAMS)
        for name, want in dense_chain(n_max, self.PARAMS).items():
            assert np.array_equal(getattr(h, name).toarray(), want), name

    def test_evolve_matches_dense_expm(self):
        space = FockSpace(n_max=12)
        h = build_hamiltonians(space, self.PARAMS)
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        for name, dense in dense_chain(space.n_max, self.PARAMS).items():
            for r in (0.5, 1.0, 1.5):
                want = expm(-1j * dense * r) @ psi
                for hamiltonian in (getattr(h, name), as_operator(dense)):
                    got = evolve(hamiltonian, psi, r)
                    assert np.max(np.abs(got - want)) < 1e-12, (name, r)

    @pytest.mark.parametrize("n_max", [4, 8, 12])
    def test_mode_transform_matches_dense_expm(self, n_max):
        space = FockSpace(n_max=n_max)
        a_plus, a_minus = dense_ladders(n_max, 2)
        generator = a_plus.T @ a_minus - a_plus @ a_minus.T
        rng = np.random.default_rng(n_max)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        want = expm((math.pi / 4.0) * generator) @ psi
        assert np.max(np.abs(mode_transform(psi, space) - want)) < 1e-12

    def test_full_evolve_matches_dense_expm(self):
        # an H that conserves two numbers at once, N0 + N+ + N- and N+ - N-
        full = dense_full(4, HamiltonianParams(zeeman_q_rad_s=1.3, interaction_rad_s=1.0, pump_atoms=7))
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(full.shape[0]) + 1j * rng.standard_normal(full.shape[0])
        psi /= np.linalg.norm(psi)
        for t in (0.5, 1.0, 1.5):
            want = expm(-1j * full * t) @ psi
            assert np.max(np.abs(evolve(as_operator(full), psi, t) - want)) < 1e-12, t


def kron_ladders(dim_single: int, modes: int) -> list[sp.csr_array]:
    """Annihilation operator of each mode from sparse Kronecker products,
    mode 0 the most significant factor."""
    a = sp.diags_array(np.sqrt(np.arange(1.0, dim_single)), offsets=1, format="csr")
    eye = sp.eye_array(dim_single, format="csr")
    return [
        functools.reduce(lambda x, y: sp.kron(x, y, format="csr"), [a if j == k else eye for j in range(modes)])
        for k in range(modes)
    ]


def dense_full(n_max: int, params: HamiltonianParams) -> np.ndarray:
    """The pump-explicit collision Hamiltonian on the three-mode product
    space (pump, +, -), each mode truncated at n_max, from the Kronecker
    ladders: the oracle of `pump_block`, dense."""
    a0, ap, am = kron_ladders(n_max + 1, 3)
    n0 = a0.T @ a0
    nboth = ap.T @ ap + am.T @ am
    pump_pair = a0.T @ a0.T @ ap @ am
    q, om, n = params.zeeman_q_rad_s, params.interaction_rad_s, params.pump_atoms
    eye = sp.eye_array((n_max + 1) ** 3)
    return (q * nboth - (om / n) * ((n0 - 0.5 * eye) @ nboth + pump_pair + pump_pair.T)).toarray()


def kron_chain(n_max: int, params: HamiltonianParams) -> dict:
    """The two-mode chain from sparse Kronecker ladders and sparse
    products: the construction the banded build must reproduce bit for bit."""
    a_plus, a_minus = kron_ladders(n_max + 1, 2)
    om, q = params.interaction_rad_s, params.zeeman_q_rad_s
    pair = a_plus @ a_minus
    two_mode = -om * (pair + pair.T)
    a_s = (a_plus + a_minus) / math.sqrt(2.0)
    a_a = (a_plus - a_minus) / math.sqrt(2.0)
    return {
        "two_mode": two_mode,
        "undepleted": (q - om) * (a_plus.T @ a_plus + a_minus.T @ a_minus) + two_mode,
        "symmetric_mode": -0.5 * om * (a_s @ a_s + a_s.T @ a_s.T),
        "antisymmetric_mode": -0.5 * om * (a_a @ a_a + a_a.T @ a_a.T),
    }


class TestBandedOperators:
    """The operators built from Fock-index arithmetic against the sparse
    Kronecker construction, at the benchmark's cutoffs."""

    @pytest.mark.parametrize(
        "params", [HamiltonianParams(), HamiltonianParams(zeeman_q_rad_s=1.3, interaction_rad_s=0.7)]
    )
    def test_chain_at_n_max_100_equals_kronecker_products_bit_for_bit(self, params):
        h = build_hamiltonians(FockSpace(n_max=100), params)
        for name, want in kron_chain(100, params).items():
            got = as_csr(getattr(h, name))  # each place stored once, no stored zeros
            want = sp.csr_array(want)
            want.eliminate_zeros()
            want.sort_indices()
            assert np.array_equal(got.indptr, want.indptr), name
            assert np.array_equal(got.indices, want.indices), name
            assert np.array_equal(got.data, want.data), name

    def test_mode_transform_at_n_max_40_equals_the_complex_generator(self):
        space = FockSpace(n_max=40)
        a_plus, a_minus = kron_ladders(space.dim_single, 2)
        rng = np.random.default_rng(40)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        want = evolve(as_operator(1j * (a_plus.T @ a_minus - a_plus @ a_minus.T)), psi, math.pi / 4.0)
        assert np.max(np.abs(mode_transform(psi, space) - want)) < 1e-12


class TestSparseOperator:
    """The operators' own type: numpy coordinate arrays with scipy's nnz,
    size and toarray, and a sector label per index, copied and read-only."""

    CHAIN = ("two_mode", "undepleted", "symmetric_mode", "antisymmetric_mode")

    def test_members_agree_with_scipy(self):
        h = build_hamiltonians(FockSpace(n_max=12), HamiltonianParams(zeeman_q_rad_s=1.3))
        for name in self.CHAIN:
            op = getattr(h, name)
            csr = as_csr(op)
            assert op.nnz == op.size == csr.nnz == csr.size == len(op.rows) == len(op.cols), name
            dense = op.toarray()
            assert dense.dtype == csr.dtype and np.array_equal(dense, csr.toarray()), name

    def test_arrays_are_read_only_copies(self):
        given = [np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]), np.array([3, 3])]
        op = SparseOperator((2, 2), *given)
        psi = np.array([1.0, 0.0])
        before = evolve(op, psi, 0.7)
        for array in given:  # the caller's arrays stay theirs: an edit does not reach the operator
            assert array.flags.writeable
            array[:] = array[::-1] + 1
        assert op.toarray().tolist() == [[0.0, 0.5], [0.5, 0.0]] and op.sector.tolist() == [3, 3]
        assert evolve(op, psi, 0.7).tobytes() == before.tobytes()
        for mine in (op.rows, op.cols, op.data, op.sector):
            with pytest.raises(ValueError, match="read-only"):
                mine[0] = 1

    @pytest.mark.parametrize("name", CHAIN)
    def test_every_form_of_h_evolves_to_the_same_bytes(self, name):
        # the builder's labels and csgraph's components split H into the same blocks
        space = FockSpace(n_max=12)
        op = getattr(build_hamiltonians(space, HamiltonianParams(zeeman_q_rad_s=1.3)), name)
        psi = spread_state(space.dim)
        forms = (op, as_csr(op), as_csr(op).tocoo(), op.toarray(), op.toarray().tolist())
        got = [evolve(h if h is op else as_operator(h), psi, 0.7).tobytes() for h in forms]
        assert got == got[:1] * len(forms)

    @pytest.mark.parametrize(
        "h", [np.diag([1.0, 2.0]), [[1.0, 0.0], [0.0, 2.0]], sp.csr_array(np.diag([1.0, 2.0])), None],
        ids=["ndarray", "list", "csr_array", "NoneType"],
    )
    def test_any_other_h_is_refused_naming_its_type(self, h):
        with pytest.raises(DomainError, match=f"^hamiltonian must be a SparseOperator, got {type(h).__name__}$"):
            evolve(h, np.array([1.0, 0.0]), 0.5)


class TestRepeatedPlaces:
    """Entries stored at one place sum, in toarray and in evolve, as scipy.sparse sums them."""

    def test_equal_repeats_sum(self):
        op = SparseOperator((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 1.0, 5.0], [0, 1])
        assert op.toarray()[0, 0] == 2.0
        assert np.allclose(evolve(op, [1.0, 0.0], 1.0), [np.exp(-2j), 0.0], rtol=0, atol=1e-15)

    def test_repeats_whose_sum_is_hermitian_evolve(self):
        # 0.3 + 0.7 at (0, 1) mirrors 1.0 at (1, 0); neither repeat alone does
        op = SparseOperator((2, 2), [0, 0, 1, 0], [1, 1, 0, 0], [0.3, 0.7, 1.0, 2.0], [0, 0])
        dense = np.array([[2.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(op.toarray(), dense)
        psi = np.array([0.6, 0.8j])
        assert np.max(np.abs(evolve(op, psi, 0.9) - expm(-0.9j * dense) @ psi)) < 1e-14

    def test_random_repeats_match_scipy_and_expm(self):
        # a random Hermitian H on two blocks, each entry split into up to three stored pieces
        rng = np.random.default_rng(27)
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        n = len(labels)
        dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = (dense + dense.conj().T) * (labels[:, None] == labels[None, :])
        rows, cols = np.nonzero(dense)
        pieces = rng.integers(1, 4, len(rows))
        weights = rng.random(pieces.sum())
        share = weights / np.add.reduceat(weights, np.r_[0, np.cumsum(pieces)[:-1]]).repeat(pieces)
        rows, cols = rows.repeat(pieces), cols.repeat(pieces)
        order = rng.permutation(len(rows))
        rows, cols, data = rows[order], cols[order], (dense[rows, cols] * share)[order]
        op = SparseOperator((n, n), rows, cols, data, labels)
        assert op.nnz == pieces.sum() > np.count_nonzero(dense)
        assert np.array_equal(op.toarray(), sp.coo_array((data, (rows, cols)), shape=(n, n)).toarray())
        assert np.max(np.abs(op.toarray() - dense)) < 1e-14
        psi = spread_state(n)
        for t in (0.4, 1.3):
            assert np.max(np.abs(evolve(op, psi, t) - expm(-1j * t * dense) @ psi)) < 1e-13, t


Q = HamiltonianParams(zeeman_q_rad_s=1.3)  # q != Omega: undepleted carries its number terms


class TestSectorOracle:
    """The labels each builder sets against the connected components of the
    operator's nonzero pattern that scipy.sparse.csgraph finds."""

    # N+ - N- or N+ + N-: 2 n_max + 1 labels; the parity of N+ + N-: 2; the pump's levels: 1
    BUILT = {
        "two_mode": (lambda space: build_hamiltonians(space, Q).two_mode, lambda n_max: 2 * n_max + 1),
        "undepleted": (lambda space: build_hamiltonians(space, Q).undepleted, lambda n_max: 2 * n_max + 1),
        "symmetric_mode": (lambda space: build_hamiltonians(space, Q).symmetric_mode, lambda n_max: 2),
        "antisymmetric_mode": (lambda space: build_hamiltonians(space, Q).antisymmetric_mode, lambda n_max: 2),
        "beamsplitter": (lambda space: space._beamsplitter, lambda n_max: 2 * n_max + 1),
        "pump_block": (lambda space: pump_block(space, HamiltonianParams(pump_atoms=6000)), lambda n_max: 1),
    }

    @pytest.mark.parametrize(
        "name, n_max", [(name, n) for name in BUILT for n in (12, 40)] + [("two_mode", 100), ("beamsplitter", 100)]
    )
    def test_labels_split_the_indices_as_csgraph_does(self, name, n_max):
        build, count = self.BUILT[name]
        op = build(FockSpace(n_max=n_max))
        assert np.array_equal(smallest_of_each(op.sector), csgraph_sectors(as_csr(op)))
        assert len(np.unique(op.sector)) == count(n_max)

    @pytest.mark.parametrize("tiny", [(1, 2), (2, 1)])
    def test_construction_refuses_an_entry_joining_two_labels(self, tiny):
        # two symmetric blocks, and one unmirrored 1e-300 entry between them:
        # Hermitian within evolve's 1e-12 tolerance, yet across two labels
        rows, cols, data = [0, 1, 2, 3, tiny[0]], [1, 0, 3, 2, tiny[1]], [1.0, 1.0, 2.0, 2.0, 1e-300]
        labels = [0, 0, 2, 2, 4]
        SparseOperator((5, 5), rows[:4], cols[:4], data[:4], labels)
        joined = f"{labels[tiny[0]]} and {labels[tiny[1]]}"
        with pytest.raises(DomainError, match=rf"^SparseOperator entry at \({tiny[0]}, {tiny[1]}\) joins sectors {joined}$"):
            SparseOperator((5, 5), rows, cols, data, labels)

    def test_stored_zeros_change_nothing(self):
        # a diagonal H labelled as one block, with zeros stored on both off-diagonals
        n = 6
        diagonal, off = np.arange(n), np.arange(n - 1)
        rows, cols = np.r_[diagonal, off, off + 1], np.r_[diagonal, off + 1, off]
        h = SparseOperator((n, n), rows, cols, np.r_[diagonal + 1.0, np.zeros(2 * (n - 1))], np.zeros(n, dtype=int))
        psi = np.random.default_rng(2).standard_normal(n) + 0j
        assert np.allclose(evolve(h, psi, 0.3), np.exp(-0.3j * np.arange(1.0, n + 1)) * psi, rtol=0, atol=1e-15)


def count_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record the size of each block it is given."""
    sizes, eigh = [], np.linalg.eigh

    def spy(block):
        sizes.append(len(block))
        return eigh(block)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def spread_state(dim: int, seed: int = 4) -> np.ndarray:
    """A normalised complex state with every index occupied."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def held(op: SparseOperator) -> int:
    """The eigenvector entries an operator keeps."""
    return sum(vectors.size for _, _, vectors in op._blocks.values())


def in_threads(work, count: int = 6) -> None:
    """Run work(0), work(1), ... on `count` threads at once, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestOperatorMemo:
    """An operator keeps the eigendecomposition of each block evolve decomposes."""

    def test_a_sweep_of_durations_decomposes_each_occupied_sector_once(self, monkeypatch):
        space = FockSpace(n_max=12)
        h = build_hamiltonians(space, HamiltonianParams()).two_mode
        psi, sizes = spread_state(space.dim), count_eigh(monkeypatch)
        for r in (0.5, 1.0, 1.13, 1.5):
            evolve(h, psi, r)
        assert len(sizes) == 2 * 12 + 1  # N+ - N- from -12 to 12
        assert sorted(sizes) == sorted([13, *2 * list(range(1, 13))])
        # a decomposition lives as long as its operator: an equal one decomposes afresh
        evolve(build_hamiltonians(space, HamiltonianParams()).two_mode, psi, 0.5)
        assert len(sizes) == 2 * (2 * 12 + 1)

    def test_a_repeat_call_gives_the_bytes_of_a_first_call(self):
        space = FockSpace(n_max=20)
        params = HamiltonianParams(zeeman_q_rad_s=1.3)
        chain = build_hamiltonians(space, params)
        for name, psi in (("two_mode", vacuum_state(space)), ("undepleted", spread_state(space.dim))):
            h = getattr(chain, name)
            evolve(h, psi, 0.3)
            again = evolve(h, psi, 0.9)
            assert again.tobytes() == evolve(getattr(build_hamiltonians(space, params), name), psi, 0.9).tobytes()

    def test_a_new_non_hermitian_sector_is_still_refused(self):
        h = SparseOperator((4, 4), [0, 1, 2, 3], [1, 0, 3, 2], [1.0, 1.0, 1.0, 2.0], [0, 0, 1, 1])
        first = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        evolve(h, first, 0.5)
        with pytest.raises(NumericalError, match="not Hermitian"):
            evolve(h, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex), 0.5)
        evolve(h, first, 0.8)  # the Hermitian sector still evolves
        assert list(h._blocks) == [0]

    def test_a_new_oversized_sector_is_still_refused(self, monkeypatch):
        monkeypatch.setattr(squeezing, "MAX_BLOCK_DIM", 3)
        h = np.diag(np.arange(6.0)) + np.diag([1.0, 0.0, 1.0, 1.0, 1.0], 1) + np.diag([1.0, 0.0, 1.0, 1.0, 1.0], -1)
        h = as_operator(h)
        evolve(h, np.eye(6)[0].astype(complex), 0.5)  # sector {0, 1}
        with pytest.raises(ConfigError, match="dimension 4 exceeds limit 3"):
            evolve(h, np.eye(6)[3].astype(complex), 0.5)  # sector {2, 3, 4, 5}

    def test_kept_eigenvectors_stay_within_max_block_dim_squared(self, monkeypatch):
        # n_max = 4: sectors of 5, 4, 4, 3, 3, 2, 2, 1, 1 levels, 85 eigenvector
        # entries in all, against room for 64
        monkeypatch.setattr(squeezing, "MAX_BLOCK_DIM", 8)
        space = FockSpace(n_max=4)
        h, psi = build_hamiltonians(space, HamiltonianParams()).two_mode, spread_state(space.dim)
        sizes = count_eigh(monkeypatch)
        first = evolve(h, psi, 0.6)
        assert len(sizes) == 9
        assert held(h) <= 8**2 and 0 < len(h._blocks) < 9
        kept = len(h._blocks)
        again = evolve(h, psi, 0.6)
        assert len(sizes) == 9 + 9 - kept  # only the dropped sectors again
        assert again.tobytes() == first.tobytes()

    def test_threads_sharing_one_operator_keep_the_bound_and_the_bits(self, monkeypatch):
        # more threads than cores, switching often, all decomposing the blocks of
        # one fresh operator; n_max = 4 holds 85 entries against room for 64
        monkeypatch.setattr(squeezing, "MAX_BLOCK_DIM", 8)
        space = FockSpace(n_max=4)
        params = HamiltonianParams(zeeman_q_rad_s=1.3)
        psi = spread_state(space.dim)
        durations = (0.4, 0.9)
        want = [evolve(build_hamiltonians(space, params).undepleted, psi, t).tobytes() for t in durations]
        h = build_hamiltonians(space, params).undepleted
        wrong = []

        def work(first):
            for k in range(first, first + 40):
                if evolve(h, psi, durations[k % 2]).tobytes() != want[k % 2]:
                    wrong.append(k)

        in_threads(work)
        assert wrong == []
        assert 0 < held(h) <= 8**2


class TestEvolution:
    def test_mean_occupation_matches_pair_production_law(self):
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams())
        psi0 = vacuum_state(space)
        for r in (0.3, 0.7, 1.0):
            out = evolve(h.two_mode, psi0, r)  # interaction_rad_s = 1
            np_mean, nm_mean = mean_occupations(out, space)
            assert np_mean == pytest.approx(math.sinh(r) ** 2, abs=5e-9)
            assert nm_mean == pytest.approx(math.sinh(r) ** 2, abs=5e-9)

    def test_occupations_perfectly_correlated(self):
        space = FockSpace(n_max=30)
        h = build_hamiltonians(space, HamiltonianParams())
        out = evolve(h.two_mode, vacuum_state(space), 0.8)
        psi = out.reshape(space.dim_single, space.dim_single)
        prob = np.abs(psi) ** 2
        off_diag = prob - np.diag(np.diag(prob))
        assert np.max(off_diag) < 1e-16

    def test_marginal_is_geometric(self):
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams())
        out = evolve(h.two_mode, vacuum_state(space), 0.8)
        got = occupation_distribution(out, space, mode=0)
        want = pair_distribution(0.8, np.arange(space.dim_single))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_strong_squeezing_on_minimum_cutoff(self):
        # r = 2.0 first meets 1e-6 at n_max = 232 (README, numerical limits)
        space = FockSpace(n_max=232)
        h = build_hamiltonians(space, HamiltonianParams())
        out = evolve(h.two_mode, vacuum_state(space), 2.0)
        np_mean, nm_mean = mean_occupations(out, space)
        assert np_mean == pytest.approx(math.sinh(2.0) ** 2, abs=1e-6)
        assert nm_mean == pytest.approx(math.sinh(2.0) ** 2, abs=1e-6)
        prob = np.abs(out.reshape(space.dim_single, space.dim_single)) ** 2
        assert np.max(prob - np.diag(np.diag(prob))) == 0.0  # D = 0 only
        want = pair_distribution(2.0, np.arange(space.dim_single))
        assert np.max(np.abs(np.diag(prob) - want)) < 1e-7

    def test_nonunitary_generator_rejected(self):
        space = FockSpace(n_max=6)
        anti_hermitian = 1j * np.eye(space.dim)  # -> non-unitary U
        real_nonsymmetric = np.triu(np.ones((space.dim, space.dim)))
        for bad in (anti_hermitian, real_nonsymmetric):
            with pytest.raises(NumericalError):
                evolve(as_operator(bad), vacuum_state(space), 1.0)

    def test_norm_guard_refuses_a_result_that_is_not_unitary(self, monkeypatch):
        # eigenvectors 0.1 % too long pass the Hermitian check, then move the norm
        eigh = np.linalg.eigh

        def stretched(block):
            energies, vectors = eigh(block)
            return energies, 1.001 * vectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        space = FockSpace(n_max=6)
        with pytest.raises(NumericalError, match="^evolution norm drift 2.00e-03$"):
            evolve(build_hamiltonians(space, HamiltonianParams()).two_mode, vacuum_state(space), 0.5)

    @pytest.mark.parametrize("scale", [1e8, 1e10, 0.0])
    def test_norm_guard_is_relative_to_the_state(self, scale):
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams()).two_mode
        out = evolve(h, scale * vacuum_state(space), 1.0)
        assert np.max(np.abs(out - scale * evolve(h, vacuum_state(space), 1.0))) <= 1e-13 * scale

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_norm_guard_holds_where_the_norms_overflow_or_underflow(self, scale, monkeypatch):
        # 1e200: |state| overflows to inf and the drift read NaN; 1e-300: both norms read 0
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams()).two_mode
        want = evolve(h, vacuum_state(space), 1.0)
        assert np.max(np.abs(evolve(h, scale * vacuum_state(space), 1.0) / scale - want)) <= 1e-13
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda block: (eigh(block)[0], 1.001 * eigh(block)[1]))
        small = FockSpace(n_max=6)
        with pytest.raises(NumericalError, match="^evolution norm drift 2.00e-03$"):
            evolve(build_hamiltonians(small, HamiltonianParams()).two_mode, scale * vacuum_state(small), 0.5)

    def test_vacuum_state_is_normalized_empty(self):
        space = FockSpace(n_max=12)
        psi = vacuum_state(space)
        assert np.linalg.norm(psi) == 1.0
        assert mean_occupations(psi, space) == (0.0, 0.0)


class TestModeTransform:
    def test_extracted_mode_distribution(self):
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams())
        out = evolve(h.two_mode, vacuum_state(space), 0.8)
        rotated = mode_transform(out, space)
        got = occupation_distribution(rotated, space, mode=0)
        want = extracted_distribution(0.8, space.n_max)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_odd_occupations_absent_in_extracted_mode(self):
        space = FockSpace(n_max=30)
        h = build_hamiltonians(space, HamiltonianParams())
        out = evolve(h.two_mode, vacuum_state(space), 0.6)
        rotated = mode_transform(out, space)
        dist = occupation_distribution(rotated, space, mode=0)
        # the only odd-term weight is beamsplitter leakage out of joint
        # shells with more than n_max total quanta (~1e-10 here)
        assert np.max(dist[1::2]) < 1e-9

    def test_quadrature_variances_of_split_state(self):
        # after the basis change the two factors are squeezed along
        # opposite quadratures: Var x_{-pi/4} = e^{-2r}/2 on the first
        space = FockSpace(n_max=40)
        h = build_hamiltonians(space, HamiltonianParams())
        r = 0.7
        rotated = mode_transform(evolve(h.two_mode, vacuum_state(space), r), space)
        d = space.dim_single
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        amplitudes = rotated.reshape(d, d)  # x on the first mode is x @ amplitudes
        for theta, want in ((-math.pi / 4, 0.5 * math.exp(-2 * r)), (math.pi / 4, 0.5 * math.exp(2 * r))):
            x = (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)) / math.sqrt(2)
            moved = x @ amplitudes
            mean = np.real(np.vdot(amplitudes, moved))
            second = np.linalg.norm(moved) ** 2  # <x^2> = |x psi|^2, x Hermitian
            assert second - mean**2 == pytest.approx(want, rel=1e-6)

    def test_transform_is_norm_preserving(self):
        space = FockSpace(n_max=12)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        out = mode_transform(psi, space)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            mode_transform(np.zeros(7), FockSpace(n_max=6))


def squeezed(space: FockSpace, r: float = 1.13) -> np.ndarray:
    """The two-mode squeezed vacuum: N+ + N- = 2n for n = 0 ... n_max, n_max + 1 blocks of the beamsplitter."""
    return evolve(build_hamiltonians(space, HamiltonianParams()).two_mode, vacuum_state(space), r)


class TestKeptBeamsplitter:
    """A FockSpace builds the beamsplitter of mode_transform once and keeps it, with its decompositions."""

    def test_a_repeated_call_on_one_space_decomposes_nothing(self, monkeypatch):
        space = FockSpace(n_max=40)
        psi, sizes = squeezed(space), count_eigh(monkeypatch)
        mode_transform(psi, space)
        assert len(sizes) == 41
        mode_transform(psi, space)
        assert len(sizes) == 41
        # the decompositions live as long as the space: an equal one decomposes afresh
        mode_transform(psi, FockSpace(n_max=40))
        assert len(sizes) == 2 * 41

    def test_a_repeated_call_gives_the_bytes_of_a_first_call(self):
        space = FockSpace(n_max=40)
        for psi in (squeezed(space), spread_state(space.dim)):
            first = mode_transform(psi, space)
            assert mode_transform(psi, space).tobytes() == first.tobytes()
            assert mode_transform(psi, FockSpace(n_max=40)).tobytes() == first.tobytes()

    def test_equality_hash_and_repr_ignore_the_kept_operator(self):
        used, fresh = FockSpace(n_max=40), FockSpace(n_max=40)
        mode_transform(vacuum_state(used), used)
        assert "_beamsplitter" in vars(used) and "_beamsplitter" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh) == "FockSpace(n_max=40)"
        assert used != FockSpace(n_max=41)

    def test_threads_sharing_one_space_keep_the_bound_and_the_bits(self, monkeypatch):
        # n_max = 4: beamsplitter blocks of 1, 2, 3, 4, 5, 4, 3, 2, 1 levels,
        # 85 eigenvector entries in all, against room for 64
        monkeypatch.setattr(squeezing, "MAX_BLOCK_DIM", 8)
        states = [spread_state(FockSpace(n_max=4).dim, seed) for seed in (1, 2)]
        want = [mode_transform(psi, FockSpace(n_max=4)).tobytes() for psi in states]
        space, wrong = FockSpace(n_max=4), []

        def work(first):
            for k in range(first, first + 40):
                if mode_transform(states[k % 2], space).tobytes() != want[k % 2]:
                    wrong.append(k)

        in_threads(work)
        assert wrong == []
        assert 0 < held(space._beamsplitter) <= 8**2


OPERATORS = ("two_mode", "undepleted", "symmetric_mode", "antisymmetric_mode")

# sha256 over (name, dtype, shape, bytes) of rows, cols, data and sector of each operator
# of build_hamiltonians at q = 1.3, from the chain that built all four at once; at
# q = Omega = 1 undepleted stores no diagonal and equals two_mode byte for byte
CHAIN_SHA256 = {
    12: {
        "two_mode": "1b44c3b1e21e7de73a87043f31c2d16dad1cade7c1d7ff869492438c064ae0ef",
        "undepleted": "34e2dc737cd202619b1821e6d26321b481df806eb1d87a9b4209b61b3dc64d3d",
        "symmetric_mode": "65f2d753fecb6ce78a85eb594405268513a30a62ced96814614698fca04afea4",
        "antisymmetric_mode": "ab818b3ca52e9257036eb8de0de6f02c044327dc0041b62a57b2b18a52d77af1",
    },
    40: {
        "two_mode": "07b8de72dbcbba76ffbb1c0941419065d1e1e0e070a9daa97d09fe835a036753",
        "undepleted": "ccb7b649b96def1869aec9eadd8fcea9c43dd082a6ca6cd9fe7f1956c67ba534",
        "symmetric_mode": "93b3639a2380fea454a9623132faac58fcc36348ad8d0b8fd485dfe8d5afefcc",
        "antisymmetric_mode": "56795f8f319fa429d09b73466f856b0235a4c08b350cd2aadfe6acc386fe756e",
    },
    100: {
        "two_mode": "b94deb3df34d40493fafd231f6251afe35e7c9febf5d1546f9f94e0dd0d629a0",
        "undepleted": "e3f852124168107fd9cfe11e6abd46abf344c2b92e1cb6e7a2458fb93230433b",
        "symmetric_mode": "a07a3e57b64b9772edd1f530107f5a8deb0c6bc7f5ff53a769bad4c8ee3e429e",
        "antisymmetric_mode": "c184291810b12d39671424373e95e272c663b797ad7916f0a47a537b10e2b0e6",
    },
}


def operator_sha256(op: SparseOperator) -> str:
    digest = hashlib.sha256()
    for name in ("rows", "cols", "data", "sector"):
        array = getattr(op, name)
        digest.update(f"{name}:{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def count_builds(monkeypatch) -> list:
    """Patch the band builder every operator of a chain goes through to record each call."""
    calls, build = [], squeezing._symmetric_bands

    def spy(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(squeezing, "_symmetric_bands", spy)
    return calls


class TestKeptChain:
    """A chain builds each operator on first access and keeps it, as a FockSpace keeps its beamsplitter."""

    @pytest.mark.parametrize("q", [1.0, 1.3])
    @pytest.mark.parametrize("n_max", [12, 40, 100])
    def test_every_operator_keeps_its_bytes(self, n_max, q):
        chain = build_hamiltonians(FockSpace(n_max=n_max), HamiltonianParams(zeeman_q_rad_s=q))
        want = dict(CHAIN_SHA256[n_max], **({"undepleted": CHAIN_SHA256[n_max]["two_mode"]} if q == 1.0 else {}))
        assert {name: operator_sha256(getattr(chain, name)) for name in OPERATORS} == want

    def test_touching_two_mode_builds_no_other_operator(self, monkeypatch):
        built = count_builds(monkeypatch)
        chain = build_hamiltonians(FockSpace(n_max=100), HamiltonianParams())
        assert built == []
        chain.two_mode
        assert len(built) == 1 and [name for name in OPERATORS if name in vars(chain)] == ["two_mode"]
        chain.symmetric_mode
        assert len(built) == 2 and "antisymmetric_mode" not in vars(chain) and "undepleted" not in vars(chain)

    def test_a_sweep_of_durations_decomposes_the_kept_operator_once(self, monkeypatch):
        space = FockSpace(n_max=40)
        chain, built, sizes = build_hamiltonians(space, HamiltonianParams()), count_builds(monkeypatch), count_eigh(monkeypatch)
        states = [evolve(chain.two_mode, vacuum_state(space), r) for r in (0.5, 1.0, 1.13, 1.5)]
        assert chain.two_mode is chain.two_mode
        assert len(built) == 1 and sizes == [41]  # the vacuum's one sector, N+ - N- = 0
        # an equal chain built anew builds and decomposes afresh, to the same bytes
        assert squeezed(space).tobytes() == states[2].tobytes()
        assert len(built) == 2 and sizes == [41, 41]

    def test_threads_sharing_one_chain_get_the_same_bytes(self):
        space, params = FockSpace(n_max=12), HamiltonianParams(zeeman_q_rad_s=1.3)
        psi = spread_state(space.dim)
        want = {name: evolve(getattr(build_hamiltonians(space, params), name), psi, 0.7).tobytes() for name in OPERATORS}
        chain, wrong = build_hamiltonians(space, params), []

        def work(first):
            for k in range(first, first + 24):
                name = OPERATORS[k % 4]
                if evolve(getattr(chain, name), psi, 0.7).tobytes() != want[name]:
                    wrong.append(k)

        in_threads(work)
        assert wrong == []
        assert {name: operator_sha256(getattr(chain, name)) for name in OPERATORS} == CHAIN_SHA256[12]

    def test_equality_hash_and_repr_see_space_and_params_only(self):
        space, params = FockSpace(n_max=12), HamiltonianParams()
        used, fresh = build_hamiltonians(space, params), build_hamiltonians(space, params)
        for name in OPERATORS:
            getattr(used, name)
        assert all(name in vars(used) and name not in vars(fresh) for name in OPERATORS)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh) == (
            "Hamiltonians(space=FockSpace(n_max=12), "
            "params=HamiltonianParams(zeeman_q_rad_s=1.0, interaction_rad_s=1.0, pump_atoms=100))"
        )
        assert used != build_hamiltonians(space, HamiltonianParams(zeeman_q_rad_s=1.3))
        assert used != build_hamiltonians(FockSpace(n_max=13), params)


MAX_FLOAT = sys.float_info.max


class TestChainFloatRange:
    """build_hamiltonians refuses a chain whose largest entry, max(|Omega|, 2|q - Omega|) n_max,
    leaves the float range, and every operator of a chain it accepts builds."""

    @pytest.mark.parametrize(
        "q, omega",
        [(1.0, 1e307), (1e307, 1.0), (1e308, -1e308), (np.float64(1e308), np.float64(-1e308)), (10**308, -(10**308))],
        ids=["omega", "q", "q-omega-overflows", "numpy-floats", "integers"],
    )
    def test_out_of_range_chain_refused_at_build_naming_q_omega_and_n_max(self, q, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(DomainError, match=r"leaves the float range at zeeman_q_rad_s=.*interaction_rad_s=.*n_max=100"):
                build_hamiltonians(FockSpace(n_max=100), HamiltonianParams(zeeman_q_rad_s=q, interaction_rad_s=omega))

    @pytest.mark.parametrize("n_max", [4, 12, 100, 255])
    @pytest.mark.parametrize("term", ["pairs", "number", "both"])
    def test_the_largest_accepted_chain_builds_every_operator(self, n_max, term):
        # x at the edge: the pair band -Omega sqrt(n+ n-) alone (q = Omega), the number term
        # (q - Omega)(N+ + N-) alone (Omega = 0), or both with 2|q - Omega| the larger
        def params(x):
            return {
                "pairs": HamiltonianParams(zeeman_q_rad_s=x, interaction_rad_s=x),
                "number": HamiltonianParams(zeeman_q_rad_s=x, interaction_rad_s=0.0),
                "both": HamiltonianParams(zeeman_q_rad_s=-x / 2, interaction_rad_s=x / 2),
            }[term]

        x = float(np.nextafter(MAX_FLOAT / (n_max if term == "pairs" else 2 * n_max), math.inf))
        refused = 0
        while refused < 8:  # a few ulps above the edge
            try:
                chain = build_hamiltonians(FockSpace(n_max=n_max), params(x))
                break
            except DomainError:
                refused, x = refused + 1, float(np.nextafter(x, 0.0))
        assert 1 <= refused < 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            largest = max(np.abs(getattr(chain, name).data).max(initial=0.0) for name in OPERATORS)
        assert MAX_FLOAT / 2 < largest <= MAX_FLOAT
        with pytest.raises(DomainError, match="leaves the float range"):
            build_hamiltonians(FockSpace(n_max=n_max), params(float(np.nextafter(x, math.inf))))


def pair_number_error(pump: int, n_max: int, r: float = 1.13) -> float:
    """Relative error of <N+> after the pump-explicit evolution from the pump
    vacuum against the undepleted-pump sinh^2 r, at q = Omega = 1 (t = r)."""
    block = pump_block(FockSpace(n_max=n_max), HamiltonianParams(pump_atoms=pump))
    psi = np.zeros(block.shape[0], dtype=complex)
    psi[0] = 1.0  # |N, 0, 0>
    pairs = np.abs(evolve(block, psi, r)) ** 2 @ np.arange(block.shape[0])  # N+ = k
    return float(pairs / math.sinh(r) ** 2 - 1.0)


class TestPumpBlock:
    @pytest.mark.parametrize("n_max, pump", [(10, 5), (10, 7), (12, 9), (12, 10)])
    def test_equals_the_product_space_model_on_its_block(self, n_max, pump):
        params = HamiltonianParams(zeeman_q_rad_s=1.3, interaction_rad_s=0.7, pump_atoms=pump)
        block = pump_block(FockSpace(n_max=n_max), params)
        d = n_max + 1
        levels = np.arange(pump // 2 + 1)
        inside = (pump - 2 * levels) * d * d + levels * d + levels  # |N - 2k, k, k>
        rows = dense_full(n_max, params)[inside]
        want = rows[:, inside]
        assert as_csr(block).shape == (len(levels),) * 2
        assert np.max(np.abs(block.toarray() - want)) <= 1e-14 * np.max(np.abs(want))
        assert not np.delete(rows, inside, axis=1).any()  # no coupling out of the block

    @pytest.mark.parametrize(
        "n_max, pump, size", [(4, 1, 1), (4, 2, 2), (4, 3, 2), (4, 11, 5), (40, 6000, 41), (255, 6000, 256)]
    )
    def test_levels_up_to_the_pair_cutoff_or_the_pump(self, n_max, pump, size):
        block = pump_block(FockSpace(n_max=n_max), HamiltonianParams(pump_atoms=pump))
        assert block.shape == (size, size) and block.toarray()[0, 0] == 0.0  # the pump vacuum has no pairs
        psi = np.zeros(size, dtype=complex)
        psi[0] = 1.0
        assert np.linalg.norm(evolve(block, psi, 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_undepleted_pump_error_falls_as_one_over_n(self):
        # a 1/N law divides the error by ~10 per decade of N, a 1/sqrt(N)
        # law by ~3.2; N err at the paper's 6000 atoms is the README's -7.5
        low, high = 8.0, 11.0  # the band of each ratio
        err = {n: pair_number_error(n, n_max=100) for n in (60, 600, 6000)}
        assert all(e < 0.0 for e in err.values())  # the pump depletes: fewer pairs
        assert low <= err[60] / err[600] <= high
        assert low <= err[600] / err[6000] <= high
        assert 6000 * err[6000] == pytest.approx(-7.5, abs=0.01)

    def test_largest_cutoff_at_6000_atoms(self):
        # n_max = 255, the largest FockSpace: 256 levels, far past the pair tail
        assert pair_number_error(6000, n_max=255) == pytest.approx(pair_number_error(6000, n_max=100), abs=1e-12)


class TestGaussianModel:
    def test_calibration_closed_form(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        assert model.strength == pytest.approx(FROZEN_R, rel=1e-14)
        assert model.detection_noise_atoms == pytest.approx(FROZEN_SIGMA_DET, rel=1e-12)

    def test_calibration_round_trip_is_exact(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        at_min = tomography_variance(model, model.optimal_phase_rad)
        at_max = tomography_variance(model, model.optimal_phase_rad + math.pi / 2)
        assert squeezing_parameter(at_min, model.atom_number)[1] == pytest.approx(-5.4, abs=1e-11)
        assert squeezing_parameter(at_max, model.atom_number)[1] == pytest.approx(9.9, abs=1e-11)

    def test_infeasible_targets_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_model(-3.0, 2.0, 6000.0)

    def test_reversed_targets_rejected(self):
        with pytest.raises(DomainError):
            calibrate_model(2.0, -2.0, 6000.0)

    def test_variance_period_pi(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        for phi in np.linspace(0, 2 * math.pi, 17):
            assert tomography_variance(model, float(phi)) == pytest.approx(
                tomography_variance(model, float(phi) + math.pi), rel=1e-12
            )

    def test_minimum_exactly_at_optimal_phase(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        v_opt = tomography_variance(model, model.optimal_phase_rad)
        for dphi in (-0.3, -0.05, 0.05, 0.3):
            assert tomography_variance(model, model.optimal_phase_rad + dphi) > v_opt

    def test_uncertainty_product_bound(self):
        # min * max = (N/4)^2 exactly for a pure state, larger with
        # detection noise on top
        pure = SqueezingModel(atom_number=6000.0, strength=0.9)
        lo = tomography_variance(pure, pure.optimal_phase_rad)
        hi = tomography_variance(pure, pure.optimal_phase_rad + math.pi / 2)
        assert lo * hi == pytest.approx((6000.0 / 4.0) ** 2, rel=1e-12)
        noisy = calibrate_model(-5.4, 9.9, 6000.0)
        lo_n = tomography_variance(noisy, noisy.optimal_phase_rad)
        hi_n = tomography_variance(noisy, noisy.optimal_phase_rad + math.pi / 2)
        assert lo_n * hi_n > (6000.0 / 4.0) ** 2

    def test_coherent_model_is_flat_at_projection_limit(self):
        model = coherent_model(6000.0)
        for phi in np.linspace(0, 2 * math.pi, 13):
            linear, db = squeezing_parameter(tomography_variance(model, float(phi)), 6000.0)
            assert linear == 1.0
            assert db == 0.0

    @pytest.mark.parametrize("r", [1e-3, 0.4, FROZEN_R, 3.0])
    def test_readout_variance_equals_the_simulators_expression_bit_for_bit(self, r):
        model = SqueezingModel(strength=r, detection_noise_atoms=FROZEN_SIGMA_DET)
        rng = np.random.default_rng(24)
        n = np.rint(rng.uniform(0.0, 12000.0, 5000))
        phi = np.r_[rng.normal(0.0, 0.01, 2500), rng.uniform(-10.0, 10.0, 2500)]
        # the shot variance as the simulator wrote it before it called readout_variance
        oracle = (n / 4.0) * (
            math.exp(-2.0 * model.strength) * np.cos(phi) ** 2
            + math.exp(2.0 * model.strength) * np.sin(phi) ** 2
        ) + model.detection_noise_atoms**2
        assert readout_variance(model, n, phi).tobytes() == oracle.tobytes()

    def test_readout_variance_at_r_zero_is_exactly_the_projection_limit(self):
        model = SqueezingModel(strength=0.0, detection_noise_atoms=FROZEN_SIGMA_DET)
        rng = np.random.default_rng(25)
        n, phi = np.rint(rng.uniform(0.0, 12000.0, 5000)), rng.uniform(-10.0, 10.0, 5000)
        assert readout_variance(model, n, phi).tobytes() == (n / 4.0 + FROZEN_SIGMA_DET**2).tobytes()

    def test_tomography_is_the_readout_at_the_angle_from_the_optimal_phase(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        for phi in np.linspace(-4.0, 9.0, 27).tolist():
            want = readout_variance(model, 6000.0, phi - model.optimal_phase_rad)
            assert type(tomography_variance(model, phi)) is float
            assert tomography_variance(model, phi) == want

    def test_squeezing_parameter_guards(self):
        with pytest.raises(DomainError):
            squeezing_parameter(0.0, 6000.0)
        with pytest.raises(DomainError):
            squeezing_parameter(1.0, 0.0)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            SqueezingModel(atom_number=0.0)
        with pytest.raises(ConfigError):
            SqueezingModel(strength=-0.1)
        with pytest.raises(ConfigError):
            SqueezingModel(detection_noise_atoms=-1.0)

