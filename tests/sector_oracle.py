"""The test-side constructor of the SparseOperator that `evolve` takes.

A dense, nested-list or scipy.sparse H becomes its stored entries (repeated
entries summed, zeros dropped), labelled by the connected components of its
nonzero pattern that scipy's csgraph finds. The same components are the
oracle of the labels gravlab's builders set from the numbers they conserve.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from gravlab import SparseOperator


def _canonical(h) -> sp.csr_array:
    """H as a new CSR array, repeated entries summed and zeros dropped."""
    csr = sp.csr_array(h, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return csr


def csgraph_sectors(h) -> np.ndarray:
    """Each index of a square H labelled by the smallest index of its
    connected component in H's nonzero pattern, undirected."""
    _, component = connected_components(abs(_canonical(h)), directed=False)  # csgraph takes real weights
    return smallest_of_each(component)


def smallest_of_each(labels) -> np.ndarray:
    """Each index labelled by the smallest index that shares its label: two
    labellings split the indices alike exactly when these are equal."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def as_operator(h) -> SparseOperator:
    """A dense, nested-list or scipy.sparse H as a SparseOperator labelled by csgraph_sectors."""
    coo = _canonical(h).tocoo()
    return SparseOperator(coo.shape, coo.row, coo.col, coo.data, csgraph_sectors(coo))
