"""A system's matrix in CSR form, read off its five-point table and V's
column and diagonal: the reference that the tests multiply, factor and
compare with.  The package builds no CSR matrix; a CSR matrix drops the
table's zeros, those off the grid and the Laplace system's dropped
couplings alike."""

import math

import scipy.sparse as sp


def csr_of(system) -> sp.csr_matrix:
    n = math.isqrt(system.table.shape[1])
    N = n * n
    A = sp.dia_matrix((system.table, [-n, -1, 0, 1, n]), shape=(N, N)).tocsr()
    if system.voltage is None:
        return A
    border, corner = system.voltage
    column = sp.csr_matrix(border[:, None])
    return sp.bmat([[A, column], [column.T, [[corner]]]], format="csr")
