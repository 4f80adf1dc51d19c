"""Random subspace embeddings.

The sparse sign embedding: a d x m matrix whose columns each carry zeta
entries of value +-1/sqrt(zeta), one in each of zeta contiguous row blocks,
drawn and applied in column blocks so that it is never held whole. Also the
distortion measurement and the embedding-dimension formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import lambertw

from .linalg import _as_matrix, _as_vector, _read, svd_values


@dataclass(frozen=True)
class DistortionReport:
    """Measured distortion of an embedding on a given subspace."""

    epsilon: float
    sigma_max: float
    sigma_min: float


# Columns of S drawn from one random stream. S does not depend on how many
# columns are applied at a time, so this is a constant, not a setting.
COLUMN_BLOCK = 8192
# A dense A's product with a column block of S is formed a group of S's row
# blocks at a time, as many as keep the group's product at most this many
# entries (1 MiB), or one row block if that alone is larger. Each group
# re-reads A's column block: on a 1e5 x 100 A at d = 3000 (2-core Xeon,
# 2 MiB L2) solves with groups of two of the eight row blocks ran 1-2%
# slower than with this limit's three, and one group of all eight held a
# 2.3 MiB product beside the 2.3 MiB sketch. The limit trades time for
# memory (same host; apply, solve and the solve's peak allocation): on the
# bench's tall-dense, 2**17 gives 61.6 ms, 133 ms and 3.742 MiB, one row
# block per group 68.6-70.0 ms, 137-143 ms and 2.99 MiB; on paper-dense,
# 2**17 gives 0.99 ms, 3.13 ms and 1.156 MiB, 2**15 1.16 ms, 3.31 ms and
# 0.997 MiB.
GROUP_ENTRIES = 2**17


def _check_integer(name: str, value) -> None:
    """ValueError unless value is a Python or NumPy integer. A bool is refused
    too: Python counts it an int, but no count of the package is a flag."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SparseSignEmbedding:
    """Sparse sign embedding S (d x m) in the OSNAP block form.

    The d rows are split into zeta contiguous blocks, block k starting at
    row (k*d)//zeta, and each column holds one entry +-scale = +-1/sqrt(zeta)
    in a uniform row of every block, with an independent sign. Columns are
    drawn in blocks of COLUMN_BLOCK, block j from the stream
    ``default_rng([rng_seed, j])``, so the first m columns of S do not
    depend on m. No array is held: S is drawn again, block by block, each
    time it is applied. Its counts are checked where it is built, directly
    or by dataclasses.replace.
    """

    d: int
    m: int
    zeta: int
    rng_seed: int

    def __post_init__(self) -> None:
        for name in ("d", "m", "zeta", "rng_seed"):
            _check_integer(name, getattr(self, name))
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be >= 1")
        if not 1 <= self.zeta <= self.d:
            raise ValueError(f"need 1 <= zeta <= d, got zeta={self.zeta}, d={self.d}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.zeta)

    def _row_starts(self) -> np.ndarray:
        """First row of each of the zeta row blocks, then d."""
        return (np.arange(self.zeta + 1) * self.d) // self.zeta

    def _draw(self, j: int) -> np.ndarray:
        """Column block j of S as one int32 draw v of shape (columns, zeta):
        column i's entry in row block k sits at row v[i, k] >> 1 of that
        block, and is -scale if v[i, k] & 1, else +scale."""
        count = min(COLUMN_BLOCK, self.m - j * COLUMN_BLOCK)
        starts = self._row_starts()
        # when zeta divides d, the scalar bound draws the bits of the array
        # bound 2 * np.diff(starts) (tests/reference.py takes the array one,
        # and test_embed.py pins the two equal), in 0.33 ms where the array
        # bound takes 1.6 ms per 8192 x 8 block on a 2-core Xeon
        high = 2 * (self.d // self.zeta) if self.d % self.zeta == 0 else 2 * np.diff(starts)
        return np.random.default_rng([self.rng_seed, j]).integers(
            0, high, size=(count, self.zeta), dtype=np.int32)

    def _split(self, v: np.ndarray) -> np.ndarray:
        """The entries of the draws v (-scale where v & 1, else +scale);
        v itself is left holding their rows in their row blocks (v >> 1)."""
        entries = np.multiply(v & 1, -2 * self.scale)  # exact: 0 or -2*scale
        entries += self.scale
        v >>= 1
        return entries

    def apply(self, a, b: np.ndarray | None = None) -> np.ndarray:
        """S @ a for a dense or sparse m x n a (or a dense length-m vector),
        returned dense and column-major. Given b (length m) as well,
        [S @ a | S @ b] as one column-major d x (n+1) array, in one pass that
        draws S once; its transpose is the buffer that
        linalg._qr_solve_in_place factors with no copy.

        A is read through its rows and, if sparse, its CSR arrays; any other
        sparse format is first copied whole to CSR (a solve on a 2e5 x 100
        gen_sparse A at d = 3000 peaks at 11.29 MiB as CSC or COO, 3.66 MiB
        as CSR). No product with A or A' is formed. A and b are read by
        linalg._as_matrix and _as_vector (a vector a by _read). Each column
        block of S is multiplied with the same rows of A as a sum from zero,
        in S's column order, and the blocks' products are added to the
        result one after another; past COLUMN_BLOCK columns that order
        differs in rounding from one product of all of S with A."""
        a = _read("A", a, sparse=True)
        a = a if a.ndim == 1 and b is None else _as_matrix("A", a, sparse=True)
        if a.shape[0] != self.m:
            raise ValueError(f"A must have {self.m} rows, one per column of S, got shape {a.shape}")
        b = None if b is None else _as_vector("b", b, self.m)
        sparse = sp.issparse(a)
        a = a.tocsr() if sparse else a
        width = a.shape[1:] if b is None else (a.shape[1] + 1,)
        out = np.zeros((self.d, *width), order="F")
        add_block = self._scatter_csr if sparse else self._add_dense
        for j in range(-(-self.m // COLUMN_BLOCK)):
            add_block(out, a, b, j)  # S's draw for block j is freed on return
        return out

    def _add_dense(self, out, a, b, j) -> None:
        """Add to out S's column block j times the same rows of the dense a
        (and b, as out's last column, if given), one group of S's row blocks
        at a time. Each group is one CSC product, which forms the rows of out
        it touches exactly as a product with all of S would, and holds at
        most GROUP_ENTRIES entries unless one row block alone holds more."""
        v = self._draw(j)
        lo = j * COLUMN_BLOCK
        hi = lo + v.shape[0]
        block = np.ascontiguousarray(a[lo:hi])  # SciPy's kernel copies any other
        starts = self._row_starts()
        n = a.shape[1] if a.ndim == 2 else 1
        step = max(1, GROUP_ENTRIES // (-(-self.d // self.zeta) * n))
        for k0 in range(0, self.zeta, step):
            k1 = min(k0 + step, self.zeta)
            # column i of the group's CSC holds its k1 - k0 entries, each
            # row counted from the group's first row
            rows = np.ascontiguousarray(v[:, k0:k1])  # v itself for one group
            entries = self._split(rows)
            rows += (starts[k0:k1] - starts[k0]).astype(np.int32)
            chunk = sp.csc_matrix(
                (entries.ravel(), rows.ravel(),
                 np.arange(0, rows.size + 1, k1 - k0, dtype=np.int32)),
                shape=(starts[k1] - starts[k0], hi - lo))
            del rows, entries  # the CSC holds them until it is freed
            part = out[starts[k0]:starts[k1]]
            if b is not None:
                part[:, -1] += chunk @ b[lo:hi]
                part = part[:, :-1]
            product = chunk @ block
            del chunk  # before the add, whose mixed layouts take a buffer
            part += product
            del product  # before the next group's

    def _scatter_csr(self, out, a, b, j) -> None:
        """Add to out S's column block j times the same rows of the CSR a (and
        b, as out's last column, if given). Row block k of S touches only rows
        starts[k]..starts[k+1]-1 of out, so each row block is one bincount
        over that slice of A's entries, in A's row order, and one over b."""
        v = self._draw(j)
        lo = j * COLUMN_BLOCK
        hi = lo + v.shape[0]
        n = a.shape[1]
        start, stop = a.indptr[lo], a.indptr[hi]
        col = np.repeat(np.arange(hi - lo), np.diff(a.indptr[lo:hi + 1]))
        val = a.data[start:stop]
        starts = self._row_starts()
        # entry (r, c) of a row block's slice of out is bin c * tall + r, with
        # tall the most rows a row block has: column-major, as out is
        tall = -(-self.d // self.zeta)
        col_bins = a.indices[start:stop] * np.intp(tall)
        for k in range(self.zeta):
            part = out[starts[k]:starts[k + 1]]
            rows = v[:, k]
            entries = self._split(rows)
            flat = np.take(rows.astype(np.intp), col)
            flat += col_bins
            weight = np.take(entries, col)
            weight *= val
            sums = np.bincount(flat, weight, minlength=tall * n).reshape(n, tall)
            del flat, weight  # before the add, which takes a buffer
            part[:, :n] += sums[:, : part.shape[0]].T
            del sums  # before the next row block's
            if b is not None:
                part[:, n] += np.bincount(rows, entries * b[lo:hi], minlength=part.shape[0])


def measure_distortion(s, basis_q: np.ndarray) -> DistortionReport:
    """Distortion of an embedding on the subspace spanned by the columns of
    basis_q, which must be orthonormal. A basis of more columns k than S has
    rows d has a vector in its span that S maps to 0, so sigma_min is 0.
    basis_q is read by linalg._as_matrix."""
    basis_q = _as_matrix("basis_q", basis_q)
    k = basis_q.shape[1]
    gram_err = np.linalg.norm(basis_q.T @ basis_q - np.eye(k))
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (||Q'Q - I|| = {gram_err:.2e})")
    sv = svd_values(s.apply(basis_q))  # min(d, k) values
    sigma_max, sigma_min = float(sv[0]), float(sv[-1]) if sv.size == k else 0.0
    epsilon = max(sigma_max - 1.0, 1.0 - sigma_min)
    return DistortionReport(epsilon=epsilon, sigma_max=sigma_max, sigma_min=sigma_min)


def choose_dim(m: int, n: int, accuracy_u: float, variant: str) -> int:
    """Embedding dimension balancing sketch-factorization cost against
    iteration cost, with floors guaranteeing a convergent scheme.

    variant is one of {"basic", "damped", "momentum"}.
    """
    if m < n or n < 1:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if not 0 < accuracy_u < 1:
        raise ValueError(f"accuracy must be in (0, 1), got {accuracy_u}")
    log_inv_u = math.log(1.0 / accuracy_u)
    if variant == "basic":
        arg = (6 - 4 * math.sqrt(2)) * (m / n**2) * log_inv_u
        d = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambertw(arg).real))
        return max(d, 20 * n)
    if variant in ("damped", "momentum"):
        a = 2.0 if variant == "damped" else 1.0
        arg = (4 * m / (a * n**2)) * log_inv_u
        d = math.ceil(a * n * math.exp(lambertw(arg).real))
        return max(d, 4 * n)
    raise ValueError(f"unknown variant {variant!r}")
