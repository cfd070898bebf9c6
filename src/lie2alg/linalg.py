"""Exact dense linear algebra over the rationals.

All entries are `fractions.Fraction`, so ranks, kernels and solutions are
computed exactly and every operation is deterministic: identical inputs give
identical outputs, bit for bit.  Elimination favours clarity over
asymptotics (dense storage, plain Gauss-Jordan, no pivot-size heuristics).
The one exact accumulation form of the package lives here too: the scaled
vector, integer numerators over one denominator (``_scale``).  A `Matrix`
keeps its rows and columns in that form, built on first use; ``apply`` and
``@`` then take one integer dot product per scaled row, in time
proportional to the nonzeros, and reduce each output entry once.  Tensor
contractions sum the same form with ``core._isum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int/Fraction/rational-string into a Fraction.

    Floats are rejected: exactness is the whole point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected a rational entry, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fraction)
# ---------------------------------------------------------------------------

def vec(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def vec_zero(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> tuple[Fraction, ...]:
    """The i-th standard basis vector of length n."""
    return tuple(ONE if k == i else ZERO for k in range(n))


def vec_add(u, v) -> tuple[Fraction, ...]:
    return tuple(a + b if b else a for a, b in zip(u, v))


def vec_sub(u, v) -> tuple[Fraction, ...]:
    return tuple(a - b if b else a for a, b in zip(u, v))


def vec_scale(c, u) -> tuple[Fraction, ...]:
    return tuple(c * a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


# -- the scaled form: a vector x as (items, den), where den is the lcm of the
# denominators of its entries and items lists (t, x[t] * den) for every
# nonzero x[t], in increasing t.  The form is canonical, so x == y exactly
# when the forms are equal.  A tensor in scaled form nests these pairs where
# its leaf vectors were.


def _scale(v) -> tuple[tuple[tuple[int, int], ...], int]:
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*[q for _, q in ratios])
    return tuple([(t, p * (den // q)) for t, (p, q) in enumerate(ratios) if p]), den


def _reduce(total: tuple[list[int], int]):
    """The scaled form of an unreduced (numerators, den) pair: both divided by
    g = gcd(den, *numerators), since the lcm over t of den / gcd(den, n_t)
    is den / gcd(den, n_1, ..., n_k).  The zero vector comes out ((), 1)."""
    nums, den = total
    g = gcd(den, *nums)
    return tuple([(t, x // g) for t, x in enumerate(nums) if x]), den // g


def _unscale(v, n: int) -> tuple[Fraction, ...]:
    """The length-``n`` `Fraction` vector of a scaled vector."""
    entries = dict(v[0])
    return tuple(Fraction(entries[t], v[1]) if t in entries else ZERO for t in range(n))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major Fraction entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        ent = tuple(rat(e) for e in self.entries)
        if len(ent) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(ent)}"
            )
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries) -> "Matrix":
        """A matrix on ``rows * cols`` row-major entries that are already
        `Fraction`s: skips the constructor's per-entry ``rat`` coercion."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "entries", tuple(entries))
        return out

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        flat = tuple(e for r in rows for e in r)
        return cls(len(rows), width, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        columns = [tuple(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("ragged columns")
        else:
            height = 0 if rows is None else rows
        flat = tuple(columns[j][i] for i in range(height) for j in range(len(columns)))
        return cls(height, len(columns), flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    # -- access -------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(self.rows, self.cols,
                               (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(self.rows, self.cols,
                               (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, (-a for a in self.entries))

    def __rmul__(self, scalar) -> "Matrix":
        c = rat(scalar)
        return Matrix._trusted(self.rows, self.cols, (c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [self._times(c) for c in other._columns]
        return Matrix._trusted(self.rows, other.cols,
                               (c[i] for i in range(self.rows) for c in cols))

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix times coordinate vector."""
        v = vec(vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return self._times(_scale(v))

    def _times(self, v) -> tuple[Fraction, ...]:
        """Matrix times the scaled vector ``v``: one integer dot product per
        scaled row, over the product of the two denominators."""
        x, den = [0] * self.cols, v[1]
        for k, c in v[0]:
            x[k] = c
        return tuple([Fraction(s, d * den) if (s := sum([a * x[k] for k, a in items])) else ZERO
                      for items, d in self._rows])

    @cached_property
    def _rows(self) -> tuple:
        """The rows in scaled form, built on first use."""
        return tuple(map(_scale, self.to_rows()))

    @cached_property
    def _columns(self) -> tuple:
        """The columns in scaled form, built on first use: a depth-1 tensor
        whose contraction with a vector (``core._isum``) is ``apply``."""
        return tuple([_scale(self.entries[j::self.cols]) for j in range(self.cols)])

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.cols, self.rows,
                               (self.entries[i * self.cols + j]
                                for j in range(self.cols) for i in range(self.rows)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix._trusted(self.rows, self.cols + other.cols,
                               (x for i in range(self.rows) for x in self.row(i) + other.row(i)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix._trusted(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rank(self) -> int:
        return len(rref(self)[1])

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        return Matrix._trusted(len(row_indices), len(col_indices),
                               (self.entries[i * self.cols + j]
                                for i in row_indices for j in col_indices))

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def as_matrix(value, cols: int) -> Matrix:
    """``value`` itself when it is a Matrix, else the matrix on its rows
    (with ``cols`` columns when it has none)."""
    return value if isinstance(value, Matrix) else Matrix.from_rows(value, cols=cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    top = a.hstack(Matrix.zero(a.rows, b.cols))
    bottom = Matrix.zero(b.rows, a.cols).hstack(b)
    return top.vstack(bottom)


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an explicit linearly independent basis.

    Basis vectors are columns, stored as coordinate tuples of length
    ``ambient_dim``.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        vecs = tuple(vec(v) for v in self.basis)
        for v in vecs:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector length != ambient dimension")
        object.__setattr__(self, "basis", vecs)
        if vecs and Matrix.from_columns(vecs, rows=self.ambient_dim).rank() != len(vecs):
            raise ValueError("basis vectors are linearly dependent")

    @classmethod
    def _trusted(cls, ambient_dim: int, basis) -> "Subspace":
        """A subspace on Fraction vectors independent by construction: skips
        the constructor's re-check, which would be a second rref."""
        out = object.__new__(cls)
        object.__setattr__(out, "ambient_dim", ambient_dim)
        object.__setattr__(out, "basis", tuple(basis))
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix._trusted(self.ambient_dim, self.dim,
                               (v[i] for i in range(self.ambient_dim) for v in self.basis))


# ---------------------------------------------------------------------------
# elimination and everything built on it
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the sorted pivot-column list.

    Pivoting picks the first nonzero entry in each column, so the result is
    deterministic.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix._trusted(m.rows, m.cols, (x for r in rows for x in r)), tuple(pivots)


def _kernel_vectors(red: Matrix, pivots: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Null-space basis from an rref and its pivots, one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(red.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * red.cols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, free]
        basis.append(tuple(v))
    return tuple(basis)


def kernel_basis(m: Matrix) -> Subspace:
    """Null-space basis built from the rref free columns, in increasing order."""
    return Subspace._trusted(m.cols, _kernel_vectors(*rref(m)))


def image_basis(m: Matrix) -> Subspace:
    """Column-space basis: the original columns at the pivot positions."""
    _, pivots = rref(m)
    return Subspace._trusted(m.rows, (m.column(p) for p in pivots))


def complement(s: Subspace) -> Subspace:
    """Deterministic complement of a subspace.

    The standard basis vectors at the pivot columns of rref([S | I]) that
    fall in the identity block: exactly the ones a greedy scan in increasing
    index order adds to the basis of S.
    """
    n, k = s.ambient_dim, s.dim
    _, pivots = rref(s.matrix().hstack(Matrix.identity(n)))
    return Subspace._trusted(n, (basis_vec(n, p - k) for p in pivots if p >= k))


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a @ x = b, or None if inconsistent.

    Free variables are set to zero, which pins the solution uniquely.
    ``b`` may have several columns; they are solved simultaneously.
    """
    if a.rows != b.rows:
        raise ValueError("a and b must have the same number of rows")
    red, pivots = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        return None
    x = [[ZERO] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            x[pc][j] = red[r, a.cols + j]
    return Matrix._trusted(a.cols, b.cols, (e for r in x for e in r))


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    return solve(m, Matrix.identity(m.rows))


def _invertible(m: Matrix) -> bool:
    """Whether ``m`` is square and of full rank: one elimination of ``m``
    alone, where ``invert`` eliminates ``[m | I]``."""
    return m.rows == m.cols == m.rank()
