"""Exact linear algebra over the rationals.

All entries are `fractions.Fraction`, so ranks, kernels and solutions are
computed exactly and every operation is deterministic: identical inputs give
identical outputs, bit for bit.  The one exact accumulation form of the
package lives here too: the scaled vector, integer numerators over one
denominator (``_scale``).  A `Matrix` stores its entries densely and keeps
its rows and columns in that form, built on first use or handed over by
``_row_matrix`` and ``_column_matrix``; ``apply`` and ``@`` then take one
integer dot product per scaled row (``_times``), in time proportional to
the nonzeros.  Tensor contractions sum the same form with ``core._isum``.
All elimination is one routine on scaled rows, ``_eliminate``:
fraction-free sparse Gauss-Jordan, whose work follows the nonzeros.
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
    return tuple(map(rat, values))


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
    return _scale_items(enumerate(v))


def _scale_items(pairs) -> tuple[tuple[tuple[int, int], ...], int]:
    """The scaled form of the vector with entries x at t, (t, x) in ``pairs`` by increasing t."""
    ratios = [(t, x.as_integer_ratio()) for t, x in pairs if x]
    den = lcm(*[q for _, (_, q) in ratios])
    return tuple([(t, p * (den // q)) for t, (p, q) in ratios]), den


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
        ent = tuple(map(rat, self.entries))
        if len(ent) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(ent)}"
            )
        object.__setattr__(self, "entries", ent)

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
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __rmul__(self, scalar) -> "Matrix":
        c = rat(scalar)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix.from_columns([_times(self._rows, self.cols, c) for c in other._columns],
                                   rows=self.rows)

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix times coordinate vector."""
        v = vec(vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return _times(self._rows, self.cols, _scale(v))

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
        return Matrix.from_rows(map(self.column, range(self.cols)), cols=self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix.from_rows([self.row(i) + other.row(i) for i in range(self.rows)],
                                cols=self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rank(self) -> int:
        return len(_eliminate(self._rows, self.cols)[1])

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        return Matrix(len(row_indices), len(col_indices),
                      [self.entries[i * self.cols + j] for i in row_indices for j in col_indices])

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _times(rows, cols: int, v) -> tuple[Fraction, ...]:
    """The matrix of scaled rows ``rows`` (``cols`` columns) times the scaled vector
    ``v``: one integer dot product per row, over the product of the denominators."""
    x, den = [0] * cols, v[1]
    for k, c in v[0]:
        x[k] = c
    return tuple([Fraction(s, d * den) if (s := sum([a * x[k] for k, a in items])) else ZERO
                  for items, d in rows])


def _row_matrix(rows, cols: int) -> Matrix:
    """The `Matrix` whose rows are the scaled vectors ``rows``, which it keeps
    as its scaled rows."""
    out = Matrix.from_rows([_unscale(r, cols) for r in rows], cols=cols)
    out.__dict__["_rows"] = tuple(rows)
    return out


def _column_matrix(columns, rows: int) -> Matrix:
    """The `Matrix` whose columns are the scaled vectors ``columns``, which it
    keeps as its scaled columns."""
    out = Matrix.from_columns([_unscale(c, rows) for c in columns], rows=rows)
    out.__dict__["_columns"] = tuple(columns)
    return out


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
        return Matrix.from_columns(self.basis, rows=self.ambient_dim)


# ---------------------------------------------------------------------------
# elimination and everything built on it
# ---------------------------------------------------------------------------

def _combine(r: dict, p: dict, c: int) -> dict:
    """a*r - b*p for a = p[c], b = r[c] over their gcd: the integer row ``r``
    with column c cleared by ``p``, divided by the gcd of its entries."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    out = {k: y for k in r.keys() | p.keys() if (y := a * r.get(k, 0) - b * p.get(k, 0))}
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def _eliminate(rows, cols: int) -> tuple[tuple, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    ``rows`` are scaled rows of ``cols`` columns, read without their
    denominators, which do not change the row space.  Returns the nonzero
    rows of the rref in scaled form and the pivot columns.  In each column,
    of the rows starting there the sparsest is the pivot and is subtracted
    from the others (``_combine``); a second pass, last pivot first, clears
    the columns above the pivots.  The rref is unique, so the pivot choice
    does not show, and a primitive row with pivot x_p > 0 is the scaled form
    of its rref row: its denominator is x_p / gcd(x_p, x_1, ..., x_m) = x_p.
    """
    lead = {}   # first nonzero column -> the rows that start there
    for items, _ in rows:
        if r := dict(items):
            g = gcd(*r.values())
            lead.setdefault(min(r), []).append({k: x // g for k, x in r.items()})
    done = {}   # pivot column -> its row
    for c in range(cols):
        if c in lead:
            cands = lead.pop(c)
            done[c] = p = min(cands, key=len)
            for r in cands:
                if r is not p and (r := _combine(r, p, c)):
                    lead.setdefault(min(r), []).append(r)
    pivots = tuple(done)
    for c in reversed(pivots):
        p = done[c]
        for k in [k for k in p if k > c and k in done]:
            p = _combine(p, done[k], k)
        done[c] = p if p[c] > 0 else {k: -x for k, x in p.items()}
    return tuple([(tuple(sorted(done[c].items())), done[c][c]) for c in pivots]), pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the sorted pivot-column list: the rows of
    ``_eliminate``, then the zero rows."""
    reduced, pivots = _eliminate(m._rows, m.cols)
    return _row_matrix(reduced + (((), 1),) * (m.rows - len(pivots)), m.cols), pivots


def _solutions(reduced, columns, n: int) -> list[list[Fraction]]:
    """For each column c of ``columns``, the rref entries at c of the reduced
    rows of ``_eliminate`` placed at their pivots: the solution of a @ x =
    (column c), a the first ``n`` columns, with the free unknowns zero."""
    rows, pivots = reduced
    out = {c: [ZERO] * n for c in columns}
    for p, (items, den) in zip(pivots, rows):
        for k, x in items:
            if k in out:
                out[k][p] = Fraction(x, den)
    return list(out.values())


def _kernel_vectors(reduced, cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Null-space basis from the reduced rows and pivots of ``_eliminate``,
    one vector per free column f in increasing order: e_f less the solution
    for column f."""
    pivots = set(reduced[1])
    free = [f for f in range(cols) if f not in pivots]
    return tuple(tuple(ONE if k == f else -x if x else x for k, x in enumerate(v))
                 for f, v in zip(free, _solutions(reduced, free, cols)))


def kernel_basis(m: Matrix) -> Subspace:
    """Null-space basis built from the rref free columns, in increasing order."""
    return Subspace._trusted(m.cols, _kernel_vectors(_eliminate(m._rows, m.cols), m.cols))


def image_basis(m: Matrix) -> Subspace:
    """Column-space basis: the original columns at the pivot positions."""
    return Subspace._trusted(m.rows, (m.column(p) for p in _eliminate(m._rows, m.cols)[1]))


def complement(s: Subspace) -> Subspace:
    """Deterministic complement of a subspace.

    The standard basis vectors at the pivot columns of rref([S | I]) that
    fall in the identity block: exactly the ones a greedy scan in increasing
    index order adds to the basis of S.
    """
    n, k = s.ambient_dim, s.dim
    pivots = _eliminate(s.matrix().hstack(Matrix.identity(n))._rows, n + k)[1]
    return Subspace._trusted(n, (basis_vec(n, p - k) for p in pivots if p >= k))


def _solve(a_rows, b_rows, cols: int, width: int) -> list[list[Fraction]] | None:
    """The columns of the solution x of a @ x = b with free unknowns zero, or
    None, for ``a`` (``cols`` columns) and ``b`` (``width``) given by scaled
    rows: [a | b] eliminated with row i over the product of its denominators."""
    reduced = _eliminate([([(k, x * db) for k, x in ai] + [(cols + j, y * da) for j, y in bi], 1)
                          for (ai, da), (bi, db) in zip(a_rows, b_rows)], cols + width)
    if reduced[1] and reduced[1][-1] >= cols:
        return None
    return _solutions(reduced, range(cols, cols + width), cols)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a @ x = b, or None if inconsistent.

    Free variables are set to zero, which pins the solution uniquely.
    ``b`` may have several columns; they are solved simultaneously.
    """
    if a.rows != b.rows:
        raise ValueError("a and b must have the same number of rows")
    x = _solve(a._rows, b._rows, a.cols, b.cols)
    return None if x is None else Matrix.from_columns(x, rows=a.cols)


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    return solve(m, Matrix.identity(m.rows))


def _invertible(m: Matrix) -> bool:
    """Whether ``m`` is square and of full rank: one elimination of ``m``
    alone, where ``invert`` eliminates ``[m | I]``."""
    return m.rows == m.cols == m.rank()
