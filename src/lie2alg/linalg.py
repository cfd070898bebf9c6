"""Exact linear algebra over the rationals.

All entries are `fractions.Fraction`, so ranks, kernels and solutions are
computed exactly and every operation is deterministic: identical inputs give
identical outputs, bit for bit.  The one exact accumulation form of the
package lives here too: the scaled vector, integer numerators over one
denominator (``_scale``).  A `Matrix` stores only its rows in that form
(``Matrix._of`` takes them as they are), and builds its scaled columns and
`Fraction` ``entries`` on first use (``transpose`` keeps the rows of its
source as its columns, so ``_column_matrix`` keeps the columns it is
built from).  ``apply`` takes one integer dot product per scaled row
(``_times``); ``@`` contracts the rows of its left operand with those of
its right one by ``_isum``, the integer kernel of every tensor contraction,
one loop for all arities with no list of terms.  All elimination is one
routine on scaled rows, ``_eliminate``: fraction-free sparse Gauss-Jordan,
whose work follows the nonzeros, a forward pass (``_forward``) and a
back-substitution that leaves the pass as it is; ``rank`` runs the pass alone.
``solve`` and ``invert`` read scaled columns off the reduced rows (``_solve``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter
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
    return _scale_ratios([(t, x.as_integer_ratio()) for t, x in pairs if x])


def _scale_ratios(ratios) -> tuple[tuple[tuple[int, int], ...], int]:
    """``_scale_items`` of (t, p / q) for (t, (p, q)) in ``ratios``, p / q reduced and nonzero."""
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


def _isum(n: int, parts) -> tuple[list[int], int]:
    """Sum of sign * (tensor contracted with vectors) over ``parts``, an
    iterable of (sign, tensor, vectors) on scaled forms, as (numerators, den)
    of length n.  ``tensor[i1]...[ik]`` is the leaf vector on the basis
    arguments (e_i1, ..., e_ik), and its contraction with v1..vk is the sum
    of v1[i1] * ... * vk[ik] * tensor[i1]...[ik].

    Only the leading vectors expand, into (coefficient, node) prefixes (for
    one vector just (sign, tensor)), and the last vector's entries index the
    leaves of each node: one loop for every arity, no list of terms.  Each
    nonzero leaf is one term: its coefficient is a product of ints and its
    denominator (the vectors' and the leaf's) is merged into the running one
    once.  The result is not reduced.
    """
    acc, acc_den = [0] * n, 1
    for sign, tensor, vectors in parts:
        last, den = vectors[-1]
        nodes = [(sign, tensor)]
        for items, vden in vectors[:-1]:
            den *= vden
            nodes = [(a * c, node[j]) for a, node in nodes for j, c in items]
        for a, node in nodes:
            for j, c in last:
                leaf, leaf_den = node[j]
                if not leaf:
                    continue
                c *= a
                term_den = den * leaf_den
                if term_den != acc_den:
                    q, r = divmod(acc_den, term_den)
                    if r:
                        # gcd(acc_den, term_den) == gcd(term_den, r): a gcd of
                        # short numbers when the running denominator is long
                        g = gcd(term_den, r)
                        up = term_den // g
                        acc = [x * up for x in acc]
                        q = acc_den // g
                        acc_den *= up
                    c *= q
                for t, x in leaf:
                    acc[t] += c * x
    return acc, acc_den


def _ivec(n: int, parts):
    """``_isum(n, parts)`` in scaled form."""
    return _reduce(_isum(n, parts))


class _Record:
    """Base of the records that have a constructor: the fields are the
    annotated names of the class body (``_fields``).  Two records are equal
    when they have the same type and equal tuples of field values, whose hash
    is theirs; no attribute can be assigned (``cached_property`` views write
    to ``__dict__``).  The plain value records are `typing.NamedTuple`s:
    ``dataclasses`` would take about a third of a cold command's import."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        """The fields as given, by position or by name: the constructor of a
        record that checks nothing (``Decomposition``)."""
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)

    @classmethod
    def _of(cls, *values):
        """The record with these field values, neither coerced nor checked:
        the one constructor for data the package built itself."""
        out = object.__new__(cls)
        out.__dict__.update(zip(cls._fields, values))
        return out

    def _kept(self, key, compute=None, *args):
        """``compute(*args)``, once per object: the one store of results
        computed from a record, under "verify", "quadruple" and "normal_form"
        on a `TwoTermAlgebra`, "complex" on a `Representation` (its cochain
        complex, which keeps each differential and its elimination), and
        "inverse" on the `Morphism` of a normal form: the columns of the
        inverses of its phi0 and phi1.  A standard shape keeps the quadruple
        it was built from under "quadruple" and "built from" from the start.
        With no ``compute``, the value kept under ``key`` or None, and no
        store is made.  No kept value refers back to its record, so it is
        still freed by reference counting; an equal record keeps its own."""
        if compute is None:
            return self.__dict__.get("_kept_results", {}).get(key)
        kept = self.__dict__.setdefault("_kept_results", {})
        if key not in kept:
            kept[key] = compute(*args)
        return kept[key]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Matrix(_Record):
    """Immutable matrix over the rationals, stored as its scaled rows."""

    rows: int
    cols: int
    _rows: tuple   # the scaled rows; canonical, so == and hash compare the entries

    def __init__(self, rows: int, cols: int, entries: Sequence):
        _check_shape(rows, cols)
        ent = tuple(map(rat, entries))
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        self.__dict__.update(rows=rows, cols=cols, _rows=tuple(
            [_scale(ent[i * cols:(i + 1) * cols]) for i in range(rows)]))

    @classmethod
    def _of(cls, rows, cols: int) -> "Matrix":
        """The matrix with ``cols`` columns whose rows are the scaled vectors ``rows``."""
        rows = tuple(rows)
        if any(items and items[-1][0] >= cols for items, _ in rows):
            raise ValueError(f"scaled row index out of range for {cols} columns")
        return super()._of(len(rows), cols, rows)

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
        if any(len(c) != len(columns[0]) for c in columns):
            raise ValueError("ragged columns")
        return cls.from_rows(columns, cols=rows).transpose()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return cls._of([(((i, 1),), 1) for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        return cls._of((((), 1),) * rows, cols)

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
        return not any(items for items, _ in self._rows)

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
        return Matrix._of([_ivec(other.cols, ((1, other._rows, (r,)),)) for r in self._rows],
                          other.cols)

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix times coordinate vector."""
        v = vec(vector)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return _times(self._rows, self.cols, _scale(v))

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries in row-major order, built on first read."""
        return tuple([x for r in self._rows for x in _unscale(r, self.cols)])

    @cached_property
    def _columns(self) -> tuple:
        """The columns in scaled form, built on first use: a depth-1 tensor
        whose contraction with a vector (``_isum``) is ``apply``."""
        return _transpose(self._rows, self.cols)

    def transpose(self) -> "Matrix":
        """The transpose, which keeps the rows of this matrix as its columns."""
        out = Matrix._of(self._columns, self.rows)
        out.__dict__["_columns"] = self._rows
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return _column_matrix(self._columns + other._columns, self.rows)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix._of(self._rows + other._rows, self.cols)

    def rank(self) -> int:
        return len(_forward(self._rows, self.cols))

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        return Matrix._of([_reduce(([dict(self._rows[i][0]).get(j, 0) for j in col_indices],
                                    self._rows[i][1])) for i in row_indices], len(col_indices))

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimensions")


def _times(rows, cols: int, v) -> tuple[Fraction, ...]:
    """The matrix of scaled rows ``rows`` (``cols`` columns) times the scaled vector
    ``v``: one integer dot product per row, over the product of the denominators."""
    x, den = [0] * cols, v[1]
    for k, c in v[0]:
        x[k] = c
    return tuple([Fraction(s, d * den) if (s := sum([a * x[k] for k, a in items])) else ZERO
                  for items, d in rows])


def _transpose(vectors, n: int) -> tuple:
    """The ``n`` scaled columns of the matrix whose rows are the scaled
    vectors ``vectors`` (or its rows given its columns), each reduced from
    numerators over the lcm of the rows' denominators."""
    den = lcm(*[d for _, d in vectors])
    out = [[0] * len(vectors) for _ in range(n)]
    for i, (items, d) in enumerate(vectors):
        for t, x in items:
            out[t][i] = x * (den // d)
    return tuple([_reduce((col, den)) for col in out])


def _column_matrix(columns, rows: int) -> Matrix:
    """The `Matrix` with ``rows`` rows whose columns are the scaled vectors
    ``columns``; it keeps them, canonical, as its ``_columns``."""
    return Matrix._of(columns, rows).transpose()


def as_matrix(value, cols: int) -> Matrix:
    """``value`` itself when it is a Matrix, else the matrix on its rows
    (with ``cols`` columns when it has none)."""
    return value if isinstance(value, Matrix) else Matrix.from_rows(value, cols=cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """[[a, 0], [0, b]] from its scaled columns: a's, then b's with their
    rows shifted past a's."""
    return _column_matrix(a._columns + tuple([(tuple([(t + a.rows, x) for t, x in items]), den)
                                              for items, den in b._columns]), a.rows + b.rows)


class Subspace(_Record):
    """A subspace given by an explicit linearly independent basis.

    Basis vectors are columns, stored as coordinate tuples of length
    ``ambient_dim``.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __init__(self, ambient_dim: int, basis: tuple[tuple[Fraction, ...], ...]):
        vecs = tuple(vec(v) for v in basis)
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("basis vector length != ambient dimension")
        self.__dict__.update(ambient_dim=ambient_dim, basis=vecs)
        if vecs and Matrix.from_columns(vecs, rows=ambient_dim).rank() != len(vecs):
            raise ValueError("basis vectors are linearly dependent")

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


def _forward(rows, cols: int) -> dict:
    """The forward pass of ``_eliminate``, pivot column -> its primitive row in
    echelon form, whose pivots ``Matrix.rank`` counts: in each column, of the rows
    starting there the sparsest is the pivot and is subtracted from the others."""
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
    return done


def _eliminate(rows, cols: int) -> tuple[tuple, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    ``rows`` are scaled rows of ``cols`` columns, read without their
    denominators, which do not change the row space.  Returns the nonzero
    rows of the rref in scaled form and the pivot columns: the forward pass
    ``_forward``, back-substituted by ``_back_substitute``.
    """
    return _back_substitute(_forward(rows, cols))


def _back_substitute(done: dict) -> tuple[tuple, tuple[int, ...]]:
    """The rref of the forward pass ``done`` (``_forward``), which it leaves
    as it is, as ``_eliminate`` returns it: last pivot first, the columns
    above the pivots are cleared.  The rref is unique, so the pivot choice
    does not show, and a primitive row with pivot x_p > 0 is the scaled
    form of its rref row: its denominator is x_p / gcd(x_p, x_1, ..., x_m) = x_p.
    """
    out = dict(done)
    pivots = tuple(out)
    for c in reversed(pivots):
        p = out[c]
        for k in [k for k in p if k > c and k in out]:
            p = _combine(p, out[k], k)
        out[c] = p if p[c] > 0 else {k: -x for k, x in p.items()}
    return tuple([(tuple(sorted(out[c].items())), out[c][c]) for c in pivots]), pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the sorted pivot-column list: the rows of
    ``_eliminate``, then the zero rows."""
    reduced, pivots = _eliminate(m._rows, m.cols)
    return Matrix._of(reduced + (((), 1),) * (m.rows - len(pivots)), m.cols), pivots


def _kernel_vectors(reduced, free, cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Null-space vectors from the reduced rows and pivots of ``_eliminate``
    of a matrix with ``cols`` columns, one per column f of ``free``, a list
    of its free columns: e_f less the rref entries at f placed at their pivots."""
    rows, pivots = reduced
    out = {f: [ONE if k == f else ZERO for k in range(cols)] for f in free}
    for p, (items, den) in zip(pivots, rows):
        for k, x in items:
            if k in out:
                out[k][p] = Fraction(-x, den)
    return tuple(map(tuple, out.values()))


def kernel_basis(m: Matrix) -> Subspace:
    """Null-space basis built from the rref free columns, in increasing order."""
    reduced = _eliminate(m._rows, m.cols)
    free = [f for f in range(m.cols) if f not in reduced[1]]
    return Subspace._of(m.cols, _kernel_vectors(reduced, free, m.cols))


def image_basis(m: Matrix) -> Subspace:
    """Column-space basis: the original columns at the pivot positions."""
    return Subspace._of(m.rows, tuple([m.column(p) for p in _eliminate(m._rows, m.cols)[1]]))


def complement(s: Subspace) -> Subspace:
    """Deterministic complement of a subspace.

    The standard basis vectors at the pivot columns of rref([S | I]) that
    fall in the identity block: exactly the ones a greedy scan in increasing
    index order adds to the basis of S.
    """
    n, k = s.ambient_dim, s.dim
    pivots = _eliminate(s.matrix().hstack(Matrix.identity(n))._rows, n + k)[1]
    return Subspace._of(n, tuple([basis_vec(n, p - k) for p in pivots if p >= k]))


def _solve(a_rows, b_rows, cols: int, width: int) -> list | None:
    """The scaled columns of the solution x of a @ x = b with free unknowns
    zero, or None, for ``a`` (``cols`` columns) and ``b`` (``width``) given by
    scaled rows: [a | b] eliminated with row i over the product of its
    denominators, each column its numerators over the lcm of the pivots."""
    rows, pivots = _eliminate([([(k, x * db) for k, x in ai] + [(cols + j, y * da) for j, y in bi],
                                1) for (ai, da), (bi, db) in zip(a_rows, b_rows)], cols + width)
    if pivots and pivots[-1] >= cols:
        return None
    den = lcm(*[d for _, d in rows])
    out = [[0] * cols for _ in range(width)]
    for p, (items, d) in zip(pivots, rows):
        for k, x in items:
            if k >= cols:
                out[k - cols][p] = x * (den // d)
    return [_reduce((col, den)) for col in out]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a @ x = b, or None if inconsistent.

    Free variables are set to zero, which pins the solution uniquely.
    ``b`` may have several columns; they are solved simultaneously, and
    the result keeps their scaled columns (``_solve``).
    """
    if a.rows != b.rows:
        raise ValueError("a and b must have the same number of rows")
    x = _solve(a._rows, b._rows, a.cols, b.cols)
    return None if x is None else _column_matrix(x, a.cols)


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix (``solve`` against I), or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    return solve(m, Matrix.identity(m.rows))


def _invertible(m: Matrix) -> bool:
    """Whether ``m`` is square and of full rank: one elimination of ``m``
    alone, where ``invert`` eliminates ``[m | I]``."""
    return m.rows == m.cols == m.rank()
