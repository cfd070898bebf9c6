import functools
import random
from fractions import Fraction

import pytest

from lie2alg import LieAlgebra, Morphism, TwoTermAlgebra, adjoint_rep, delta_matrix
from lie2alg.core import zero_tensor
from lie2alg.linalg import (
    Matrix,
    Subspace,
    _invertible,
    _scale,
    block_diag,
    complement,
    image_basis,
    invert,
    kernel_basis,
    rref,
    solve,
)

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


def random_matrix(rng, rows, cols, bound=3):
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


class TestRref:
    def test_identity(self):
        red, pivots = rref(Matrix.identity(3))
        assert red == Matrix.identity(3)
        assert pivots == (0, 1, 2)

    def test_zero(self):
        red, pivots = rref(Matrix.zero(2, 3))
        assert red == Matrix.zero(2, 3)
        assert pivots == ()

    def test_dependent_rows(self):
        red, pivots = rref(M([[1, 2], [2, 4]]))
        assert red == M([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_rank_nullity(self):
        rng = random.Random(12)
        for _ in range(50):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            m = random_matrix(rng, rows, cols)
            assert m.rank() + kernel_basis(m).dim == cols

    def test_deterministic(self):
        m = M([[0, 2, 1], [3, 1, 4], [3, 3, 5]])
        assert rref(m) == rref(M([[0, 2, 1], [3, 1, 4], [3, 3, 5]]))


class TestKernelImage:
    def test_kernel_identity(self):
        assert kernel_basis(Matrix.identity(4)).dim == 0

    def test_kernel_zero(self):
        k = kernel_basis(Matrix.zero(2, 3))
        assert k.basis == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        )

    def test_kernel_real_part_projection(self):
        # projection onto the first coordinate of a 4-dim space
        re = M([[1, 0, 0, 0]])
        k = kernel_basis(re)
        assert k.dim == 3
        assert k.basis == (
            (F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(1), F(0)),
            (F(0), F(0), F(0), F(1)),
        )

    def test_kernel_members_annihilate(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            for v in kernel_basis(m).basis:
                assert all(c == 0 for c in m.apply(v))

    def test_image_identity(self):
        img = image_basis(Matrix.identity(3))
        assert img.basis == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))

    def test_image_zero(self):
        assert image_basis(Matrix.zero(3, 2)).dim == 0

    def test_image_original_columns(self):
        m = M([[1, 2, 3], [0, 0, 1]])
        img = image_basis(m)
        assert img.basis == ((F(1), F(0)), (F(3), F(1)))


def checked_kernel_basis(m):
    """Reference: the rref free-column kernel vectors through the checking
    Subspace constructor."""
    red, pivots = rref(m)
    basis = []
    for free in range(m.cols):
        if free not in pivots:
            v = [F(0)] * m.cols
            v[free] = F(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r, free]
            basis.append(tuple(v))
    return Subspace(m.cols, tuple(basis))


def checked_image_basis(m):
    """Reference: the pivot columns through the checking Subspace constructor."""
    return Subspace(m.rows, tuple(m.column(p) for p in rref(m)[1]))


def seeded_matrices(seed, count):
    """Random matrices, half of them rank-deficient products, some with zero
    rows or zero columns."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        if rng.random() < 0.5:
            inner = rng.randint(0, max(0, min(rows, cols) - 1))
            yield random_matrix(rng, rows, inner, bound=2) @ random_matrix(rng, inner, cols, bound=2)
        else:
            yield random_matrix(rng, rows, cols, bound=2)


class TestKernelImageAgainstCheckedReference:
    def test_same_bases_and_independent(self):
        for m in seeded_matrices(31, 200):
            for got, ref in ((kernel_basis(m), checked_kernel_basis(m)),
                             (image_basis(m), checked_image_basis(m))):
                assert got == ref
                assert all(isinstance(x, Fraction) for v in got.basis for x in v)
                if got.basis:
                    assert got.matrix().rank() == got.dim
            assert kernel_basis(m).dim + image_basis(m).dim == m.cols

    def test_zero_width(self):
        for m in (Matrix.zero(0, 3), Matrix.zero(3, 0), Matrix.zero(0, 0)):
            assert kernel_basis(m) == checked_kernel_basis(m)
            assert image_basis(m) == checked_image_basis(m)

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError):
            Subspace(2, ((F(1), F(2)), (F(2), F(4))))


def greedy_complement(s):
    """Reference: add e_i, in increasing i, whenever it raises the rank."""
    columns, added = list(s.basis), []
    for i in range(s.ambient_dim):
        e = tuple(F(int(k == i)) for k in range(s.ambient_dim))
        if Matrix.from_columns(columns + [e], rows=s.ambient_dim).rank() > len(columns):
            columns.append(e)
            added.append(e)
    return Subspace(s.ambient_dim, tuple(added))


class TestComplement:
    def test_one_dim(self):
        s = Subspace(2, ((F(1), F(0)),))
        assert complement(s).basis == ((F(0), F(1)),)

    def test_zero_subspace(self):
        s = Subspace(3, ())
        c = complement(s)
        assert c.dim == 3
        assert c.basis[0] == (F(1), F(0), F(0))

    def test_greedy_choice(self):
        # e0 is the first standard vector independent of e0 + e1
        s = Subspace(2, ((F(1), F(1)),))
        assert complement(s).basis == ((F(1), F(0)),)

    def test_matches_greedy_reference(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(0, 6)
            m = random_matrix(rng, n, rng.randint(0, n + 1), bound=2)
            s = image_basis(m)
            assert complement(s) == greedy_complement(s)

    def test_completes_basis(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, rng.randint(0, n))
            s = image_basis(m)
            c = complement(s)
            full = Matrix.from_columns(s.basis + c.basis, rows=n)
            assert full.rank() == n


class TestSolve:
    def test_identity(self):
        b = M([[3], [4]])
        assert solve(Matrix.identity(2), b) == b

    def test_inconsistent(self):
        assert solve(Matrix.zero(2, 2), M([[1], [0]])) is None

    def test_free_variable_zeroed(self):
        x = solve(M([[1, 1]]), M([[3]]))
        assert x == M([[3], [0]])

    def test_solution_is_exact(self):
        rng = random.Random(77)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols)
            x_true = random_matrix(rng, cols, 1)
            b = a @ x_true
            x = solve(a, b)
            assert x is not None
            assert a @ x == b

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            solve(Matrix.zero(2, 2), Matrix.zero(3, 1))


class TestInvert:
    def test_identity(self):
        assert invert(Matrix.identity(3)) == Matrix.identity(3)

    def test_swap_involution(self):
        m = M([[0, 1], [1, 0]])
        assert invert(m) == m

    def test_shear(self):
        assert invert(M([[1, 1], [0, 1]])) == M([[1, -1], [0, 1]])

    def test_singular(self):
        assert invert(M([[1, 2], [2, 4]])) is None

    def test_two_sided(self):
        rng = random.Random(3)
        found = 0
        while found < 20:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            inv = invert(m)
            if inv is None:
                continue
            found += 1
            assert m @ inv == Matrix.identity(n)
            assert inv @ m == Matrix.identity(n)

    def test_empty(self):
        assert invert(Matrix.zero(0, 0)) == Matrix.zero(0, 0)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            invert(Matrix.zero(2, 3))

    def test_invertible_agrees_with_invert(self):
        rng = random.Random(5)
        square = [random_matrix(rng, n, n, bound=1) for n in range(1, 5) for _ in range(15)]
        # rank-one products: singular from size 2 on
        square += [random_matrix(rng, n, 1) @ random_matrix(rng, 1, n) for n in (2, 3, 4)]
        other = [Matrix.zero(0, 0), Matrix.zero(0, 2), Matrix.zero(2, 0), random_matrix(rng, 2, 3),
                 random_matrix(rng, 3, 2)]
        assert any(invert(m) is None for m in square)
        assert any(invert(m) is not None for m in square)
        for m in square + other:
            assert _invertible(m) == (m.rows == m.cols and invert(m) is not None)


def dense_rref(m):
    """Reference: dense `Fraction` Gauss-Jordan, the first nonzero entry of
    each column as pivot."""
    rows, pivots = dense_rref_rows(m.to_rows(), m.cols)
    return Matrix.from_rows(rows, cols=m.cols), pivots


def dense_rref_rows(rows, cols):
    """``dense_rref`` on a list of `Fraction` rows with ``cols`` columns."""
    rows = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


def dense_kernel_basis(m):
    """Reference: one null-space vector per free column of ``dense_rref``."""
    red, pivots = dense_rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[free] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, free]
        basis.append(tuple(v))
    return tuple(basis)


def dense_solve(a, b):
    """Reference: rref of [a | b], free unknowns zero, None if inconsistent."""
    x = dense_solve_rows(a.to_rows(), b.to_rows(), a.cols, b.cols)
    return None if x is None else Matrix.from_rows(x, cols=b.cols)


def dense_solve_rows(a, b, cols, width):
    """``dense_solve`` on lists of `Fraction` rows, ``a`` with ``cols``
    columns and ``b`` with ``width``."""
    red, pivots = dense_rref_rows([list(ra) + list(rb) for ra, rb in zip(a, b)], cols + width)
    if any(p >= cols for p in pivots):
        return None
    x = [[F(0)] * width for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for j in range(width):
            x[pc][j] = red[r][cols + j]
    return x


def primes_of_50_digits(rng, count):
    """Distinct random 50-digit primes (Miller-Rabin on 20 random bases)."""
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for _ in range(20):
            x = pow(rng.randrange(2, n - 1), d, n)
            if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
                return False
        return True
    found = set()
    while len(found) < count:
        n = rng.randrange(10 ** 49, 10 ** 50) | 1
        if is_prime(n):
            found.add(n)
    return sorted(found)


@functools.lru_cache(maxsize=None)
def oracle_matrices():
    """Seeded matrices: sparse (10% nonzero), dense, rank-deficient
    products, 0xN and Nx0, and entries over distinct 50-digit primes."""
    rng = random.Random(1)
    out = [Matrix.zero(0, 4), Matrix.zero(4, 0), Matrix.zero(0, 0)]
    for _ in range(15):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        out.append(Matrix.from_rows([[rng.randint(-9, 9) if rng.random() < 0.1 else 0
                                      for _ in range(cols)] for _ in range(rows)], cols=cols))
        out.append(random_matrix(rng, rows, cols, bound=5))
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        out.append(random_matrix(rng, rows, inner, bound=2)
                   @ random_matrix(rng, inner, cols, bound=2))
    primes = primes_of_50_digits(rng, 100)
    for _ in range(4):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append(Matrix.from_rows([[F(rng.randint(-9, 9), primes.pop()) for _ in range(cols)]
                                     for _ in range(rows)], cols=cols))
    return out


class TestEliminationAgainstDenseReference:
    def test_rref(self):
        for m in oracle_matrices():
            red, pivots = rref(m)
            assert (red, pivots) == dense_rref(m)
            # the scaled rows it keeps are the canonical ones of its entries
            assert red._rows == tuple(map(_scale, red.to_rows()))

    def test_solve(self):
        rng = random.Random(2)
        outcomes = set()
        for a in oracle_matrices():
            for b in (a @ random_matrix(rng, a.cols, 2), random_matrix(rng, a.rows, 1)):
                x = solve(a, b)
                assert x == dense_solve(a, b)
                outcomes.add(x is None)
        assert outcomes == {True, False}

    def test_kernel_basis(self):
        for m in oracle_matrices():
            assert kernel_basis(m).basis == dense_kernel_basis(m)

    def test_invert(self):
        rng = random.Random(5)
        square = [m for m in oracle_matrices() if m.rows == m.cols]
        square += [random_matrix(rng, n, n, bound=1) for n in range(1, 7) for _ in range(5)]
        assert {invert(m) is None for m in square} == {True, False}
        for m in square:
            assert invert(m) == dense_solve(m, Matrix.identity(m.rows))

    def test_rref_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in oracle_matrices():
            if not (m.rows and m.cols):
                continue
            red, pivots = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                                        for x in m.entries]).rref()
            assert rref(m) == (Matrix(m.rows, m.cols, [F(int(x.p), int(x.q)) for x in red]),
                               tuple(pivots))


class TestMatrixBasics:
    def test_entries_canonicalized(self):
        m = Matrix(1, 2, (1, Fraction(2, 4)))
        assert m.entries == (F(1), F(1, 2))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Matrix(1, 1, (0.5,))

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            Matrix.zero(2, 3) @ Matrix.zero(2, 3)

    def test_block_diag(self):
        out = block_diag(Matrix.identity(2), M([[5]]))
        assert out == M([[1, 0, 0], [0, 1, 0], [0, 0, 5]])

    def test_subspace_rejects_dependent(self):
        with pytest.raises(ValueError):
            Subspace(2, ((F(1), F(0)), (F(2), F(0))))

    def test_hashable(self):
        assert hash(M([[1]])) == hash(M([[1]]))


class TestShapeChecks:
    """Both constructors check shape: the public one, and ``Matrix._of``, on
    scaled rows, through which every other build goes; so their checks and
    those of the public operations guard them all."""

    @pytest.mark.parametrize("build, error", [
        (lambda: Matrix(-1, 0, ()), ValueError),
        (lambda: Matrix(0, -2, ()), ValueError),
        (lambda: Matrix(2, 2, (1, 2, 3)), ValueError),
        (lambda: Matrix(1, 1, (1, 2)), ValueError),
        (lambda: Matrix.from_rows([[1, 2], [3]]), ValueError),
        (lambda: Matrix.from_columns([[1, 2], [3]]), ValueError),
        (lambda: Matrix._of([(((0, 1),), 1), (((1, 2), (2, 1)), 3)], 2), ValueError),
        (lambda: M([[1, 2]])[1, 0], IndexError),
        (lambda: M([[1, 2]])[0, 2], IndexError),
        (lambda: M([[1, 2]])[0, -1], IndexError),
        (lambda: M([[1, 2]]).apply((1,)), ValueError),
        (lambda: M([[1, 2]]).apply((1, 2, 3)), ValueError),
        (lambda: M([[1]]).hstack(M([[1], [2]])), ValueError),
        (lambda: M([[1]]).vstack(M([[1, 2]])), ValueError),
        (lambda: M([[1]]) + M([[1, 2]]), ValueError),
        (lambda: M([[1]]) - M([[1], [2]]), ValueError),
        (lambda: Subspace(2, ((F(1),),)), ValueError),
        (lambda: Subspace(1, ((F(1), F(0)),)), ValueError),
    ], ids=["negative-rows", "negative-cols", "too-few-entries", "too-many-entries",
            "ragged-rows", "ragged-columns", "scaled-index-out-of-range", "row-out-of-range",
            "column-out-of-range", "negative-index", "apply-short", "apply-long", "hstack", "vstack",
            "add", "sub",
            "subspace-short-vector", "subspace-long-vector"])
    def test_malformed_raises(self, build, error):
        with pytest.raises(error):
            build()

    def test_negation(self):
        m = M([[1, F(-2, 3)], [0, 5]])
        assert -m == M([[-1, F(2, 3)], [0, -5]])
        assert -Matrix.zero(0, 2) == Matrix.zero(0, 2)

    def test_transpose(self):
        m = M([[1, F(-2, 3)], [0, 5], [7, 0]])
        assert m.transpose() == M([[1, 0, 7], [F(-2, 3), 5, 0]])
        assert m.transpose().transpose() == m
        assert Matrix.zero(0, 3).transpose() == Matrix.zero(3, 0)
        assert Matrix.zero(2, 0).transpose() == Matrix.zero(0, 2)

    def test_transpose_and_hstack_keep_their_columns(self):
        """``transpose`` and ``hstack`` give the matrix ``from_rows`` builds
        entry by entry, and keep its scaled columns as they build it."""
        rng = random.Random(23)
        primes = primes_of_50_digits(rng, 40)
        for r, c, c2 in ((3, 4, 2), (1, 5, 1), (4, 1, 3), (0, 3, 2), (3, 0, 2), (2, 3, 0)):
            a = [[F(rng.randint(-9, 9), primes.pop() if rng.random() < 0.3 else 1)
                  for _ in range(c)] for _ in range(r)]
            b = [[F(rng.randint(-3, 3)) for _ in range(c2)] for _ in range(r)]
            ma, mb = M(a) if r else Matrix.zero(0, c), M(b) if r else Matrix.zero(0, c2)
            for out, rows, cols in ((ma.transpose(), ref_columns(a, c), r),
                                    (ma.hstack(mb), [u + v for u, v in zip(a, b)], c + c2)):
                ref = Matrix.from_rows(rows, cols=cols)
                assert out == ref and out._rows == ref._rows
                assert vars(out).get("_columns") == ref._columns

    def test_internal_builds_hold_fractions(self):
        m = M([[1, 2], [3, 4]])
        for out in (m + m, m - m, -m, 3 * m, m @ m, m.transpose(), m.hstack(m), m.vstack(m),
                    m.submatrix([1], [0, 1]), rref(m)[0], solve(m, m), invert(m),
                    kernel_basis(Matrix.zero(1, 2)).matrix()):
            assert all(type(x) is Fraction for x in out.entries)


def ref_columns(rows, cols):
    return [[row[j] for row in rows] for j in range(cols)]


def ref_mul(x, y, cols):
    """The product of the `Fraction` rows ``x`` and ``y``, ``y`` with ``cols`` columns."""
    return [[sum((a * y[k][j] for k, a in enumerate(row)), F(0)) for j in range(cols)]
            for row in x]


def ref_stack(*blocks):
    """The rows of the block matrix whose block rows ``blocks`` are lists of
    (rows, cols) blocks of equal height; a zero block is (None, cols)."""
    out = []
    for row in blocks:
        height = max(len(b) for b, _ in row if b is not None)
        for i in range(height):
            out.append([x for b, c in row for x in (b[i] if b is not None else [F(0)] * c)])
    return out


class TestEveryBuild:
    """Every way to build a `Matrix` stores the scaled rows of a dense
    `Fraction` reference: its entries, its scaled columns and its == and
    hash agree with those of the matrix built from the reference's entries,
    and changing any one entry of that twin makes it unequal; on 0xN and Nx0
    shapes and on entries over distinct 50-digit primes."""

    def check(self, m, rows, cols):
        flat = tuple(x for row in rows for x in row)
        assert (m.rows, m.cols, m.entries) == (len(rows), cols, flat)
        assert all(type(x) is Fraction for x in m.entries)
        twin = Matrix(m.rows, m.cols, m.entries)
        assert m == twin and hash(m) == hash(twin)
        for k in range(len(flat)):
            changed = list(flat)
            changed[k] += F(1, 3)
            assert Matrix(m.rows, m.cols, changed) != m
        assert m._columns == tuple(map(_scale, ref_columns(rows, cols)))

    def test_against_dense_reference(self):
        rng = random.Random(17)
        primes = primes_of_50_digits(rng, 80)

        def entries(r, c, upper=False):
            return [[F(rng.randint(1, 9) * rng.choice((-1, 1)), primes.pop())
                     if (i <= j if upper else rng.random() < 0.7) else F(0)
                     for j in range(c)] for i in range(r)]

        a, b, c = entries(3, 4), entries(3, 4), entries(4, 2)
        s = entries(3, 3, upper=True)   # invertible: upper triangular, nonzero diagonal
        ma, mb, mc, ms = (Matrix.from_rows(x) for x in (a, b, c, s))
        e3 = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        q = F(7, primes.pop())
        cases = [
            (Matrix(3, 4, [x for row in a for x in row]), a, 4),
            (Matrix.from_rows(a), a, 4),
            (Matrix.from_columns(ref_columns(a, 4)), a, 4),
            (Matrix.from_rows([], cols=4), [], 4),
            (Matrix.from_columns([], rows=3), [[]] * 3, 0),
            (Matrix.identity(3), e3, 3),
            (Matrix.zero(2, 3), [[F(0)] * 3] * 2, 3),
            (ma + mb, [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)], 4),
            (ma - mb, [[x - y for x, y in zip(u, v)] for u, v in zip(a, b)], 4),
            (-ma, [[-x for x in u] for u in a], 4),
            (q * ma, [[q * x for x in u] for u in a], 4),
            (ma @ mc, ref_mul(a, c, 2), 2),
            (ma @ Matrix.zero(4, 0), [[]] * 3, 0),
            (Matrix.zero(0, 3) @ ma, [], 4),
            (ma.transpose(), ref_columns(a, 4), 3),
            (Matrix.zero(0, 4).transpose(), [[]] * 4, 0),
            (Matrix.zero(4, 0).transpose(), [], 4),
            (ma.hstack(mb), ref_stack([(a, 4), (b, 4)]), 8),
            (Matrix.zero(3, 0).hstack(ma), a, 4),
            (ma.vstack(mb), a + b, 4),
            (Matrix.zero(0, 4).vstack(ma), a, 4),
            (ma.submatrix([2, 0], [3, 1, 1]), [[a[i][j] for j in (3, 1, 1)] for i in (2, 0)], 3),
            (ma.submatrix([], [1, 2]), [], 2),
            (block_diag(ma, mc), ref_stack([(a, 4), (None, 2)], [(None, 4), (c, 2)]), 6),
            (rref(ma.vstack(ma))[0], dense_rref_rows(a + a, 4)[0], 4),
            (rref(Matrix.zero(0, 4))[0], [], 4),
            (rref(Matrix.zero(3, 0))[0], [[]] * 3, 0),
            (solve(ma, ma @ mc), dense_solve_rows(a, ref_mul(a, c, 2), 4, 2), 2),
            (solve(ma, Matrix.zero(3, 0)), [[]] * 4, 0),
            (invert(ms), dense_solve_rows(s, e3, 3, 3), 3),
            (invert(Matrix.zero(0, 0)), [], 0),
        ]

        # [e_0, e_j] = sum_t D[t][j] e_t on the abelian ideal spanned by e_1, e_2
        D = entries(2, 2)
        sc = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
        for j in (1, 2):
            for t in (1, 2):
                sc[0][j][t], sc[j][0][t] = D[t - 1][j - 1], -D[t - 1][j - 1]
        rep = adjoint_rep(LieAlgebra(3, sc))
        rho = [[[sc[i][w][v] for w in range(3)] for v in range(3)] for i in range(3)]
        x = [F(rng.randint(1, 9), primes.pop()) for _ in range(3)]
        cases += [(rep.g.ad(i), rho[i], 3) for i in range(3)]
        cases.append((rep.rho_vec(x), [[sum((x[i] * rho[i][v][w] for i in range(3)), F(0))
                                        for w in range(3)] for v in range(3)], 3))
        # delta_0 f = rho(e_i) f, and
        # (delta_1 f)(e_a, e_b) = rho_a f(e_b) - rho_b f(e_a) - f([e_a, e_b])
        cases.append((delta_matrix(0, rep), [row for i in range(3) for row in rho[i]], 3))
        cases.append((delta_matrix(1, rep), [
            [(rho[a][v][w] if k == b else 0) - (rho[b][v][w] if k == a else 0)
             - (sc[a][b][k] if v == w else 0) for k in range(3) for w in range(3)]
            for a in range(3) for b in range(a + 1, 3) for v in range(3)], 9))

        d, phi0, phi1 = entries(3, 2), entries(3, 3), entries(2, 2)
        L = TwoTermAlgebra(3, 2, d, zero_tensor((3, 3, 3)), zero_tensor((3, 2, 2)),
                           zero_tensor((3, 3, 3, 2)))
        mor = Morphism(L, L, phi0, phi1, zero_tensor((3, 3, 2)))
        cases += [(L.d, d, 2), (mor.phi0, phi0, 3), (mor.phi1, phi1, 2)]

        for m, rows, cols in cases:
            self.check(m, rows, cols)
