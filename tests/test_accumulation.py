"""Reference tests for the exact accumulation kernels.

Both run on the one scaled vector form of ``linalg`` (integer numerators
over one denominator): ``Matrix.apply`` and ``Matrix.__matmul__`` take one
integer dot product per scaled row of the matrix, and tensor contractions
sum scaled vectors (``linalg._isum``), one signed part or several of mixed
arity.  Here every result is checked against a naive sum of `Fraction`
products on seeded inputs with large coprime denominators, denominators
with shared factors, negative entries, sums that cancel exactly, sparse
matrices, all-zero rows and columns, zero leaves, and empty axes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lie2alg.core import _isum, _reduce, _scale, _scale_tensor
from lie2alg.linalg import Matrix
from test_core import isum_contract

F = Fraction

PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037)
SHARED = (2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 30, 36, 60)
DENOMINATORS = {"primes": PRIMES, "shared": SHARED, "mixed": PRIMES + SHARED}


def entry(rng, dens, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    num = rng.randint(-10**6, 10**6) or 1
    den = rng.choice(dens) * rng.choice((1, 1, rng.choice(dens)))
    return F(num, den)


def entries(rng, dens, k):
    return tuple(entry(rng, dens) for _ in range(k))


def matrices(rng, dens, rows, cols):
    """A random rows x cols matrix, then sparse copies of it: with all-zero
    rows, with all-zero columns, and with one nonzero entry per row."""
    m = Matrix(rows, cols, entries(rng, dens, rows * cols))
    zero_rows = set(rng.sample(range(rows), rows // 2))
    zero_cols = set(rng.sample(range(cols), cols // 2))
    keep = {i: rng.randrange(cols) for i in range(rows)} if cols else {}
    for zero in (lambda i, j: i in zero_rows, lambda i, j: j in zero_cols,
                 lambda i, j: keep[i] != j):
        yield Matrix(rows, cols, (F(0) if zero(i, j) else m[i, j]
                                  for i in range(rows) for j in range(cols)))
    yield m


def naive_dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), F(0))


def naive_contract(tensor, vectors, n):
    out = [F(0)] * n
    for idx in itertools.product(*(range(len(v)) for v in vectors)):
        coeff = F(1)
        node = tensor
        for v, i in zip(vectors, idx):
            coeff *= v[i]
            node = node[i]
        for t in range(n):
            out[t] += coeff * node[t]
    return tuple(out)


def random_tensor(rng, dens, shape):
    if len(shape) == 1:
        return entries(rng, dens, shape[0])
    return tuple(random_tensor(rng, dens, shape[1:]) for _ in range(shape[0]))


def assert_exact(got, want):
    assert got == want
    assert all(type(x) is Fraction for x in got)


def cancelling_row(rng, dens, v):
    """A row r with r . v == 0 exactly, built from mixed denominators."""
    k = max(i for i, x in enumerate(v) if x)
    row = list(entries(rng, dens, len(v)))
    row[k] = F(0)
    row[k] = -naive_dot(row, v) / v[k]
    return tuple(row)


@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
class TestAgainstNaiveSums:
    def test_apply(self, kind):
        rng = random.Random(f"apply-{kind}")
        dens = DENOMINATORS[kind]
        shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(150)]
        for rows, cols in [(0, 4), (4, 0), *shapes]:
            v = entries(rng, dens, cols)
            for m in matrices(rng, dens, rows, cols):
                assert_exact(m.apply(v), tuple(naive_dot(m.row(i), v) for i in range(rows)))

    def test_matmul(self, kind):
        rng = random.Random(f"matmul-{kind}")
        dens = DENOMINATORS[kind]
        shapes = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(100)]
        for r, k, c in [(0, 3, 2), (2, 0, 3), (2, 3, 0), *shapes]:
            for a, b in zip(matrices(rng, dens, r, k), matrices(rng, dens, k, c)):
                got = a @ b
                want = tuple(naive_dot(a.row(i), b.column(j)) for i in range(r) for j in range(c))
                assert (got.rows, got.cols) == (r, c)
                assert_exact(got.entries, want)

    def test_contract(self, kind):
        rng = random.Random(f"contract-{kind}")
        dens = DENOMINATORS[kind]
        for _ in range(150):
            order = rng.randint(2, 4)
            shape = tuple(rng.randint(0, 3) for _ in range(order))
            tensor = random_tensor(rng, dens, shape)
            vectors = [entries(rng, dens, k) for k in shape[:-1]]
            assert_exact(isum_contract(tensor, vectors, shape[-1]),
                         naive_contract(tensor, vectors, shape[-1]))

    def test_exact_cancellation(self, kind):
        rng = random.Random(f"cancel-{kind}")
        dens = DENOMINATORS[kind]
        for _ in range(100):
            cols = rng.randint(2, 6)
            v = entries(rng, dens, cols)
            if not any(v):
                continue
            rows = [cancelling_row(rng, dens, v) for _ in range(rng.randint(1, 4))]
            m = Matrix.from_rows(rows)
            zero = (F(0),) * len(rows)
            assert_exact(m.apply(v), zero)
            assert_exact((m @ Matrix.from_columns([v, v])).entries, zero * 2)
            # the same sums as a contraction of the rows (as a tensor) with v
            tensor = tuple(tuple(col) for col in zip(*rows))
            assert_exact(isum_contract(tensor, [v], len(rows)), zero)

    def test_signed_sums_of_mixed_arity(self, kind):
        # the law walker's calls: several signed parts of 1, 2 and 3 vectors,
        # with zero leaves, zero vectors, empty last vectors, then the same
        # sum with each part cancelled by a rescaled twin
        rng = random.Random(f"signed-{kind}")
        dens = DENOMINATORS[kind]
        arities = set()
        for _ in range(150):
            n = rng.randint(0, 4)
            parts = []
            for _ in range(rng.randint(1, 4)):
                shape = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
                vectors = [(F(0),) * k if rng.random() < 0.15 else entries(rng, dens, k)
                           for k in shape]
                tensor = tensor_with_zero_leaves(rng, dens, shape, n)
                parts.append((rng.choice((1, -1)), tensor, vectors))
                arities.add(len(shape))
            want = [F(0)] * n
            for sign, t, vs in parts:
                want = [w + sign * x for w, x in zip(want, naive_contract(t, vs, n))]
            assert signed_isum(n, parts) == _scale(want)
            twins = []
            for sign, t, vs in parts:
                c = entry(rng, dens, zero_share=0) * rng.choice((1, 7, F(1, 9)))
                twins.append((-sign, multiplied(t, c), [tuple(x / c for x in vs[0]), *vs[1:]]))
            rng.shuffle(twins)
            assert signed_isum(n, parts + twins) == ((), 1)
        assert arities == {1, 2, 3}


def tensor_with_zero_leaves(rng, dens, shape, n):
    """A random tensor of ``shape`` with leaves of length ``n``, a quarter of
    them zero."""
    if not shape:
        return (F(0),) * n if rng.random() < 0.25 else entries(rng, dens, n)
    return tuple(tensor_with_zero_leaves(rng, dens, shape[1:], n) for _ in range(shape[0]))


def multiplied(tensor, c):
    """``tensor`` with every entry times ``c``."""
    if tensor and not isinstance(tensor[0], tuple):
        return tuple(c * x for x in tensor)
    return tuple(multiplied(t, c) for t in tensor)


def signed_isum(n, parts):
    """``_reduce(_isum(...))`` of (sign, tensor, vectors) parts given in `Fraction`s."""
    return _reduce(_isum(n, [(sign, _scale_tensor(t, len(vs)), [_scale(v) for v in vs])
                             for sign, t, vs in parts]))


class TestEmptyAxes:
    def test_zero_row_and_zero_column_matrices(self):
        for n in range(4):
            a = Matrix(0, n, ())
            b = Matrix(n, 3, (F(1, 3),) * (3 * n))
            assert a @ b == Matrix(0, 3, ())
            assert a.apply((F(1, 7),) * n) == ()
            c = Matrix(3, 0, ())
            assert_exact((c @ Matrix(0, n, ())).entries, (F(0),) * (3 * n))
            assert_exact(c.apply(()), (F(0),) * 3)

    def test_zero_length_contraction_axes(self):
        assert_exact(isum_contract((), [()], 2), (F(0),) * 2)
        assert_exact(isum_contract(((), ()), [(F(1, 3), F(-2, 5)), ()], 4), (F(0),) * 4)
        assert isum_contract((((),),), [(F(3),), (F(5, 7),)], 0) == ()

    def test_all_zero_operands(self):
        m = Matrix.from_rows([[F(1, 999_983), F(-1, 1_000_003)]])
        assert_exact(m.apply((F(0), F(0))), (F(0),))
        assert_exact((Matrix.zero(2, 3) @ Matrix.zero(3, 2)).entries, (F(0),) * 4)


def test_products_reject_floats():
    # a float has as_integer_ratio too, so apply must coerce through vec
    m = Matrix.from_rows([[F(1, 3), F(2)], [F(0), F(-1, 7)]])
    with pytest.raises(TypeError):
        m.apply((0.5, F(1)))
    with pytest.raises(TypeError):
        m @ 0.5
    with pytest.raises(TypeError):
        0.5 @ m
