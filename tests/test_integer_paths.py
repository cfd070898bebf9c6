"""The integer paths of the differentials and of the package's own matrices.

Each is checked against the `Fraction` computation it replaced, kept here
as the oracle: the assembly of delta_n, ``Matrix.__matmul__``,
``Matrix.identity`` and ``Matrix.zero``, the columns ``_column_matrix``
keeps, ``cohomology_basis`` and the antisymmetry scan of ``jac``.  The last
test guards that the first four build no `Fraction` at all.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from lie2alg import LieAlgebra, Matrix, adjoint_rep, normal_form, sl2, so3
from lie2alg.builders import catalog_pairs, lie_algebra, random_algebra, representation
from lie2alg.classify import decompose, extract_triple
from lie2alg.cohomology import (
    _assemble_delta,
    _delta_rows,
    _elimination,
    cocycle_basis,
    cohomology_basis,
    increasing_tuples,
    vec_to_cochain,
)
from lie2alg.core import _jac_violations
from lie2alg.linalg import _eliminate, _scale, _scale_items, _transpose
from test_alternating import reference_alternating
from test_linalg import primes_of_50_digits, ref_mul

F = Fraction


def transported_rep():
    """The representation of a transported algebra's quadruple: a 3-dim g
    in a basis with fractional structure constants, acting through matrices
    with denominators up to 224."""
    L = random_algebra(9)
    return extract_triple(L, decompose(L)).rep


def scaled_direct_sum_rep():
    """The adjoint representation of so3 + sl2 (dim 6) in a basis scaled by
    rationals, so that every structure constant has its own denominator."""
    parts, n = (so3(), sl2()), 6
    old = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for off, p in zip((0, 3), parts):
        for i, j, t in product(range(3), repeat=3):
            old[off + i][off + j][off + t] = p.sc[i][j][t]
    d = [F(1, 2), F(3), F(-2, 3), F(1), F(5, 4), F(-7, 5)]
    return adjoint_rep(LieAlgebra(n, [[[d[i] * d[j] / d[t] * old[i][j][t] for t in range(n)]
                                       for j in range(n)] for i in range(n)]))


def catalog_and_transported():
    reps = [rep for _, _, _, rep in catalog_pairs(max_dim_g=6, max_dim_v=6)]
    return reps + [transported_rep(), scaled_direct_sum_rep()]


# ---------------------------------------------------------------------------
# delta_n
# ---------------------------------------------------------------------------


def fraction_delta_terms(g, n):
    """(key, x, coeff, src) for coeff * rho(e_x) f(src), or with x None for
    coeff * f(src), term by term for every increasing (n+1)-tuple key."""
    for key in increasing_tuples(g.dim, n + 1):
        for i in range(n + 1):
            yield key, key[i], (-1) ** i, key[:i] + key[i + 1:]
        for i, j in combinations(range(n + 1), 2):
            rest = key[:i] + key[i + 1:j] + key[j + 1:]
            items, den = g._scaled[key[i]][key[j]]
            for t, c in items:
                if t not in rest:
                    below = sum(1 for r in rest if r < t)
                    yield (key, None, F((-1) ** (i + j + below) * c, den),
                           tuple(sorted(rest + (t,))))


def fraction_assemble_delta(n, rep):
    """The rows of delta_n as a `Fraction` sum per entry, then scaled."""
    d = rep.dimV
    cols = {key: j * d for j, key in enumerate(increasing_tuples(rep.g.dim, n))}
    rows = {key: [{} for _ in range(d)] for key in increasing_tuples(rep.g.dim, n + 1)}
    identity = [(((k, 1),), 1) for k in range(d)]
    for key, x, coeff, src in fraction_delta_terms(rep.g, n):
        s = cols[src]
        for row, (items, den) in zip(rows[key], identity if x is None else rep.rho[x]._rows):
            for k, e in items:
                row[s + k] = row.get(s + k, 0) + F(coeff * e, den)
    return (tuple([_scale_items(sorted(row.items())) for block in rows.values() for row in block]),
            len(cols) * d)


def test_delta_rows_match_the_fraction_assembly():
    reps = catalog_and_transported()
    assert any(q > 1 for rep in reps for m in rep.rho for _, q in m._rows)
    for rep in reps:
        for n in range(rep.g.dim + 1):
            assert _assemble_delta(n, rep) == fraction_assemble_delta(n, rep), (rep.g.dim, n)


def filtered_cohomology_basis(n, rep):
    """The cocycle basis less the vectors at the free columns bounded by
    the image of delta_{n-1}, as ``cohomology_basis`` used to filter it."""
    pivots = set(_elimination(n, rep)[1])
    free = [c for c in range(_delta_rows(n, rep)[1]) if c not in pivots]
    bounded = set()
    if n >= 1:
        rows, image = _delta_rows(n - 1, rep)[0], {p: [] for p in _elimination(n - 1, rep)[1]}
        for i, c in enumerate(reversed(free)):
            for k, x in rows[c][0]:
                if k in image:
                    image[k].append((i, x))
        bounded = {free[-1 - i] for i in _eliminate([(v, 1) for v in image.values()], len(free))[1]}
    return tuple(vec_to_cochain(n, rep.g, rep.dimV, v)
                 for c, v in zip(free, cocycle_basis(n, rep)) if c not in bounded)


def test_cohomology_basis_matches_the_filtered_cocycle_basis():
    for rep in catalog_and_transported():
        for n in range(rep.g.dim + 1):
            assert cohomology_basis(n, rep) == filtered_cohomology_basis(n, rep), (rep.g.dim, n)


# ---------------------------------------------------------------------------
# the package's own matrices
# ---------------------------------------------------------------------------


def test_matmul_matches_the_entrywise_fraction_product():
    rng = random.Random(21)
    primes = primes_of_50_digits(rng, 60)

    def rows(r, c, big):
        return [[F(rng.randint(-9, 9), primes.pop() if big else rng.randint(1, 6))
                 if rng.random() < 0.7 else F(0) for _ in range(c)] for _ in range(r)]

    cases = [(rows(r, k, big), rows(k, c, big), c)
             for r, k, c in ((3, 4, 2), (1, 1, 1), (4, 3, 5), (0, 3, 2), (3, 0, 2), (2, 3, 0))
             for big in (False, True)]
    # entries that cancel: the product is zero although no operand is
    cases.append(([[F(1, 3), F(1, 5)]], [[F(3, 7), F(-6, 7)], [F(-15, 7), F(30, 7)]], 2))
    for a, b, c in cases:
        got = Matrix.from_rows(a, cols=len(b)) @ Matrix.from_rows(b, cols=c)
        want = Matrix.from_rows(ref_mul(a, b, c), cols=c)
        assert got._rows == want._rows and got.entries == want.entries
        assert (got.rows, got.cols) == (len(a), c)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4)])
def test_identity_and_zero_match_the_public_constructor(rows, cols):
    zero = Matrix(rows, cols, [0] * (rows * cols))
    assert Matrix.zero(rows, cols) == zero and Matrix.zero(rows, cols)._rows == zero._rows
    one = Matrix(rows, rows, [int(i == j) for i in range(rows) for j in range(rows)])
    assert Matrix.identity(rows) == one and Matrix.identity(rows)._rows == one._rows
    assert hash(Matrix.identity(rows)) == hash(one)


@pytest.mark.parametrize("build", [lambda: Matrix.identity(-1), lambda: Matrix.zero(-1, 2),
                                   lambda: Matrix.zero(2, -1)])
def test_identity_and_zero_reject_negative_dimensions(build):
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        build()


def test_column_matrix_keeps_the_columns_it_would_build():
    """At each call site of ``_column_matrix``: ``LieAlgebra.ad``,
    ``Representation.rho_vec``, the representation of ``extract_triple``,
    ``TwoTermAlgebra.d`` and ``Morphism.phi0``/``phi1``."""
    L = random_algebra(9)
    rep = extract_triple(L, decompose(L)).rep
    iso = normal_form(L).morphism
    x = [F(3, 7), F(-2, 11), F(5, 13)]
    built = [rep.g.ad(i) for i in range(rep.g.dim)] + list(rep.rho) + [rep.rho_vec(x)]
    built += [L.d, iso.phi0, iso.phi1]
    for m in built:
        assert "_columns" in vars(m)
        assert m._columns == _transpose(m._rows, m.rows)
        assert _transpose(_transpose(m._columns, m.rows), m.cols) == m._columns


# ---------------------------------------------------------------------------
# the antisymmetry scan of jac
# ---------------------------------------------------------------------------


def reference_jac_violations(n0, jac):
    """The triples where jac differs from the alternating tensor of its
    values on increasing triples."""
    ref = reference_alternating(n0, 3, {(i, j, k): jac[i][j][k]
                                        for i, j, k in combinations(range(n0), 3)})
    return [idx for idx in product(range(n0), repeat=3)
            if jac[idx[0]][idx[1]][idx[2]] != ref[idx[0]][idx[1]][idx[2]]]


def test_jac_violations_match_the_alternating_reference():
    rng = random.Random(5)

    def leaf():
        return _scale([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)])

    for n0 in range(5):
        triples = list(product(range(n0), repeat=3))
        repeated = [t for t in triples if len(set(t)) < 3]
        for _ in range(20):
            values = {key: leaf() for key in combinations(range(n0), 3)}
            jac = [[list(row) for row in plane] for plane in reference_alternating(n0, 3, values)]
            sites = rng.sample(triples, min(len(triples), rng.randint(0, 4)))
            for i, j, k in sites + rng.sample(repeated, min(len(repeated), rng.randint(0, 1))):
                jac[i][j][k] = rng.choice([leaf(), ((), 1), jac[k][j][i], jac[i][j][k]])
            assert list(_jac_violations(n0, jac)) == reference_jac_violations(n0, jac)


# ---------------------------------------------------------------------------
# no Fraction on the integer paths
# ---------------------------------------------------------------------------


def test_integer_paths_build_no_fraction(monkeypatch):
    rep = transported_rep()
    g = representation(lie_algebra("so3"), "adjoint")
    a = Matrix.from_rows([[F(1, 3), F(2, 5)], [F(-7, 2), 0]])
    b = Matrix.from_rows([[F(5, 11), 0, F(1, 4)], [3, F(-1, 6), 0]])
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert F(1, 2) == F(2, 4) and len(built) == 2   # the counter sees every construction
    built.clear()
    for r in (rep, g):
        for n in range(r.g.dim + 1):
            _assemble_delta(n, r)
    a @ b, b.transpose() @ a, Matrix.identity(4), Matrix.zero(3, 2)
    assert built == []
