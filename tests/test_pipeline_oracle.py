"""Reference tests for the scaled-integer classification pipeline.

``classify.transport``, ``classify.extract_triple``, ``classify.normal_form``,
``builders.normal_form_algebra``, ``morphisms.compose`` and
``morphisms.inverse`` build their tensors on integer numerators with one
denominator per vector (``core._isum``) and return algebras and morphisms
whose scaled form is already filled in.  This module keeps the `Fraction`
loops they replace (a naive contraction over index tuples, ``Matrix.apply``
and the vector helpers, one reduced entry at a time) as an independent
oracle, and asserts equal algebras, morphisms, quadruples and verification
reports on seeded random algebras, on maps with large prime, shared-factor
and mixed denominators, on morphisms that are not valid, and on algebras
with an empty degree.
Every filled-in scaled form must equal the one computed from the public
`Fraction` tensors, and the canonical reduction behind it is property-tested
against ``core._scale``.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from lie2alg import (
    Cochain,
    LieAlgebra,
    Matrix,
    Morphism,
    Quadruple,
    Representation,
    TwoTermAlgebra,
    abelian,
    compose,
    decompose,
    extract_triple,
    inverse,
    normal_form,
    normal_form_algebra,
    random_algebra,
    so3,
    transport,
    trivial_rep,
    verify,
    verify_morphism,
)
from lie2alg.builders import random_antisymmetric_correction, random_invertible
from lie2alg.core import _reduce, _scale, perm_sign, shuffles, tensor
from lie2alg.linalg import ZERO, invert, vec_add, vec_sub, vec_zero
from test_core import brute_force_contract

F = Fraction

PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037)
SHARED = (2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 30, 36, 60)
DENOMINATORS = {"primes": PRIMES, "shared": SHARED, "mixed": PRIMES + SHARED}


# ---------------------------------------------------------------------------
# the oracle: the pipeline's tensor loops on Fraction entries
# ---------------------------------------------------------------------------


def contract(tensor, *vectors, n):
    """The oracle's contraction: a naive `Fraction` sum over every index tuple."""
    return brute_force_contract(tensor, vectors, n)


def oracle_transport(L, phi0, phi1, corr):
    """The transported algebra and morphism, neither verified."""
    n0, n1 = L.n0, L.n1
    corr = tensor(corr, (n0, n0, n1))
    inv0, inv1 = invert(phi0), invert(phi1)
    x_cols = [inv0.column(a) for a in range(n0)]
    v_cols = [inv1.column(b) for b in range(n1)]
    d_new = phi0 @ (L.d @ inv1)

    b00_new = [[list(vec_zero(n0)) for _ in range(n0)] for _ in range(n0)]
    for a, b in combinations(range(n0), 2):
        val = vec_sub(phi0.apply(contract(L.b00, x_cols[a], x_cols[b], n=n0)),
                      d_new.apply(contract(corr, x_cols[a], x_cols[b], n=n1)))
        b00_new[a][b] = list(val)
        b00_new[b][a] = [-c for c in val]

    b01_new = [[list(vec_zero(n1)) for _ in range(n1)] for _ in range(n0)]
    for a in range(n0):
        for b in range(n1):
            dv = L.d.apply(v_cols[b])
            b01_new[a][b] = list(vec_add(phi1.apply(contract(L.b01, x_cols[a], v_cols[b], n=n1)),
                                         contract(corr, dv, x_cols[a], n=n1)))

    jac_new = [[[list(vec_zero(n1)) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
    for key in combinations(range(n0), 3):
        val = phi1.apply(contract(L.jac, *(x_cols[k] for k in key), n=n1))
        for perm, sign in shuffles(1, 2).elements:
            a = key[perm[0]]
            y, z = x_cols[key[perm[1]]], x_cols[key[perm[2]]]
            term = vec_add(contract(b01_new[a], contract(corr, y, z, n=n1), n=n1),
                           contract(corr, x_cols[a], contract(L.b00, y, z, n=n0), n=n1))
            val = vec_sub(val, term) if sign == 1 else vec_add(val, term)
        for order in permutations(range(3)):
            a, b, c = (key[o] for o in order)
            jac_new[a][b][c] = [perm_sign(order) * x for x in val]

    out = TwoTermAlgebra(n0, n1, d_new, b00_new, b01_new, jac_new)
    return out, Morphism(L, out, phi0, phi1, corr)


def oracle_extract_triple(L, dec):
    gdim, kdim = dec.g_basis.dim, dec.kerd_basis.dim
    n0, n1 = L.n0, L.n1
    g_cols, k_cols = dec.g_basis.basis, dec.kerd_basis.basis

    sc = [[list(vec_zero(gdim)) for _ in range(gdim)] for _ in range(gdim)]
    for i, j in combinations(range(gdim), 2):
        gpart = dec.coords0.apply(contract(L.b00, g_cols[i], g_cols[j], n=n0))[:gdim]
        sc[i][j] = list(gpart)
        sc[j][i] = [-c for c in gpart]
    g = LieAlgebra(gdim, sc)

    rho = []
    for i in range(gdim):
        cols = [dec.coords1.apply(contract(L.b01, g_cols[i], k_cols[b], n=n1))[:kdim]
                for b in range(kdim)]
        rho.append(Matrix.from_columns(cols, rows=kdim))
    rep = Representation(g, kdim, tuple(rho))

    values = {}
    for key in combinations(range(gdim), 3):
        total = contract(L.jac, *(g_cols[k] for k in key), n=n1)
        for perm, sign in shuffles(1, 2).elements:
            inner = contract(L.b00, g_cols[key[perm[1]]], g_cols[key[perm[2]]], n=n0)
            term = contract(L.b01, g_cols[key[perm[0]]], dec.h.apply(inner), n=n1)
            total = vec_sub(total, term) if sign == 1 else vec_add(total, term)
        values[key] = dec.coords1.apply(total)[:kdim]
    return Quadruple(g, dec.u_basis.dim, rep, Cochain(3, g, kdim, values))


def oracle_normal_form_algebra(q):
    gdim, u, v = q.g.dim, q.dim_u, q.rep.dimV
    n0, n1 = gdim + u, v + u
    d = [[ZERO] * n1 for _ in range(n0)]
    for a in range(u):
        d[gdim + a][v + a] = F(1)
    b00 = [[list(vec_zero(n0)) for _ in range(n0)] for _ in range(n0)]
    for i in range(gdim):
        for j in range(gdim):
            b00[i][j][:gdim] = q.g.sc[i][j]
    b01 = [[list(vec_zero(n1)) for _ in range(n1)] for _ in range(n0)]
    for i in range(gdim):
        for jv in range(v):
            b01[i][jv][:v] = q.rep.rho[i].column(jv)
    jac = [[[list(vec_zero(n1)) for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
    for key in combinations(range(gdim), 3):
        for order in permutations(range(3)):
            a, b, c = (key[o] for o in order)
            jac[a][b][c][:v] = [perm_sign(order) * x for x in q.jtilde.values[key]]
    return TwoTermAlgebra(n0, n1, d, b00, b01, jac)


def oracle_normal_form_correction(L, dec):
    gdim, kdim = dec.g_basis.dim, dec.kerd_basis.dim
    n0, n1 = L.n0, L.n1
    g_mat, imd_mat = dec.g_basis.matrix(), dec.imd_basis.matrix()
    g_std = [g_mat.apply(dec.coords0.column(i)[:gdim]) for i in range(n0)]
    imd_std = [imd_mat.apply(dec.coords0.column(i)[gdim:]) for i in range(n0)]
    phi = [[list(vec_zero(n1)) for _ in range(n0)] for _ in range(n0)]
    for i, j in combinations(range(n0), 2):
        h_i, h_j = dec.h.column(i), dec.h.column(j)
        s = vec_add(contract(L.b01, imd_std[i], h_j, n=n1),
                    vec_sub(contract(L.b01, g_std[i], h_j, n=n1),
                            contract(L.b01, g_std[j], h_i, n=n1)))
        value = dec.coords1.apply(s)[:kdim] + dec.coords0.apply(L.b00[i][j])[gdim:]
        phi[i][j] = list(value)
        phi[j][i] = [-c for c in value]
    return tensor(phi, (n0, n0, n1))


def oracle_compose(first, second):
    n0 = first.source.n0
    cols = [first.phi0.column(i) for i in range(n0)]
    psi = [[vec_add(contract(second.Phi, cols[i], cols[j], n=second.target.n1),
                    second.phi1.apply(first.Phi[i][j])) for j in range(n0)] for i in range(n0)]
    return Morphism(first.source, second.target, second.phi0 @ first.phi0,
                    second.phi1 @ first.phi1, psi)


def oracle_inverse(m):
    inv0, inv1 = invert(m.phi0), invert(m.phi1)
    n0 = m.target.n0
    phi = [[tuple(-c for c in inv1.apply(contract(m.Phi, inv0.column(i), inv0.column(j),
                                                   n=m.target.n1)))
            for j in range(n0)] for i in range(n0)]
    return Morphism(m.target, m.source, inv0, inv1, phi)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def fresh_matrix(m):
    """A copy of ``m`` that keeps nothing: its scaled views come from its entries."""
    return Matrix(m.rows, m.cols, m.entries)


def assert_scaled_filled(obj):
    """``obj`` carries a scaled form from its construction, and it equals
    the one computed from the public `Fraction` tensors and matrices of a
    fresh copy; its matrices carry scaled columns (kept by
    ``core._column_matrix`` when the pipeline built them from scaled
    columns), equal to those rescaled from their entries."""
    assert "_scaled" in vars(obj)
    if isinstance(obj, TwoTermAlgebra):
        mats = (obj.d,)
        fresh = TwoTermAlgebra(obj.n0, obj.n1, fresh_matrix(obj.d), obj.b00, obj.b01, obj.jac)
    else:
        mats = (obj.phi0, obj.phi1)
        fresh = Morphism(obj.source, obj.target, *map(fresh_matrix, mats), obj.Phi)
    assert "_scaled" not in vars(fresh)
    assert obj._scaled == fresh._scaled
    for m in mats:
        assert "_columns" in vars(m)
        assert m._columns == fresh_matrix(m)._columns


def assert_same_morphism(got, want):
    assert got == want
    assert_scaled_filled(got)
    assert verify_morphism(got) == verify_morphism(want)


def check_pipeline(L, phi0, phi1, corr):
    """Every rewritten stage against its oracle, on L and on its transport."""
    M, mor = transport(L, phi0, phi1, corr)
    want_M, want_mor = oracle_transport(L, phi0, phi1, corr)
    assert M == want_M
    assert_scaled_filled(M)
    assert verify(M) == verify(want_M)
    assert_same_morphism(mor, want_mor)

    nfs = []
    for A in (L, M):
        dec = decompose(A)
        q = extract_triple(A, dec)
        assert q == oracle_extract_triple(A, dec)
        nf = normal_form(A)
        assert nf.quadruple == q
        assert nf.algebra == oracle_normal_form_algebra(q)
        assert_scaled_filled(nf.algebra)
        assert nf.morphism.Phi == oracle_normal_form_correction(A, dec)
        assert nf.morphism.phi0 == dec.coords0 and nf.morphism.phi1 == dec.f
        assert_scaled_filled(nf.morphism)
        nfs.append(nf)

    inv = inverse(nfs[0].morphism)
    assert_same_morphism(inv, oracle_inverse(nfs[0].morphism))
    assert_same_morphism(inverse(mor), oracle_inverse(mor))
    bridge = compose(compose(inv, mor), nfs[1].morphism)
    assert_same_morphism(bridge, oracle_compose(oracle_compose(inv, mor), nfs[1].morphism))
    assert verify_morphism(bridge).passed


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def entry(rng, dens):
    return F(rng.randint(-10**6, 10**6) or 1, rng.choice(dens) * rng.choice((1, rng.choice(dens))))


def integer_maps(L, seed):
    rng = random.Random(seed)
    return (random_invertible(rng, L.n0, 2), random_invertible(rng, L.n1, 2),
            random_antisymmetric_correction(rng, L.n0, L.n1, 2))


def rational_invertible(rng, n, dens):
    while True:
        m = Matrix.from_rows([[entry(rng, dens) if rng.random() < 0.8 else 0
                               for _ in range(n)] for _ in range(n)], cols=n)
        if invert(m) is not None:
            return m


def rational_correction(rng, n0, n1, dens):
    phi = [[[F(0)] * n1 for _ in range(n0)] for _ in range(n0)]
    for i, j in combinations(range(n0), 2):
        phi[i][j] = [entry(rng, dens) if rng.random() < 0.7 else F(0) for _ in range(n1)]
        phi[j][i] = [-x for x in phi[i][j]]
    return phi


def rational_maps(L, rng, dens):
    return (rational_invertible(rng, L.n0, dens), rational_invertible(rng, L.n1, dens),
            rational_correction(rng, L.n0, L.n1, dens))


def empty_degree_algebras():
    """3+0, 2+0, 0+2 and 0+0 algebras, and 3+1 with no coefficients."""
    return [
        normal_form_algebra(Quadruple(so3(), 0, trivial_rep(so3(), 0), Cochain(3, so3(), 0))),
        normal_form_algebra(Quadruple(abelian(2), 0, trivial_rep(abelian(2), 0),
                                      Cochain(3, abelian(2), 0))),
        normal_form_algebra(Quadruple(abelian(0), 0, trivial_rep(abelian(0), 2),
                                      Cochain(3, abelian(0), 2))),
        normal_form_algebra(Quadruple(abelian(0), 0, trivial_rep(abelian(0), 0),
                                      Cochain(3, abelian(0), 0))),
        normal_form_algebra(Quadruple(so3(), 1, trivial_rep(so3(), 0), Cochain(3, so3(), 0))),
    ]


SEEDS = range(24)
# 5+4, 5+4, 5+3, 4+4, 4+4, 4+3: every stage has work on every tensor
LARGE_SEEDS = (5, 12, 19, 3, 9, 15)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestPipelineAgainstOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_algebras(self, seed):
        L = random_algebra(seed)
        assert_scaled_filled(L)
        check_pipeline(L, *integer_maps(L, 1000 + seed))

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_rational_maps(self, kind):
        rng = random.Random(f"pipeline-{kind}")
        for seed in LARGE_SEEDS:
            L = random_algebra(seed)
            check_pipeline(L, *rational_maps(L, rng, DENOMINATORS[kind]))

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_chained_rational_transports(self, kind):
        # the second transport starts from an algebra whose own entries
        # carry the large denominators
        rng = random.Random(f"chain-{kind}")
        for seed in LARGE_SEEDS[:3]:
            L, _ = transport(random_algebra(seed), *rational_maps(random_algebra(seed), rng,
                                                                 DENOMINATORS[kind]))
            check_pipeline(L, *rational_maps(L, rng, DENOMINATORS[kind]))

    @pytest.mark.parametrize("index", range(5))
    def test_empty_degrees(self, index):
        L = empty_degree_algebras()[index]
        assert_scaled_filled(L)
        check_pipeline(L, *integer_maps(L, 77 + index))
        check_pipeline(L, *rational_maps(L, random.Random(index), DENOMINATORS["mixed"]))


class TestInvalidInputsAgainstOracle:
    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_transport_of_invalid_algebras(self, kind):
        # the transported algebra fails verification; its report, built on
        # the filled-in scaled form, is the oracle algebra's report
        rng = random.Random(f"invalid-{kind}")
        dens = DENOMINATORS[kind]
        for seed in LARGE_SEEDS:
            L = random_algebra(seed)
            b01 = [[list(leaf) for leaf in plane] for plane in L.b01]
            b01[rng.randrange(L.n0)][rng.randrange(L.n1)][rng.randrange(L.n1)] += entry(rng, dens)
            bad = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, b01, L.jac)
            maps = rational_maps(bad, rng, dens)
            want, _ = oracle_transport(bad, *maps)
            report = verify(want)
            assert not report.passed
            with pytest.raises(ValueError) as err:
                transport(bad, *maps)
            assert str(err.value) == f"transported algebra failed verification: {report.lines()}"

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_compose_and_inverse_of_arbitrary_maps(self, kind):
        # random linear maps and corrections that are not antisymmetric:
        # neither morphism is valid, and every entry of Psi is computed
        rng = random.Random(f"arbitrary-{kind}")
        dens = DENOMINATORS[kind]
        for n0, n1 in [(1, 1), (2, 3), (3, 2), (4, 3), (0, 2), (3, 0)]:
            L, M, N = (TwoTermAlgebra.zero(n0, n1) for _ in range(3))

            def arbitrary(src, tgt):
                Phi = [[[entry(rng, dens) if rng.random() < 0.7 else 0 for _ in range(n1)]
                        for _ in range(n0)] for _ in range(n0)]
                return Morphism(src, tgt, rational_invertible(rng, n0, dens),
                                rational_invertible(rng, n1, dens), Phi)

            first, second = arbitrary(L, M), arbitrary(M, N)
            assert_same_morphism(compose(first, second), oracle_compose(first, second))
            assert_same_morphism(inverse(first), oracle_inverse(first))


# ---------------------------------------------------------------------------
# the canonical reduction
# ---------------------------------------------------------------------------

rationals = st.one_of(st.just(F(0)), st.fractions(max_denominator=10**12),
                      st.fractions(max_denominator=30))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(rationals, max_size=8), st.integers(1, 10**40))
@example([], 1)
@example([F(0)] * 4, 1)
@example([F(0)] * 4, 36)
@example([F(0), F(3, 4), F(0), F(-5, 6)], 1)
@example([F(7, 999_953), F(-1, 1_000_003), F(2, 999_953 * 1_000_003)], 60)
def test_reduce_is_scale_of_the_reduced_fractions(v, multiple):
    # an unreduced (numerators, den) pair over any multiple of the lcm of
    # the denominators reduces to the scaled form of the Fraction vector
    den = lcm(*(x.denominator for x in v)) * multiple
    nums = [x.numerator * (den // x.denominator) for x in v]
    assert _reduce((nums, den)) == _scale(tuple(v))
