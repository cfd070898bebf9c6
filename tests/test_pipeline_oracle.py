"""Reference tests for the scaled-integer classification pipeline.

``classify.transport``, ``classify.extract_triple``, ``classify.normal_form``,
``builders.normal_form_algebra``, ``morphisms.compose`` and
``morphisms.inverse`` build their tensors on integer numerators with one
denominator per vector (``core._isum``) and return algebras and morphisms
that store only that scaled form.  This module keeps the `Fraction`
loops they replace (a naive contraction over index tuples, ``Matrix.apply``
and the vector helpers, one reduced entry at a time) as an independent
oracle, and asserts equal algebras, morphisms, quadruples and verification
reports on seeded random algebras, on maps with large prime, shared-factor
and mixed denominators, on morphisms that are not valid, and on algebras
with an empty degree.  The public `Fraction` views of every output are
compared with the oracle's raw tensors, entry by entry, and so are those of
``classify.certify_isomorphism``.
Every stored scaled form must equal the one computed from the public
views, and the canonical reduction behind it is property-tested against
``core._scale``.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import NamedTuple

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
    certify_isomorphism,
    compose,
    decompose,
    extract_quadruple_maps,
    extract_triple,
    inverse,
    is_coboundary,
    normal_form,
    normal_form_algebra,
    pullback_representation,
    quaternion_example,
    random_algebra,
    so3,
    transport,
    trivial_rep,
    verify,
    verify_morphism,
)
from lie2alg.builders import random_antisymmetric_correction, random_invertible
from lie2alg.core import _reduce, _scale, perm_sign, shuffles, tensor
from lie2alg.cohomology import _transfer_difference
from lie2alg.linalg import ZERO, block_diag, invert, vec_add, vec_sub, vec_zero
from test_core import brute_force_contract

F = Fraction

PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037)
SHARED = (2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 30, 36, 60)
DENOMINATORS = {"primes": PRIMES, "shared": SHARED, "mixed": PRIMES + SHARED}


# ---------------------------------------------------------------------------
# the oracle: the pipeline's tensor loops on Fraction entries
# ---------------------------------------------------------------------------


class RawAlgebra(NamedTuple):
    """An algebra as the oracle computes it: ``d`` a `Matrix`, the tensors
    nested lists of `Fraction`s."""

    n0: int
    n1: int
    d: Matrix
    b00: list
    b01: list
    jac: list

    def record(self):
        return TwoTermAlgebra(*self)


class RawMorphism(NamedTuple):
    """A morphism as the oracle computes it: ``Phi`` nested lists of `Fraction`s."""

    source: TwoTermAlgebra
    target: TwoTermAlgebra
    phi0: Matrix
    phi1: Matrix
    Phi: list

    def record(self):
        return Morphism(*self)


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

    out = RawAlgebra(n0, n1, d_new, b00_new, b01_new, jac_new)
    return out, RawMorphism(L, out.record(), phi0, phi1, corr)


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
    return RawAlgebra(n0, n1, Matrix.from_rows(d, cols=n1), b00, b01, jac)


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
    return RawMorphism(first.source, second.target, second.phi0 @ first.phi0,
                       second.phi1 @ first.phi1, psi)


def oracle_inverse(m):
    inv0, inv1 = invert(m.phi0), invert(m.phi1)
    n0 = m.target.n0
    phi = [[tuple(-c for c in inv1.apply(contract(m.Phi, inv0.column(i), inv0.column(j),
                                                   n=m.target.n1)))
            for j in range(n0)] for i in range(n0)]
    return RawMorphism(m.target, m.source, inv0, inv1, phi)


def oracle_certify(L, M, chi, f_u, t_v):
    """The certificate L -> M composed from the two normal forms and the
    morphism between them that ``chi``, ``f_u``, ``t_v`` and the package's
    coboundary witness give."""
    nf_l, nf_m = normal_form(L), normal_form(M)
    q_l, q_m = nf_l.quadruple, nf_m.quadruple
    witness = is_coboundary(_transfer_difference(q_l.jtilde, q_m.jtilde, chi, t_v),
                            pullback_representation(q_m.rep, chi, q_l.g))
    n0, n1 = nf_l.algebra.n0, nf_m.algebra.n1
    corr = [[[ZERO] * n1 for _ in range(n0)] for _ in range(n0)]
    for (i, j), value in witness.values.items():
        corr[i][j][:len(value)] = value
        corr[j][i][:len(value)] = [-x for x in value]
    middle = RawMorphism(nf_l.algebra, nf_m.algebra, block_diag(chi, f_u), block_diag(t_v, f_u),
                         corr)
    return oracle_compose(oracle_compose(nf_l.morphism, middle), oracle_inverse(nf_m.morphism))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def fresh_matrix(m):
    """A copy of ``m`` that keeps nothing: its scaled views come from its entries."""
    return Matrix(m.rows, m.cols, m.entries)


def assert_scaled_filled(obj):
    """``obj`` carries a scaled form from its construction, and it equals
    the one computed from the public `Fraction` tensors and matrices of a
    fresh copy; the scaled columns of its matrices equal those rescaled
    from their entries."""
    assert "_scaled" in vars(obj)
    if isinstance(obj, TwoTermAlgebra):
        mats = (obj.d,)
        fresh = TwoTermAlgebra(obj.n0, obj.n1, fresh_matrix(obj.d), obj.b00, obj.b01, obj.jac)
    else:
        mats = (obj.phi0, obj.phi1)
        fresh = Morphism(obj.source, obj.target, *map(fresh_matrix, mats), obj.Phi)
    assert obj._scaled == fresh._scaled
    for m in mats:
        assert m._columns == fresh_matrix(m)._columns


VIEWS = {TwoTermAlgebra: ("d", "b00", "b01", "jac"), Morphism: ("phi0", "phi1", "Phi")}


def frozen(t):
    """Nested lists and tuples as nested tuples, entries unchanged."""
    return tuple(map(frozen, t)) if isinstance(t, (list, tuple)) else t


def entries(t):
    """The entries of nested tuples ``t``."""
    return [x for sub in t for x in (entries(sub) if isinstance(sub, tuple) else (sub,))]


def bumped(t):
    """Nested tuples ``t`` with the first entry of its first nonempty leaf
    raised by one, or None when ``t`` has no entry."""
    if t and not isinstance(t[0], tuple):
        return (t[0] + 1, *t[1:])
    for k, sub in enumerate(t):
        if (new := bumped(sub)) is not None:
            return (*t[:k], new, *t[k + 1:])
    return None


def twin(obj, **views):
    """``obj`` rebuilt by its public constructor from its views, with
    ``views`` in place of some of them."""
    head = (obj.n0, obj.n1) if isinstance(obj, TwoTermAlgebra) else (obj.source, obj.target)
    return type(obj)(*head, *(views.get(name, getattr(obj, name)) for name in VIEWS[type(obj)]))


def assert_views(obj, want):
    """Every view of ``obj`` equals, entry by entry, the raw `Fraction` data
    of the oracle's ``want``; ``obj`` equals and hashes like its twin built
    from its views, and is unequal to a twin with one entry of one view
    changed."""
    for name in VIEWS[type(obj)]:
        view, raw = getattr(obj, name), getattr(want, name)
        if isinstance(view, Matrix):
            assert view == raw
            values, changed = view.entries, bumped(view.entries)
            changed = changed and Matrix(view.rows, view.cols, changed)
        else:
            assert view == frozen(raw)
            values, changed = entries(view), bumped(view)
        assert all(type(x) is Fraction for x in values)
        if changed is not None:
            assert twin(obj, **{name: changed}) != obj
    same = twin(obj)
    assert same == obj and hash(same) == hash(obj)


def assert_same(got, want):
    """A pipeline output against the oracle's raw data: equal views, equal
    records and equal verification reports; its scaled form is filled in."""
    record = want.record()
    assert_views(got, want)
    assert got == record
    assert_scaled_filled(got)
    check = verify if isinstance(got, TwoTermAlgebra) else verify_morphism
    assert check(got) == check(record)


def check_pipeline(L, phi0, phi1, corr):
    """Every rewritten stage against its oracle, on L and on its transport."""
    M, mor = transport(L, phi0, phi1, corr)
    want_M, want_mor = oracle_transport(L, phi0, phi1, corr)
    assert_same(M, want_M)
    assert_same(mor, want_mor)

    nfs = []
    for A in (L, M):
        dec = decompose(A)
        q = extract_triple(A, dec)
        assert q == oracle_extract_triple(A, dec)
        nf = normal_form(A)
        assert nf.quadruple == q
        want_nf = oracle_normal_form_algebra(q)
        assert_same(nf.algebra, want_nf)
        assert_same(nf.morphism, RawMorphism(A, want_nf.record(), dec.coords0, dec.f,
                                             oracle_normal_form_correction(A, dec)))
        nfs.append(nf)

    inv = inverse(nfs[0].morphism)
    assert_same(inv, oracle_inverse(nfs[0].morphism))
    assert_same(inverse(mor), oracle_inverse(mor))
    bridge = compose(compose(inv, mor), nfs[1].morphism)
    assert_same(bridge, oracle_compose(oracle_compose(inv, mor), nfs[1].morphism))
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
            report = verify(want.record())
            assert not report.passed
            with pytest.raises(ValueError) as err:
                transport(bad, *maps)
            assert str(err.value) == f"transported algebra failed verification: {report.lines()}"

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_compose_and_inverse_of_arbitrary_maps(self, kind):
        # random linear maps and corrections that are antisymmetric or not:
        # a correction that is not, on either side of compose, or that has
        # one nonzero diagonal leaf, makes every entry of Psi computed
        rng = random.Random(f"arbitrary-{kind}")
        dens = DENOMINATORS[kind]
        for n0, n1 in [(1, 1), (2, 3), (3, 2), (4, 3), (0, 2), (3, 0)]:
            L, M, N = (TwoTermAlgebra.zero(n0, n1) for _ in range(3))

            def arbitrary():
                return [[[entry(rng, dens) if rng.random() < 0.7 else 0 for _ in range(n1)]
                         for _ in range(n0)] for _ in range(n0)]

            def skew():
                return rational_correction(rng, n0, n1, dens)

            def one_diagonal_leaf():
                Phi = skew()
                if n0 and n1:
                    i = rng.randrange(n0)
                    Phi[i][i][rng.randrange(n1)] = entry(rng, dens)
                return Phi

            def morphism(src, tgt, Phi):
                return Morphism(src, tgt, rational_invertible(rng, n0, dens),
                                rational_invertible(rng, n1, dens), Phi)

            for make_first, make_second in [(arbitrary, arbitrary), (skew, arbitrary),
                                            (arbitrary, skew), (skew, one_diagonal_leaf),
                                            (one_diagonal_leaf, skew), (skew, skew)]:
                first = morphism(L, M, make_first())
                second = morphism(M, N, make_second())
                assert_same(compose(first, second), oracle_compose(first, second))
                assert_same(inverse(first), oracle_inverse(first))


class TestCertificateAgainstOracle:
    @pytest.mark.parametrize("seed", (0, 5, 12))
    def test_certificate_of_a_transport(self, seed):
        # the quadruple maps of the isomorphism between the two normal forms
        # that transport gives certify L and its transport as isomorphic
        L = random_algebra(seed)
        M, mor = transport(L, *integer_maps(L, 2000 + seed))
        bridge = compose(compose(inverse(normal_form(L).morphism), mor), normal_form(M).morphism)
        maps = extract_quadruple_maps(bridge)
        iso = certify_isomorphism(L, M, maps.tau, maps.f_u, maps.t_v)
        assert_same(iso, oracle_certify(L, M, maps.tau, maps.f_u, maps.t_v))

    def test_certificate_of_quaternionic_algebras(self):
        a, b = quaternion_example("1+2i+3j+5k"), quaternion_example("7i-j")
        maps = Matrix.identity(3), Matrix.identity(1), Matrix.identity(3)
        assert_same(certify_isomorphism(a, b, *maps), oracle_certify(a, b, *maps))


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
