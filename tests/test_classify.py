import gc
import random
import weakref
from fractions import Fraction

import pytest

from lie2alg import (
    Cochain,
    IntertwinerError,
    InvertibilityError,
    LieMorphismError,
    Matrix,
    Quadruple,
    TwoTermAlgebra,
    adjoint_rep,
    certify_isomorphism,
    compose,
    decompose,
    distinguish,
    example27_automorphism,
    extract_quadruple_maps,
    extract_triple,
    homology_dims,
    invariants,
    inverse,
    is_cocycle,
    is_isomorphism,
    normal_form,
    normal_form_algebra,
    quaternion_example,
    random_algebra,
    skeletal_string,
    skeleton,
    so3,
    split_normal_form,
    transport,
    verify,
    verify_morphism,
)
from lie2alg import classify, core
from lie2alg.builders import random_antisymmetric_correction, random_invertible
from lie2alg.core import zero_tensor
from lie2alg.linalg import is_zero_vec

F = Fraction
V = "1+2i+3j+5k"


def permutation_matrix(order):
    n = len(order)
    return Matrix.from_rows(
        [[1 if order[j] == i else 0 for j in range(n)] for i in range(n)],
        cols=n,
    )


class TestDecompose:
    def test_skeletal_case(self):
        L = skeletal_string(so3(), 1)          # zero differential
        dec = decompose(L)
        assert dec.g_basis.dim == 3
        assert dec.imd_basis.dim == 0
        assert dec.u_basis.dim == 0
        assert dec.kerd_basis.dim == 1
        assert dec.h.is_zero()

    def test_quaternion_dims(self):
        dec = decompose(quaternion_example(V))
        assert dec.g_basis.dim == 3
        assert dec.imd_basis.dim == 1
        assert dec.kerd_basis.dim == 3
        assert dec.u_basis.dim == 1

    def test_invertible_differential(self):
        # d = identity: everything is transported, nothing is a Lie part
        L = TwoTermAlgebra(
            2, 2, Matrix.identity(2),
            zero_tensor((2, 2, 2)), zero_tensor((2, 2, 2)),
            [[[[0, 0]] * 2] * 2] * 2,
        )
        assert verify(L).passed
        dec = decompose(L)
        assert dec.g_basis.dim == 0
        assert dec.u_basis.dim == 2
        assert dec.kerd_basis.dim == 0

    def test_f_identity_on_kernel_and_h_kills_g(self):
        L = quaternion_example(V)
        dec = decompose(L)
        k = dec.kerd_basis.dim
        for idx, vec in enumerate(dec.kerd_basis.basis):
            img = dec.f.apply(vec)
            expected = tuple(F(1) if t == idx else F(0) for t in range(L.n1))
            assert img == expected
        for gvec in dec.g_basis.basis:
            assert is_zero_vec(dec.h.apply(gvec))

    def test_f_acts_as_differential_on_u(self):
        for seed in (0, 4, 13):
            L = random_algebra(seed)
            dec = decompose(L)
            k = dec.kerd_basis.dim
            for u_vec in dec.u_basis.basis:
                image = dec.f.apply(u_vec)
                # kernel coordinates vanish, image coordinates match d(u)
                assert is_zero_vec(image[:k])
                d_u = L.d.apply(u_vec)
                assert dec.coords0.apply(d_u)[dec.g_basis.dim:] == image[k:]

    def test_d_after_h_is_image_projection(self):
        for seed in (2, 7):
            L = random_algebra(seed)
            dec = decompose(L)
            gdim = dec.g_basis.dim
            for i in range(L.n0):
                e_i = tuple(F(1) if t == i else F(0) for t in range(L.n0))
                projected = L.d.apply(dec.h.apply(e_i))
                im_coords = dec.coords0.apply(e_i)[gdim:]
                expected = [F(0)] * L.n0
                for c, basis_vec in zip(im_coords, dec.imd_basis.basis):
                    for t in range(L.n0):
                        expected[t] += c * basis_vec[t]
                assert projected == tuple(expected)


class TestExtractTriple:
    def test_quaternion_recovers_rotation_algebra(self):
        L = quaternion_example(V)
        q = extract_triple(L, decompose(L))
        assert q.g.dim == 3 and q.dim_u == 1 and q.rep.dimV == 3
        # cyclic structure constants of the imaginary units
        assert q.g.sc == so3().sc
        # the action is the adjoint one
        assert q.rep.rho == adjoint_rep(q.g).rho
        # the cocycle evaluates to the imaginary part of v
        assert q.jtilde.values[(0, 1, 2)] == (F(2), F(3), F(5))

    def test_skeletal_string_recovers_input_data(self):
        g = so3()
        L = skeletal_string(g, 1)
        q = extract_triple(L, decompose(L))
        assert q.g.sc == g.sc
        assert q.dim_u == 0
        assert q.rep.dimV == 1
        assert q.jtilde.values[(0, 1, 2)] == (F(-2),)

    def test_abelian_zero(self):
        L = TwoTermAlgebra.zero(3, 2)
        q = extract_triple(L, decompose(L))
        assert q.g.sc == zero_tensor((3, 3, 3))
        assert q.dim_u == 0
        assert q.jtilde.is_zero()

    def test_lemma_guarantees_on_random_sample(self):
        for seed in range(25):
            L = random_algebra(seed)
            q = extract_triple(L, decompose(L))
            # constructors re-check Jacobi and the representation law;
            # assert the cocycle condition explicitly
            assert is_cocycle(q.jtilde, q.rep)


class TestTransport:
    def test_identity_is_noop(self):
        L = quaternion_example(V)
        out, mor = transport(
            L, Matrix.identity(4), Matrix.identity(4), zero_tensor((4, 4, 4))
        )
        assert out == L
        assert verify_morphism(mor).passed

    def test_automorphism_fixes_quaternion_algebra(self):
        L = quaternion_example(V)
        m = example27_automorphism(V)
        out, mor = transport(L, m.phi0, m.phi1, m.Phi)
        assert out == L

    def test_random_transports_verify(self):
        rng = random.Random(100)
        for seed in range(10):
            L = random_algebra(seed)
            phi0 = random_invertible(rng, L.n0, 2)
            phi1 = random_invertible(rng, L.n1, 2)
            corr = random_antisymmetric_correction(rng, L.n0, L.n1, 2)
            out, mor = transport(L, phi0, phi1, corr)
            assert verify(out).passed
            assert verify_morphism(mor).passed
            assert homology_dims(out) == homology_dims(L)

    def test_singular_rejected(self):
        L = quaternion_example("0")
        with pytest.raises(InvertibilityError):
            transport(L, Matrix.zero(4, 4), Matrix.identity(4), zero_tensor((4, 4, 4)))

    @pytest.mark.parametrize("pair, where", [((0, 1), (0, 1)), ((2, 2), (2, 2)),
                                             ((3, 1), (1, 3))])
    def test_non_antisymmetric_correction_named(self, pair, where):
        # the correction is checked before anything is built from it, so the
        # error names it rather than a failing equation of the output
        L = quaternion_example(V)
        corr = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        i, j = pair
        corr[i][j] = [0, 1, 0, 0]
        with pytest.raises(ValueError) as info:
            transport(L, Matrix.identity(4), Matrix.identity(4), corr)
        assert str(info.value) == f"correction antisymmetry violated at {where}"


class TestNormalForm:
    def test_quaternion(self):
        L = quaternion_example(V)
        res = normal_form(L)
        assert (res.algebra.n0, res.algebra.n1) == (4, 4)
        assert verify_morphism(res.morphism).passed
        assert is_isomorphism(res.morphism)
        assert res.quadruple.dim_u == 1

    def test_idempotent(self):
        for seed in (0, 3, 11):
            L = random_algebra(seed)
            first = normal_form(L)
            second = normal_form(first.algebra)
            assert second.algebra == first.algebra
            assert second.morphism.phi0 == Matrix.identity(first.algebra.n0)
            assert second.morphism.phi1 == Matrix.identity(first.algebra.n1)

    def test_zero_algebra(self):
        L = TwoTermAlgebra.zero(2, 0)
        res = normal_form(L)
        assert res.algebra == L
        assert res.morphism.phi0 == Matrix.identity(2)

    def test_matches_transport_route(self):
        # pushing the algebra through the normalizing maps must assemble the
        # very same structure tensors the quadruple route builds
        for seed in (1, 5, 9):
            L = random_algebra(seed)
            res = normal_form(L)
            transported, _ = transport(
                L, res.morphism.phi0, res.morphism.phi1, res.morphism.Phi
            )
            assert transported == res.algebra


class TestSkeleton:
    def test_skeletal_input_is_own_normal_form(self):
        L = skeletal_string(so3(), 1)
        assert skeleton(L) == normal_form(L).algebra

    def test_quaternion_skeleton(self):
        S = skeleton(quaternion_example(V))
        assert (S.n0, S.n1) == (3, 3)
        assert S.d.is_zero()

    def test_u_does_not_enter(self):
        g = so3()
        rep = adjoint_rep(g)
        z = Cochain.zero(3, g, 3)
        small = normal_form_algebra(Quadruple(g, 1, rep, z))
        large = normal_form_algebra(Quadruple(g, 2, rep, z))
        assert skeleton(small) == skeleton(large)


class TestInvariants:
    def test_skeletal_string_flags(self):
        g0 = skeletal_string(so3(), 0)
        g1 = skeletal_string(so3(), 1)
        inv0 = invariants(g0)
        inv1 = invariants(g1)
        assert inv0.jtilde_is_coboundary is True
        assert inv1.jtilde_is_coboundary is False
        assert inv0.dim_u == 0
        assert inv0.cohomology_h3 == 1

    def test_quaternion_flag_true(self):
        inv = invariants(quaternion_example(V))
        assert inv.jtilde_is_coboundary is True
        assert inv.dim_u == 1
        assert (inv.cohomology_h0, inv.cohomology_h3) == (0, 0)

    def test_lie_invariants(self):
        inv = invariants(skeletal_string(so3(), 1))
        assert inv.derived_series == (3,)
        assert inv.center_dim == 0
        assert inv.killing_rank == 3

    def test_deterministic(self):
        L = random_algebra(42)
        assert invariants(L) == invariants(L)


class TestDistinguish:
    def test_self_inconclusive(self):
        L = quaternion_example(V)
        assert distinguish(L, L) is None

    def test_different_u_dimensions(self):
        g = so3()
        rep = adjoint_rep(g)
        z = Cochain.zero(3, g, 3)
        a = normal_form_algebra(Quadruple(g, 1, rep, z))
        b = normal_form_algebra(Quadruple(g, 2, rep, z))
        assert skeleton(a) == skeleton(b)
        assert distinguish(a, b) == "dim U"

    def test_coboundary_flag(self):
        assert distinguish(skeletal_string(so3(), 0), skeletal_string(so3(), 1)) == (
            "Jtilde coboundary flag"
        )


class TestCertify:
    def test_identity_certificate(self):
        L = skeletal_string(so3(), 1)
        iso = certify_isomorphism(
            L, L, Matrix.identity(3), Matrix.zero(0, 0), Matrix.identity(1)
        )
        assert iso is not None
        assert verify_morphism(iso).passed
        assert is_isomorphism(iso)

    @pytest.mark.parametrize("lam", [2, 3])
    def test_rescaled_strings(self, lam):
        g1 = skeletal_string(so3(), 1)
        gl = skeletal_string(so3(), lam)
        iso = certify_isomorphism(
            g1, gl, Matrix.identity(3), Matrix.zero(0, 0), Matrix.from_rows([[lam]])
        )
        assert iso is not None
        assert verify_morphism(iso).passed
        maps = extract_quadruple_maps(iso)
        assert maps.tau == Matrix.identity(3)
        assert maps.f_u == Matrix.zero(0, 0)
        assert maps.t_v == Matrix.from_rows([[lam]])

    def test_not_cohomologous(self):
        g0 = skeletal_string(so3(), 0)
        g1 = skeletal_string(so3(), 1)
        assert certify_isomorphism(
            g0, g1, Matrix.identity(3), Matrix.zero(0, 0), Matrix.from_rows([[2]])
        ) is None

    def test_bad_chi_raises(self):
        L = skeletal_string(so3(), 1)
        bad = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # invertible, not Lie
        with pytest.raises(LieMorphismError):
            certify_isomorphism(L, L, bad, Matrix.zero(0, 0), Matrix.identity(1))

    def test_singular_chi_raises(self):
        L = skeletal_string(so3(), 1)
        with pytest.raises(InvertibilityError):
            certify_isomorphism(L, L, Matrix.zero(3, 3), Matrix.zero(0, 0), Matrix.identity(1))

    def test_singular_tv_raises(self):
        L = skeletal_string(so3(), 1)
        with pytest.raises(InvertibilityError):
            certify_isomorphism(L, L, Matrix.identity(3), Matrix.zero(0, 0), Matrix.zero(1, 1))

    def test_bad_intertwiner_raises(self):
        L = normal_form_algebra(
            Quadruple(so3(), 0, adjoint_rep(so3()), Cochain.zero(3, so3(), 3))
        )
        bad_t = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        with pytest.raises(IntertwinerError):
            certify_isomorphism(L, L, Matrix.identity(3), Matrix.zero(0, 0), bad_t)

    def test_non_normal_inputs_are_normalized(self):
        # neither quaternionic algebra is in standard shape, so both get
        # normalized; adjoint-valued degree-3 classes vanish, so identity
        # maps certify any two parameter choices as isomorphic
        a = quaternion_example("1+2i+3j+5k")
        b = quaternion_example("7i-j")
        iso = certify_isomorphism(
            a, b, Matrix.identity(3), Matrix.identity(1), Matrix.identity(3)
        )
        assert iso is not None
        assert iso.source == a and iso.target == b
        assert verify_morphism(iso).passed
        assert is_isomorphism(iso)


class TestExtractQuadrupleMaps:
    def test_identity_automorphism(self):
        L = skeletal_string(so3(), 1)
        from lie2alg import identity_morphism

        maps = extract_quadruple_maps(identity_morphism(L))
        assert maps.tau == Matrix.identity(3)
        assert maps.t_v == Matrix.identity(1)
        assert maps.witness.is_zero()

    def test_normalized_quaternion_automorphism(self):
        # conjugate the quaternionic automorphism by the normalizing maps and
        # read off the induced cyclic rotation of the Lie part
        m = example27_automorphism(V)
        res = normal_form(m.source)
        inv = inverse(res.morphism)
        conjugated = compose(compose(inv, m), res.morphism)
        assert verify_morphism(conjugated).passed
        maps = extract_quadruple_maps(conjugated)
        # i -> j -> k -> i on the imaginary units
        assert maps.tau == permutation_matrix((1, 2, 0))

    def test_split_normal_form_rejects_non_standard(self):
        with pytest.raises(ValueError):
            split_normal_form(quaternion_example(V))

    def test_non_isomorphism_is_hard_error(self):
        from lie2alg import Morphism

        L = skeletal_string(so3(), 1)
        squash = Morphism(
            L, L, Matrix.zero(3, 3), Matrix.zero(1, 1), zero_tensor((3, 3, 1))
        )
        with pytest.raises(RuntimeError):
            extract_quadruple_maps(squash)

    def test_non_standard_shape_rejected(self):
        from lie2alg import identity_morphism

        with pytest.raises(ValueError):
            extract_quadruple_maps(identity_morphism(quaternion_example(V)))


class TestDecompositionIndependence:
    def test_permuted_bases_give_isomorphic_normal_forms(self):
        rng = random.Random(17)
        for seed in range(8):
            L = random_algebra(seed)
            order0 = list(range(L.n0))
            order1 = list(range(L.n1))
            rng.shuffle(order0)
            rng.shuffle(order1)
            p0 = permutation_matrix(tuple(order0))
            p1 = permutation_matrix(tuple(order1))
            permuted, mover = transport(L, p0, p1, zero_tensor((L.n0, L.n0, L.n1)))
            res_a = normal_form(L)
            res_b = normal_form(permuted)
            bridge = compose(
                compose(inverse(res_a.morphism), mover), res_b.morphism
            )
            assert verify_morphism(bridge).passed
            assert is_isomorphism(bridge)
            assert invariants(L) == invariants(permuted)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def stored(L):
    """The entries kept on an algebra object, without creating its store."""
    return dict(vars(L).get("_store", {}))


class TestPerAlgebraStore:
    def test_repeat_calls_return_kept_results(self, monkeypatch):
        L = random_algebra(7)
        L = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, L.b01, L.jac)   # nothing kept yet
        checks = counting(monkeypatch, core, "_verify")
        decs = counting(monkeypatch, classify, "decompose")
        triples = counting(monkeypatch, classify, "extract_triple")
        targets = counting(monkeypatch, classify, "normal_form_algebra")
        morphism_checks = counting(monkeypatch, classify, "verify_morphism")

        report = verify(L)
        assert verify(L) is report and len(checks) == 1
        first = normal_form(L)
        second = normal_form(L)
        assert second.algebra is first.algebra and second.quadruple is first.quadruple
        assert second.morphism == first.morphism and second.morphism is not first.morphism
        assert second.morphism.source is L and second.morphism.target is first.algebra
        assert verify_morphism(second.morphism).passed
        assert len(targets) == 1 and len(morphism_checks) == 1
        assert invariants(L) == invariants(L)
        skeleton(L)
        # one quadruple per algebra, shared by normal_form, invariants and skeleton
        assert len(decs) == 1 and len(triples) == 1
        assert set(stored(L)) == {"verify", "quadruple", "normal_form"}

    def test_invariants_first_then_normal_form(self, monkeypatch):
        L = random_algebra(12)
        decs = counting(monkeypatch, classify, "decompose")
        triples = counting(monkeypatch, classify, "extract_triple")
        inv = invariants(L)
        # the decomposition is kept for the normal form, without its source
        assert stored(L)["decomposition"].source is None
        res = normal_form(L)
        assert len(decs) == 1 and len(triples) == 1
        assert "decomposition" not in stored(L)
        assert res.quadruple is stored(L)["quadruple"]
        assert inv == invariants(res.algebra)

    def test_equal_but_distinct_algebra_shares_no_store(self, monkeypatch):
        L = random_algebra(3)
        res = normal_form(L)
        inv = invariants(L)
        twin = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, L.b01, L.jac)
        assert twin == L and twin is not L
        assert stored(twin) == {}
        targets = counting(monkeypatch, classify, "normal_form_algebra")
        again = normal_form(twin)
        assert len(targets) == 1 and again.algebra is not res.algebra
        assert again.algebra == res.algebra and again.quadruple == res.quadruple
        assert again.morphism.source is twin and again.morphism == res.morphism
        assert invariants(twin) == inv
        assert verify(twin) == verify(L) and verify(twin) is not verify(L)
        assert twin._store is not L._store

    def test_kept_values_do_not_keep_the_algebra_alive(self):
        # reference counting alone must free it: no stored value refers back
        gc.disable()
        try:
            for seed in (0, 5):
                L = random_algebra(seed)
                assert verify(L).passed
                normal_form(L)
                invariants(L)
                skeleton(L)
                assert set(stored(L)) == {"verify", "quadruple", "normal_form"}
                ref = weakref.ref(L)
                del L
                assert ref() is None
        finally:
            gc.enable()

    def test_normal_form_of_a_normal_form_is_classified_afresh(self, monkeypatch):
        L = random_algebra(9)
        first = normal_form(L)
        A = first.algebra
        kept_on_l = stored(L)
        # the produced algebra holds only the report of verify on itself
        assert set(stored(A)) == {"verify"}
        decs = counting(monkeypatch, classify, "decompose")
        triples = counting(monkeypatch, classify, "extract_triple")
        again = normal_form(A)
        assert len(decs) == 1 and len(triples) == 1
        assert again.algebra == A and again.algebra is not A
        assert set(stored(A)) == {"verify", "quadruple", "normal_form"}
        # entries are written on the argument alone: L keeps what it had, and
        # the new target holds only the report verify kept on it
        assert stored(L) == kept_on_l
        assert set(stored(again.algebra)) == {"verify"}
        assert split_normal_form(A) == again.quadruple


def test_type_hints_of_exported_records_resolve():
    # annotations are strings (postponed evaluation): each name in them must
    # be bound in its module
    import dataclasses
    import typing

    import lie2alg

    records = [obj for name, obj in vars(lie2alg).items()
               if not name.startswith("_") and isinstance(obj, type)
               and (dataclasses.is_dataclass(obj) or hasattr(obj, "_fields"))]
    assert lie2alg.Decomposition in records and lie2alg.NormalFormResult in records
    for record in records:
        assert typing.get_type_hints(record), record.__name__
