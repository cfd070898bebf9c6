import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from lie2alg import (
    Cochain,
    IntertwinerError,
    InvertibilityError,
    LieAlgebra,
    LieMorphismError,
    Matrix,
    Morphism,
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
    identity_morphism,
    invariants,
    invert,
    inverse,
    is_coboundary,
    is_cocycle,
    is_isomorphism,
    killing_form,
    lie_algebra,
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
from lie2alg import classify, core, linalg, morphisms
from lie2alg.documents import (algebra_from_document, algebra_to_document, dumps, loads,
                               morphism_from_document, morphism_to_document)
from lie2alg.builders import (_standard_shape, catalog_pairs, lie_algebra_names,
                               random_antisymmetric_correction, random_cocycle, random_invertible,
                               trivial_rep)
from lie2alg.classify import center_dim
from lie2alg.core import zero_tensor
from lie2alg.linalg import _Record, is_zero_vec

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

    def test_other_algebras_decomposition_rejected(self):
        with pytest.raises(ValueError, match="different algebra"):
            extract_triple(skeletal_string(so3(), 1), decompose(skeletal_string(so3(), 2)))


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

    @pytest.mark.parametrize("phi0, phi1, message", [
        (Matrix.zero(4, 3), Matrix.identity(4), "phi0 must be square of size n0"),
        (Matrix.identity(3), Matrix.identity(4), "phi0 must be square of size n0"),
        (Matrix.identity(4), Matrix.zero(3, 4), "phi1 must be square of size n1"),
        (Matrix.identity(4), Matrix.from_rows([[1, 0, 0, 0]] * 4), "phi1 is singular"),
    ], ids=["phi0-not-square", "phi0-wrong-size", "phi1-not-square", "phi1-singular"])
    def test_bad_linear_parts_rejected(self, phi0, phi1, message):
        L = quaternion_example(V)
        with pytest.raises(InvertibilityError, match=message):
            transport(L, phi0, phi1, zero_tensor((4, 4, 4)))

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

    def test_coboundary_flag_matches_solve(self):
        # with H3 = 0 the flag is set without a solve; it must agree with one
        seen = set()
        for seed in range(60):
            L = random_algebra(seed)
            inv = invariants(L)
            q = classify._quadruple(L)
            assert inv.jtilde_is_coboundary == (is_coboundary(q.jtilde, q.rep) is not None)
            seen.add((inv.cohomology_h3 == 0, inv.jtilde_is_coboundary))
        assert seen == {(True, True), (False, True), (False, False)}


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
        # a standard shape moved by identity maps and a correction with U
        # components keeps its differential, but its bracket leaves the shape
        nf = normal_form_algebra(Quadruple(so3(), 1, adjoint_rep(so3()), Cochain.zero(3, so3(), 3)))
        # degree 1 is V (indices 0-2) then U (index 3)
        corr = [[[F(0)] * nf.n1 for _ in range(nf.n0)] for _ in range(nf.n0)]
        corr[0][1][3], corr[1][0][3] = F(1), F(-1)
        moved, _ = transport(nf, Matrix.identity(nf.n0), Matrix.identity(nf.n1), corr)
        assert moved.d == nf.d and moved != nf
        for L in (quaternion_example(V), moved):
            with pytest.raises(ValueError):
                split_normal_form(L)

    def test_split_normal_form_inverts_normal_form_algebra(self):
        rng = random.Random(12)
        for _, g, _, rep in catalog_pairs(max_dim_g=3, max_dim_v=3):
            jt = random_cocycle(rng, rep, 2)
            for dim_u in (0, 2):
                q = Quadruple(g, dim_u, rep, jt)
                assert split_normal_form(normal_form_algebra(q)) == q

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
    return dict(vars(L).get("_kept_results", {}))


class TestPerAlgebraStore:
    def test_repeat_calls_return_kept_results(self, monkeypatch):
        L = random_algebra(7)
        L = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, L.b01, L.jac)   # nothing kept yet
        checks = counting(monkeypatch, core, "_verify")
        decs = counting(monkeypatch, classify, "_splitting")
        triples = counting(monkeypatch, classify, "_extract")
        targets = counting(monkeypatch, classify, "_standard_shape")
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
        decs = counting(monkeypatch, classify, "_splitting")
        triples = counting(monkeypatch, classify, "_extract")
        inv = invariants(L)
        assert set(stored(L)) == {"verify", "quadruple"}
        res = normal_form(L)
        # the normal form decomposes L again, and extracts no second quadruple
        assert len(decs) == 2 and len(triples) == 1
        assert set(stored(L)) == {"verify", "quadruple", "normal_form"}
        assert res.quadruple is stored(L)["quadruple"]
        assert inv == invariants(res.algebra)

    def test_no_decomposition_is_kept(self):
        # a quadruple read without the normal form keeps nothing next to it
        A = normal_form(random_algebra(3)).algebra
        split_normal_form(A)
        normal_form(A)
        assert set(stored(A)) == {"verify", "quadruple", "built from", "normal_form"}
        L = random_algebra(3)
        invariants(L)
        assert set(stored(L)) <= {"verify", "quadruple"}
        L = random_algebra(3)
        skeleton(L)
        assert set(stored(L)) <= {"verify", "quadruple"}

    def test_equal_but_distinct_algebra_shares_no_store(self, monkeypatch):
        L = random_algebra(3)
        res = normal_form(L)
        inv = invariants(L)
        twin = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, L.b01, L.jac)
        assert twin == L and twin is not L
        assert stored(twin) == {}
        targets = counting(monkeypatch, classify, "_standard_shape")
        again = normal_form(twin)
        assert len(targets) == 1 and again.algebra is not res.algebra
        assert again.algebra == res.algebra and again.quadruple == res.quadruple
        assert again.morphism.source is twin and again.morphism == res.morphism
        assert invariants(twin) == inv
        assert verify(twin) == verify(L) and verify(twin) is not verify(L)
        assert vars(twin)["_kept_results"] is not vars(L)["_kept_results"]

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

    def test_kept_keys_are_the_documented_ones(self):
        # every result a record keeps goes through ``_Record._kept``, under
        # the keys its docstring names
        algebras, reps = [], []
        for seed in (0, 4, 11):
            L = random_algebra(seed)
            res = normal_form(L)
            invariants(L)
            skeleton(L)
            split_normal_form(res.algebra)
            extract_quadruple_maps(identity_morphism(res.algebra))
            algebras += [L, res.algebra]
            reps.append(res.quadruple.rep)
            # the morphism keeps the inverses of its maps, the other records nothing
            assert set(stored(res.morphism)) == {"inverse"}
            for record in (res.quadruple, res.quadruple.g, res.quadruple.jtilde):
                assert "_kept_results" not in vars(record)
        for L in algebras:
            assert set(stored(L)) <= {"verify", "quadruple", "built from", "normal_form"}
        # only the shapes the package built are marked, and L is not one
        assert {"built from" in stored(L) for L in algebras[::2]} == {False}
        assert {"built from" in stored(L) for L in algebras[1::2]} == {True}
        # a representation keeps its one cochain complex, and nothing else
        assert set().union(*(stored(rep) for rep in reps)) == {"complex"}
        doc = _Record._kept.__doc__
        assert all(f'"{key}"' in doc for key in
                   ("verify", "quadruple", "built from", "normal_form", "inverse", "complex"))
        assert not any(f'("{kind}", n)' in doc for kind in ("delta", "forward", "rref"))

    def test_normal_form_of_a_normal_form_is_the_identity(self, monkeypatch):
        L = random_algebra(9)
        first = normal_form(L)
        A = first.algebra
        kept_on_l = stored(L)
        # the produced algebra holds the report of verify on itself and the
        # quadruple it was built from, which is L's, also as its mark
        assert set(stored(A)) == {"verify", "quadruple", "built from"}
        assert stored(A)["quadruple"] is stored(A)["built from"] is first.quadruple
        decs = counting(monkeypatch, classify, "_splitting")
        triples = counting(monkeypatch, classify, "_extract")
        shapes = counting(monkeypatch, classify, "_standard_shape")
        morphism_checks = counting(monkeypatch, classify, "verify_morphism")
        again = normal_form(A)
        # neither decomposed nor rebuilt: the identity onto a new record on
        # A's stored structure, checked once
        assert len(decs) == len(triples) == len(shapes) == 0 and len(morphism_checks) == 1
        assert again.algebra == A and again.algebra is not A
        assert again.algebra._scaled is A._scaled
        assert again.morphism.source is A and again.morphism == identity_morphism(A)
        assert again.quadruple is first.quadruple
        assert set(stored(A)) == {"verify", "quadruple", "built from", "normal_form"}
        # entries are written on the argument alone: L keeps what it had, and
        # the new target holds A's report, its quadruple and the same mark
        assert stored(L) == kept_on_l
        assert stored(again.algebra) == {"verify": verify(A), "quadruple": first.quadruple,
                                         "built from": first.quadruple}
        assert normal_form(A).morphism == again.morphism and len(morphism_checks) == 1
        assert split_normal_form(A) is again.quadruple
        assert split_normal_form(again.algebra) is again.quadruple
        assert len(decs) == len(triples) == len(shapes) == 0

    def test_normal_form_of_a_normal_form_verifies_each_value_once(self, monkeypatch):
        # normal_form(A) of a standard shape A builds a target equal to A:
        # that value was verified when A was built, so it is not walked again;
        # random_algebra(0) is a standard shape itself, the others are not
        for seed in (0, 3, 9, 14):
            L = random_algebra(seed)
            L = TwoTermAlgebra(L.n0, L.n1, L.d, L.b00, L.b01, L.jac)   # nothing kept yet
            checks = counting(monkeypatch, core, "_verify")
            verify(L)
            A = normal_form(L).algebra
            again = normal_form(A)
            assert again.algebra == A and again.algebra is not A
            assert verify(again.algebra) is verify(A)
            assert len(checks) == len(set(checks)) == (1 if seed == 0 else 2)
            monkeypatch.undo()


def shape_quadruples():
    """Every catalog pair up to dimension 3 with a zero and a seeded random
    cocycle, the zero algebra, each with dim U 0, 1 and 2."""
    rng = random.Random(25)
    pairs = [(g, rep) for _, g, _, rep in catalog_pairs(max_dim_g=3, max_dim_v=3)]
    pairs.append((lie_algebra("abelian0"), trivial_rep(lie_algebra("abelian0"), 0)))
    for g, rep in pairs:
        for jtilde in (Cochain.zero(3, g, rep.dimV), random_cocycle(rng, rep, 3)):
            for dim_u in range(3):
                yield Quadruple(g, dim_u, rep, jtilde)


class TestExtractionInvertsTheStandardShape:
    """A standard shape keeps the quadruple it was built from, because
    extracting the quadruple of that shape gives it back: checked here on
    shapes rebuilt from their views, which keep nothing."""

    def test_extract_triple_of_a_fresh_shape_is_its_quadruple(self):
        nonzero = 0
        for q in shape_quadruples():
            shape = _standard_shape(q)
            assert stored(shape) == {"quadruple": q, "built from": q}
            T = TwoTermAlgebra(shape.n0, shape.n1, shape.d, shape.b00, shape.b01, shape.jac)
            assert T == shape and stored(T) == {}
            assert verify(T).passed
            assert extract_triple(T, decompose(T)) == q
            nonzero += not q.jtilde.is_zero()
        assert nonzero >= 30

    def test_kept_and_extracted_quadruples_give_the_same_results(self):
        for k, q in enumerate(shape_quadruples()):
            if k % 5:
                continue
            shape = normal_form_algebra(q)
            T = TwoTermAlgebra(shape.n0, shape.n1, shape.d, shape.b00, shape.b01, shape.jac)
            assert split_normal_form(shape) is q and split_normal_form(T) == q
            assert invariants(shape) == invariants(T)
            assert skeleton(shape) == skeleton(T)
            a, b = normal_form(shape), normal_form(T)
            assert a.quadruple is q and b.quadruple == q
            assert a.algebra == b.algebra == shape and a.morphism == b.morphism

    def test_a_kept_quadruple_does_not_keep_the_shape_alive(self):
        gc.disable()
        try:
            q = normal_form(random_algebra(5)).quadruple
            shape = normal_form_algebra(q)
            normal_form(shape)
            assert stored(shape)["quadruple"] is q
            ref = weakref.ref(shape)
            del shape
            assert ref() is None
        finally:
            gc.enable()


def built_shapes():
    """Shapes the package built: every catalog pair up to dimension 4 with a
    seeded random cocycle and dim U 0 to 3, then the normal forms of
    ``random_algebra(0..99)``."""
    rng = random.Random(26)
    for _, g, _, rep in catalog_pairs(4, 4):
        for dim_u in range(4):
            yield normal_form_algebra(Quadruple(g, dim_u, rep, random_cocycle(rng, rep, 2)))
    for seed in range(100):
        yield normal_form(random_algebra(seed)).algebra


class TestTheNormalFormOfABuiltShape:
    """A shape the package built answers ``normal_form`` and
    ``split_normal_form`` from the quadruple it was built from; an equal
    copy read through ``documents`` keeps nothing and takes the decomposing
    path, which must give the same answer byte for byte."""

    def test_the_kept_answer_is_the_decomposed_one(self, monkeypatch):
        count = 0
        for shape in built_shapes():
            copy = algebra_from_document(loads(dumps(algebra_to_document(shape))))
            assert copy == shape and stored(copy) == {}
            decs = counting(monkeypatch, classify, "_splitting")
            ours = normal_form(shape)
            assert decs == [] and split_normal_form(shape) is ours.quadruple
            theirs = normal_form(copy)
            assert len(decs) == 1 and "built from" not in stored(copy)
            assert ours.quadruple == theirs.quadruple == split_normal_form(copy)
            assert (dumps(morphism_to_document(ours.morphism))
                    == dumps(morphism_to_document(theirs.morphism)))
            monkeypatch.undo()
            count += 1
        assert count >= 250

    def test_split_still_rejects_an_algebra_that_keeps_an_extracted_quadruple(self):
        for seed in (3, 5, 9):
            L = random_algebra(seed)
            invariants(L)
            assert set(stored(L)) == {"verify", "quadruple"}
            with pytest.raises(ValueError, match="not a standard-shape algebra"):
                split_normal_form(L)


class TestTheKeptInverse:
    """The morphism of a normal form keeps the inverses of its phi0 and phi1,
    the bases of the splitting: ``inverse`` of it eliminates nothing."""

    def test_it_is_the_inverse_by_elimination(self, monkeypatch, oracle_algebras):
        count = 0
        for L in [*oracle_algebras[1][:30], *oracle_algebras[3][:30],
                  normal_form(random_algebra(5)).algebra]:
            nf = normal_form(L)
            # an equal morphism read back through documents keeps nothing, so
            # its inverse goes by elimination
            copy = morphism_from_document(loads(dumps(morphism_to_document(nf.morphism))))
            assert copy == nf.morphism and stored(copy) == {}
            inverts = counting(monkeypatch, morphisms, "invert")
            ours = inverse(nf.morphism)
            assert inverts == []
            theirs = inverse(copy)
            assert len(inverts) == 2 and ours == theirs
            assert compose(nf.morphism, ours) == identity_morphism(L)
            assert compose(ours, nf.morphism) == identity_morphism(nf.algebra)
            monkeypatch.undo()
            count += 1
        assert count == 61

    def test_a_classify_item_inverts_only_in_transport(self, monkeypatch):
        # the pipeline of one item of the classify benchmark: linalg.invert
        # runs only inside transport (random_algebra's included), twice per
        # call, and linalg.rref once per algebra that is split
        depth, inside, outside = [0], [], []
        real_transport, real_invert = classify._transport, linalg.invert

        def transport_(*args):
            depth[0] += 1
            try:
                return real_transport(*args)
            finally:
                depth[0] -= 1

        def invert_(m):
            (inside if depth[0] else outside).append(m)
            return real_invert(m)

        monkeypatch.setattr(classify, "_transport", transport_)
        for module in (linalg, classify, morphisms):
            monkeypatch.setattr(module, "invert", invert_)
        for seed in (3, 11, 28):
            rng = random.Random(seed)
            L = random_algebra(seed)
            transports = counting(monkeypatch, classify, "_transport")
            splits = counting(monkeypatch, classify, "_splitting")
            rrefs = counting(monkeypatch, classify, "rref")
            M, mor = transport(L, random_invertible(rng, L.n0, 2), random_invertible(rng, L.n1, 2),
                               random_antisymmetric_correction(rng, L.n0, L.n1, 2))
            nf_l, nf_m = normal_form(L), normal_form(M)
            assert normal_form(nf_l.algebra).algebra == nf_l.algebra
            bridge = compose(compose(inverse(nf_l.morphism), mor), nf_m.morphism)
            maps = extract_quadruple_maps(bridge)
            assert certify_isomorphism(L, M, maps.tau, maps.f_u, maps.t_v) is not None
            assert invariants(L) == invariants(M)
            assert len(transports) == 1 and len(splits) == len(rrefs) == 2
        assert outside == [] and len(inside) == 2 * 2 * 3


def fraction_killing_form(g):
    """The `Fraction` loop ``killing_form`` ran before it summed on scaled
    integers: K(e_i, e_j) = sum over s, t of sc[i][s][t] * sc[j][t][s]."""
    n, sc = g.dim, g.sc
    return Matrix.from_rows([[sum((sc[i][s][t] * sc[j][t][s] for s in range(n) for t in range(n)
                                   if sc[i][s][t]), F(0)) for j in range(n)] for i in range(n)],
                            cols=n)


def rebased(g, p):
    """g in the basis of the columns of the invertible matrix ``p``:
    [p e_i, p e_j] written back in that basis, entry by entry."""
    n, inv = g.dim, invert(p)
    cols = [p.column(i) for i in range(n)]

    def bracket(x, y):
        return [sum((x[a] * y[b] * g.sc[a][b][t] for a in range(n) for b in range(n)), F(0))
                for t in range(n)]
    return LieAlgebra(n, [[inv.apply(bracket(cols[i], cols[j])) for j in range(n)]
                          for i in range(n)])


def direct_sum(*names):
    """The direct sum of catalog algebras, block by block."""
    parts = [lie_algebra(name) for name in names]
    n = sum(p.dim for p in parts)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for p in parts:
        for i, j, t in product(range(p.dim), repeat=3):
            sc[off + i][off + j][off + t] = p.sc[i][j][t]
        off += p.dim
    return LieAlgebra(n, sc)


def rescaled_catalog():
    """Every catalog algebra up to dimension 4 (and abelian0) and three
    direct sums with a center, each in its own basis, in a basis scaled by
    distinct 20-digit primes over one another, and in a random rational
    basis."""
    rng = random.Random(24)
    primes = [10**19 + k for k in (51, 87, 91, 97, 99)]   # 20-digit primes
    out = []
    sums = [direct_sum("so3", "abelian1"), direct_sum("nonabelian2", "abelian1"),
            direct_sum("heisenberg3", "nonabelian2")]
    for g in [lie_algebra(name) for name in ("abelian0", *lie_algebra_names(4))] + sums:
        n = g.dim
        scale = [F(primes[i], primes[(i + 1) % n]) * rng.choice((-1, 1)) for i in range(n)]
        diagonal = Matrix.from_rows([[scale[i] if i == j else 0 for j in range(n)]
                                     for i in range(n)], cols=n)
        out += [g, rebased(g, diagonal)]
        while n:
            p = Matrix.from_rows([[F(rng.randint(-4, 4), rng.choice((1, 3, 7, 11)))
                                   for _ in range(n)] for _ in range(n)], cols=n)
            if invert(p) is not None:
                out.append(rebased(g, p))
                break
    return out


def graded_map_morphisms():
    """Morphisms between zero algebras of shapes up to 3 + 3, so any graded
    map is one: square and not, of full rank and not, with coprime
    50-digit denominators in some."""
    rng = random.Random(25)
    big = [10**49 + k for k in (9, 13, 19, 33, 57)]   # pairwise coprime, 50 digits

    def draw(rows, cols):
        kind = rng.randrange(3)
        if kind == 0 and rows and cols:   # rank at most 1
            u, v = ([rng.randint(-3, 3) for _ in range(k)] for k in (rows, cols))
            return Matrix.from_rows([[a * b for b in v] for a in u], cols=cols)
        den = (lambda: rng.choice(big)) if kind == 1 else (lambda: 1)
        return Matrix.from_rows([[F(rng.randint(-3, 3), den()) for _ in range(cols)]
                                 for _ in range(rows)], cols=cols)

    out = []
    for _ in range(150):
        n0, n1 = rng.randint(0, 3), rng.randint(0, 3)
        m0, m1 = (rng.choice((k, k, rng.randint(0, 3))) for k in (n0, n1))
        out.append(Morphism(TwoTermAlgebra.zero(n0, n1), TwoTermAlgebra.zero(m0, m1),
                            draw(m0, n0), draw(m1, n1), zero_tensor((n0, n0, m1))))
    return out


class TestScaledInvariantsAgainstViews:
    """``killing_form``, ``center_dim`` and ``is_isomorphism`` read the stored
    scaled form; each must equal the value computed on `Fraction` entries or
    `Matrix` views."""

    def test_killing_form_against_the_fraction_loop(self):
        algebras = rescaled_catalog()
        assert any(not killing_form(g).is_zero() for g in algebras)
        for g in algebras:
            assert killing_form(g) == fraction_killing_form(g)

    def test_center_dim_against_the_stacked_ad_views(self):
        seen = set()
        for g in rescaled_catalog():
            stacked = Matrix.from_rows([g.ad(i).row(t) for i in range(g.dim)
                                        for t in range(g.dim)], cols=g.dim)
            assert center_dim(g) == g.dim - stacked.rank()
            seen.add((g.dim, center_dim(g)))
        # abelian, centerless and Heisenberg centers and those of the sums occur
        assert {(3, 3), (3, 0), (3, 1), (2, 0), (0, 0), (4, 1), (3, 1), (5, 1)} <= seen

    def test_is_isomorphism_against_the_ranks_of_the_views(self):
        outcomes = set()
        for m in graded_map_morphisms():
            want = all(x.rows == x.cols == x.rank() for x in (m.phi0, m.phi1))
            assert is_isomorphism(m) == want
            outcomes.add((want, m.phi0.rows == m.phi0.cols, m.phi0.rank() == min(
                m.phi0.rows, m.phi0.cols)))
        # invertible, square and singular, and non-square of full rank
        assert {(True, True, True), (False, True, False), (False, False, True)} <= outcomes
        for seed in (0, 6):
            assert is_isomorphism(normal_form(random_algebra(seed)).morphism)


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


def test_readme_quick_tour_runs():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [tour] = [block.split("\n```", 1)[0] for block in readme.split("```python\n")[1:]]
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert namespace["iso"] is not None
