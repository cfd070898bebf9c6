"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or on failure).  All tolerances are exact: the arithmetic is
rational, so every assertion is equality, not approximation.

Run with::

    pytest tests/test_acceptance.py -v
"""

import glob
import os
import random
import time

from lie2alg import (
    Cochain,
    Matrix,
    Quadruple,
    adjoint_rep,
    certify_isomorphism,
    cohomology_dim,
    compose,
    delta_matrix,
    distinguish,
    example27_automorphism,
    extract_quadruple_maps,
    extract_triple,
    decompose,
    homology_dims,
    identity_morphism,
    invariants,
    inverse,
    is_cocycle,
    is_isomorphism,
    normal_form,
    normal_form_algebra,
    quaternion_example,
    skeletal_string,
    skeleton,
    so3,
    transport,
    verify,
    verify_morphism,
)
from lie2alg.builders import (
    catalog_pairs,
    random_antisymmetric_correction,
    random_invertible,
)
from lie2alg.cli import main
from lie2alg.core import zero_tensor
from lie2alg.documents import (
    algebra_from_document,
    algebra_to_document,
    dumps,
    loads,
    maps_from_document,
    maps_to_document,
)
from test_cohomology import oracle_delta_matrix

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(n, label, ok):
    print(f"ACCEPTANCE {n:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_quaternion_validity():
    ok = True
    for v in ("0", "1", "i", "1+2i+3j+5k"):
        L = quaternion_example(v)
        start = time.monotonic()
        result = verify(L)
        elapsed = time.monotonic() - start
        ok = ok and result.passed and elapsed < 1.0
    report(1, "quaternion example validity", ok)


def test_criterion_02_automorphism_reproduction():
    ok = True
    for v in ("0", "1", "i", "1+2i+3j+5k"):
        m = example27_automorphism(v)
        ok = ok and verify_morphism(m).passed and is_isomorphism(m)
        inv = inverse(m)
        ok = ok and inv is not None
        ok = ok and compose(m, inv) == identity_morphism(m.source)
    report(2, "quaternionic automorphism", ok)


def test_criterion_03_differential_squares_to_zero():
    ok = True
    for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
        for n in range(0, g.dim + 1):
            if not (delta_matrix(n + 1, rep) @ delta_matrix(n, rep)).is_zero():
                ok = False
    report(3, "differential squares to zero", ok)


def _oracle_cohomology_dims(rep, top):
    """Independent route: brute-force matrices of the classical
    alternating-sum differential, then exact rank arithmetic."""
    dims = []
    for n in range(top + 1):
        dn = oracle_delta_matrix(n, rep)
        rank_prev = oracle_delta_matrix(n - 1, rep).rank() if n >= 1 else 0
        dims.append(dn.cols - dn.rank() - rank_prev)
    return dims


def test_criterion_04_cohomology_dimensions():
    from lie2alg import abelian, trivial_rep

    ok = True
    cases = [
        (trivial_rep(so3(), 1), 3, [1, 0, 0, 1]),
        (adjoint_rep(so3()), 3, [0, 0, 0, 0]),
        (trivial_rep(abelian(2), 1), 2, [1, 2, 1]),
    ]
    for rep, top, expected in cases:
        engine = [cohomology_dim(n, rep) for n in range(top + 1)]
        oracle = _oracle_cohomology_dims(rep, top)
        ok = ok and engine == expected == oracle
    report(4, "cohomology dimensions", ok)


def test_criterion_05_extraction_laws(corpus_1000):
    failures = 0
    for L in corpus_1000:
        try:
            # Lie algebra and representation constructors re-check the
            # Jacobi identity and the representation law; the cocycle
            # condition is asserted explicitly on top
            q = extract_triple(L, decompose(L))
            if not is_cocycle(q.jtilde, q.rep):
                failures += 1
        except ValueError:
            failures += 1
    report(5, "extracted triples satisfy all laws (1000 instances)", failures == 0)


def test_criterion_06_normal_form_isomorphisms(corpus_1000):
    start = time.monotonic()
    ok = True
    for L in corpus_1000:
        res = normal_form(L)
        mreport = verify_morphism(res.morphism)
        ok = ok and mreport.passed and is_isomorphism(res.morphism)
        again = normal_form(res.algebra)
        ok = ok and again.algebra == res.algebra
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(6, f"normal forms verified and idempotent in {elapsed:.1f}s", ok)


def test_criterion_07_transport_soundness(corpus_1000):
    rng = random.Random(2024)
    ok = True
    for L in corpus_1000[:500]:
        phi0 = random_invertible(rng, L.n0, 2)
        phi1 = random_invertible(rng, L.n1, 2)
        corr = random_antisymmetric_correction(rng, L.n0, L.n1, 2)
        out, mor = transport(L, phi0, phi1, corr)
        ok = ok and verify(out).passed and verify_morphism(mor).passed
        ok = ok and homology_dims(out) == homology_dims(L)
    report(7, "transport soundness (500 instances)", ok)


def test_criterion_08_certification_positive():
    ok = True
    g1 = skeletal_string(so3(), 1)
    for lam in (2, 3):
        gl = skeletal_string(so3(), lam)
        iso = certify_isomorphism(
            g1, gl, Matrix.identity(3), Matrix.zero(0, 0), Matrix.from_rows([[lam]])
        )
        ok = ok and iso is not None and verify_morphism(iso).passed
        maps = extract_quadruple_maps(iso)
        ok = ok and maps.tau == Matrix.identity(3)
        ok = ok and maps.f_u == Matrix.zero(0, 0)
        ok = ok and maps.t_v == Matrix.from_rows([[lam]])
    report(8, "positive certification with exact round-trip", ok)


def test_criterion_09_classification_negative():
    ok = True
    ok = ok and distinguish(
        skeletal_string(so3(), 0), skeletal_string(so3(), 1)
    ) == "Jtilde coboundary flag"

    g = so3()
    rep = adjoint_rep(g)
    zero = Cochain.zero(3, g, 3)
    small = normal_form_algebra(Quadruple(g, 1, rep, zero))
    large = normal_form_algebra(Quadruple(g, 2, rep, zero))
    ok = ok and skeleton(small) == skeleton(large)
    ok = ok and distinguish(small, large) == "dim U"
    report(9, "negative classification (flag and transported dimension)", ok)


def test_criterion_10_decomposition_independence(corpus_100):
    rng = random.Random(99)
    ok = True
    for L in corpus_100:
        order0 = list(range(L.n0))
        order1 = list(range(L.n1))
        rng.shuffle(order0)
        rng.shuffle(order1)
        p0 = Matrix.from_rows(
            [[int(order0[j] == i) for j in range(L.n0)] for i in range(L.n0)],
            cols=L.n0,
        )
        p1 = Matrix.from_rows(
            [[int(order1[j] == i) for j in range(L.n1)] for i in range(L.n1)],
            cols=L.n1,
        )
        permuted, mover = transport(L, p0, p1, zero_tensor((L.n0, L.n0, L.n1)))
        res_a = normal_form(L)
        res_b = normal_form(permuted)
        bridge = compose(compose(inverse(res_a.morphism), mover), res_b.morphism)
        ok = ok and verify_morphism(bridge).passed and is_isomorphism(bridge)
        ok = ok and invariants(L) == invariants(permuted)
    report(10, "decomposition independence (100 instances)", ok)


def test_criterion_11_cli_goldens(capsys):
    ok = True
    for doc_name, golden in (
        ("quaternion.json", "quaternion.invariants.txt"),
        ("skeletal_string_so3_k1.json", "skeletal_string_so3_k1.invariants.txt"),
    ):
        code = main(["invariants", os.path.join(DATA, doc_name)])
        out = capsys.readouterr().out
        with open(os.path.join(DATA, golden)) as fh:
            ok = ok and code == 0 and out == fh.read()

    for path in sorted(glob.glob(os.path.join(DATA, "*.json"))):
        with open(path) as fh:
            text = fh.read()
        doc = loads(text)
        if doc["kind"] == "algebra":
            rebuilt = dict(
                algebra_to_document(
                    algebra_from_document(doc),
                    name=doc.get("name"),
                    provenance=doc.get("provenance"),
                )
            )
            ok = ok and dumps(rebuilt) == text
        elif doc["kind"] == "maps":
            chi, f_u, t_v = maps_from_document(doc)
            ok = ok and dumps(maps_to_document(chi, f_u, t_v)) == text
    with capsys.disabled():
        report(11, "CLI golden outputs and document round-trips", ok)
