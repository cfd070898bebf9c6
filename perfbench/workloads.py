"""The four benchmark workloads: seeded inputs, one item each, output checks.

Every workload is a closed loop with one client: ``run_item`` is called on
one item at a time and the next item starts when it returns.  An item
returns an ``Outcome``: the list of checks that failed (empty when the item
passed) and the digest parts that pin its outputs byte for byte.

Inputs come in decks.  A deck holds one item per stratum of the workload's
input space (catalog algebra, representation, dimension of U, subcommand,
...), so that the cost mix of a run does not depend on which seeds the
random draws hit; ``run.py`` measures whole decks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from lie2alg import (
    Cochain,
    LieAlgebra,
    RandomProfile,
    certify_isomorphism,
    cohomologous,
    cohomology_basis,
    cohomology_dim,
    compose,
    delta,
    extract_quadruple_maps,
    homology_dims,
    invariants,
    inverse,
    is_coboundary,
    is_isomorphism,
    lie_algebra,
    normal_form,
    pullback_representation,
    random_algebra,
    representation,
    transport,
    TwoTermAlgebra,
    verify,
    Matrix,
)
from lie2alg import documents
from lie2alg.builders import random_antisymmetric_correction, random_invertible

DEFAULT_SEED = 0
PROFILE = RandomProfile()


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    digest: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def digest_of(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        for part in out.digest:
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


class Workload:
    """Interface of a workload; ``run.py`` drives it."""

    name = ""

    def setup(self, seed: int) -> None:
        """Make inputs that outlive one item (only ``cli`` has any)."""

    def deck(self, seed: int, k: int) -> list:
        """Deck number ``k`` of the items for ``seed``."""
        raise NotImplementedError

    def warmup_item(self, seed: int):
        """The item run once during set-up."""
        raise NotImplementedError

    def digest_items(self) -> list:
        """Fixed items whose outputs the recorded digest pins."""
        raise NotImplementedError

    def run_item(self, item) -> Outcome:
        raise NotImplementedError


def transport_maps(rng: random.Random, n0: int, n1: int, bound: int = 2):
    """A seeded random graded isomorphism with an antisymmetric correction,
    drawn by the library's own builders, as ``random_algebra`` draws one."""
    return (random_invertible(rng, n0, bound), random_invertible(rng, n1, bound),
            random_antisymmetric_correction(rng, n0, n1, bound))


# ---------------------------------------------------------------------------
# random-algebra strata (classify, transport-chain)
# ---------------------------------------------------------------------------


def _catalog_draws(seed: int):
    """The catalog picks that ``random_algebra(seed)`` makes with the default
    profile: its first three draws from ``random.Random(seed)``.

    Used only to sort candidate seeds into strata; a wrong guess would make
    a deck less balanced, never an item wrong.
    """
    rng = random.Random(seed)
    return (
        rng.choice(PROFILE.algebras),
        rng.choice(PROFILE.representations),
        rng.randint(0, PROFILE.max_dim_u),
    )


# Every (algebra, representation, dim U) of the default profile: 54 strata.
STRATA = [(a, r, u) for a in PROFILE.algebras for r in PROFILE.representations
          for u in range(PROFILE.max_dim_u + 1)]


def _seeded_deck(tag: str, seed: int, deck: int, strata=STRATA):
    """One ``(random_algebra seed, map seed, stratum)`` per stratum."""
    rng = random.Random(f"{tag}:{seed}:{deck}")
    found = {}
    while len(found) < len(strata):
        cand = rng.randrange(1 << 31)
        key = _catalog_draws(cand)
        if key in strata and key not in found:
            found[key] = (cand, rng.randrange(1 << 31))
    return [found[s] + (s,) for s in strata]


def _stratum_item(wl, stratum):
    """The default-seed item of one stratum: a warm-up that costs the same
    whatever the run's seed."""
    return next(it for it in wl.deck(DEFAULT_SEED, 0) if it[2] == stratum)


def _seed_of_stratum(rng: random.Random, stratum) -> int:
    while True:
        cand = rng.randrange(1 << 31)
        if _catalog_draws(cand) == stratum:
            return cand


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


class Classify(Workload):
    """The paper's main pipeline with certificates in both directions."""

    name = "classify"
    # 53 strata: an odd count puts the median item inside one stratum, not in
    # the gap between two; the one left out is the 1+1 algebra, which costs
    # almost nothing
    strata = [s for s in STRATA if s != ("abelian1", "trivial1", 0)]

    def deck(self, seed: int, k: int):
        return _seeded_deck(self.name, seed, k, self.strata)

    def warmup_item(self, seed: int):
        return _stratum_item(self, ("so3", "adjoint", 1))

    def digest_items(self):
        return [it for it in self.deck(DEFAULT_SEED, 0)
                if it[2][2] == 1 and it[2][1] != "adjoint"]

    def run_item(self, item) -> Outcome:
        ra_seed, map_seed, _ = item
        out = Outcome()
        L = random_algebra(ra_seed)
        phi0, phi1, corr = transport_maps(random.Random(map_seed), L.n0, L.n1)
        M, mor = transport(L, phi0, phi1, corr)
        out.check(verify(L).passed, "verify(L)")
        out.check(verify(M).passed, "verify(M)")
        if out.problems:        # the rest of the pipeline assumes valid algebras
            return out

        nf_l = normal_form(L)
        nf_m = normal_form(M)
        again = normal_form(nf_l.algebra)
        out.check(again.algebra == nf_l.algebra, "normal_form idempotent")

        # NF(L) -> L -> M -> NF(M): an isomorphism of standard shapes
        bridge = compose(compose(inverse(nf_l.morphism), mor), nf_m.morphism)
        maps = extract_quadruple_maps(bridge)
        iso = certify_isomorphism(L, M, maps.tau, maps.f_u, maps.t_v)
        out.check(iso is not None and is_isomorphism(iso)
                  and iso.source == L and iso.target == M, "certify_isomorphism")

        inv_l = invariants(L)
        out.check(inv_l == invariants(M), "invariants(L) == invariants(M)")

        text = documents.dumps(documents.algebra_to_document(nf_l.algebra))
        back = documents.algebra_from_document(documents.loads(text))
        out.check(back == nf_l.algebra, "normal form document round trip")
        out.check(documents.dumps(documents.algebra_to_document(back)) == text,
                  "normal form document bytes stable")
        out.digest += [text, "\n".join(inv_l.lines())]
        return out


# ---------------------------------------------------------------------------
# transport-chain
# ---------------------------------------------------------------------------


class TransportChain(Workload):
    """Long chains of transports: the same contraction and verification
    code as ``classify``, on rationals that grow with every step."""

    name = "transport-chain"
    steps = (10, 11, 12)
    # trivial2 coefficients are left out: on a 2-vCPU Xeon guest a deck of
    # all 54 strata takes 30 to 40 s, these 36 about 20 s
    strata = [s for s in STRATA if s[1] != "trivial2"]

    def deck(self, seed: int, k: int):
        items = _seeded_deck(self.name, seed, k, self.strata)
        return [it + (self.steps[i % len(self.steps)],) for i, it in enumerate(items)]

    def warmup_item(self, seed: int):
        return _stratum_item(self, ("so3", "adjoint", 1))

    def digest_items(self):
        return [it for it in self.deck(DEFAULT_SEED, 0) if it[2][1:] == ("trivial1", 1)]

    def run_item(self, item) -> Outcome:
        ra_seed, map_seed, _, steps = item
        out = Outcome()
        start = random_algebra(ra_seed)
        rng = random.Random(map_seed)
        L = start
        for _ in range(steps):
            L, _ = transport(L, *transport_maps(rng, L.n0, L.n1))
        out.check(verify(L).passed, "verify(final)")
        out.check(homology_dims(L) == homology_dims(start), "homology_dims preserved")
        inv = invariants(L)
        out.check(inv == invariants(start), "invariants preserved")
        out.digest += [documents.dumps(documents.algebra_to_document(L)),
                       "\n".join(inv.lines())]
        return out


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

# Trivial-coefficient Betti numbers of the catalog factors, for Kunneth.
_FACTOR_BETTI = {
    "so3": (1, 0, 0, 1),
    "sl2": (1, 0, 0, 1),
    "heisenberg3": (1, 2, 2, 1),
    "nonabelian2": (1, 1, 0),
    "abelian1": (1, 1),
    "abelian2": (1, 2, 1),
}

# (summands, coefficients).  The 6-dimensional sums with adjoint
# coefficients cost 4 to 7 s an item on a 2-vCPU Xeon guest; only
# heisenberg3+heisenberg3 is kept, so that one deck takes a few seconds and
# a run sees every stratum.  An odd number of strata puts the median item
# inside one stratum, not in the gap between two.
_COHOMOLOGY_STRATA = (
    (("so3", "so3"), "trivial1"),
    (("so3", "sl2"), "trivial1"),
    (("heisenberg3", "heisenberg3"), "trivial1"),
    (("heisenberg3", "heisenberg3"), "adjoint"),
    (("heisenberg3", "abelian2"), "trivial1"),
    (("heisenberg3", "abelian2"), "adjoint"),
    (("heisenberg3", "abelian2"), "adjoint+trivial1"),
    (("nonabelian2", "sl2"), "trivial1"),
    (("nonabelian2", "sl2"), "adjoint"),
    (("nonabelian2", "sl2"), "adjoint+trivial1"),
    (("nonabelian2", "nonabelian2"), "trivial1"),
    (("so3", "abelian1"), "trivial1"),
    (("so3", "abelian1"), "adjoint+trivial1"),
)


def kunneth(a, b):
    """Betti numbers of a direct sum from those of its summands."""
    out = [0] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            out[p + q] += x * y
    return tuple(out)


def direct_sum(names, rng: random.Random):
    """The direct sum of catalog algebras in a seeded diagonal basis.

    Basis vector i is scaled by d_i in {-2, -1, 1, 2}: the constants keep
    their sparsity pattern, and so the cost of elimination, but differ from
    item to item, so no two items share a Lie algebra or a representation.
    Returns the algebra and the scales.
    """
    parts = [lie_algebra(n) for n in names]
    n = sum(p.dim for p in parts)
    old = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for p in parts:
        for i in range(p.dim):
            for j in range(p.dim):
                for t in range(p.dim):
                    old[off + i][off + j][off + t] = p.sc[i][j][t]
        off += p.dim
    d = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    sc = [[[Fraction(d[i] * d[j], d[t]) * old[i][j][t] for t in range(n)]
           for j in range(n)] for i in range(n)]
    return LieAlgebra(n, sc), d


def swap_map(d) -> Matrix:
    """The map exchanging the two equal summands, in the scaled basis."""
    n = len(d)
    cols = []
    for i in range(n):
        j = (i + n // 2) % n
        col = [Fraction(0)] * n
        col[j] = Fraction(d[i], d[j])
        cols.append(col)
    return Matrix.from_columns(cols, rows=n)


def random_cochain(rng: random.Random, n: int, g, dim_v: int) -> Cochain:
    values = {key: tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim_v))
              for key in combinations(range(g.dim), n)}
    return Cochain(n, g, dim_v, values)


def _cochain_sub(a: Cochain, b: Cochain) -> Cochain:
    return Cochain(a.n, a.g, a.dimV, {k: tuple(x - y for x, y in zip(a.values[k], b.values[k]))
                                      for k in a.values})


class Cohomology(Workload):
    """Chevalley-Eilenberg cohomology of 4- to 6-dimensional direct sums."""

    name = "cohomology"

    def deck(self, seed: int, k: int):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        return [(names, rep, rng.randrange(1 << 31)) for names, rep in _COHOMOLOGY_STRATA]

    def warmup_item(self, seed: int):
        return next(it for it in self.deck(DEFAULT_SEED, 1)
                    if it[:2] == (("heisenberg3", "abelian2"), "adjoint"))

    def digest_items(self):
        return [it for it in self.deck(DEFAULT_SEED, 0)
                if it[1] == "trivial1" or it[0] == ("so3", "abelian1")]

    def run_item(self, item) -> Outcome:
        names, rep_name, seed = item
        rng = random.Random(seed)
        out = Outcome()
        g, scales = direct_sum(names, rng)
        rep = representation(g, rep_name)

        dims = tuple(cohomology_dim(n, rep) for n in range(g.dim + 1))
        out.check(sum((-1) ** n * h for n, h in enumerate(dims)) == 0, "Euler characteristic")
        if rep_name == "trivial1":
            expected = kunneth(*(_FACTOR_BETTI[n] for n in names))
            out.check(dims == expected, f"Kunneth {dims} != {expected}")
        basis3 = cohomology_basis(3, rep)
        out.check(len(basis3) == dims[3], "len(cohomology_basis(3)) == dim H^3")

        for n in range(g.dim - 1):
            c = random_cochain(rng, n, g, rep.dimV)
            out.check(delta(delta(c, rep), rep).is_zero(), f"delta o delta = 0 in degree {n}")

        exact = delta(random_cochain(rng, 2, g, rep.dimV), rep)
        prim = is_coboundary(exact, rep)
        out.check(prim is not None and delta(prim, rep) == exact, "primitive of a coboundary")

        coeffs = [rng.randint(-2, 2) for _ in basis3]
        z = exact
        for c, b in zip(coeffs, basis3):
            z = Cochain(3, g, rep.dimV, {
                k: tuple(x + c * y for x, y in zip(z.values[k], b.values[k])) for k in z.values})
        prim_z = is_coboundary(z, rep)
        out.check((prim_z is None) == any(coeffs), "coboundary decision on a seeded cocycle")
        if prim_z is not None:
            out.check(delta(prim_z, rep) == z, "primitive of a seeded cocycle")

        if names[0] == names[1] and rep_name == "trivial1":
            out.check(self._cohomologous(g, rep, z, swap_map(scales), rng), "cohomologous")

        out.digest += [f"{names} {rep_name} dims={dims}",
                       repr([sorted(b.values.items()) for b in basis3]),
                       repr(sorted(prim.values.items())) if prim is not None else "None"]
        return out

    @staticmethod
    def _cohomologous(g, rep, J, psi, rng) -> bool:
        """K is J pulled back through the swap, less a seeded coboundary, so a
        witness exists; the returned witness must satisfy its equation."""
        pulled = pullback_representation(rep, psi, g)
        shifted = _cochain_sub(J, delta(random_cochain(rng, 2, g, rep.dimV), rep))
        cols = [psi.column(i) for i in range(g.dim)]
        K = Cochain(3, g, rep.dimV, {key: shifted.evaluate([cols[i] for i in key])
                                     for key in combinations(range(g.dim), 3)})
        t = Matrix.identity(rep.dimV)
        phi = cohomologous(J, K, psi, t, rep, pulled)
        if phi is None:
            return False
        lhs = Cochain(3, g, rep.dimV, {
            key: tuple(x - y for x, y in zip(t.apply(J.values[key]),
                                             K.evaluate([cols[i] for i in key])))
            for key in combinations(range(g.dim), 3)})
        return lhs == delta(phi, pulled)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One ``python -m lie2alg.cli`` invocation and what it must produce."""

    name: str
    argv: tuple
    exit_code: int
    stdout: str | None = None           # None: not compared (malformed input)
    out_file: tuple | None = None       # (path, expected content)
    malformed: bool = False
    known_defect: bool = False          # fails on the parent code; see README


class Cli(Workload):
    """Cold command-line calls on documents written during setup."""

    name = "cli"
    CHILD_TIMEOUT_S = 60
    TRACE_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_child.py")

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.trace_dir = None            # set: run children under the tracer
        self.children = 0
        self.peak_rss_kb = 0
        self._calls = {}

    def setup(self, seed: int):
        self._calls[seed] = self._write_documents(seed)

    def deck(self, seed: int, k: int):
        return self._calls[seed]

    def warmup_item(self, seed: int):
        return next(c for c in self._calls[seed] if c.name == "verify")

    def digest_items(self):
        if DEFAULT_SEED not in self._calls:
            self.setup(DEFAULT_SEED)
        return [c for c in self._calls[DEFAULT_SEED] if not c.malformed]

    def _write_documents(self, seed: int):
        from lie2alg import cli

        rng = random.Random(f"{self.name}:{seed}")
        base = os.path.join(self.workdir, f"seed{seed}")
        os.makedirs(base, exist_ok=True)

        def path(name):
            return os.path.join(base, name)

        def save(name, doc_or_text):
            text = doc_or_text if isinstance(doc_or_text, str) else documents.dumps(doc_or_text)
            with open(path(name), "w", encoding="utf-8") as fh:
                fh.write(text)
            return path(name)

        # A: a random 4+4 algebra; B: A moved by a seeded transport; C: a
        # 2+1 algebra that the invariants tell apart from A.  The shapes are
        # fixed so that the cost of a call does not depend on the seed.
        A = random_algebra(_seed_of_stratum(rng, ("so3", "adjoint", 1)))
        C = random_algebra(_seed_of_stratum(rng, ("abelian2", "trivial1", 0)))
        phi0, phi1, corr = transport_maps(rng, A.n0, A.n1)
        B, mor = transport(A, phi0, phi1, corr)
        a, b, c = (save(f"{k}.json", documents.algebra_to_document(x))
                   for k, x in (("A", A), ("B", B), ("C", C)))
        t_doc = save("transport.json", documents.transport_to_document(phi0, phi1, corr))

        nf_a, nf_b = normal_form(A), normal_form(B)
        bridge = compose(compose(inverse(nf_a.morphism), mor), nf_b.morphism)
        maps = extract_quadruple_maps(bridge)
        m_doc = save("maps.json", documents.maps_to_document(maps.tau, maps.f_u, maps.t_v))

        lie_name = rng.choice(("heisenberg3", "so3", "sl2"))
        rep_name = "adjoint+trivial1"
        degree = rng.randint(1, 3)
        g = lie_algebra(lie_name)
        lie_doc = {"format_version": "1", "kind": "algebra", "n0": g.dim, "n1": 0,
                   "d": [[] for _ in range(g.dim)],
                   "b00": [[[str(x) for x in row] for row in plane] for plane in g.sc],
                   "b01": [[] for _ in range(g.dim)],
                   "jac": [[[[] for _ in range(g.dim)] for _ in range(g.dim)]
                           for _ in range(g.dim)]}
        lie = save("lie.json", lie_doc)

        # an algebra that parses; a bracket off by one almost always breaks an
        # equation, and the expected answer is the library's either way
        bad_b00 = [[list(row) for row in plane] for plane in A.b00]
        i, j, t = 0, 1, rng.randrange(A.n0)
        bad_b00[i][j][t] += 1
        bad_b00[j][i][t] -= 1
        Bad = TwoTermAlgebra(A.n0, A.n1, A.d, bad_b00, A.b01, A.jac)
        bad = save("bad_equations.json", documents.algebra_to_document(Bad))

        # malformed inputs: three parse errors the CLI handles, and the three
        # defects listed in ROADMAP item 4
        a_doc = documents.algebra_to_document(A)
        text = documents.dumps(a_doc)
        truncated = save("truncated.json", text[: len(text) // 2])
        wrong_kind = save("wrong_kind.json", {**a_doc, "kind": "morphism"})
        asym = documents.algebra_to_document(A)
        asym["b00"][0][0][rng.randrange(A.n0)] = "1"       # [e0, e0] must vanish
        asym_path = save("antisymmetry.json", asym)
        nonlist = save("maps_nonlist_row.json",
                       {**documents.maps_to_document(maps.tau, maps.f_u, maps.t_v),
                        "chi": [5] * max(1, maps.tau.rows)})
        depth = 50_000 + rng.randrange(1000)
        deep = save("deep.json", "[" * depth + "]" * depth)
        one = documents.algebra_to_document(TwoTermAlgebra.zero(1, rng.randint(1, 3)))
        float_n0 = save("n0_float.json", {**one, "n0": 1.9})

        def well_formed(name, *argv, out=None):
            """A call whose expected exit code, stdout and ``--out`` document
            are those of the same call to ``lie2alg.cli.main`` in process."""
            if out is not None:
                argv += ("--out", out)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(argv))
            out_file = None
            if out is not None:
                with open(out, encoding="utf-8") as fh:
                    out_file = (out, fh.read())
            return Call(name, argv, code, stdout.getvalue(), out_file)

        return [
            well_formed("verify", "verify", a),
            well_formed("verify", "verify", b),
            well_formed("verify", "verify", bad),
            well_formed("invariants", "invariants", a),
            well_formed("normalize", "normalize", a, out=path("nf.json")),
            well_formed("compare", "compare", a, b),
            well_formed("compare", "compare", a, c),
            well_formed("compare-maps", "compare", a, b, "--maps", m_doc, out=path("iso.json")),
            well_formed("transport", "transport", a, t_doc),
            well_formed("cohomology", "cohomology", lie, rep_name, str(degree)),
            Call("malformed", ("verify", truncated), 2, malformed=True),
            Call("malformed", ("invariants", wrong_kind), 2, malformed=True),
            Call("malformed", ("verify", asym_path), 2, malformed=True),
            Call("malformed", ("compare", a, b, "--maps", nonlist), 2,
                 malformed=True, known_defect=True),
            Call("malformed", ("verify", deep), 2, malformed=True, known_defect=True),
            Call("malformed", ("verify", float_n0), 2, malformed=True, known_defect=True),
        ]

    def run_item(self, call: Call) -> Outcome:
        out = Outcome()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "lie2alg.cli", *call.argv]
        else:
            self.children += 1
            stats = os.path.join(self.trace_dir, f"child-{self.children}.json")
            argv = [sys.executable, self.TRACE_CHILD, stats, *call.argv]
        if call.out_file is not None and os.path.exists(call.out_file[0]):
            os.remove(call.out_file[0])
        stdout_path = os.path.join(self.workdir, "stdout")
        stderr_path = os.path.join(self.workdir, "stderr")
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            proc = subprocess.Popen(argv, stdout=so, stderr=se, stdin=subprocess.DEVNULL, env=env)
            proc.returncode, usage = _wait_child(proc, self.CHILD_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        where = f"{call.name} {' '.join(os.path.basename(x) for x in call.argv)}"
        out.check(proc.returncode == call.exit_code,
                  f"{where}: exit {proc.returncode}, expected {call.exit_code}")
        out.check("Traceback" not in stderr, f"{where}: traceback on stderr")
        if call.stdout is not None:
            out.check(stdout == call.stdout, f"{where}: stdout differs from the library result")
            out.digest.append(stdout)
        if call.out_file is not None:
            target, expected = call.out_file
            try:
                with open(target, encoding="utf-8") as fh:
                    written = fh.read()
            except OSError:
                written = None
            out.check(written == expected, f"{where}: --out document differs")
            out.digest.append(written or "")
        return out


def _wait_child(proc, timeout: float):
    """Exit code and resource usage of a child, killed after ``timeout``."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage


def make(name: str, workdir: str):
    if name == "cli":
        return Cli(workdir)
    return {"classify": Classify, "transport-chain": TransportChain,
            "cohomology": Cohomology}[name]()


WORKLOADS = ("classify", "transport-chain", "cohomology", "cli")
