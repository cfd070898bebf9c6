"""Interchange documents: JSON with canonical rational strings.

Rationals travel as strings "p" or "p/q" with q > 0 and gcd(|p|, q) = 1;
negative values carry a leading '-' and there is never a '+'.  Parsing
accepts any valid integer ratio (e.g. "2/4") and canonicalizes on write, so
serialize(parse(doc)) is the canonical form and round-trips bit-exactly on
already canonical documents.  Numbers of any length are written and read,
also past Python's int-to-str digit limit.

Document kinds:

* ``algebra``   : dims + d/b00/b01/jac tensors (and optional metadata);
* ``morphism``  : source/target (inline algebra or file path), phi0/phi1/Phi;
* ``maps``      : chi/fU/tV matrices for isomorphism certification;
* ``transport`` : phi0/phi1/Phi for structure transport.

Matrices and tensors travel as nested lists of rational strings.  A shape
error names the index path of the offending list and the length expected
there (for example ``jac[0][1][2]: expected length 3``).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .linalg import Matrix
from .core import TwoTermAlgebra, _int_text, _rational_text, structure_violations
from .morphisms import Morphism

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?\Z")


class DocumentError(ValueError):
    """Malformed document; the message names the offending location."""


format_rational = _rational_text


def parse_rational(text, where: str) -> Fraction:
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise DocumentError(f"{where}: invalid rational {text!r}")
    num, _, den = text.strip().partition("/")
    d = _int_text(den) if den else 1
    if d == 0:
        raise DocumentError(f"{where}: zero denominator in {text!r}")
    return Fraction(_int_text(num), d)


def _to_lists(t, depth: int) -> list:
    """Nested lists of canonical rational strings for a tensor whose
    entries sit ``depth`` indices deep (a matrix is its rows, depth 2)."""
    if depth == 1:
        return [format_rational(e) for e in t]
    return [_to_lists(sub, depth - 1) for sub in t]


def _parse_tensor(data, shape: tuple[int, ...], where: str):
    """Nested tuples of the rationals in ``data``, which must be nested lists
    of lengths ``shape``; an error names the index path below ``where``."""
    if not isinstance(data, list) or len(data) != shape[0]:
        raise DocumentError(f"{where}: expected length {shape[0]}")
    if len(shape) == 1:
        return tuple([parse_rational(e, f"{where}[{k}]") for k, e in enumerate(data)])
    return tuple([_parse_tensor(sub, shape[1:], f"{where}[{i}]") for i, sub in enumerate(data)])


def _parse_matrix(data, rows: int, cols: int, where: str) -> Matrix:
    entries = _parse_tensor(data, (rows, cols), where)
    return Matrix._trusted(rows, cols, (x for row in entries for x in row))


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------


def algebra_to_document(L: TwoTermAlgebra, name: str | None = None,
                        provenance: str | None = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": "algebra"}
    if name is not None:
        doc["name"] = name
    if provenance is not None:
        doc["provenance"] = provenance
    doc["n0"] = L.n0
    doc["n1"] = L.n1
    doc["d"] = _to_lists(L.d.to_rows(), 2)
    doc["b00"] = _to_lists(L.b00, 3)
    doc["b01"] = _to_lists(L.b01, 3)
    doc["jac"] = _to_lists(L.jac, 4)
    return doc


def _check_header(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(
            f"format_version: expected {FORMAT_VERSION!r}, got {doc.get('format_version')!r}"
        )
    if doc.get("kind") != kind:
        raise DocumentError(f"kind: expected {kind!r}, got {doc.get('kind')!r}")


def algebra_from_document(doc: dict) -> TwoTermAlgebra:
    """Parse and structurally validate an algebra document.

    Shape errors and antisymmetry violations raise DocumentError with the
    offending location; equation failures are not checked here.
    """
    _check_header(doc, "algebra")
    n0, n1 = doc.get("n0"), doc.get("n1")
    # bool is an int subclass; 1.9, true and "1" are not dimensions
    if type(n0) is not int or type(n1) is not int:
        raise DocumentError(f"n0/n1: expected JSON integers, got {n0!r}, {n1!r}")
    if n0 < 0 or n1 < 0:
        raise DocumentError("n0/n1 must be nonnegative")
    for key in ("d", "b00", "b01", "jac"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    d = _parse_matrix(doc["d"], n0, n1, "d")
    b00 = _parse_tensor(doc["b00"], (n0, n0, n0), "b00")
    b01 = _parse_tensor(doc["b01"], (n0, n1, n1), "b01")
    jac = _parse_tensor(doc["jac"], (n0, n0, n0, n1), "jac")
    L = TwoTermAlgebra._trusted(n0, n1, d, b00, b01, jac)
    violations = structure_violations(L)
    if violations:
        raise DocumentError(violations[0])
    return L


# ---------------------------------------------------------------------------
# morphism documents
# ---------------------------------------------------------------------------


def morphism_to_document(m: Morphism, source_path: str | None = None,
                         target_path: str | None = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": "morphism"}
    doc["source"] = algebra_to_document(m.source) if source_path is None else source_path
    doc["target"] = algebra_to_document(m.target) if target_path is None else target_path
    doc["phi0"] = _to_lists(m.phi0.to_rows(), 2)
    doc["phi1"] = _to_lists(m.phi1.to_rows(), 2)
    doc["Phi"] = _to_lists(m.Phi, 3)
    return doc


def _resolve_algebra_ref(ref, base_dir: str, where: str) -> TwoTermAlgebra:
    if isinstance(ref, dict):
        return algebra_from_document(ref)
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return load_algebra(path)
    raise DocumentError(f"{where}: must be an inline algebra document or a file path")


def morphism_from_document(doc: dict, base_dir: str = ".") -> Morphism:
    _check_header(doc, "morphism")
    source = _resolve_algebra_ref(doc.get("source"), base_dir, "source")
    target = _resolve_algebra_ref(doc.get("target"), base_dir, "target")
    phi0 = _parse_matrix(doc.get("phi0"), target.n0, source.n0, "phi0")
    phi1 = _parse_matrix(doc.get("phi1"), target.n1, source.n1, "phi1")
    Phi = _parse_tensor(doc.get("Phi"), (source.n0, source.n0, target.n1), "Phi")
    return Morphism(source, target, phi0, phi1, Phi)


# ---------------------------------------------------------------------------
# map documents
# ---------------------------------------------------------------------------


def maps_to_document(chi: Matrix, f_u: Matrix, t_v: Matrix) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "maps",
        "chi": _to_lists(chi.to_rows(), 2),
        "fU": _to_lists(f_u.to_rows(), 2),
        "tV": _to_lists(t_v.to_rows(), 2),
    }


def maps_from_document(doc: dict) -> tuple[Matrix, Matrix, Matrix]:
    _check_header(doc, "maps")
    out = []
    for key in ("chi", "fU", "tV"):
        data = doc.get(key)
        if not isinstance(data, list):
            raise DocumentError(f"{key}: expected a matrix (list of rows)")
        if data and not isinstance(data[0], list):
            raise DocumentError(f"{key}[0]: expected a row (list of entries)")
        rows = len(data)
        cols = len(data[0]) if rows else 0
        out.append(_parse_matrix(data, rows, cols, key))
    return tuple(out)


def transport_to_document(phi0: Matrix, phi1: Matrix, Phi) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "transport",
        "phi0": _to_lists(phi0.to_rows(), 2),
        "phi1": _to_lists(phi1.to_rows(), 2),
        "Phi": _to_lists(Phi, 3),
    }


def transport_from_document(doc: dict, L: TwoTermAlgebra):
    _check_header(doc, "transport")
    phi0 = _parse_matrix(doc.get("phi0"), L.n0, L.n0, "phi0")
    phi1 = _parse_matrix(doc.get("phi1"), L.n1, L.n1, "phi1")
    Phi = _parse_tensor(doc.get("Phi"), (L.n0, L.n0, L.n1), "Phi")
    return phi0, phi1, Phi


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from None


def load_algebra(path: str) -> TwoTermAlgebra:
    return algebra_from_document(load_document(path))


def load_morphism(path: str) -> Morphism:
    return morphism_from_document(load_document(path), base_dir=os.path.dirname(path) or ".")


def save_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
