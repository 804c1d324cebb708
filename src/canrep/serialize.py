"""JSON (de)serialization for algebras, representations, and morphisms.

Scalars travel as exact strings ("3", "-3/4", "(t^2+1)/(t-3)"); emitted
documents carry a top-level "canrep_format": 1 version marker.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError
from .exactla import Matrix
from .quiver_algebra import CanonicalAlgebra, algebra_from_spec
from .repcat import Morphism, Representation

FORMAT_VERSION = 1


def matrix_to_json(m: Matrix):
    F = m.field
    return [[F.to_str(x) for x in row] for row in m.data]


def matrix_from_json(field, rows: int, cols: int, data) -> Matrix:
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in data)):
        raise ParseError("matrix data has the wrong shape")
    return Matrix(field, rows, cols,
                  [[field.parse(str(x)) for x in row] for row in data])


def rep_to_json(rep: Representation, include_algebra: bool = True) -> dict:
    out = {
        "canrep_format": FORMAT_VERSION,
        "dims": {v: rep.dims[v] for v in rep.algebra.vertices},
        "arrows": {a.label: matrix_to_json(rep.arrows[a.label])
                   for a in rep.algebra.arrows},
    }
    if include_algebra:
        out["algebra"] = rep.algebra.spec()
    return out


def _dim(d) -> int:
    """A dimension: a JSON integer or integer string, never a bool, a float or negative."""
    if isinstance(d, (bool, float)) or int(d) < 0:
        raise ValueError(f"{d!r} is not a nonnegative integer")
    return int(d)


def rep_from_json(data: dict, algebra: CanonicalAlgebra | None = None) -> Representation:
    """The representation of a JSON document, over ``algebra`` if given, else
    over the algebra the document embeds.  A document that embeds an algebra
    other than the given one is refused with a ParseError."""
    spec = data.get("algebra")
    if spec is not None:
        embedded = load_algebra(spec) if isinstance(spec, str) else algebra_from_spec(spec)
        if algebra is None:
            algebra = embedded
        elif not embedded.same_as(algebra):
            raise ParseError(f"representation file is over the algebra {_spec_text(embedded)}, "
                             f"not over the given algebra {_spec_text(algebra)}")
    elif algebra is None:
        raise ParseError("representation file carries no algebra")
    if "dims" not in data:
        raise ParseError("representation file carries no dims")
    try:
        dims = {str(v): _dim(d) for v, d in data["dims"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad dims: {exc}") from exc
    unknown = [v for v in dims if v not in algebra.vertex_index]
    if unknown:
        raise ParseError(f"unknown vertex {unknown[0]!r} in dims")
    arrow_data = data.get("arrows", {})
    if not isinstance(arrow_data, dict):
        raise ParseError("arrows must be an object mapping labels to matrices")
    arrows = {}
    for label, rows in arrow_data.items():
        arrow = algebra.arrow_by_label.get(label)
        if arrow is None:
            raise ParseError(f"unknown arrow {label!r}")
        arrows[label] = matrix_from_json(
            algebra.field, dims.get(arrow.target, 0), dims.get(arrow.source, 0), rows)
    return Representation(algebra, dims, arrows)


def _spec_text(algebra: CanonicalAlgebra) -> str:
    return json.dumps(algebra.spec(), sort_keys=True)


def morphism_to_json(f: Morphism) -> dict:
    return {v: matrix_to_json(f.maps[v]) for v in f.source.algebra.vertices}


def ses_to_json(ses) -> dict:
    return {
        "sub": rep_to_json(ses.sub, include_algebra=False),
        "middle": rep_to_json(ses.middle, include_algebra=False),
        "quotient": rep_to_json(ses.quotient, include_algebra=False),
        "inclusion": morphism_to_json(ses.inclusion),
        "projection": morphism_to_json(ses.projection),
    }


def load_json(path) -> dict:
    """The JSON object in a file; any other top-level value is a ParseError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} does not hold a JSON object")
    return data


def load_algebra(path) -> CanonicalAlgebra:
    data = load_json(path)
    if "field" not in data:
        raise ParseError(f"{path} is not an algebra spec")
    return algebra_from_spec(data)


def load_representation(path, algebra=None) -> Representation:
    return rep_from_json(load_json(path), algebra)


def dumps(payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("canrep_format", FORMAT_VERSION)
    return json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")) + "\n"
