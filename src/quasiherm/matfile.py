"""JSON matrix and report files with deterministic byte-stable formatting.

Matrices serialize as {"rows", "cols", "data"} with row-major [re, im] pairs.
Reports keep a fixed key order and render every float with 17 significant
digits, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain

import numpy as np

from .dyson import HermitizationReport, Metric
from .linalg import Tolerances

__all__ = [
    "MatrixFileError",
    "dump_matrix",
    "parse_matrix",
    "load_matrix_file",
    "write_matrix_file",
    "report_document",
    "compat_document",
    "emit_json",
]

class MatrixFileError(ValueError):
    """Raised when a matrix document does not satisfy the schema."""


def dump_matrix(m: np.ndarray) -> dict:
    """The matrix document of ``m``, as every writer of this module builds it.

    ``data`` is the (entries, 2) float64 array of row-major [re, im] pairs;
    emit_json renders it as the pair lists ``data.tolist()`` gives.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise MatrixFileError(f"expected a 2-d matrix, got shape {a.shape}")
    data = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _plain_pairs(data: list) -> bool:
    # Every entry a [re, im] list of plain ints and floats, as json.load gives;
    # anything else is checked entry by entry.
    return (
        set(map(type, data)) == {list}
        and set(map(len, data)) == {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    )


def parse_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix document must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise MatrixFileError(f"matrix document missing key '{key}'")
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise MatrixFileError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFileError(f"data must hold exactly rows*cols = {rows * cols} entries")
    if not _plain_pairs(data):
        for i, entry in enumerate(data):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise MatrixFileError(f"data[{i}] must be a [re, im] pair of numbers")
    try:
        out = np.array(data, dtype=np.float64).view(np.complex128).ravel()
    except OverflowError as exc:
        raise MatrixFileError("matrix entries must lie within the float range") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MatrixFileError("matrix entries must be finite")
    return out.reshape(rows, cols)


def load_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFileError(f"{path}: not valid JSON ({exc})") from exc
    return parse_matrix(doc)


def write_matrix_file(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_json(dump_matrix(m)))
        fh.write("\n")


# ".17g" spells the non-finite floats as no JSON reader does; json.dumps
# writes these literals, and json.load reads them back.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _fmt_float(x: float) -> str:
    x = float(x)
    # ".17g" renders negative zero as "-0", which json parses as integer zero
    # and drops the sign; force a float literal for that one value
    if x == 0.0 and np.signbit(x):
        return "-0.0"
    text = format(x, ".17g")
    return _NON_FINITE.get(text, text)


def _emit_pairs(data: np.ndarray, pad: str) -> str:
    # The generic path's bytes for the same data as [re, im] lists, from one
    # %-format pass over an (entries, 2) float array.  ".17g" writes negative
    # zero as "-0", which can only stand as "[-0," or " -0]"; _fmt_float's
    # "-0.0" is put back there.  The only letters it writes are the "e" of an
    # exponent and those of "inf" and "nan", which become _NON_FINITE's.
    sep = ",\n" + pad + "  "
    template = "[\n" + pad + "  " + sep.join(["[%.17g, %.17g]"] * len(data)) + "\n" + pad + "]"
    text = template % tuple(data.ravel().tolist())
    text = text.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _emit(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            items.append(f'{pad}  "{k}": {_emit(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        if value.size and (value.shape[1:] != (2,) or value.dtype.kind not in "biuf"):
            raise TypeError(
                f"cannot serialize an array of shape {value.shape} and dtype {value.dtype}: "
                "expected an (entries, 2) real array of [re, im] pairs"
            )
        if value.dtype.kind != "f" or not value.size:
            # integers and booleans keep every digit, and their JSON type, as
            # lists; an empty array of any shape has no pairs to format
            return _emit(value.tolist(), indent)
        return _emit_pairs(value, pad)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(_emit(v, indent) for v in value) + "]"
        items = [f"{pad}  {_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(doc) -> str:
    """Render a document in its dict key order with .17g float formatting.

    An (entries, 2) real array renders as its ``tolist()`` would.  Non-finite
    floats render as ``Infinity``, ``-Infinity`` and ``NaN``, as json.dumps
    writes them.
    """
    return _emit(doc, 0)


def report_document(
    report: HermitizationReport,
    metric: Metric,
    avatar: np.ndarray,
    tol: Tolerances,
) -> dict:
    return {
        "energies": [float(e) for e in report.energies],
        "family": report.family,
        "residuals": {
            "quasi_hermiticity": report.residual_quasi_herm,
            "avatar_hermiticity": report.residual_avatar_herm,
            "isospectrality": report.residual_isospectral,
            "metric_condition": report.metric_condition,
        },
        "metric": dump_matrix(metric.theta),
        "avatar": dump_matrix(avatar),
        "passed": report.passed,
        "tolerances": asdict(tol),
    }


def compat_document(result, tol: Tolerances) -> dict:
    doc = {"status": result.status, "solution_space_dim": result.solution_space_dim}
    if result.theta is not None:
        r1, r2 = result.residuals
        doc["residuals"] = {"quasi_hermiticity_h1": r1, "quasi_hermiticity_h2": r2}
        doc["metric"] = dump_matrix(result.theta.theta)
    doc["passed"] = result.status == "Found"
    doc["tolerances"] = asdict(tol)
    return doc
