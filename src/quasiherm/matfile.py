"""JSON matrix and report files with deterministic byte-stable formatting.

Matrices serialize as {"rows", "cols", "data"} with row-major [re, im] pairs.
Reports keep a fixed key order and render every float with 17 significant
digits, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

import numpy as np

from .dyson import HermitizationReport, Metric
from .linalg import Tolerances
from .observables import is_quasi_hermitian

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

REPORT_KEY_ORDER = (
    "energies",
    "family",
    "status",
    "solution_space_dim",
    "residuals",
    "metric",
    "avatar",
    "passed",
    "tolerances",
)


class MatrixFileError(ValueError):
    """Raised when a matrix document does not satisfy the schema."""


def dump_matrix(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise MatrixFileError(f"expected a 2-d matrix, got shape {a.shape}")
    data = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()
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
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
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
    out = np.array(data, dtype=np.float64).view(np.complex128).ravel()
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


def _fmt_float(x: float) -> str:
    x = float(x)
    # ".17g" renders negative zero as "-0", which json parses as integer zero
    # and drops the sign; force a float literal for that one value
    if x == 0.0 and np.signbit(x):
        return "-0.0"
    return format(x, ".17g")


def _emit_float_pairs(pairs: list, pad: str) -> str:
    # The generic path's bytes for a list of [float, float] pairs (dump_matrix
    # data), with every leaf formatted in one pass.
    leaves = map(format, chain.from_iterable(pairs), repeat(".17g"))
    text = ["-0.0" if t == "-0" else t for t in leaves]
    items = map("[{}, {}]".format, text[::2], text[1::2])
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n" + pad + "]"


def _emit(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            items.append(f'{pad}  "{k}": {_emit(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float
               for v in value):
            return _emit_float_pairs(value, pad)
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
    """Render a document with fixed key order and .17g float formatting."""
    return _emit(doc, 0)


def _ordered(entries: dict) -> dict:
    return {key: entries[key] for key in REPORT_KEY_ORDER if key in entries}


def _tol_map(tol: Tolerances) -> dict:
    return {
        "residual_rel": tol.residual_rel,
        "reality_rel": tol.reality_rel,
        "positivity_rel": tol.positivity_rel,
        "defective_cond": tol.defective_cond,
    }


def report_document(
    report: HermitizationReport,
    metric: Metric,
    avatar: np.ndarray,
    tol: Tolerances,
) -> dict:
    return _ordered(
        {
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
            "tolerances": _tol_map(tol),
        }
    )


def compat_document(result, h1: np.ndarray, h2: np.ndarray, tol: Tolerances) -> dict:
    entries = {
        "status": result.status,
        "solution_space_dim": result.solution_space_dim,
        "passed": result.status == "Found",
        "tolerances": _tol_map(tol),
    }
    if result.theta is not None:
        entries["residuals"] = {
            "quasi_hermiticity_h1": is_quasi_hermitian(h1, result.theta),
            "quasi_hermiticity_h2": is_quasi_hermitian(h2, result.theta),
        }
        entries["metric"] = dump_matrix(result.theta.theta)
    return _ordered(entries)
