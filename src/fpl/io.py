"""Reading and writing frame and fusion-frame data files.

A frame file is JSON shaped like::

    {"field": "real", "n": 2, "k": 3,
     "vectors": [[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]]}

``vectors`` holds the synthesis matrix column-major: one list per frame
vector.  Complex entries are written as ``[re, im]`` pairs.  A fusion file
replaces ``vectors`` with a list of subspaces, each carrying a column-major
``basis``; bases are orthonormalized on load, with a warning when the input
needed more than a cosmetic adjustment.
"""
from __future__ import annotations

import contextlib
import gc
import json
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .core import COMPLEX, REAL, Frame, make_frame
from .errors import FrameFileError
from .fusion import FusionFrame, make_fusion_frame, orthonormalize

# Input bases further than this from orthonormal trigger a warning on load.
ADJUSTMENT_WARN_TOL = 1e-8


class BasisAdjustedWarning(UserWarning):
    """A stored subspace basis needed re-orthonormalization on load."""


# Exact types, so that JSON true/false (bool subclasses int) are rejected.
_NUMBER_TYPES = frozenset((float, int))


def _parse_entry(entry, field: str, where: str):
    try:
        if type(entry) in _NUMBER_TYPES:
            return complex(entry) if field == COMPLEX else float(entry)
        if (field == COMPLEX and isinstance(entry, list) and len(entry) == 2
                and all(type(x) in _NUMBER_TYPES for x in entry)):
            return complex(entry[0], entry[1])
    except OverflowError:
        raise FrameFileError(f"{where}: number too large for a float") from None
    if field == COMPLEX:
        raise FrameFileError(
            f"{where}: complex entries must be numbers or [re, im] pairs")
    raise FrameFileError(f"{where}: real entries must be plain numbers")


def _fast_columns(columns: list, n: int, field: str) -> np.ndarray | None:
    """The n x k matrix of a real file whose columns are all lists of n
    plain numbers, converted in one array call; None for any other input,
    which _parse_columns then decides entry by entry."""
    if (field != REAL
            or not all(type(col) is list and len(col) == n for col in columns)
            or not set(map(type, chain.from_iterable(columns))) <= _NUMBER_TYPES):
        return None
    try:
        return np.array(columns, dtype=np.float64).T
    except OverflowError:
        return None


def _parse_columns(columns, n: int, field: str, where: str) -> np.ndarray:
    if not isinstance(columns, list) or not columns:
        raise FrameFileError(f"{where}: expected a non-empty list of columns")
    matrix = _fast_columns(columns, n, field)
    if matrix is not None:
        return matrix
    parsed = []
    for j, col in enumerate(columns):
        if not isinstance(col, list) or len(col) != n:
            raise FrameFileError(
                f"{where}: column {j} must be a list of {n} entries")
        parsed.append([_parse_entry(e, field, f"{where} column {j}")
                       for e in col])
    dtype = np.complex128 if field == COMPLEX else np.float64
    return np.array(parsed, dtype=dtype).T


def _payload_field(payload: dict) -> str:
    fld = payload.get("field")
    if fld not in (REAL, COMPLEX):
        raise FrameFileError('"field" must be "real" or "complex"')
    return fld


def _load_json(path) -> dict:
    def reject_constant(name: str):
        raise FrameFileError(f"{path}: non-finite number {name}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"{path}: not valid JSON ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond Python's digit limit, text that is not
        # UTF-8, or arrays nested too deeply to decode
        raise FrameFileError(f"{path}: cannot be decoded ({exc})") from exc
    if not isinstance(payload, dict):
        raise FrameFileError(f"{path}: expected a JSON object")
    return payload


def frame_from_payload(payload: dict) -> Frame:
    fld = _payload_field(payload)
    n, k = payload.get("n"), payload.get("k")
    if type(n) is not int or type(k) is not int:
        raise FrameFileError('frame file needs integer "n" and "k"')
    columns = payload.get("vectors")
    matrix = _parse_columns(columns, n, fld, "vectors")
    if matrix.shape != (n, k):
        raise FrameFileError(
            f"vector count {matrix.shape[1]} does not match k={k}")
    return make_frame(matrix)


def _encode_columns(m: np.ndarray) -> list:
    """Column-major JSON lists of a matrix; complex entries as [re, im]."""
    if np.iscomplexobj(m):
        return np.stack([m.real.T, m.imag.T], axis=-1).tolist()
    return m.T.tolist()


def frame_to_payload(frame: Frame) -> dict:
    return {"field": frame.field, "n": frame.n, "k": frame.k,
            "vectors": _encode_columns(frame.synthesis)}


@contextlib.contextmanager
def _collector_paused():
    """Hold off the cyclic garbage collector while a decoded file is alive.

    A decoded file is a tree of lists with no cycles, often thousands of
    them (one per column, or per complex entry).  A collection in the middle
    of a load frees none of them; it only moves the tree into older
    generations, where it counts towards the next full collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_frame(path) -> Frame:
    with _collector_paused():
        return frame_from_payload(_load_json(path))


def save_frame(frame: Frame, path) -> None:
    Path(path).write_text(json.dumps(frame_to_payload(frame)) + "\n",
                          encoding="utf-8")


def fusion_from_payload(payload: dict, source: str = "fusion data") -> FusionFrame:
    fld = _payload_field(payload)
    n = payload.get("n")
    if type(n) is not int:
        raise FrameFileError('fusion file needs an integer "n"')
    subs = payload.get("subspaces")
    if not isinstance(subs, list) or not subs:
        raise FrameFileError('fusion file needs a non-empty "subspaces" list')
    bases = []
    for i, entry in enumerate(subs):
        if not isinstance(entry, dict) or "basis" not in entry:
            raise FrameFileError(f'subspace {i} needs a "basis" key')
        matrix = _parse_columns(entry["basis"], n, fld, f"subspace {i}")
        q, adjustment = orthonormalize(matrix)
        if adjustment > ADJUSTMENT_WARN_TOL:
            warnings.warn(
                f"{source}: subspace {i} basis was re-orthonormalized "
                f"(adjustment {adjustment:.3e})", BasisAdjustedWarning,
                stacklevel=2)
        bases.append(q)
    return make_fusion_frame(bases)


def load_fusion_frame(path) -> FusionFrame:
    with _collector_paused():
        return fusion_from_payload(_load_json(path), source=str(path))


def fusion_to_payload(ff: FusionFrame) -> dict:
    subs = [{"basis": _encode_columns(w.basis)} for w in ff.subspaces]
    fld = COMPLEX if any(np.iscomplexobj(w.basis) for w in ff.subspaces) else REAL
    return {"n": ff.n, "field": fld, "subspaces": subs}


def save_fusion_frame(ff: FusionFrame, path) -> None:
    Path(path).write_text(json.dumps(fusion_to_payload(ff)) + "\n",
                          encoding="utf-8")
