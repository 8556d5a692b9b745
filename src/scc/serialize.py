"""On-disk formats, all little-endian and bit-exact on round trip.

Matrix container (datasets and dictionaries):

    bytes 0..7    magic "SCCMAT01"
    bytes 8..15   p, n as uint32
    then          p*n float64 values, column-major (one sample per column)

Sparse-code container:

    bytes 0..7    magic "SCCSPC01"
    bytes 8..15   m, n as uint32, with m >= 1
    per code      count as uint32, then count (uint32 index, float64
                  value) pairs with strictly increasing indices below m
                  and finite nonzero values

``write_codes`` lays a whole file out in one array: each count and
each pair's index is one 4-byte word and each value two, so the
payload is the pairs of all codes as one record array, viewed as words,
with each code's count inserted before its first pair.

Metrics go to CSV with columns
``epoch,objective,time_code_s,time_dict_s,mean_support,max_support``;
floats are written with repr so they parse back exactly.  Image input
is 8-bit binary PGM (P5).
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from .core import (
    BadMagic,
    DataSet,
    Dictionary,
    DimensionMismatch,
    EpochStats,
    FormatError,
    InvariantViolation,
    NonFinite,
    SparseCode,
    Truncated,
    _CodeStore,
)

MAGIC_MATRIX = b"SCCMAT01"
MAGIC_CODES = b"SCCSPC01"
METRICS_HEADER = "epoch,objective,time_code_s,time_dict_s,mean_support,max_support"

_PAIR_DTYPE = np.dtype([("index", "<u4"), ("value", "<f8")])
assert _PAIR_DTYPE.itemsize == 12

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Matrix container
# ---------------------------------------------------------------------------

def write_matrix(path: PathLike, X: np.ndarray) -> None:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite("refusing to write NaN or Inf")
    p, n = arr.shape
    header = MAGIC_MATRIX + struct.pack("<II", p, n)
    payload = np.asfortranarray(arr).astype("<f8", copy=False).tobytes(order="F")
    Path(path).write_bytes(header + payload)


def read_matrix(path: PathLike) -> np.ndarray:
    """Read a matrix container; the payload goes straight into the returned Fortran array."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 8:
            raise Truncated(f"{path}: shorter than the magic tag")
        if head[:8] != MAGIC_MATRIX:
            raise BadMagic(f"{path}: not a matrix container")
        if len(head) < 16:
            raise Truncated(f"{path}: header cut short")
        p, n = struct.unpack("<II", head[8:16])
        size = os.fstat(fh.fileno()).st_size
        expected = 16 + 8 * p * n
        if size < expected:
            raise Truncated(f"{path}: payload ends early ({size} of {expected} bytes)")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes")
        flat = np.fromfile(fh, dtype="<f8", count=p * n)
    if flat.size != p * n:
        raise Truncated(f"{path}: payload ends early ({16 + 8 * flat.size} of {expected} bytes)")
    arr = flat.astype(np.float64, copy=False).reshape((p, n), order="F")
    if not np.isfinite(arr).all():
        raise NonFinite(f"{path}: payload contains NaN or Inf")
    return arr


def write_dataset(path: PathLike, ds: DataSet) -> None:
    write_matrix(path, ds.X)


def read_dataset(path: PathLike, preprocessed: bool = False) -> DataSet:
    """Read a dataset, accepting CSV text as a fallback to the binary form."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MAGIC_MATRIX:
        return DataSet._adopt(read_matrix(path), preprocessed=preprocessed)
    return read_dataset_csv(path, preprocessed=preprocessed)


def read_dataset_csv(path: PathLike, preprocessed: bool = False) -> DataSet:
    """Text fallback: UTF-8, one header row, then one sample per line."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise FormatError(f"{path}: CSV needs a header row and at least one sample")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise FormatError(f"{path}: line {lineno} is not numeric")
        if rows and len(row) != len(rows[0]):
            raise DimensionMismatch(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(rows[0])}"
            )
        rows.append(row)
    X = np.array(rows, dtype=np.float64).T
    if not np.isfinite(X).all():
        raise NonFinite(f"{path}: CSV contains NaN or Inf")
    return DataSet(X, preprocessed=preprocessed)


def write_dictionary(path: PathLike, D: Dictionary) -> None:
    write_matrix(path, D.atoms)


def read_dictionary(path: PathLike) -> Dictionary:
    return Dictionary(read_matrix(path))


# ---------------------------------------------------------------------------
# Sparse-code container
# ---------------------------------------------------------------------------

def write_codes(path: PathLike, codes: Union[_CodeStore, Sequence[SparseCode]]) -> None:
    """Write the codes of a ``core._CodeStore``, or a list of codes, in order."""
    n = codes.length.size if isinstance(codes, _CodeStore) else len(codes)
    if n == 0:
        raise DimensionMismatch("cannot serialize zero codes (ambient dimension unknown)")
    store = codes if isinstance(codes, _CodeStore) else _CodeStore.of(codes, codes[0].m)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(store.length[:-1], out=start[1:])
    if not np.array_equal(start, store.start):  # codes out of sample order: pack them in it
        store = _CodeStore.of(store.codes(), store.m)
    rec = np.empty(store.used, dtype=_PAIR_DTYPE)
    rec["index"] = store.indices[:store.used]
    rec["value"] = store.values[:store.used]
    words = np.insert(rec.view("<u4"), 3 * start, store.length)
    with open(path, "wb") as fh:
        fh.write(MAGIC_CODES + struct.pack("<II", store.m, n))
        fh.write(words)  # the array's own bytes, without a copy


def read_codes(path: PathLike) -> List[SparseCode]:
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise Truncated(f"{path}: shorter than the magic tag")
    if data[:8] != MAGIC_CODES:
        raise BadMagic(f"{path}: not a sparse-code container")
    if len(data) < 16:
        raise Truncated(f"{path}: header cut short")
    m, n = struct.unpack("<II", data[8:16])
    if m == 0:
        raise FormatError(f"{path}: header declares codes over 0 atoms")
    codes: List[SparseCode] = []
    pos = 16
    for i in range(n):
        if pos + 4 > len(data):
            raise Truncated(f"{path}: code {i} count cut short")
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + count * _PAIR_DTYPE.itemsize
        if end > len(data):
            raise Truncated(f"{path}: code {i} entries cut short")
        rec = np.frombuffer(data, dtype=_PAIR_DTYPE, count=count, offset=pos)
        pos = end
        if count and not np.isfinite(rec["value"]).all():
            raise NonFinite(f"{path}: code {i} contains NaN or Inf")
        try:
            codes.append(SparseCode(rec["index"].astype(np.int64), rec["value"].copy(), m))
        except InvariantViolation as exc:
            raise FormatError(f"{path}: code {i}: {exc}") from None
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return codes


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------

def write_metrics_csv(path: PathLike, stats: Sequence[EpochStats]) -> None:
    lines = [METRICS_HEADER]
    for s in stats:
        lines.append(
            f"{s.epoch},{s.objective!r},{s.time_code_update!r},"
            f"{s.time_dict_update!r},{s.mean_support!r},{s.max_support}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics_csv(path: PathLike) -> List[EpochStats]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != METRICS_HEADER:
        raise FormatError(f"{path}: missing metrics header")
    out = []
    for row, ln in enumerate(lines[1:], start=1):
        fields = ln.split(",")
        if len(fields) != 6:
            raise FormatError(f"{path}: expected 6 columns, got {len(fields)}")
        try:
            stats = EpochStats(
                epoch=int(fields[0]),
                objective=float(fields[1]),
                time_code_update=float(fields[2]),
                time_dict_update=float(fields[3]),
                mean_support=float(fields[4]),
                max_support=int(fields[5]),
            )
        except ValueError:
            raise FormatError(f"{path}: row {row} is not numeric") from None
        out.append(stats)
    return out


# ---------------------------------------------------------------------------
# PGM (binary, 8-bit)
# ---------------------------------------------------------------------------

def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        yield data[start:pos], pos + 1  # +1 swallows the single delimiter
    return


def read_pgm(path: PathLike) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) image into a uint8 array."""
    data = Path(path).read_bytes()
    tokens = []
    after = 0
    for tok, nxt in _pgm_tokens(data):
        tokens.append(tok)
        after = nxt
        if len(tokens) == 4:
            break
    if not tokens or tokens[0] != b"P5":
        raise BadMagic(f"{path}: not a binary PGM (P5) file")
    if len(tokens) < 4:
        raise Truncated(f"{path}: PGM header cut short")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pixels = data[after : after + width * height]
    if len(pixels) < width * height:
        raise Truncated(f"{path}: pixel data cut short")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path: PathLike, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D image, got shape {img.shape}")
    img = img.astype(np.uint8)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())
