"""Dataset representation, CSV ingestion, and subset drawing."""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import NUL_FREE, PATH, check
from .errors import ConfigError, DataError

# Cell contents treated as missing (case-insensitive, after stripping).
_NA_TOKENS = frozenset({"", "na", "nan", "null"})

# Rows per block of ``draw_subset``.  numpy draws without replacement
# from at most this many rows by Floyd's algorithm, in memory of the rows
# it picks; from more it may permute an int64 arange of all of them.
_DRAW_BLOCK = 10_000
# numpy's multivariate hypergeometric ("marginals") refuses a population
# of this many rows or more.
_SPLIT_LIMIT = 10**9

# What ``load_csv`` does with a row holding a missing cell; the first is
# the default.
NA_POLICIES = ("reject", "drop")


@dataclass(frozen=True)
class ObservationTable:
    """Immutable (outcome, treatment, covariates) table.

    ``y`` is the observed outcome (float64), ``w`` the 0/1 treatment
    indicator (int8, one byte a row) and ``x`` the n-by-p confounder
    matrix (float64), so a table costs 8(p+1)+1 bytes a row.  The number
    of treated rows is counted once, at validation.  Row order is load
    order and all downstream determinism is defined relative to it.
    A table ``load_csv`` built keeps ``digest``, the hex sha256 of the
    file's bytes; any other table has None there.
    Arrays are frozen after validation so tables can be shared across
    worker threads.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...] = ()
    dropped_rows: int = 0
    digest: str | None = None
    _n1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = _as_float(self.y, "outcome")
        x = _as_float(self.x, "covariate")
        w = np.asarray(self.w)
        if w.dtype.kind not in "biuf":
            w = _as_float(w, "treatment")
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if y.ndim != 1 or w.ndim != 1 or x.ndim != 2:
            raise DataError("y and w must be vectors and x a matrix")
        n = y.shape[0]
        if w.shape[0] != n or x.shape[0] != n:
            raise DataError(
                f"length mismatch: y={n}, w={w.shape[0]}, x rows={x.shape[0]}"
            )
        if n == 0:
            raise DataError("empty table")
        w = _binary(w)
        if not (_all_finite(y) and _all_finite(x)):
            raise DataError("non-finite outcome or covariate value")
        names = tuple(self.covariate_names) or tuple(
            f"x{j + 1}" for j in range(x.shape[1])
        )
        if len(names) != x.shape[1]:
            raise DataError("covariate_names length does not match x columns")
        if len(set(names)) != len(names):  # the balance report keys SMDs by name
            raise DataError(f"covariate_names repeat a name: {names}")
        for arr in (y, w, x):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "_n1", int(np.count_nonzero(w)))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n1(self) -> int:
        return self._n1

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _as_float(values, what: str) -> np.ndarray:
    """``values`` as a C-contiguous float64 array, copied only if needed."""
    try:
        return np.ascontiguousarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"non-numeric {what} value: {exc}") from None


def _binary(w: np.ndarray) -> np.ndarray:
    """``w`` as int8 once every value is exactly 0 or 1 in its own dtype.

    Booleans need no check and integers only their range, so neither
    makes a temporary; a float vector is compared cell by cell, which
    also rejects NaN.  A C-contiguous int8 vector is kept as it is; any
    other is copied once into an n-byte column.
    """
    if w.dtype.kind == "f" or (w.dtype.kind in "iu" and not 0 <= w.min() <= w.max() <= 1):
        binary = (w == 0) | (w == 1)
        if not binary.all():
            raise DataError(f"non-binary treatment value {w[np.argmin(binary)].item()!r}")
    return np.ascontiguousarray(w, dtype=np.int8)


def _all_finite(a: np.ndarray) -> bool:
    """Whether no value is NaN or infinite, without a temporary: min and
    max propagate NaN, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _parse_cell(raw: str, col: str, row: int, na_policy: str) -> float | None:
    """Parse one CSV cell; None marks a row to drop under the drop policy."""
    text = raw.strip() if raw is not None else ""
    if text.lower() in _NA_TOKENS:
        if na_policy == "drop":
            return None
        raise DataError(f"missing value in column {col!r} at data row {row}")
    try:
        value = float(text)
    except ValueError:
        if na_policy == "drop":
            return None
        raise DataError(
            f"non-numeric value {text!r} in column {col!r} at data row {row}"
        ) from None
    if not math.isfinite(value):  # an error under either policy, as in the table
        raise DataError(f"non-finite value {text!r} in column {col!r} at data row {row}")
    return value


# Characters of whole lines handed to one vectorized parse: enough to
# amortize its setup, few enough that redoing a block row by row is cheap.
_BLOCK_CHARS = 1 << 20


def _parse_fast(lines: list[str], cols: list[int]) -> np.ndarray | None:
    """Parse the used columns of one block of lines in one vectorized pass.

    Returns a rows-by-len(cols) array, or None whenever the row parser
    must decide: a cell ``np.loadtxt`` cannot convert, a non-finite value
    (``nan`` is an NA token there), a treatment value other than 0 or 1,
    or a quote the strict csv reader rejects, such as a quoted field still
    open at the block's end (``loadtxt`` would close it there).  On every
    block it accepts, the two parsers read the same records, and
    ``loadtxt`` converts text to doubles with ``float``'s own routine, so
    the values are bit-identical to the row parser's.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines
        try:
            # comments=None: with the default "#", a "#" in a cell would
            # silently cut its row short.
            data = np.loadtxt(
                lines, delimiter=",", usecols=cols, dtype=np.float64,
                comments=None, quotechar='"', ndmin=2,
            )
        except ValueError:
            return None
    w = data[:, 1]
    if not np.isfinite(data).all() or not ((w == 0.0) | (w == 1.0)).all():
        return None
    if any('"' in line for line in lines):
        try:
            for _ in csv.reader(lines, strict=True):
                pass
        except csv.Error:
            return None
    return data


def _parse_record(record: list[str], used: list[str], cols: list[int],
                  row: int, na_policy: str) -> list[float] | None:
    """The used cells of one record; None marks a row to drop."""
    try:  # a record of plain numbers: float strips them as _parse_cell does
        vals = [float(record[j]) for j in cols]
        if all(map(math.isfinite, vals)):  # nan is an NA token, inf an error
            return vals
    except (ValueError, IndexError):
        pass
    vals = []
    for col, j in zip(used, cols):
        # A cell a short record lacks is missing, as csv.DictReader has it.
        val = _parse_cell(record[j] if j < len(record) else None, col, row, na_policy)
        if val is None:
            return None
        vals.append(val)
    return vals


def _parse_rows(lines, stop: int, used: list[str], cols: list[int],
                first_row: int, na_policy: str):
    """Parse records one at a time until ``stop`` lines are read and the
    last record has ended.

    Returns (rows-by-len(cols) array, records read, rows dropped).  Data
    rows are numbered on from ``first_row``, blank lines skipped, as
    ``csv.DictReader`` numbers them.
    """
    reader = csv.reader(lines)
    rows: list[list[float]] = []
    i = first_row
    dropped = 0
    for record in reader:
        if record:
            i += 1
            row = _parse_record(record, used, cols, i, na_policy)
            if row is None:
                dropped += 1
            elif row[1] not in (0.0, 1.0):
                raise DataError(
                    f"non-binary treatment value {row[1]!r} at data row {i}"
                )
            else:
                rows.append(row)
        if reader.line_num >= stop:
            break
    data = np.array(rows, dtype=np.float64).reshape(-1, len(cols))
    return data, i - first_row, dropped


def _line_capacity(raw) -> tuple[int, str]:
    r"""The line endings of a binary file, an upper bound on its data
    rows, and the hex sha256 of its bytes, from one read.

    Each ``\n``, ``\r\n`` and lone ``\r`` counts once, the endings the
    text reader splits lines on.  A record takes at least one line and
    the header one more, and only the last line can lack an ending, so a
    file never holds more data rows than endings.
    """
    endings = 0
    after_cr = False
    sha = hashlib.sha256()
    while chunk := raw.read(_BLOCK_CHARS):
        sha.update(chunk)
        # numpy compares bytes several times faster than bytes.count
        endings += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        if b"\r" in chunk:  # each lone \r; a \r\n has counted as its \n
            endings += chunk.count(b"\r") - chunk.count(b"\r\n")
        if after_cr and chunk.startswith(b"\n"):  # a \r\n split by the chunking
            endings -= 1
        after_cr = chunk.endswith(b"\r")
    return endings, sha.hexdigest()


def _parse(handle, header: list[str], used: list[str], na_policy: str, capacity: int):
    """Parse the data rows block by block into columns of ``capacity``
    rows; returns (y, w, x, rows dropped), each array a C-contiguous view
    of the rows kept.

    Each block of whole lines goes to the vectorized pass first; a block
    it declines is parsed again row by row, which alone applies the NA
    policy and words every error.  The row parser reads on past the
    block's last line when a quoted field spans it, so every block starts
    at a record boundary.  Either way the block's rows are written into
    the columns at once, so besides them one block is alive at a time.
    More rows than ``capacity`` mean the file grew after it was scanned.
    """
    last = {name: j for j, name in enumerate(header)}  # as DictReader keys
    cols = [last[c] for c in used]
    y = np.empty(capacity)
    w = np.empty(capacity, dtype=np.int8)
    x = np.empty((capacity, len(cols) - 2))
    kept = records = dropped = 0
    while lines := handle.readlines(_BLOCK_CHARS):
        data = _parse_fast(lines, cols)
        if data is None:
            data, read, skipped = _parse_rows(
                itertools.chain(lines, handle), len(lines), used, cols, records, na_policy
            )
            records += read
            dropped += skipped
        else:
            records += data.shape[0]
        end = kept + data.shape[0]
        if end > capacity:
            raise DataError(f"{handle.name} changed while it was read: it holds more rows "
                            f"than the {capacity} line endings its scan counted")
        y[kept:end] = data[:, 0]
        w[kept:end] = data[:, 1]
        x[kept:end] = data[:, 2:]
        kept = end
        del lines, data  # freed before the next block is read, not after
    return y[:kept], w[:kept], x[:kept], dropped


def load_csv(
    path,
    outcome_col: str,
    treatment_col: str,
    covariate_cols: list[str],
    na_policy: str = NA_POLICIES[0],
) -> ObservationTable:
    """Load an observation table from a header-first UTF-8 CSV file.

    Rows with missing or unparseable cells in the used columns are
    rejected (default) or dropped and counted, per ``na_policy``.  A
    treatment value other than 0 or 1 is always an error: it indicates a
    miscoded column, not missingness.  A column named in two roles is a
    ``ConfigError``, raised before the file is opened.  A leading
    byte-order mark is skipped.  One scan of the bytes counts the line
    endings, which bounds the rows, and hashes them into the table's
    ``digest``; the table's columns are allocated once at that bound, and
    a file that outgrows it before the parse is a ``DataError``.
    The used columns are then parsed in blocks of lines, each in one
    vectorized pass, and written into the columns; a block that pass
    declines is parsed again row by row, which alone applies the NA
    policy and words every error.
    """
    if na_policy not in NA_POLICIES:
        raise ConfigError(f"na_policy must be one of {NA_POLICIES}, got {na_policy!r}")
    if not covariate_cols:
        raise ConfigError("at least one covariate column is required")
    used = [outcome_col, treatment_col, *covariate_cols]
    repeated = [c for i, c in enumerate(used) if c in used[:i]]
    if repeated:
        raise ConfigError(f"column {repeated[0]!r} is used twice; the outcome, the "
                          "treatment and each covariate must be distinct columns")
    check("path", path, PATH, NUL_FREE)

    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        with handle:
            capacity, digest = _line_capacity(handle.buffer)
            handle.seek(0)
            header = next(csv.reader(handle), [])
            missing = [c for c in used if c not in header]
            if missing:
                raise DataError(f"missing column(s) {missing} in {path}")
            y, w, x, dropped = _parse(handle, header, used, na_policy, capacity)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"malformed CSV {path}: {exc}") from None

    if y.shape[0] == 0:
        raise DataError(f"no usable rows in {path} (dropped {dropped})")
    return ObservationTable(
        y=y, w=w, x=x, covariate_names=tuple(covariate_cols), dropped_rows=dropped,
        digest=digest,
    )


def subset_size(n: int, gamma: float) -> int:
    """Subset size b = n**gamma, rounded half-up and clamped to [2, n]."""
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    b = int(math.floor(n**gamma + 0.5))
    return max(2, min(b, n))


def draw_subset(table: ObservationTable, b: int, stream: np.random.Generator) -> np.ndarray:
    """Draw ``b`` distinct row indices uniformly, returned sorted ascending.

    The rows are split into blocks of ``_DRAW_BLOCK``.  A multivariate
    hypergeometric draw gives each block its share of the ``b`` rows,
    and each block draws its share without replacement; together that is
    a uniform b-subset, drawn in O(b) memory, not O(n).  numpy refuses to
    split a table of ``_SPLIT_LIMIT`` rows or more; there the subset is
    ``stream.choice(n, b, replace=False)``'s, which permutes an int64
    arange of all n rows.
    """
    n = table.n
    if not 2 <= b <= n:
        raise ConfigError(f"subset size {b} outside [2, {n}]")
    if n >= _SPLIT_LIMIT:
        idx = stream.choice(n, size=b, replace=False)
        idx.sort()
        return idx
    starts = range(0, n, _DRAW_BLOCK)
    sizes = [min(_DRAW_BLOCK, n - start) for start in starts]
    shares = stream.multivariate_hypergeometric(sizes, b, method="marginals")
    idx = np.empty(b, dtype=np.int64)
    filled = 0
    for start, size, k in zip(starts, sizes, shares.tolist()):
        block = idx[filled : filled + k]
        block[...] = stream.choice(size, size=k, replace=False, shuffle=False)
        block.sort()
        block += start
        filled += k
    return idx
