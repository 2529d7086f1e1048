"""Turnstile streams and exact (non-private) oracles.

A stream is a sequence of sparse update batches over items 1..d.  Each batch
holds (item, delta) pairs with delta in {-1, +1} and no repeated item.  Two
models are supported:

* ``general``: per-item prefix sums are unconstrained integers; an item is
  present iff its prefix sum is positive.
* ``likes``: every prefix sum must stay in {0, 1} (insert only if absent,
  delete only if present).

A ``Stream`` is the boundary of the package.  It stores its updates in three
read-only numpy arrays, each in the narrowest type that holds it, so that the
types depend only on d and the update count: ``offsets`` (length + 1 entries,
the narrowest unsigned type that holds the update count), ``items``
(``np.min_scalar_type(d)``) and ``deltas`` (int8); batch t (1-based) is
``items[offsets[t-1]:offsets[t]]`` paired with the same slice of ``deltas``.
The list form ``batches`` is built from the arrays when it is first read.  One
vectorised pass in the constructor checks every batch and, in the same pass,
records the exact distinct count after every step (the count sequence q_t),
the flippancy of each item it updates (how often the item's presence indicator
flips, with the indicator defined to be 0 before the stream starts), the first
likes-model violation and whether every batch is a singleton.  The oracles
below read these stored values, and mechanisms read q_t from the stream
instead of replaying its batches.  ``CounterState`` and ``apply_batch`` replay
batches one at a time for callers that feed a mechanism batch by batch.  The
module also provides the ``.dstream`` text format (grammar below), which
``loads`` and, on a file's bytes in place, ``read_file`` parse straight into
the arrays: class-pair codes check the grammar and find each colon, each item
is read back from its colon, a "+1" or "-1" delta without the digit loop, and
each temporary is freed once read, in the parser and in the validation pass.
``write_file`` writes the text from the arrays with one numpy byte writer, a
block of updates at a time: each token is a row of one uint8 matrix, its
item's digits laid out by ``_int_bytes``, the integer-to-ASCII routine the
``run`` CSV writer shares, and ``dumps`` decodes the same bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import index

import numpy as np

from .errors import ModelViolationError, ParameterError, StreamFormatError

UpdateBatch = list[tuple[int, int]]

GENERAL = "general"
LIKES = "likes"
_MODELS = (GENERAL, LIKES)

_RADIX_MIN = 512  # updates; below this, the int64 sort beats the range check and radix sort


class Stream:
    """A turnstile input stream, validated once at construction.

    ``T`` is the declared length bound; the stream may have fewer steps, in
    which case the missing suffix is all-zero.  ``Stream(d, T, model,
    batches)`` converts a list of batches once; ``Stream.from_columns`` takes
    the arrays directly.  A malformed batch raises ``StreamFormatError``
    naming its step.  The constructor stores ``counts`` (q_t after each
    step), ``violation`` (the (item, step) of the first likes-model
    violation, or None) and ``singleton``.  ``counts`` is a read-only int64
    array and the update arrays are read-only in their narrow types (see the
    module docstring), so these values always describe the stream;
    ``batches`` is built from them on first read and must not be changed.
    """

    def __init__(self, d: int, T: int, model: str, batches: list[UpdateBatch] = ()):
        self._check_header(d, T, model, len(batches))
        sizes = accumulate(map(len, batches), initial=0)
        offsets = np.fromiter(sizes, dtype=np.int64, count=len(batches) + 1)
        # operator.index rejects floats and strings, which int64 would coerce
        flat = map(index, chain.from_iterable(chain.from_iterable(batches)))
        try:
            if not set(map(len, chain.from_iterable(batches))) <= {2}:
                raise TypeError("an update is not an (item, delta) pair")
            pairs = np.fromiter(flat, dtype=np.int64, count=2 * int(offsets[-1]))
        except (TypeError, OverflowError):  # a non-pair, or a number beyond int64
            for t, batch in enumerate(batches, start=1):
                _check_step(batch, d, t)
            raise
        pairs = pairs.reshape(-1, 2)
        self._index([offsets, pairs[:, 0], pairs[:, 1]])

    @classmethod
    def from_columns(cls, d: int, T: int, model: str, offsets, items, deltas) -> Stream:
        """Build a stream from its arrays, of any integer type; the stream
        keeps each one, or its narrowed copy, read-only."""
        return cls._adopt(d, T, model, [offsets, items, deltas])

    @classmethod
    def _adopt(cls, d: int, T: int, model: str, columns: list) -> Stream:
        """``from_columns`` on a list of the three arrays, which it empties,
        so that a wide column the caller does not keep is freed as soon as
        the validation pass has narrowed it."""
        self = cls.__new__(cls)
        self._check_header(d, T, model, len(columns[0]) - 1)
        self._index(columns)
        return self

    def _check_header(self, d: int, T: int, model: str, length: int) -> None:
        if d < 1:
            raise ParameterError(f"dimension d must be >= 1, got {d}")
        if T < 0:
            raise ParameterError(f"length bound T must be >= 0, got {T}")
        if max(d, T) >= 2**63:  # numpy sizes and the mechanisms' floats need int64
            raise ParameterError("dimension d and length bound T must be below 2^63")
        if model not in _MODELS:
            raise ParameterError(f"unknown model {model!r}")
        if length > T:
            raise StreamFormatError(f"stream has {length} batches but declares T={T}")
        self.d, self.T, self.model = d, T, model

    def _index(self, columns: list) -> None:
        """The validation pass: check every batch, then store the oracles and
        the columns, each in the narrowest type that holds it.  Empties
        ``columns``: a wide column is freed once narrowed, unless a caller
        keeps it."""
        offsets, items, deltas = map(_integers, columns)
        columns.clear()
        n = len(items)
        offsets = offsets.astype(np.min_scalar_type(n), copy=False)
        self.offsets, self.items, self.deltas = offsets, items, deltas  # _batch reads them
        sizes = offsets[1:] - offsets[:-1]
        bad_delta = np.count_nonzero(np.abs(deltas) != 1)
        narrow = np.min_scalar_type(self.d)
        key = items
        if n >= _RADIX_MIN:  # range-check and narrow first: the wide ids are freed before the sort
            lo, hi = items.min(), items.max()
            if lo >= 1 and hi <= self.d:
                self.items = items = key = items.astype(narrow, copy=False)
            if lo >= 0 and hi < 2**16:
                key = items.astype(np.uint16, copy=False)  # numpy radix-sorts 16-bit keys
        order = key.argsort(kind="stable")  # by item, then by step
        item_s = key[order]  # each sorted or per-update temporary is freed once read
        new_item = np.empty(n, dtype=bool)  # first update of its item
        new_item[:1] = True
        np.not_equal(item_s[1:], item_s[:-1], out=new_item[1:])
        out_of_range = n and (item_s[0] < 1 or item_s[-1] > self.d)
        if not out_of_range:  # every id fits the narrow type; already narrowed if long
            self.items = items = items.astype(narrow, copy=False)
        del key, item_s
        step = np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))).repeat(sizes)
        step_s = step[order]
        dup = (step_s[1:] == step_s[:-1]) & ~new_item[1:]
        if out_of_range or bad_delta or dup.any():
            bad = (items < 1) | (items > self.d) | (np.abs(deltas) != 1)
            t = int(np.concatenate((step[bad], step[order[1:][dup]])).min()) + 1
            _check_step(self._batch(t), self.d, t)  # raises: same rules
        del step, step_s, dup
        self.deltas = deltas = deltas.astype(np.int8, copy=False)  # every delta is +1 or -1
        delta_s = deltas[order]
        wide = np.min_scalar_type(-n - 1)  # a signed type that holds -n..n
        # per-item prefix sums after each update, in (item, step) order: one
        # running sum, whose first term for each item cancels the item before it
        first = new_item.nonzero()[0]
        after = delta_s.astype(wide)
        after[first[1:]] -= np.add.reduceat(after, first, dtype=wide)[:-1]
        after.cumsum(out=after)
        # +1 where the item becomes present, -1 where it stops being present
        gained = (after > 0).view(np.int8) - (after > delta_s).view(np.int8)
        self.violation = None
        if self.model == LIKES:
            outside = ((after < 0) | (after > 1)).nonzero()[0]
            if len(outside):
                i = order[outside].min()
                self.violation = (int(items[i]), int(offsets.searchsorted(i, "right")))
        del after
        self._flips = np.add.reduceat(gained != 0, first, dtype=wide)  # per updated item
        q = np.zeros(n + 1, dtype=wide)  # q_t is q[offsets[t]]
        q[1:][order] = gained
        del order
        q.cumsum(out=q)
        self.counts = q[offsets[1:]].astype(np.int64)
        for a in (self.offsets, self.items, self.deltas, self.counts):
            a.flags.writeable = False
        self.singleton = bool(np.count_nonzero(sizes) == n)

    def _batch(self, t: int) -> UpdateBatch:
        """Batch t (1-based) as a list of (item, delta) tuples."""
        lo, hi = self.offsets[t - 1], self.offsets[t]
        return list(zip(self.items[lo:hi].tolist(), self.deltas[lo:hi].tolist()))

    @cached_property
    def batches(self) -> list[UpdateBatch]:
        """The updates as a list of (item, delta) lists, built on first read."""
        pairs = list(zip(self.items.tolist(), self.deltas.tolist()))
        bounds = self.offsets.tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @property
    def length(self) -> int:
        return len(self.offsets) - 1

    def __repr__(self) -> str:
        return f"Stream(d={self.d}, T={self.T}, model={self.model!r}, length={self.length})"


class CounterState:
    """Per-item running sums ``c``, all 0 at the start, and the live distinct
    count ``q = |{i : c[i] > 0}|``; an update costs O(1)."""

    def __init__(self, d: int):
        self.d = d
        self.c = [0] * d
        self.q = 0


@dataclass
class FlippancySummary:
    total_K: int
    max_w: int


@dataclass
class ValidationReport:
    ok: bool
    violation: tuple[int, int] | None  # (item, time) of first likes violation
    singleton: bool


def _integers(a) -> np.ndarray:
    """``a`` as an array: as it is if it holds integers, else as int64."""
    arr = np.asarray(a)
    return arr if arr.dtype.kind in "iu" else np.asarray(a, dtype=np.int64)


def check_batch(batch: UpdateBatch, d: int) -> None:
    """Reject non-pairs, out-of-range item ids, bad deltas, and duplicate items."""
    seen = set()
    for update in batch:
        try:
            item, delta = update
        except (TypeError, ValueError):
            raise StreamFormatError(f"update {update!r} is not an (item, delta) pair") from None
        if not 1 <= item <= d:
            raise StreamFormatError(f"item id {item} outside [1, {d}]")
        if delta not in (-1, 1):
            raise StreamFormatError(f"delta must be -1 or +1, got {delta}")
        if item in seen:
            raise StreamFormatError(f"item {item} appears twice in one batch")
        seen.add(item)


def _check_step(batch: UpdateBatch, d: int, t: int) -> None:
    """``check_batch`` with the step named in the error."""
    try:
        check_batch(batch, d)
    except StreamFormatError as exc:
        raise StreamFormatError(f"step {t}: {exc}", step=t) from None


def apply_batch(state: CounterState, batch: UpdateBatch) -> CounterState:
    """Apply one update batch in place; returns the same state object."""
    check_batch(batch, state.d)
    c = state.c
    for item, delta in batch:
        old = c[item - 1]
        new = old + delta
        c[item - 1] = new
        state.q += (new > 0) - (old > 0)
    return state


def distinct_count(state: CounterState) -> int:
    return state.q


def distinct_counts(stream: Stream) -> list[int]:
    """Exact CountDistinct value after every batch."""
    return stream.counts.tolist()


def total_flippancy(stream: Stream) -> FlippancySummary:
    """Count presence-indicator flips per item, with f^0 = 0.

    A flip at time t means the indicator 1(prefix_sum > 0) differs from its
    value at t-1.  The first insertion of an item therefore counts.
    """
    require_valid(stream)
    flips = stream._flips
    return FlippancySummary(int(flips.sum()), int(flips.max(initial=0)))


def diff_sequence(stream: Stream) -> list[int]:
    """First differences of the distinct count, with CountDistinct^0 = 0."""
    return np.diff(stream.counts, prepend=0).tolist()


def validate(stream: Stream) -> ValidationReport:
    """Report model constraints; never raises for a constructed stream.

    In the likes model the first (item, time) whose prefix sum leaves {0, 1}
    is reported.  General-model streams are always ok.  The singleton flag
    records whether every batch carries at most one update.
    """
    return ValidationReport(
        ok=stream.violation is None,
        violation=stream.violation,
        singleton=stream.singleton,
    )


def require_valid(stream: Stream) -> None:
    if stream.violation is not None:
        item, t = stream.violation
        raise ModelViolationError(
            f"likes-model violation for item {item} at time {t}"
        )


# --- .dstream text format -------------------------------------------------
#
# line 1:       dstream 1 <d> <T> <general|likes>
# lines 2..T+1: "<item>:<delta>" tokens matching _TOKEN, separated by spaces
#               and tabs; empty line = no-op
# Files are read as UTF-8, whatever the locale; lines end where str.splitlines
# ends them.  write_file writes ASCII with "\n" line ends on every platform.

_TOKEN = re.compile(r"[+-]?[0-9]{1,18}:[+-]?[0-9]{1,18}")  # 18 digits fit in int64

WRITE_BLOCK = 1 << 14  # updates and steps per block: the writer's memory does not grow with T


def _int_bytes(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """"%d" of non-negative integers, one per row of a uint8 matrix: right-aligned
    ASCII, NUL-padded.  The matrix is ``out`` if given (as wide as the widest
    number, or wider), else a new one exactly as wide."""
    if out is None:
        out = np.empty((len(v), len(str(int(v.max(initial=0))))), np.uint8)
    width = out.shape[1]
    v = v.astype(np.uint32 if width < 10 else np.uint64)  # 9 digits fit; uint32 // is faster
    for j in reversed(range(width)):  # // by a scalar is numpy's fast integer division
        q = v // 10
        digit = (v - 10 * q).astype(np.uint8)
        digit += ord("0")
        if j < width - 1:
            digit *= v > 0  # no leading 0
        out[:, j] = digit
        v = q
    return out


def _dstream_bytes(stream: Stream):
    """The ``.dstream`` text of a stream as ASCII chunks: the header line, then
    one chunk per block of up to WRITE_BLOCK updates and WRITE_BLOCK steps (a
    step with more updates is split).  A block's tokens are laid out as rows
    of one uint8 matrix, "<item>:+1 " or "<item>:-1 " with "\\n" in place of
    the space after a step's last token, and its non-NUL bytes are the text;
    each empty step's "\\n" is then put after the line before it."""
    yield f"dstream 1 {stream.d} {stream.T} {stream.model}\n".encode("ascii")
    offsets, items, deltas = stream.offsets, stream.items, stream.deltas
    t, lo = 0, 0  # the first step not yet ended, and the first update not yet written
    while t < stream.length:
        reach = int(offsets.searchsorted(lo + WRITE_BLOCK, "right")) - 1
        # reach <= stream.length; signed, as the unsigned offsets could wrap below
        ends = offsets[t + 1 : min(reach, t + WRITE_BLOCK) + 1].astype(np.int64)
        hi = int(ends[-1]) if len(ends) else lo + WRITE_BLOCK  # else part of one long step
        nonempty = np.diff(ends, prepend=lo) > 0  # of the steps that end here
        width = len(str(int(items[lo:hi].max(initial=0))))
        rows = np.empty((hi - lo, width + 4), np.uint8)  # digits, ":", sign, "1", separator
        _int_bytes(items[lo:hi], rows[:, :width])
        rows[:, width] = ord(":")
        np.subtract(ord(","), deltas[lo:hi], out=rows[:, width + 1], casting="unsafe")  # "+" or "-"
        rows[:, width + 2] = ord("1")
        rows[:, width + 3] = ord(" ")
        rows[ends[nonempty] - (lo + 1), width + 3] = ord("\n")
        text = rows.tobytes().translate(None, b"\0")  # faster than a mask on rows this narrow
        if not nonempty.all():
            text = np.frombuffer(text, np.uint8)
            starts = np.concatenate(([0], np.flatnonzero(text == ord("\n")) + 1))
            text = np.insert(text, starts[np.cumsum(nonempty)[~nonempty]], ord("\n"))
        yield text
        t, lo = t + len(ends), hi


def dumps(stream: Stream) -> str:
    """The ``.dstream`` text of a stream: the bytes ``write_file`` writes."""
    return b"".join(_dstream_bytes(stream)).decode("ascii")


def write_file(stream: Stream, path) -> None:
    """Write a stream's ``.dstream`` text, ASCII with "\\n" line ends on every
    platform, one block at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_dstream_bytes(stream))


# character classes: 0 other, 1 space, tab or newline, 2 digit, 3 sign, 4 colon
_CLASS = bytes(
    1 if c in b" \t\n" else 2 if 48 <= c < 58 else 3 if c in b"+-" else 4 if c == 58 else 0
    for c in range(256)
)
# the (previous, next) class pairs, coded 5 * previous + next, that can occur
# in text of [+-]<digits>:[+-]<digits> tokens separated by spaces
_PAIRS = bytes(
    5 * a + b for a, b in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (4, 2), (4, 3))
)
_MAX_DIGITS = 18  # as in _TOKEN


def _digits_back(buf: np.ndarray, base: int, at: np.ndarray):
    """The numbers whose last digits are ``buf[base + at]``, negated after a "-",
    or None if one has over 18 digits; ``base >= 18``, ``buf[base]`` no digit."""
    value = np.zeros(len(at), dtype=np.int64)
    for lo in range(0, len(at), 1 << 15):  # blocks whose temporaries stay in cache
        block, part = at[lo : lo + (1 << 15)], value[lo : lo + (1 << 15)]
        live, minus = np.ones(len(block), dtype=bool), np.zeros(len(block), dtype=bool)
        for k in range(_MAX_DIGITS + 1):
            digit = buf[base - k :].take(block) - 48  # uint8: a non-digit wraps past 9
            minus |= live & (digit == 253)  # "-" is 45
            live &= digit < 10
            if not live.any():
                break
            if k == _MAX_DIGITS:
                return None
            part += np.multiply(digit * live, 10**k, dtype=np.int64)
        np.negative(part, out=part, where=minus)
    return value


def _parse_columns(data: bytes, start: int):
    """Parse the data lines of ``data[start:]``, each ended by "\\n", into
    a list [offsets, items, deltas], or return None.  ``start > 18``, as after
    a header that ``_parse`` accepts: the digit loop reads up to 19 bytes before a token.

    The text parses when every token, split on spaces and tabs, matches
    ``_TOKEN``; the arrays then hold its numbers, line by line.  Any other
    text, such as a byte outside ASCII or another line break, returns None.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    body = buf[start:]
    cls = np.frombuffer(data.translate(_CLASS), dtype=np.uint8, offset=start - 1)
    pairs = bytearray(len(body))  # each byte's (previous, next) class pair code
    codes = np.frombuffer(pairs, dtype=np.uint8)
    np.multiply(cls[:-1], 5, out=codes)
    codes += cls[1:]
    del cls
    if pairs.translate(None, _PAIRS):
        return None
    # each token is now [+-]<digits>(:[+-]<digits>)*, ended by a (digit, space)
    # pair; (digit, colon) is the only pair that ends at a colon
    tokens = pairs.count(11)
    mask = codes.view(bool)  # the pair buffer, reused for each byte mask
    colon = np.flatnonzero(np.equal(codes, 14, out=mask))
    ends = np.flatnonzero(np.equal(body, 10, out=mask))
    del pairs, codes, mask
    offsets = np.zeros(len(ends) + 1, dtype=np.min_scalar_type(len(colon)))
    offsets[1:] = colon.searchsorted(ends)
    del ends
    items = _digits_back(buf, start - 1, colon)
    # "+1" or "-1" then a space is read without the digit loop
    sign, one, end = (body[k:].take(colon, mode="clip") for k in (1, 2, 3))
    other = np.flatnonzero((sign > 45) | (one != 49) | (end >= 48))
    at = colon[other] + 1 + (sign[other] < 48)  # past the sign
    del colon, one, end
    for _ in range(_MAX_DIGITS + 1):  # to the byte after the digits
        if not (more := body[at] - 48 < 10).any():
            break
        at += more
    value = _digits_back(buf, start - 1, at)
    # more than 18 digits, a token without exactly one colon, or a delta ended by one
    if items is None or value is None or len(sign) != tokens or np.any(body[at] == 58):
        return None
    # "+" is 43, "-" is 45; int8, the stored type, when no delta needed the digit loop
    deltas = np.subtract(44, sign, dtype=np.int64 if len(other) else np.int8)
    deltas[other] = value
    return [offsets, items, deltas]


def _bad_token(lines: list[str]) -> StreamFormatError:
    """The error for the first token, by line and then position, that does
    not match ``_TOKEN``; tokens are split on spaces and tabs."""
    for lineno, line in enumerate(lines, start=2):
        for token in re.findall(r"[^ \t]+", line):
            if not _TOKEN.fullmatch(token):
                return StreamFormatError(f"bad token {token!r} on line {lineno}")
    raise AssertionError("_parse_columns rejected text that matches the grammar")


def _parse(header_line: str, data: bytes, start: int):
    """Check a header line, then parse the data lines of ``data[start:]``,
    each ended by "\\n": (d, T, model, columns), columns None if
    ``_parse_columns`` rejects them."""
    header = header_line.split()
    if len(header) != 5 or header[0] != "dstream" or header[1] != "1":
        raise StreamFormatError(f"bad .dstream header: {header_line!r}")
    try:
        d, T = int(header[2]), int(header[3])
    except ValueError:
        raise StreamFormatError(f"non-integer d/T in header: {header_line!r}")
    model = header[4]
    if model not in _MODELS:
        raise StreamFormatError(f"unknown model {model!r} in header")
    n_lines = data.count(b"\n", start)
    if n_lines > T:
        raise StreamFormatError(f"{n_lines} data lines exceed declared T={T}")
    return d, T, model, _parse_columns(data, start)


def _build(d: int, T: int, model: str, columns: list) -> Stream:
    """The one validation pass, its errors naming the line; empties ``columns``."""
    try:
        return Stream._adopt(d, T, model, columns)
    except StreamFormatError as exc:  # the batch count was checked by _parse
        raise StreamFormatError(f"line {exc.step + 1}: {exc}") from None


def loads(text: str) -> Stream:
    """Parse ``.dstream`` text, split into lines by ``str.splitlines``,
    straight into the arrays (``_parse_columns``).

    Text with a token that does not match ``_TOKEN`` raises the first such
    token's error; a bad batch raises its step's error.  Errors name the
    line.
    """
    lines = text.splitlines()
    if not lines:
        raise StreamFormatError("empty .dstream input")
    data = "\n".join([*lines, ""]).encode("ascii", "replace")  # a byte per character
    d, T, model, columns = _parse(lines[0], data, len(lines[0]) + 1)
    if columns is None:
        raise _bad_token(lines[1:])
    return _build(d, T, model, columns)


def read_file(path) -> Stream:
    """Read a ``.dstream`` file as bytes, which the column parser reads in place
    from the header's end.  Text it rejects (another line break, a byte outside
    ASCII, a bad token or header) is decoded as UTF-8, whatever the locale, and
    read by ``loads``, which gives the same stream or error as for that text."""
    with open(path, "rb") as fh:
        data = fh.read()
    ended = data if data.endswith(b"\n") else data + b"\n"  # every line ends in "\n"
    start = ended.index(b"\n") + 1
    header_line = ended[: start - 1].decode("latin-1")
    if header_line.isascii() and header_line.splitlines() == [header_line]:
        try:
            d, T, model, columns = _parse(header_line, ended, start)
        except StreamFormatError:  # loads raises it too, once the text decodes
            columns = None
        if columns is not None:  # then the whole file is ASCII
            del data, ended  # free the file before the validation pass
            return _build(d, T, model, columns)
    return loads(data.decode("utf-8"))
