"""Turnstile streams and exact (non-private) oracles.

A stream is a sequence of sparse update batches over items 1..d.  Each batch
holds (item, delta) pairs with delta in {-1, +1} and no repeated item.  Two
models are supported:

* ``general``: per-item prefix sums are unconstrained integers; an item is
  present iff its prefix sum is positive.
* ``likes``: every prefix sum must stay in {0, 1} (insert only if absent,
  delete only if present).

A ``Stream`` is the boundary of the package.  It stores its updates in three
read-only int64 numpy arrays: ``offsets`` (length + 1 entries), ``items`` and
``deltas``; batch t (1-based) is ``items[offsets[t-1]:offsets[t]]`` paired
with the same slice of ``deltas``.  The list form ``batches`` is built from
the arrays when it is first read.  One vectorised pass in the constructor
checks every batch and, in the same pass, records the exact distinct count
after every step (the count sequence q_t), each item's flippancy (how often
its presence indicator flips, with the indicator defined to be 0 before the
stream starts), the first likes-model violation and whether every batch is a
singleton.  The oracles below read these stored values, and mechanisms read
q_t from the stream instead of replaying its batches.  ``CounterState`` and
``apply_batch`` replay batches one at a time for callers that feed a
mechanism batch by batch.  The module also provides the ``.dstream`` text
format, which ``loads`` parses straight into the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import index

import numpy as np

from .errors import ModelViolationError, ParameterError, StreamFormatError

UpdateBatch = list[tuple[int, int]]

GENERAL = "general"
LIKES = "likes"
_MODELS = (GENERAL, LIKES)


class Stream:
    """A turnstile input stream, validated once at construction.

    ``T`` is the declared length bound; the stream may have fewer steps, in
    which case the missing suffix is all-zero.  ``Stream(d, T, model,
    batches)`` converts a list of batches once; ``Stream.from_columns`` takes
    the arrays directly.  A malformed batch raises ``StreamFormatError``
    naming its step.  The constructor stores ``counts`` (q_t after each
    step), ``flips`` (per item), ``violation`` (the (item, step) of the
    first likes-model violation, or None) and ``singleton``.  ``counts``,
    ``flips`` and the update arrays are read-only int64 arrays, so these
    values always describe the stream; ``batches`` is built from them on
    first read and must not be changed either.
    """

    def __init__(self, d: int, T: int, model: str, batches: list[UpdateBatch] = ()):
        self._check_header(d, T, model, len(batches))
        sizes = accumulate(map(len, batches), initial=0)
        offsets = np.fromiter(sizes, dtype=np.int64, count=len(batches) + 1)
        # operator.index rejects floats and strings, which int64 would coerce
        flat = map(index, chain.from_iterable(chain.from_iterable(batches)))
        try:
            pairs = np.fromiter(flat, dtype=np.int64, count=2 * int(offsets[-1]))
        except OverflowError:  # an id or delta beyond int64 is out of range
            for t, batch in enumerate(batches, start=1):
                _check_step(batch, d, t)
            raise
        pairs = pairs.reshape(-1, 2)
        self._index(offsets, pairs[:, 0].copy(), pairs[:, 1].copy())

    @classmethod
    def from_columns(cls, d: int, T: int, model: str, offsets, items, deltas) -> Stream:
        """Build a stream from its arrays; the arrays are made read-only."""
        self = cls.__new__(cls)
        self._check_header(d, T, model, len(offsets) - 1)
        self._index(*(np.asarray(a, dtype=np.int64) for a in (offsets, items, deltas)))
        return self

    def _check_header(self, d: int, T: int, model: str, length: int) -> None:
        if d < 1:
            raise ParameterError(f"dimension d must be >= 1, got {d}")
        if T < 0:
            raise ParameterError(f"length bound T must be >= 0, got {T}")
        if model not in _MODELS:
            raise ParameterError(f"unknown model {model!r}")
        if length > T:
            raise StreamFormatError(f"stream has {length} batches but declares T={T}")
        self.d, self.T, self.model = d, T, model

    def _index(self, offsets: np.ndarray, items: np.ndarray, deltas: np.ndarray) -> None:
        """The validation pass: check every batch, then store the oracles."""
        for a in (offsets, items, deltas):
            a.flags.writeable = False
        self.offsets, self.items, self.deltas = offsets, items, deltas
        n = len(items)
        sizes = offsets[1:] - offsets[:-1]
        step = np.arange(len(sizes)).repeat(sizes)
        order = items.argsort(kind="stable")  # by item, then by step
        item_s, step_s, delta_s = items[order], step[order], deltas[order]
        new_item = np.empty(n, dtype=bool)  # first update of its item
        new_item[:1] = True
        np.not_equal(item_s[1:], item_s[:-1], out=new_item[1:])
        dup = (step_s[1:] == step_s[:-1]) & ~new_item[1:]
        if n and (
            item_s[0] < 1
            or item_s[-1] > self.d
            or np.count_nonzero(np.abs(deltas) != 1)
            or dup.any()
        ):
            bad = (items < 1) | (items > self.d) | (np.abs(deltas) != 1)
            t = int(np.concatenate((step[bad], step_s[1:][dup])).min()) + 1
            _check_step(self._batch(t), self.d, t)  # raises: same rules
        # per-item prefix sums after each update, in (item, step) order
        after = delta_s.cumsum()
        first = new_item.nonzero()[0]
        after -= (after[first] - delta_s[first])[new_item.cumsum() - 1]
        # +1 where the item becomes present, -1 where it stops being present
        gained = (after > 0).view(np.int8) - (after > delta_s).view(np.int8)
        dq = np.empty_like(gained)
        dq[order] = gained
        q = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dq, out=q[1:])
        self.counts = q[offsets[1:]]
        self.counts.flags.writeable = False
        self.flips = np.bincount(item_s[gained != 0] - 1, minlength=self.d)
        self.flips.flags.writeable = False
        self.violation = None
        if self.model == LIKES:
            outside = ((after < 0) | (after > 1)).nonzero()[0]
            if len(outside):
                i = order[outside].min()
                self.violation = (int(items[i]), int(step[i]) + 1)
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


@dataclass
class CounterState:
    """Per-item running sums plus the live distinct count.

    ``q`` is maintained incrementally and always equals ``|{i : c[i] > 0}|``.
    Update cost is proportional to the batch size only.
    """

    d: int
    c: list[int] = field(default_factory=list)
    q: int = 0
    t: int = 0

    def __post_init__(self):
        if not self.c:
            self.c = [0] * self.d
        elif len(self.c) != self.d:
            raise StreamFormatError("initial counts length does not match d")
        else:
            self.q = sum(1 for v in self.c if v > 0)


@dataclass
class FlippancySummary:
    total_K: int
    max_w: int


@dataclass
class ValidationReport:
    ok: bool
    violation: tuple[int, int] | None  # (item, time) of first likes violation
    singleton: bool


def check_batch(batch: UpdateBatch, d: int) -> None:
    """Reject out-of-range item ids, bad deltas, and duplicate items."""
    seen = set()
    for item, delta in batch:
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
    state.t += 1
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
    flips = stream.flips
    return FlippancySummary(
        total_K=int(flips.sum()),
        max_w=int(flips.max(initial=0)),
    )


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
# lines 2..T+1: space-separated "<item>:<+1|-1>" tokens; empty line = no-op


def dumps(stream: Stream) -> str:
    # a constructed stream's deltas are +1 or -1
    tokens = [
        f"{item}:+1" if delta > 0 else f"{item}:-1"
        for item, delta in zip(stream.items.tolist(), stream.deltas.tolist())
    ]
    bounds = stream.offsets.tolist()
    lines = [f"dstream 1 {stream.d} {stream.T} {stream.model}"]
    lines += [" ".join(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return "\n".join(lines) + "\n"


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
_MAX_DIGITS = 18  # so that every number fits int64


def _parse_columns(lines: list[str]):
    """Parse data lines into (offsets, items, deltas), or return None.

    This covers text made only of ``[+-]<digits>:[+-]<digits>`` tokens (signs
    optional, at most 18 digits per number) separated by spaces and tabs;
    for such text the arrays hold exactly the numbers that ``str.split`` and
    ``int`` read.  Any other text returns None.
    """
    # the leading spaces keep every digit window below inside the buffer
    raw = "".join((" " * _MAX_DIGITS, "\n".join(lines), " ")).encode("ascii", "replace")
    cls = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    if (cls[:-1] * 5 + cls[1:]).tobytes().translate(None, _PAIRS):
        return None
    # each token is now [+-]<digits>(:[+-]<digits>)*; require one colon each
    in_token = cls != 1
    start, end = np.flatnonzero(in_token[1:] != in_token[:-1]).reshape(-1, 2).T + 1
    colon = np.flatnonzero(cls == 4)
    if len(colon) != len(start) or np.any(colon < start) or np.any(colon > end):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    item_signed = cls[start] == 3
    delta_signed = cls[colon + 1] == 3
    item_width = colon - start - item_signed
    delta_width = end - colon - 1 - delta_signed
    if max(item_width.max(initial=0), delta_width.max(initial=0)) > _MAX_DIGITS:
        return None
    columns = []
    for last, width, signed, sign_at in (
        (colon, item_width, item_signed, start),
        (end, delta_width, delta_signed, colon + 1),
    ):
        value = np.zeros(len(last), dtype=np.int64)
        at = last - width.max(initial=0)
        for k in range(width.max(initial=0) - 1, -1, -1):
            digit = buf[at] - 48
            digit[width <= k] = 0
            value *= 10
            value += digit
            at += 1
        np.negative(value, out=value, where=signed & (buf[sign_at] == 45))
        columns.append(value)
    offsets = np.empty(len(lines) + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:-1] = np.searchsorted(colon, np.flatnonzero(buf == 10))
    offsets[-1] = len(colon)
    return offsets, columns[0], columns[1]


def _parse_tokens(lines: list[str]) -> list[UpdateBatch]:
    """Per-token parse of the data lines with ``str.split`` and ``int``."""
    batches: list[UpdateBatch] = []
    for lineno, line in enumerate(lines, start=2):
        batch: UpdateBatch = []
        for token in line.split():
            item_s, _, delta_s = token.partition(":")
            try:
                item, delta = int(item_s), int(delta_s)
            except ValueError:
                raise StreamFormatError(f"bad token {token!r} on line {lineno}")
            batch.append((item, delta))
        batches.append(batch)
    return batches


def loads(text: str) -> Stream:
    """Parse ``.dstream`` text.

    Text of plain ASCII tokens goes straight into the arrays
    (``_parse_columns``).  Other text (a token ``int`` rejects, or spellings
    it accepts such as ``1_0``, non-ASCII digits and spaces, or numbers over
    18 digits) goes through the per-token parse, which raises the first bad
    token's error or returns the batches.  Errors name the line.
    """
    lines = text.splitlines()
    if not lines:
        raise StreamFormatError("empty .dstream input")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "dstream" or header[1] != "1":
        raise StreamFormatError(f"bad .dstream header: {lines[0]!r}")
    try:
        d, T = int(header[2]), int(header[3])
    except ValueError:
        raise StreamFormatError(f"non-integer d/T in header: {lines[0]!r}")
    model = header[4]
    if model not in _MODELS:
        raise StreamFormatError(f"unknown model {model!r} in header")
    data_lines = lines[1:]
    if len(data_lines) > T:
        raise StreamFormatError(
            f"{len(data_lines)} data lines exceed declared T={T}"
        )
    columns = _parse_columns(data_lines)
    batches = None if columns else _parse_tokens(data_lines)
    try:
        if batches is None:
            return Stream.from_columns(d, T, model, *columns)
        return Stream(d, T, model, batches)
    except StreamFormatError as exc:  # the batch count was checked above
        raise StreamFormatError(f"line {exc.step + 1}: {exc}") from None


def write_file(stream: Stream, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(stream))


def read_file(path) -> Stream:
    with open(path) as fh:
        return loads(fh.read())
