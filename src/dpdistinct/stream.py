"""Turnstile streams and exact (non-private) oracles.

A stream is a sequence of sparse update batches over items 1..d.  Each batch
holds (item, delta) pairs with delta in {-1, +1} and no repeated item.  Two
models are supported:

* ``general``: per-item prefix sums are unconstrained integers; an item is
  present iff its prefix sum is positive.
* ``likes``: every prefix sum must stay in {0, 1} (insert only if absent,
  delete only if present).

A ``Stream`` is the boundary of the package: its constructor checks every
batch once and, in the same pass, records the exact distinct count after
every step (the count sequence q_t), each item's flippancy (how often its
presence indicator flips, with the indicator defined to be 0 before the
stream starts), the first likes-model violation and whether every batch is a
singleton.  The oracles below read these stored values, and mechanisms read
q_t from the stream instead of replaying its batches.  ``CounterState`` and
``apply_batch`` replay batches one at a time for callers that feed a
mechanism batch by batch.  The module also provides the ``.dstream`` text
format.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import ModelViolationError, ParameterError, StreamFormatError

UpdateBatch = list[tuple[int, int]]

GENERAL = "general"
LIKES = "likes"
_MODELS = (GENERAL, LIKES)


@dataclass
class Stream:
    """A turnstile input stream, validated once at construction.

    ``T`` is the declared length bound; ``batches`` may be shorter, in which
    case the missing suffix is all-zero.  A malformed batch raises
    ``StreamFormatError`` naming its step.  The constructor stores ``counts``
    (q_t after each step), ``flips`` (per item), ``violation`` (the (item,
    step) of the first likes-model violation, or None) and ``singleton``.
    A Stream is not changed after construction: these values would no longer
    describe its batches.
    """

    d: int
    T: int
    model: str
    batches: list[UpdateBatch] = field(default_factory=list)
    counts: array = field(init=False, repr=False, compare=False)
    flips: array = field(init=False, repr=False, compare=False)
    violation: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    singleton: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"dimension d must be >= 1, got {self.d}")
        if self.T < 0:
            raise ParameterError(f"length bound T must be >= 0, got {self.T}")
        if self.model not in _MODELS:
            raise ParameterError(f"unknown model {self.model!r}")
        if len(self.batches) > self.T:
            raise StreamFormatError(
                f"stream has {len(self.batches)} batches but declares T={self.T}"
            )
        likes = self.model == LIKES
        sums = [0] * self.d
        flips = [0] * self.d
        counts = array("q")
        q = 0
        singleton = True
        violation = None
        for t, batch in enumerate(self.batches, start=1):
            try:
                check_batch(batch, self.d)
            except StreamFormatError as exc:
                raise StreamFormatError(f"step {t}: {exc}", step=t) from None
            if len(batch) > 1:
                singleton = False
            for item, delta in batch:
                i = item - 1
                old = sums[i]
                new = old + delta
                sums[i] = new
                if (new > 0) != (old > 0):
                    flips[i] += 1
                    q += delta
                if new not in (0, 1) and likes and violation is None:
                    violation = (item, t)
            counts.append(q)
        self.counts = counts
        self.flips = array("q", flips)
        self.violation = violation
        self.singleton = singleton

    @property
    def length(self) -> int:
        return len(self.batches)


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
    per_item: list[int]


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
        total_K=sum(flips),
        max_w=max(flips, default=0),
        per_item=flips.tolist(),
    )


def diff_sequence(stream: Stream) -> list[int]:
    """First differences of the distinct count, with CountDistinct^0 = 0."""
    prev = 0
    out = []
    for q in stream.counts:
        out.append(q - prev)
        prev = q
    return out


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
    lines = [f"dstream 1 {stream.d} {stream.T} {stream.model}"]
    for batch in stream.batches:
        lines.append(" ".join(f"{item}:{delta:+d}" for item, delta in batch))
    return "\n".join(lines) + "\n"


def loads(text: str) -> Stream:
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
    batches: list[UpdateBatch] = []
    for lineno, line in enumerate(data_lines, start=2):
        batch: UpdateBatch = []
        for token in line.split():
            item_s, _, delta_s = token.partition(":")
            try:
                item, delta = int(item_s), int(delta_s)
            except ValueError:
                raise StreamFormatError(f"bad token {token!r} on line {lineno}")
            batch.append((item, delta))
        batches.append(batch)
    try:
        return Stream(d=d, T=T, model=model, batches=batches)
    except StreamFormatError as exc:  # the batch count was checked above
        raise StreamFormatError(f"line {exc.step + 1}: {exc}") from None


def write_file(stream: Stream, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(stream))


def read_file(path) -> Stream:
    with open(path) as fh:
        return loads(fh.read())
