"""Constructive stream families used as the adversarial test corpus.

The block and multi-update families realize the packing-style worst cases:
a chosen set of blocks (or time steps) at which a group of items is inserted
and deleted alternately, hitting an exact target flippancy.  The marginals
reductions turn a binary table into a stream whose distinct counts encode the
table's column means.  ``random_stream`` produces seeded random streams with
a target total flippancy.  Every generator and neighbour constructor builds
its (step, item, delta) columns with numpy, and ``_assemble`` hands them to
``Stream.from_columns``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import stream as streammod
from .errors import ParameterError, StreamFormatError
from .stream import Stream


class MarginalsTable(NamedTuple("MarginalsTable", [("n", int), ("m", int), ("y", tuple)])):
    __slots__ = ()

    def __new__(cls, n: int, m: int, y: tuple[tuple[int, ...], ...]):
        if n < 1 or m < 1:
            raise ParameterError("table must have n, m >= 1")
        if len(y) != n or any(len(row) != m for row in y):
            raise ParameterError("table shape does not match n x m")
        if any(v not in (0, 1) for row in y for v in row):
            raise ParameterError("table entries must be 0/1")
        return super().__new__(cls, n, m, y)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


def blocks_stream(d: int, m: int, J: tuple[int, ...], T_prime: int) -> Stream:
    """Singleton-update likes stream built from chosen blocks.

    The timeline is split into T'/m blocks of length m.  Item i (of the first
    m items) is inserted at position i of the 1st, 3rd, ... chosen block and
    deleted at position i of the 2nd, 4th, ... chosen block.  Total flippancy
    is exactly m * |J|.
    """
    if d < m or m < 1:
        raise ParameterError(f"need d >= m >= 1, got d={d}, m={m}")
    if T_prime < 0 or T_prime % m != 0:
        raise ParameterError(f"T'={T_prime} must be a non-negative multiple of m={m}")
    n_blocks = T_prime // m
    if list(J) != sorted(set(J)) or any(not 1 <= j <= n_blocks for j in J):
        raise ParameterError(
            f"J must be strictly increasing block indices in [1, {n_blocks}]"
        )
    _check_size(T_prime, m * len(J))
    return _alternating(d, T_prime, m, (np.array(J, dtype=np.int64) - 1) * m, 1)


def multiupdate_stream(d: int, m: int, I: tuple[int, ...], T_prime: int) -> Stream:
    """Likes stream inserting/deleting all m items at each chosen step.

    Items 1..m are all inserted at the 1st, 3rd, ... chosen step and all
    deleted at the 2nd, 4th, ... chosen step; flippancy is m * |I|.
    """
    if d < m or m < 1:
        raise ParameterError(f"need d >= m >= 1, got d={d}, m={m}")
    if list(I) != sorted(set(I)) or any(not 1 <= t <= T_prime for t in I):
        raise ParameterError(f"I must be strictly increasing steps in [1, {T_prime}]")
    _check_size(T_prime, m * len(I))
    return _alternating(d, T_prime, m, np.array(I, dtype=np.int64) - 1, 0)


def _alternating(d: int, T: int, m: int, starts: np.ndarray, stride: int) -> Stream:
    """Items 1..m in each group g, inserted when g is even and deleted when
    it is odd; item i of group g is at 0-based step starts[g] + stride*(i-1)."""
    k = np.arange(len(starts) * m)
    steps = starts.repeat(m) + stride * (k % m)
    return _assemble(d, T, steps, k % m + 1, 1 - 2 * (k // m % 2))


def marginals_to_stream_singleton(table: MarginalsTable) -> Stream:
    """Column-by-column singleton encoding of a binary table; T = 2nm.

    For each column j there is a block of n insertion slots followed by n
    deletion slots; row i occupies slot i (and n+i) of the block iff
    y[i, j] = 1.
    """
    n, m = table.n, table.m
    # slot i of half h (0 insert, 1 delete) of column j's block is step 2nj + nh + i
    steps = np.flatnonzero(np.array(table.y, dtype=bool).T.repeat(2, axis=0))
    return _assemble(n, 2 * n * m, steps, steps % n + 1, 1 - 2 * (steps // n % 2))


def marginals_to_stream_multi(table: MarginalsTable) -> Stream:
    """Two steps per column: insert the column's row set, then delete it."""
    steps, rows = np.nonzero(np.array(table.y, dtype=bool).T.repeat(2, axis=0))
    return _assemble(table.n, 2 * table.m, steps, rows + 1, 1 - 2 * (steps % 2))


def extract_marginals(
    outputs: list[float], n: int, m: int, variant: str
) -> list[float]:
    """Read the column-mean estimates off a mechanism's output sequence."""
    if variant == "singleton":
        needed = 2 * n * m
        idx = [(2 * j - 1) * n - 1 for j in range(1, m + 1)]
    elif variant == "multi":
        needed = 2 * m
        idx = [2 * j - 2 for j in range(1, m + 1)]
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    if len(outputs) < needed:
        raise StreamFormatError(
            f"need at least {needed} outputs for variant {variant!r}, got {len(outputs)}"
        )
    return [outputs[i] / n for i in idx]


def read_marginals_file(path) -> MarginalsTable:
    """Parse the table format: line 1 'n m', then n rows of m 0/1 values."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise StreamFormatError("marginals file too short")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        values = [int(v) for v in tokens[2:]]
    except ValueError:
        raise StreamFormatError("non-integer value in marginals file")
    if min(n, m) < 1:
        raise StreamFormatError(f"table must have n, m >= 1, got n={n}, m={m}")
    if len(values) != n * m:
        raise StreamFormatError(f"expected {n * m} table entries, found {len(values)}")
    if not set(values) <= {0, 1}:
        raise StreamFormatError("table entries must be 0/1")
    rows = tuple(tuple(values[i * m : (i + 1) * m]) for i in range(n))
    return MarginalsTable(n=n, m=m, y=rows)


def random_stream(
    d: int,
    T: int,
    model: str = streammod.GENERAL,
    singleton: bool = False,
    target_K: int = 0,
    seed: int = 0,
) -> Stream:
    """Seeded random stream with total flippancy in [target_K/2, target_K].

    Flips are placed on uniformly chosen (item, step) slots; per item the
    chosen steps alternate insert/delete in time order, so every update flips
    the presence indicator and the achieved flippancy equals the number of
    placed updates.  In the general model some items additionally receive
    non-flipping delete/insert pairs (prefix sum dipping below zero), which
    do not change the flippancy.
    """
    if target_K < 0:
        raise ParameterError(f"target_K must be >= 0, got {target_K}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    texture = model == streammod.GENERAL and not singleton and target_K < d * T and T >= 2
    _check_size(T, target_K + (d if texture else 0))
    if not singleton and d * T >= 2**63:  # numpy draws the slots as int64
        raise ParameterError(f"d*T={d * T} slots must be below 2^63")
    if target_K > (T if singleton else d * T):
        raise ParameterError(
            f"target_K={target_K} infeasible for d={d}, T={T}, singleton={singleton}"
        )
    rng = np.random.default_rng(seed)
    if singleton:
        steps = rng.choice(T, size=target_K, replace=False)
        items = rng.integers(1, d + 1, size=target_K)
    else:
        slots = rng.choice(d * T, size=target_K, replace=False)
        items, steps = slots // T + 1, slots % T
    # per item, in step order, the updates alternate insert, delete, ...
    order = _pair_order(items, steps, T)
    items, steps = items[order], steps[order]
    deltas = 1 - 2 * ((np.arange(len(items)) - np.searchsorted(items, items)) % 2)
    if texture:
        # a sub-zero excursion on half the items that no flip uses
        free = np.setdiff1d(np.arange(1, d + 1), items)
        free = free[: max(1, len(free) // 2)]
        dips = [sorted(rng.choice(T, size=2, replace=False).tolist()) for _ in free]
        steps = np.concatenate((steps, np.array(dips, dtype=np.int64).T.ravel()))
        items = np.concatenate((items, free, free))
        deltas = np.concatenate((deltas, np.repeat([-1, 1], len(free))))
    order = _pair_order(steps, items, d + 1)
    return _assemble(d, T, steps[order], items[order], deltas[order], model)


def _pair_order(major: np.ndarray, minor: np.ndarray, span: int) -> np.ndarray:
    """The order that sorts distinct (major, minor) pairs, each minor in
    [0, span), by major and then by minor: one argsort of the unique key
    major * span + minor, or ``np.lexsort`` where that key or span itself
    could pass the int64 range."""
    if (int(major.max(initial=0)) + 1) * span >= 2**63:
        return np.lexsort((minor, major))
    return np.argsort(major * span + minor)


def _check_size(length: int, updates: int) -> None:
    """Reject sizes numpy cannot hold: an int64 array is below 2^63 bytes."""
    if length < 0:
        raise ParameterError(f"length bound T must be >= 0, got {length}")
    if max(length + 1, updates) >= 2**60:
        msg = f"{length} steps and {updates} updates do not fit in arrays of 2^60 entries"
        raise ParameterError(msg)


def _assemble(d, T, steps, items, deltas, model=streammod.LIKES, length=None) -> Stream:
    """The stream whose k-th update is (items[k], deltas[k]) at 0-based step
    steps[k], for updates in step order, with ``length`` (default T) steps."""
    length = T if length is None else length
    offsets = np.zeros(length + 1, dtype=np.min_scalar_type(len(steps)))  # as Stream keeps it
    np.cumsum(np.bincount(steps, minlength=length), out=offsets[1:])
    return Stream.from_columns(d, T, model, offsets, items, deltas)


def _replace_entries(
    stream: Stream, drop: np.ndarray, steps: np.ndarray, item: int, deltas: np.ndarray
) -> Stream:
    """Copy of the stream without the entries flagged in ``drop`` and with
    (item, delta) added at each 0-based step in ``steps``.

    A batch that gains an entry is sorted by item, as ``list.sort`` sorts
    its (item, delta) pairs; every other batch keeps its order.  The result
    must still validate for the stream's declared model.
    """
    offsets, keep = stream.offsets, ~drop
    sizes = offsets[1:] - offsets[:-1]
    step = np.concatenate((np.arange(stream.length).repeat(sizes)[keep], steps))
    items = np.concatenate((stream.items[keep], np.full(len(steps), item, stream.items.dtype)))
    order = slice(None)  # no batch gains an entry, so none is reordered
    if len(steps):
        gains = np.zeros(stream.length, dtype=bool)
        gains[steps] = True
        within = (np.arange(len(drop)) - offsets[:-1].repeat(sizes))[keep]
        # inside a batch: by item where it gains an entry, else as it was; the
        # ids as int64, since uint64 ids mixed with int64 positions go float
        key = np.where(gains[step], items.astype(np.int64), np.concatenate((within, steps)))
        order = np.lexsort((key, step))
    deltas = np.concatenate((stream.deltas[keep], deltas))
    out = _assemble(
        stream.d, stream.T, step, items[order], deltas[order], stream.model, stream.length
    )
    streammod.require_valid(out)
    return out


def neighbor_event(
    stream: Stream, t_star: int, i_star: int, new_value: int
) -> Stream:
    """Copy of the stream with coordinate (t*, i*) replaced by new_value.

    The result must still validate for the stream's declared model.
    """
    if not 1 <= t_star <= stream.length:
        raise ParameterError(f"t*={t_star} outside [1, {stream.length}]")
    if not 1 <= i_star <= stream.d:
        raise ParameterError(f"i*={i_star} outside [1, {stream.d}]")
    if new_value not in (-1, 0, 1):
        raise ParameterError(f"new value must be in {{-1, 0, 1}}, got {new_value}")
    drop = np.zeros(len(stream.items), dtype=bool)
    lo, hi = stream.offsets[t_star - 1], stream.offsets[t_star]
    drop[lo:hi] = stream.items[lo:hi] == i_star
    steps = np.array([t_star - 1] if new_value else [], dtype=np.int64)
    return _replace_entries(stream, drop, steps, i_star, np.full(len(steps), new_value))


def neighbor_item(
    stream: Stream, i_star: int, replacement: list[int]
) -> Stream:
    """Copy with item i*'s whole update column replaced.

    ``replacement`` gives the item's delta at every step (0 = no update).
    """
    if not 1 <= i_star <= stream.d:
        raise ParameterError(f"i*={i_star} outside [1, {stream.d}]")
    if len(replacement) != stream.length:
        raise ParameterError(
            f"replacement column must have length {stream.length}"
        )
    column = np.asarray(replacement)
    if np.count_nonzero((column != -1) & (column != 0) & (column != 1)):
        raise ParameterError("replacement values must be in {-1, 0, 1}")
    steps = np.flatnonzero(column)
    return _replace_entries(
        stream, stream.items == i_star, steps, i_star, column[steps].astype(np.int64)
    )
