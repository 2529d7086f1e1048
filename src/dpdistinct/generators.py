"""Constructive stream families used as the adversarial test corpus.

The block and multi-update families realize the packing-style worst cases:
a chosen set of blocks (or time steps) at which a group of items is inserted
and deleted alternately, hitting an exact target flippancy.  The marginals
reductions turn a binary table into a stream whose distinct counts encode the
table's column means.  ``random_stream`` produces seeded random streams with
a target total flippancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stream as streammod
from .errors import ParameterError, StreamFormatError
from .stream import Stream, UpdateBatch


@dataclass(frozen=True)
class MarginalsTable:
    n: int
    m: int
    y: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParameterError("table must have n, m >= 1")
        if len(self.y) != self.n or any(len(row) != self.m for row in self.y):
            raise ParameterError("table shape does not match n x m")
        if any(v not in (0, 1) for row in self.y for v in row):
            raise ParameterError("table entries must be 0/1")


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
    batches: list[UpdateBatch] = [[] for _ in range(T_prime)]
    for pos, j in enumerate(J):
        delta = 1 if pos % 2 == 0 else -1
        for i in range(1, m + 1):
            t = (j - 1) * m + i
            batches[t - 1] = [(i, delta)]
    return Stream(d=d, T=T_prime, model=streammod.LIKES, batches=batches)


def multiupdate_stream(d: int, m: int, I: tuple[int, ...], T_prime: int) -> Stream:
    """Likes stream inserting/deleting all m items at each chosen step.

    Items 1..m are all inserted at the 1st, 3rd, ... chosen step and all
    deleted at the 2nd, 4th, ... chosen step; flippancy is m * |I|.
    """
    if d < m or m < 1:
        raise ParameterError(f"need d >= m >= 1, got d={d}, m={m}")
    if list(I) != sorted(set(I)) or any(not 1 <= t <= T_prime for t in I):
        raise ParameterError(f"I must be strictly increasing steps in [1, {T_prime}]")
    batches: list[UpdateBatch] = [[] for _ in range(T_prime)]
    for pos, t in enumerate(I):
        delta = 1 if pos % 2 == 0 else -1
        batches[t - 1] = [(i, delta) for i in range(1, m + 1)]
    return Stream(d=d, T=T_prime, model=streammod.LIKES, batches=batches)


def marginals_to_stream_singleton(table: MarginalsTable) -> Stream:
    """Column-by-column singleton encoding of a binary table; T = 2nm.

    For each column j there is a block of n insertion slots followed by n
    deletion slots; row i occupies slot i (and n+i) of the block iff
    y[i, j] = 1.
    """
    n, m = table.n, table.m
    batches: list[UpdateBatch] = [[] for _ in range(2 * n * m)]
    for j in range(m):
        base = j * 2 * n
        for i in range(n):
            if table.y[i][j]:
                batches[base + i] = [(i + 1, 1)]
                batches[base + n + i] = [(i + 1, -1)]
    return Stream(d=n, T=2 * n * m, model=streammod.LIKES, batches=batches)


def marginals_to_stream_multi(table: MarginalsTable) -> Stream:
    """Two steps per column: insert the column's row set, then delete it."""
    n, m = table.n, table.m
    batches: list[UpdateBatch] = []
    for j in range(m):
        rows = [(i + 1, 1) for i in range(n) if table.y[i][j]]
        batches.append(rows)
        batches.append([(item, -1) for item, _ in rows])
    return Stream(d=n, T=2 * m, model=streammod.LIKES, batches=batches)


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
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise StreamFormatError("marginals file too short")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        values = [int(v) for v in tokens[2:]]
    except ValueError:
        raise StreamFormatError("non-integer value in marginals file")
    if len(values) != n * m:
        raise StreamFormatError(
            f"expected {n * m} table entries, found {len(values)}"
        )
    rows = tuple(
        tuple(values[i * m : (i + 1) * m]) for i in range(n)
    )
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
    limit = T if singleton else d * T
    if target_K > limit:
        raise ParameterError(
            f"target_K={target_K} infeasible for d={d}, T={T}, singleton={singleton}"
        )
    rng = np.random.default_rng(seed)
    batches: list[UpdateBatch] = [[] for _ in range(T)]
    per_item_steps: dict[int, list[int]] = {}
    if singleton:
        steps = rng.choice(T, size=target_K, replace=False)
        items = rng.integers(1, d + 1, size=target_K)
        for t, item in zip(steps.tolist(), items.tolist()):
            per_item_steps.setdefault(item, []).append(t)
    else:
        slots = rng.choice(d * T, size=target_K, replace=False)
        for s in slots.tolist():
            per_item_steps.setdefault(s // T + 1, []).append(s % T)
    for item, steps in per_item_steps.items():
        for pos, t in enumerate(sorted(steps)):
            batches[t].append((item, 1 if pos % 2 == 0 else -1))
    if model == streammod.GENERAL and not singleton and target_K < d * T:
        # texture: a few sub-zero excursions on slots not used for flips
        free_items = [i for i in range(1, d + 1) if i not in per_item_steps]
        for item in free_items[: max(1, len(free_items) // 2)]:
            if T < 2:
                break
            t1, t2 = sorted(rng.choice(T, size=2, replace=False).tolist())
            batches[t1].append((item, -1))
            batches[t2].append((item, 1))
    for batch in batches:
        batch.sort()
    return Stream(d=d, T=T, model=model, batches=batches)


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
    items = np.concatenate((stream.items[keep], np.full(len(steps), item)))
    order = slice(None)  # no batch gains an entry, so none is reordered
    if len(steps):
        gains = np.zeros(stream.length, dtype=bool)
        gains[steps] = True
        within = (np.arange(len(drop)) - offsets[:-1].repeat(sizes))[keep]
        # inside a batch: by item where it gains an entry, else as it was
        key = np.where(gains[step], items, np.concatenate((within, steps)))
        order = np.lexsort((key, step))
    new_offsets = np.zeros(stream.length + 1, dtype=np.int64)
    np.cumsum(np.bincount(step, minlength=stream.length), out=new_offsets[1:])
    out = Stream.from_columns(
        stream.d,
        stream.T,
        stream.model,
        new_offsets,
        items[order],
        np.concatenate((stream.deltas[keep], deltas))[order],
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
