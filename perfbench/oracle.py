"""Reference computations for the benchmark's correctness gate.

Everything here uses numpy and the documented ``.dstream`` and CSV text
formats only; nothing is imported from ``dpdistinct``, so a defect in the
package's own oracles cannot hide a defect in its outputs.
"""

from __future__ import annotations

import numpy as np


def parse_dstream(path):
    """Return (d, T, model, step, item, delta, n_steps).

    ``step``, ``item`` and ``delta`` hold one entry per update; ``step`` is
    0-based and ``n_steps`` is the number of data lines.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    magic, version, d, T, model = lines[0].split()
    if (magic, version) != ("dstream", "1"):
        raise ValueError(f"{path}: not a .dstream file")
    if lines[-1] == "":
        lines.pop()
    data = lines[1:]
    sizes = np.array([line.count(":") for line in data], dtype=np.int64)
    tokens = " ".join(data).replace(":", " ").split()
    pairs = np.array(tokens, dtype=np.int64).reshape(-1, 2)
    step = np.repeat(np.arange(len(data), dtype=np.int64), sizes)
    return int(d), int(T), model, step, pairs[:, 0], pairs[:, 1], len(data)


def distinct_counts(n_steps, step, item, delta):
    """Number of items with a positive prefix sum after every step."""
    order = np.lexsort((step, item))
    item, step, delta = item[order], step[order], delta[order]
    running = np.cumsum(delta)
    group_start = np.ones(len(item), dtype=bool)
    group_start[1:] = item[1:] != item[:-1]
    first = np.maximum.accumulate(np.where(group_start, np.arange(len(item)), 0))
    after = running - (running - delta)[first]
    flips = (after > 0).astype(np.int64) - ((after - delta) > 0).astype(np.int64)
    return np.cumsum(np.bincount(step, weights=flips, minlength=n_steps)).astype(
        np.int64
    )


def check_run_csv(text: str, truth: np.ndarray):
    """Gate one ``dpdistinct run`` CSV; returns (problems, outputs)."""
    lines = text.split("\n")
    n = len(truth)
    if lines[0] != "t,output,truth,abs_error":
        return [f"bad CSV header {lines[0]!r}"], None
    if len(lines) < n + 2 or not lines[1 + n].startswith("# max_error="):
        return [f"CSV does not have exactly {n} rows"], None
    body = lines[1 : 1 + n]
    cells = np.array(",".join(body).split(","), dtype=np.float64)
    if len(cells) != 4 * n:
        return ["CSV rows do not all have 4 columns"], None
    t, out, q, err = cells.reshape(n, 4).T
    problems = []
    if not np.array_equal(t, np.arange(1, n + 1)):
        problems.append("t column is not 1..T")
    bad = np.flatnonzero(q != truth)
    if len(bad):
        i = bad[0]
        problems.append(f"truth differs from the oracle at t={i + 1}: {q[i]:g} != {truth[i]}")
    # output and abs_error are both printed with 12 significant digits
    tol = 1e-11 * np.maximum(np.maximum(np.abs(out), np.abs(q)), 1.0)
    bad = np.flatnonzero(np.abs(err - np.abs(out - q)) > tol)
    if len(bad):
        problems.append(f"abs_error != |output - truth| at t={bad[0] + 1}")
    return problems, out


def zero_noise_outputs(truth: np.ndarray, thresh: float, S_K: int) -> np.ndarray:
    """The known-K threshold rule with every noise draw set to 0.

    Release 0; while fewer than S_K estimates are out, refresh to q whenever
    |out - q| > thresh; the S_K-th estimate (or a refresh request with the
    budget spent) ends the instance, and its last value is held.
    """
    outs = np.empty(len(truth))
    out, count, stopped = 0.0, 1, False
    for t, q in enumerate(truth.tolist()):
        if not stopped and abs(out - q) > thresh:
            if count < S_K:
                count += 1
                out = float(q)
            stopped = count >= S_K
        outs[t] = out
    return outs


def output_changes(outputs: np.ndarray) -> int:
    """Steps at which the released value differs from the previous step's."""
    return int(np.count_nonzero(outputs[1:] != outputs[:-1]))
