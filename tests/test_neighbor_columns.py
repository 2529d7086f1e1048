"""Property tests: the columnar neighbour generators against the list versions.

``reference_event`` and ``reference_item`` are the list-of-batches versions
that ``neighbor_event`` and ``neighbor_item`` replaced.  For every input the
columnar versions must build the same arrays and the same ``.dstream`` text,
or raise the same exception class with the same message.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpdistinct import stream as streammod
from dpdistinct.errors import ParameterError
from dpdistinct.generators import neighbor_event, neighbor_item
from dpdistinct.stream import Stream

SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_event(stream, t_star, i_star, new_value):
    if not 1 <= t_star <= stream.length:
        raise ParameterError(f"t*={t_star} outside [1, {stream.length}]")
    if not 1 <= i_star <= stream.d:
        raise ParameterError(f"i*={i_star} outside [1, {stream.d}]")
    if new_value not in (-1, 0, 1):
        raise ParameterError(f"new value must be in {{-1, 0, 1}}, got {new_value}")
    batches = [list(b) for b in stream.batches]
    batch = [(i, v) for i, v in batches[t_star - 1] if i != i_star]
    if new_value != 0:
        batch.append((i_star, new_value))
        batch.sort()
    batches[t_star - 1] = batch
    out = Stream(d=stream.d, T=stream.T, model=stream.model, batches=batches)
    streammod.require_valid(out)
    return out


def reference_item(stream, i_star, replacement):
    if not 1 <= i_star <= stream.d:
        raise ParameterError(f"i*={i_star} outside [1, {stream.d}]")
    if len(replacement) != stream.length:
        raise ParameterError(f"replacement column must have length {stream.length}")
    if any(v not in (-1, 0, 1) for v in replacement):
        raise ParameterError("replacement values must be in {-1, 0, 1}")
    batches = []
    for batch, v in zip(stream.batches, replacement):
        nb = [(i, val) for i, val in batch if i != i_star]
        if v != 0:
            nb.append((i_star, v))
            nb.sort()
        batches.append(nb)
    out = Stream(d=stream.d, T=stream.T, model=stream.model, batches=batches)
    streammod.require_valid(out)
    return out


@st.composite
def streams(draw):
    """Valid streams of either model, with batches in any item order; likes
    streams may break the model, which the neighbours must report."""
    d = draw(st.integers(1, 6))
    length = draw(st.integers(0, 12))
    batches = [
        [
            (i, draw(st.sampled_from([-1, 1])))
            for i in draw(st.permutations(range(1, d + 1)))[: draw(st.integers(0, d))]
        ]
        for _ in range(length)
    ]
    T = length + draw(st.integers(0, 2))
    return Stream(d, T, draw(st.sampled_from(["general", "likes"])), batches)


def outcome(build, *args):
    """The built stream's arrays and text, or the exception's class and text."""
    try:
        s = build(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return s.offsets.tolist(), s.items.tolist(), s.deltas.tolist(), streammod.dumps(s)


@SETTINGS
@given(
    s=streams(),
    t_star=st.integers(-1, 14),
    i_star=st.integers(-1, 8),
    new_value=st.integers(-2, 2),
)
def test_event_neighbor_matches_list_version(s, t_star, i_star, new_value):
    assert outcome(neighbor_event, s, t_star, i_star, new_value) == outcome(
        reference_event, s, t_star, i_star, new_value
    )


@SETTINGS
@given(s=streams(), i_star=st.integers(-1, 8), data=st.data())
def test_item_neighbor_matches_list_version(s, i_star, data):
    length = data.draw(st.sampled_from([s.length, s.length, s.length + 1, max(s.length - 1, 0)]))
    values = st.sampled_from([-1, 0, 0, 1]) | st.integers(-3, 3)
    replacement = data.draw(st.lists(values, min_size=length, max_size=length))
    assert outcome(neighbor_item, s, i_star, replacement) == outcome(
        reference_item, s, i_star, replacement
    )
