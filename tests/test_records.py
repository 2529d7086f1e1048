"""The package's value records are immutable ``NamedTuple``s.

Each keeps the field names, order and defaults it had as a dataclass, written
out below as literals.  ``PrivacyParams`` and ``MarginalsTable`` check their
fields however they are built: positionally, by keyword, through ``_replace``
and through ``_make``.
"""

import inspect
import math

import pytest

from dpdistinct import ParameterError, generators, harness, mechanisms, stream

REQUIRED = inspect.Parameter.empty

# each record: its fields with their defaults, and one valid instance's fields
RECORDS = {
    stream.FlippancySummary: ({"total_K": REQUIRED, "max_w": REQUIRED}, (3, 1)),
    stream.ValidationReport: (
        {"ok": REQUIRED, "violation": REQUIRED, "singleton": REQUIRED}, (True, None, False)
    ),
    harness.TrialsSummary: (
        {"n_trials": REQUIRED, "max_errors": REQUIRED, "quantiles": REQUIRED,
         "pass_fraction": REQUIRED, "bound": REQUIRED},
        (1, [0.5], {0.5: 0.5}, None, None),
    ),
    harness.BoundSpec: ({"branches": REQUIRED, "minimum": REQUIRED}, ({"zero": 0.0}, 0.0)),
    harness.ProbeResult: (
        {"eps_hat": REQUIRED, "status": REQUIRED, "n_bins": REQUIRED,
         "eligible_bins": REQUIRED, "projection_step": REQUIRED},
        (None, "inconclusive", 2, 0, 0),
    ),
    harness.BenchReport: (
        {"updates": REQUIRED, "steps": REQUIRED, "seconds": REQUIRED,
         "updates_per_second": REQUIRED, "laplace_draws": REQUIRED, "laplace_calls": REQUIRED,
         "gaussian_draws": REQUIRED, "gaussian_calls": REQUIRED},
        (4, 4, 0.5, 8.0, 4, 4, 0, 0),
    ),
    mechanisms.PrivacyParams: ({"eps": REQUIRED, "delta": 0.0}, (0.5, 0.0)),
    mechanisms.KnownKConfig: (
        {"eps": REQUIRED, "delta": REQUIRED, "K": REQUIRED, "T": REQUIRED, "beta": REQUIRED,
         "S_K": REQUIRED, "eps1": REQUIRED, "thresh": REQUIRED},
        (1.0, 0.0, 4, 8, 0.1, 2, 0.25, 100.0),
    ),
    mechanisms.RunResult: (
        {"outputs": REQUIRED, "yes_events": 0, "instances": 1, "abort_step": None,
         "fallback": None},
        ([0.0], 0, 1, None, None),
    ),
    mechanisms._Schedule: (
        {"name": REQUIRED, "eps": REQUIRED, "delta": REQUIRED, "beta": REQUIRED,
         "scaled": REQUIRED},
        ("unknown-k", 6, 6, 6, True),
    ),
    generators.MarginalsTable: (
        {"n": REQUIRED, "m": REQUIRED, "y": REQUIRED}, (1, 2, ((0, 1),))
    ),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_and_defaults(cls):
    fields, _ = RECORDS[cls]
    assert cls._fields == tuple(fields)
    params = inspect.signature(cls).parameters
    assert {name: p.default for name, p in params.items()} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_are_immutable_tuples(cls):
    _, values = RECORDS[cls]
    record = cls(*values)
    assert isinstance(record, tuple) and tuple(record) == values
    assert cls(**record._asdict()) == record
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        record.other = 0  # no instance dict
    assert type(record._replace()) is cls


def test_replace_keeps_the_other_fields():
    result = mechanisms.RunResult([0.0, 1.0], yes_events=2, abort_step=1)
    assert result._replace(outputs=[1.0]) == mechanisms.RunResult([1.0], 2, 1, 1, None)
    assert mechanisms.PrivacyParams(0.5)._replace(delta=0.1) == (0.5, 0.1)


# invalid fields, each with the error message that construction raises
CHECKED = [
    (mechanisms.PrivacyParams, (-1.0, 0.0), "epsilon must be positive and finite, got -1.0"),
    (mechanisms.PrivacyParams, (math.nan, 0.0), "epsilon must be positive and finite, got nan"),
    (mechanisms.PrivacyParams, (math.inf, 0.0), "epsilon must be positive and finite, got inf"),
    (mechanisms.PrivacyParams, (0.5, 1.0), "delta must be in [0, 1), got 1.0"),
    (mechanisms.PrivacyParams, (0.5, -0.1), "delta must be in [0, 1), got -0.1"),
    (mechanisms.PrivacyParams, (1.0, 0.1),
     "the approximate-DP guarantee requires epsilon < 1 when delta > 0"),
    (generators.MarginalsTable, (0, 2, ()), "table must have n, m >= 1"),
    (generators.MarginalsTable, (1, 0, ((),)), "table must have n, m >= 1"),
    (generators.MarginalsTable, (2, 2, ((0, 1),)), "table shape does not match n x m"),
    (generators.MarginalsTable, (1, 2, ((0, 1, 1),)), "table shape does not match n x m"),
    (generators.MarginalsTable, (1, 2, ((0, 2),)), "table entries must be 0/1"),
]


@pytest.mark.parametrize("how", ["positional", "keyword", "_replace", "_make"])
@pytest.mark.parametrize("cls, values, message", CHECKED)
def test_checked_records_reject_bad_fields_however_built(cls, values, message, how):
    build = {
        "positional": lambda: cls(*values),
        "keyword": lambda: cls(**dict(zip(cls._fields, values))),
        "_replace": lambda: cls(*RECORDS[cls][1])._replace(**dict(zip(cls._fields, values))),
        "_make": lambda: cls._make(values),
    }[how]
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == message
