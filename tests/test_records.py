"""Contract of the value records: pickling, validation, immutability, hashing.

The pool pickles ``ProtocolConfig`` and ``ChannelParams`` into its workers and
``KeyRatePoint`` back, and a ``ClickPattern`` keys dicts.
"""

import pickle

import pytest

from ubb84.attack import constraint_set, maximize_holevo_qubit
from ubb84.channel import ChannelParams, default_params, honest_statistics
from ubb84.engine import qubit_point, realistic_keyrate
from ubb84.protocol import ProtocolConfig, make_config
from ubb84.sifting import SymmetricState
from ubb84.squash import ClickPattern


def _records():
    cfg = make_config(0.5, "pbs")
    params = default_params()
    solved = maximize_holevo_qubit(make_config(0.5), 0.03)
    return [
        cfg,
        cfg.receiver,
        params,
        honest_statistics(cfg, params, 10.0)(0.3),
        constraint_set(cfg, 0.03, 0.2),
        solved,
        solved.argmax,
        qubit_point(cfg, 0.03),
        realistic_keyrate(cfg, params, 10.0, 0.3),
        ClickPattern(c2=True, d1=True, basis="odd"),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]

# (valid record, fields of one bad value, message)
BAD = [
    (make_config(0.5), {"kappa": 0.0}, "kappa must be in"),
    (make_config(0.5), {"kappa": 1e-17}, "too small"),
    (make_config(0.5), {"variant": "diagonal"}, "is not a valid Variant"),
    (default_params(), {"eta_det": 0.0}, "eta_det must be in"),
    (default_params(), {"y0": float("nan")}, "y0 must be finite"),
    (SymmetricState(0.25, 0.25, 0.25, 0.25, 0.1j), {"a": -0.1}, "negative"),
    (SymmetricState(0.25, 0.25, 0.25, 0.25, 0.1j), {"f": 0.3}, "not PSD"),
    (ClickPattern(c2=True), {"basis": "diagonal"}, "basis must be"),
]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


@pytest.mark.parametrize("record, bad, message", BAD,
                         ids=[f"{type(r).__name__}-{next(iter(b))}" for r, b, _ in BAD])
def test_bad_values_raise_on_construction_and_replace(record, bad, message):
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)


def test_replace_keeps_type_and_other_fields():
    params = default_params()._replace(y0=0.0)
    assert type(params) is ChannelParams
    assert params.y0 == 0.0
    assert params.e_d == default_params().e_d
    assert type(make_config(0.5)._replace(kappa=0.2)) is ProtocolConfig


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_immutable_without_instance_dict(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    assert not hasattr(record, "__dict__")


def test_click_pattern_keys_the_table_cache():
    one, same = ClickPattern(c2=True, basis="odd"), ClickPattern(c2=True, basis="odd")
    assert hash(one) == hash(same)
    assert {one: 1}[same] == 1
