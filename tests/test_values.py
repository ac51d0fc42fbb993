"""The checked value types: named tuples whose `__new__` refuses bad values.

Every way to build one runs the same checks: positional and keyword
arguments, `_make`, and `_replace` through it. A value prints as
`Name(field=value, ...)`, copies as an equal value, and equals the plain
tuple of its fields. Every checked type takes its `_make` from one base.
"""

import copy
import importlib
import math
import pkgutil

import pytest

import cct
from cct import CheckedValue
from cct.attestation import AttestationQuote, Measurement
from cct.config import DeploymentConfig
from cct.enclave import EnclaveConfig, GpsPoint
from cct.ident import TimeParams
from cct.sim.scenario import EncounterEvent, ScenarioConfig

_MEASUREMENT = Measurement(bytes(32))

# (a valid value, the field to spoil, a value it refuses, the message)
CASES = [
    (_MEASUREMENT, "value", b"short", "measurement must be 32 bytes"),
    (
        AttestationQuote(_MEASUREMENT, bytes(32), bytes(64)),
        "enclave_session_pub",
        bytes(31),
        "enclave session public key must be 32 bytes",
    ),
    (
        AttestationQuote(_MEASUREMENT, bytes(32), bytes(64)),
        "platform_signature",
        bytes(65),
        "platform signature must be 64 bytes",
    ),
    (TimeParams(t0=0), "delta_t", 0, "delta_t must be positive"),
    (TimeParams(t0=0), "t0", -1, "t0 must be non-negative"),
    (GpsPoint(1.0, 2.0, 10.0), "lat", 90.5, "latitude out of range"),
    (GpsPoint(1.0, 2.0, 10.0), "lon", -180.0, "longitude out of range"),
    (GpsPoint(1.0, 2.0, 10.0), "t", math.nan, "time out of range"),
    (GpsPoint(1.0, 2.0, 10.0), "t", 10**400, "time out of range"),
    (EnclaveConfig(bytes(32)), "retention", -1, "retention must be non-negative"),
    (EnclaveConfig(bytes(32)), "gps_tau", math.nan, "gps_tau must be non-negative"),
    (DeploymentConfig(EnclaveConfig(bytes(32))), "port", 65536, "port must be in 0-65535"),
    (EncounterEvent(0, 1, 2), "device_j", 1, "encounter requires two distinct devices"),
    (ScenarioConfig(n_devices=4, n_intervals=2), "n_devices", 0, "n_devices must be positive"),
    (ScenarioConfig(n_devices=4, n_intervals=2), "seed", 2**64, "seed must fit in 64 bits"),
]


def _case_id(case) -> str:
    return f"{type(case[0]).__name__}.{case[1]}"


@pytest.mark.parametrize("good, field, bad, message", CASES, ids=[_case_id(c) for c in CASES])
def test_every_way_to_build_a_value_checks_it(good, field, bad, message):
    cls = type(good)
    spoiled = {**good._asdict(), field: bad}
    builds = {
        "positional": lambda: cls(*spoiled.values()),
        "keyword": lambda: cls(**spoiled),
        "_make": lambda: cls._make(spoiled.values()),
        "_replace": lambda: good._replace(**{field: bad}),
    }
    for how, build in builds.items():
        with pytest.raises(ValueError, match=message):
            build()
            pytest.fail(f"{how} built a refused value")


# one valid value of each type
VALUES = {type(c[0]).__name__: c[0] for c in CASES}


@pytest.mark.parametrize("good", VALUES.values(), ids=VALUES.keys())
def test_a_value_is_a_plain_tuple_of_its_fields(good):
    cls = type(good)
    fields = tuple(getattr(good, f) for f in cls._fields)
    assert good == fields and hash(good) == hash(fields)
    assert copy.copy(good) == good and type(copy.copy(good)) is cls
    assert cls._make(fields) == good == cls(*fields)
    spelled = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, fields))
    assert repr(good) == f"{cls.__name__}({spelled})"


def test_encounter_order_is_normalized_on_every_build():
    assert EncounterEvent(3, 2, 1) == EncounterEvent(interval=3, device_i=1, device_j=2) == (3, 1, 2)
    assert EncounterEvent._make((3, 2, 1)) == (3, 1, 2)
    assert EncounterEvent(3, 1, 2)._replace(device_i=5) == (3, 2, 5)
    assert sorted([EncounterEvent(1, 0, 1), EncounterEvent(0, 2, 3), EncounterEvent(0, 1, 3)]) == [
        (0, 1, 3),
        (0, 2, 3),
        (1, 0, 1),
    ]


def test_defaults_are_the_documented_ones():
    assert TimeParams(t0=5) == (5, 900)
    config = EnclaveConfig(ha_verify_key=bytes(32))
    # one shared default epoch: a value type never changes after it is built
    assert config.time is EnclaveConfig(bytes(32)).time == TimeParams(t0=0)
    assert DeploymentConfig(config)[1:] == ("127.0.0.1", 7700, None, None)


def test_every_checked_type_takes_make_from_one_base():
    """A named tuple that overrides `__new__` inherits CheckedValue's `_make`."""
    checked = set()
    for info in pkgutil.walk_packages(cct.__path__, "cct."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and issubclass(cls, tuple)
                and cls.__bases__ != (tuple,)  # not a namedtuple's own class
                and "__new__" in vars(cls)
            ):
                checked.add(cls)
    assert {cls.__name__ for cls in checked} >= {*VALUES, "ContactTuple"}
    for cls in checked:
        # listed before the fields tuple, whose own _make would skip the checks
        assert cls._make.__func__ is CheckedValue._make.__func__, cls.__name__
