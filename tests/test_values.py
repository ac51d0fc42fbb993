"""The checked value types: named tuples whose `__new__` refuses bad values.

Every way to build one runs the same checks: positional and keyword
arguments, `_make`, and `_replace` through it. A value prints as
`Name(field=value, ...)`, copies as an equal value, and equals the plain
tuple of its fields. Every checked type takes its `_make` from one base.
A field declared as a kind refuses a value of another kind by the rule its
file form uses, so a value that builds is one its file form holds.
"""

import copy
import importlib
import math
import pkgutil
import typing

import pytest
from hypothesis import given, strategies as st

import cct
from cct import CheckedValue
from cct.attestation import AttestationQuote, Measurement
from cct.config import DeploymentConfig
from cct.contact_log import ContactTuple
from cct.enclave import EnclaveConfig, GpsPoint
from cct.ident import TimeParams
from cct.sim.scenario import EncounterEvent, InfectionSpec, ScenarioConfig
from cct.wire import canonical_encode, lenient_decode

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
    # a NaN rate would make every pair meet in every interval
    (
        ScenarioConfig(n_devices=4, n_intervals=2),
        "encounter_rate",
        math.nan,
        "encounter rate must be non-negative",
    ),
    (ScenarioConfig(n_devices=4, n_intervals=2), "encounter_rate", math.inf, "encounter rate must be finite"),
    # timing is refused when the scenario is built, before any simulation work
    (ScenarioConfig(n_devices=2, n_intervals=1), "delta_t", 0, "delta_t must be positive"),
    (ScenarioConfig(n_devices=2, n_intervals=1), "t0", -1, "t0 must be non-negative"),
    # an integer field refuses what its file form refuses: a float, or a bool
    (TimeParams(t0=0), "t0", 1.5, "t0 must be an integer"),
    (TimeParams(t0=0), "delta_t", True, "delta_t must be an integer"),
    (EnclaveConfig(bytes(32)), "retention", 2.5, "retention must be an integer"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "retention", True, "retention must be an integer"),
    # every other field declared as a kind does the same, with its kind's noun
    (ScenarioConfig(n_devices=2, n_intervals=2), "n_devices", 2.0, "n_devices must be an integer"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "n_intervals", True, "n_intervals must be an integer"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "poll_every", 1.5, "poll_every must be an integer"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "seed", 1.5, "seed must be an integer"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "audit_polls", 1, "audit_polls must be a boolean"),
    (ScenarioConfig(n_devices=2, n_intervals=2), "complete_graph", 0, "complete_graph must be a boolean"),
    (
        ScenarioConfig(n_devices=2, n_intervals=2),
        "strict_interval_match",
        1,
        "strict_interval_match must be a boolean",
    ),
    (ScenarioConfig(n_devices=2, n_intervals=2), "name", b"x", "name must be a string"),
    # `1` would write a measurement other than the one of `true`
    (EnclaveConfig(bytes(32)), "strict_interval_match", 1, "strict_interval_match must be a boolean"),
    (EnclaveConfig(bytes(32)), "gps_d_max", True, "gps_d_max must be a number"),
    (EnclaveConfig(bytes(32)), "ha_verify_key", "11" * 32, "ha_verify_key must be bytes"),
    # a number past any float, or an infinite one, has no file form
    (EnclaveConfig(bytes(32)), "gps_tau", 10**400, "gps_tau must be finite"),
    (EnclaveConfig(bytes(32)), "gps_d_max", math.inf, "gps_d_max must be finite"),
    (ScenarioConfig(n_devices=4, n_intervals=2), "encounter_rate", 10**400, "encounter rate must be finite"),
    # a key of another length has no file form either
    (EnclaveConfig(bytes(32)), "ha_verify_key", bytes(31), "ha_verify_key must be 32 bytes"),
    (
        DeploymentConfig(EnclaveConfig(bytes(32)), platform_verify_key=bytes(32)),
        "platform_verify_key",
        bytes(33),
        "platform_verify_key must be 32 bytes",
    ),
    (DeploymentConfig(EnclaveConfig(bytes(32))), "port", 80.0, "port must be an integer"),
    (DeploymentConfig(EnclaveConfig(bytes(32))), "host", 5, "host must be a string"),
    # hex identifiers would break the log's export; a bytearray its wire writer
    (ContactTuple(1, bytes(16), bytes(range(16))), "sent", "a" * 16, "sent must be bytes"),
    (ContactTuple(1, bytes(16), bytes(range(16))), "received", bytearray(16), "received must be bytes"),
    (GpsPoint(1.0, 2.0, 10.0), "lat", True, "lat must be a number"),
    (EncounterEvent(0, 1, 2), "interval", 1.0, "interval must be an integer"),
    (EncounterEvent(0, 1, 2), "interval", True, "interval must be an integer"),
    (InfectionSpec(device=0, test_interval=0), "device", True, "device must be an integer"),
]

# how a refusal names each kind a field may declare
NOUNS = {int: "an integer", bool: "a boolean", float: "a number", str: "a string", bytes: "bytes"}


def _case_id(case) -> str:
    # a kind or finiteness refusal gets its own id beside the field's range refusal
    good, field, _, message = case
    kind = "-kind" if message.endswith(tuple(f" must be {noun}" for noun in NOUNS.values())) else ""
    kind = "-finite" if message == f"{field} must be finite" else kind
    return f"{type(good).__name__}.{field}{kind}"


def _builds(good, field, bad) -> dict:
    """The four ways to build `good` with `field` set to `bad`."""
    cls = type(good)
    spoiled = {**good._asdict(), field: bad}
    return {
        "positional": lambda: cls(*spoiled.values()),
        "keyword": lambda: cls(**spoiled),
        "_make": lambda: cls._make(spoiled.values()),
        "_replace": lambda: good._replace(**{field: bad}),
    }


@pytest.mark.parametrize("good, field, bad, message", CASES, ids=[_case_id(c) for c in CASES])
def test_every_way_to_build_a_value_checks_it(good, field, bad, message):
    for how, build in _builds(good, field, bad).items():
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


def _checked_types() -> set:
    """The named tuples of the package that override `__new__` or are checked."""
    checked = set()
    for info in pkgutil.walk_packages(cct.__path__, "cct."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and issubclass(cls, tuple)
                and cls.__bases__ != (tuple,)  # not a namedtuple's own class
                and ("__new__" in vars(cls) or issubclass(cls, CheckedValue))
            ):
                checked.add(cls)
    return checked


CHECKED = sorted(_checked_types(), key=lambda cls: cls.__name__)


def test_every_checked_type_takes_make_from_one_base():
    """A named tuple that overrides `__new__` inherits CheckedValue's `_make`."""
    checked = _checked_types()
    assert {cls.__name__ for cls in checked} >= {*VALUES, "ContactTuple"}
    for cls in checked:
        # listed before the fields tuple, whose own _make would skip the checks
        assert cls._make.__func__ is CheckedValue._make.__func__, cls.__name__


def _kinds(cls) -> dict:
    """{field: (kind, optional)} of each field whose annotation is a kind, or a kind | None."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = set(typing.get_args(hint) or (hint,))
        declared = args - {type(None)}
        if len(declared) == 1 and (kind := declared.pop()) in NOUNS:
            kinds[name] = kind, type(None) in args
    return kinds


# values of each kind but the field's own; every float field also gets a number past any float
OTHER_KINDS = (True, 1.5, 1, "x", b"x", bytearray(b"x"))


def _of_kind(value, kind) -> bool:
    return type(value) is kind or (kind is float and type(value) is int)


@pytest.mark.parametrize("cls", CHECKED, ids=[cls.__name__ for cls in CHECKED])
def test_every_field_declared_as_a_kind_refuses_another_kind(cls):
    assert cls.__name__ in VALUES, "no valid value to spoil"
    good = VALUES[cls.__name__]
    for field, (kind, _) in _kinds(cls).items():
        for bad in [v for v in OTHER_KINDS if not _of_kind(v, kind)]:
            for how, build in _builds(good, field, bad).items():
                with pytest.raises(ValueError) as refused:
                    build()
                    pytest.fail(f"{how} built {field}={bad!r}")
                assert str(refused.value) == f"{field} must be {NOUNS[kind]}", how
        if kind is float:
            for how, build in _builds(good, field, 10**400).items():
                with pytest.raises(ValueError) as refused:
                    build()
                    pytest.fail(f"{how} built {field}=10**400")
                # the type's own range message may name the field in its words
                message = str(refused.value)
                assert field in message or field.replace("_", " ") in message, (how, message)


# values of a field's own kind, in range for the type or not
SAMPLES = {
    int: st.integers(min_value=-1),
    bool: st.booleans(),
    float: st.one_of(st.floats(), st.integers(min_value=-1), st.just(10**400)),
    str: st.text(max_size=8),
    bytes: st.binary(max_size=70),
}


def _draw(data, cls):
    """A `cls` whose fields are each kept from a valid one or drawn by their
    annotation; ValueError if it is refused."""
    good, kinds, fields = VALUES[cls.__name__], _kinds(cls), {}
    for name, hint in typing.get_type_hints(cls).items():
        if data.draw(st.booleans()):
            fields[name] = getattr(good, name)
        elif name in kinds:
            kind, optional = kinds[name]
            fields[name] = data.draw(SAMPLES[kind] | st.none() if optional else SAMPLES[kind])
        elif typing.get_origin(hint) is tuple:  # tuple[Item, ...]
            item = typing.get_args(hint)[0]
            fields[name] = tuple(_draw(data, item) for _ in range(data.draw(st.integers(0, 2))))
        else:
            fields[name] = _draw(data, hint)
    return cls(**fields)


def _as_loaded(value):
    """`value` as its file form loads it: each float field holds the float its number converts to."""
    fields = {}
    for name, field in value._asdict().items():
        if isinstance(field, CheckedValue):
            field = _as_loaded(field)
        elif _kinds(type(value)).get(name, (None,))[0] is float:
            field = float(field)
        fields[name] = field
    return type(value)(**fields)


@pytest.mark.parametrize("cls", CHECKED, ids=[cls.__name__ for cls in CHECKED])
@given(data=st.data())
def test_a_value_that_builds_loads_back_from_its_file_form(cls, data):
    """A value either is refused with ValueError or is one its file form holds.

    ScenarioConfig, DeploymentConfig, InfectionSpec and EncounterEvent load
    back equal from the bytes of `to_value()`, and an EnclaveConfig's
    measurement is that of its deployment file read back; no other error
    escapes a constructor, `to_value()` or `measurement()`.
    """
    try:
        value = _draw(data, cls)
    except ValueError:
        return
    if cls is EnclaveConfig:
        saved = DeploymentConfig(value).to_json_bytes()
        assert DeploymentConfig.from_value(lenient_decode(saved)).enclave.measurement() == value.measurement()
    if hasattr(cls, "from_value"):
        loaded = cls.from_value(lenient_decode(canonical_encode(value.to_value())))
        assert loaded == _as_loaded(value)
