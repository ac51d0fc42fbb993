import math
import sys

import pytest
from hypothesis import given, strategies as st

from cct.contact_log import ContactTuple
from cct.enclave import (
    ENCLAVE_CODE_VERSION,
    RESULT_NEGATIVE,
    RESULT_POSITIVE,
    Enclave,
    EnclaveConfig,
    GpsPoint,
    InfectionRecord,
    haversine_distance,
    token_hash,
)
from cct.errors import AuthorizationError, ProtocolError, SealError
from cct.ident import TimeParams, derive_identifier
from cct.wire import canonical_decode
from cct.sim.audit import state_digest

SECRET_A = b"\x0a" * 32
SECRET_B = b"\x0b" * 32
SECRET_C = b"\x0c" * 32
TOKEN = b"\x11" * 32
TOKEN2 = b"\x12" * 32


def ident(secret: bytes, k: int) -> bytes:
    return derive_identifier(secret, k)


def register_positive(enclave, ha, token, interval):
    enclave.register_test_result(
        ha.sign_report(token_hash(token), RESULT_POSITIVE, interval)
    )


def c_upload(enclave, ha, clock):
    """C's walkthrough upload: met A in interval 0, B in interval 1."""
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN, 1)
    tuples = [
        ContactTuple(interval=0, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0)),
        ContactTuple(interval=1, sent=ident(SECRET_C, 1), received=ident(SECRET_B, 1)),
    ]
    enclave.upload_contact_log(TOKEN, tuples)


# -- health-authority path -----------------------------------------------------

def test_register_then_poll(enclave, ha):
    register_positive(enclave, ha, TOKEN, 0)
    assert enclave.poll_test_result(TOKEN) == RESULT_POSITIVE


def test_unregistered_token_unknown(enclave):
    assert enclave.poll_test_result(b"\x99" * 32) == "unknown"


def test_negative_result_readable(enclave, ha):
    enclave.register_test_result(
        ha.sign_report(token_hash(TOKEN), RESULT_NEGATIVE, 0)
    )
    assert enclave.poll_test_result(TOKEN) == RESULT_NEGATIVE


def test_register_idempotent(enclave, ha):
    report = ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0)
    enclave.register_test_result(report)
    digest = state_digest(enclave)
    enclave.register_test_result(report)
    assert state_digest(enclave) == digest


def test_conflicting_report_rejected(enclave, ha):
    enclave.register_test_result(ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0))
    with pytest.raises(ProtocolError, match="conflicting report"):
        enclave.register_test_result(
            ha.sign_report(token_hash(TOKEN), RESULT_NEGATIVE, 0)
        )
    with pytest.raises(ProtocolError, match="conflicting report"):
        enclave.register_test_result(
            ha.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 1)
        )


def test_forged_report_rejected(enclave):
    from cct.authority import HealthAuthorityCredential

    rogue = HealthAuthorityCredential.generate()
    report = rogue.sign_report(token_hash(TOKEN), RESULT_POSITIVE, 0)
    digest = state_digest(enclave)
    with pytest.raises(AuthorizationError, match="unauthorized reporter"):
        enclave.register_test_result(report)
    assert state_digest(enclave) == digest
    assert enclave.poll_test_result(TOKEN) == "unknown"


def test_raw_tokens_never_stored(enclave, ha):
    register_positive(enclave, ha, TOKEN, 0)
    state = enclave.serialize_state()
    assert TOKEN not in state
    assert TOKEN.hex().encode() not in state
    assert token_hash(TOKEN).hex().encode() in state


# -- uploads ----------------------------------------------------------------------

def test_upload_requires_positive_record(enclave, clock):
    clock.set_interval(0)
    tuples = [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_B, 0))]
    with pytest.raises(AuthorizationError, match="not authorized to upload"):
        enclave.upload_contact_log(TOKEN, tuples)


def test_upload_with_negative_token_rejected(enclave, ha, clock):
    enclave.register_test_result(ha.sign_report(token_hash(TOKEN), RESULT_NEGATIVE, 0))
    with pytest.raises(AuthorizationError, match="not authorized to upload"):
        enclave.upload_contact_log(
            TOKEN,
            [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_B, 0))],
        )


def test_upload_single_use(enclave, ha, clock):
    c_upload(enclave, ha, clock)
    with pytest.raises(AuthorizationError, match="upload already used"):
        enclave.upload_contact_log(TOKEN, [])
    with pytest.raises(AuthorizationError, match="upload already used"):
        enclave.upload_secret(TOKEN, SECRET_C, 0, 1)


@pytest.mark.parametrize("interval", [1.5, 1.0, True])
def test_upload_refuses_an_interval_that_is_not_an_int(enclave, ha, clock, interval):
    # a record writes each interval with %d, so 1.5 would be sealed as 1
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    state = enclave.serialize_state()
    with pytest.raises(ValueError, match="interval must be an integer"):
        enclave.upload_contact_log(TOKEN, [(interval, ident(SECRET_A, 0), ident(SECRET_B, 0))])
    assert enclave.serialize_state() == state
    # the token is unspent
    enclave.upload_contact_log(TOKEN, [(1, ident(SECRET_A, 0), ident(SECRET_B, 0))])


# each upload kind with entries it refuses, with its refusal, and with valid entries
_UPLOADS = {
    "tuples": (
        lambda e, token: e.upload_contact_log(token, [(1.5, ident(SECRET_A, 0), ident(SECRET_B, 0))]),
        "interval must be an integer",
        lambda e, token: e.upload_contact_log(token, [(0, ident(SECRET_A, 0), ident(SECRET_B, 0))]),
    ),
    "secret": (
        lambda e, token: e.upload_secret(token, SECRET_C, 5, 3),
        "inverted identifier range",
        lambda e, token: e.upload_secret(token, SECRET_C, 0, 0),
    ),
    "gps": (
        lambda e, token: e.upload_gps_trace(token, []),
        "empty trace",
        lambda e, token: e.upload_gps_trace(token, [GpsPoint(lat=0.0, lon=0.0, t=10.0)]),
    ),
}


@pytest.mark.parametrize("kind", _UPLOADS)
def test_upload_authorized_before_its_entries_are_checked(enclave, ha, clock, kind):
    bad, entries_refusal, good = _UPLOADS[kind]
    clock.set_interval(0)
    enclave.register_test_result(ha.sign_report(token_hash(TOKEN2), RESULT_NEGATIVE, 0))
    register_positive(enclave, ha, TOKEN, 0)
    good(enclave, TOKEN)
    sealed = enclave.sealed_bytes()
    refusals = [
        (b"\x99" * 32, "not authorized to upload"),  # unknown
        (TOKEN2, "not authorized to upload"),  # negative
        (TOKEN, "upload already used"),  # spent
    ]
    for token, refusal in refusals:
        with pytest.raises(AuthorizationError, match=f"^{refusal}$"):
            bad(enclave, token)
        assert enclave.sealed_bytes() == sealed
    # a positive token refused on its entries stays unspent
    fresh = b"\x13" * 32
    register_positive(enclave, ha, fresh, 0)
    sealed = enclave.sealed_bytes()
    with pytest.raises(ValueError, match=f"^{entries_refusal}$"):
        bad(enclave, fresh)
    assert enclave.sealed_bytes() == sealed
    good(enclave, fresh)
    assert enclave.sealed_bytes() != sealed


def test_secret_upload_stores_derived_ids(enclave, ha, clock):
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN, 1)
    enclave.upload_secret(TOKEN, SECRET_C, 0, 1)
    state = enclave.serialize_state()
    assert ident(SECRET_C, 0).hex().encode() in state
    assert ident(SECRET_C, 1).hex().encode() in state


def test_secret_never_at_rest(enclave, ha, clock):
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN, 1)
    enclave.upload_secret(TOKEN, SECRET_C, 0, 1)
    state = enclave.serialize_state()
    assert SECRET_C not in state
    assert SECRET_C.hex().encode() not in state
    assert SECRET_C not in enclave.sealed_bytes()


def test_secret_upload_range_errors(enclave, ha, clock):
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN, 1)
    with pytest.raises(ValueError, match="inverted identifier range"):
        enclave.upload_secret(TOKEN, SECRET_C, 5, 3)
    with pytest.raises(ValueError, match="range too large"):
        enclave.upload_secret(TOKEN, SECRET_C, 0, enclave.config.retention + 1)
    # rejected uploads must not consume the single-use flag
    enclave.upload_secret(TOKEN, SECRET_C, 0, 1)


# -- matching ---------------------------------------------------------------------

def test_match_walkthrough(enclave, ha, clock):
    """A's poll matches C's upload; B matches on its own interval; D does not."""
    c_upload(enclave, ha, clock)
    a_poll = [
        ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))
    ]
    result = enclave.match_poll(a_poll)
    assert result.matched
    assert result.matched_intervals == (0,)

    b_poll = [
        ContactTuple(interval=1, sent=ident(SECRET_B, 1), received=ident(SECRET_C, 1))
    ]
    assert enclave.match_poll(b_poll).matched_intervals == (1,)

    # swap absent: B claiming contact with A finds nothing
    stray = [
        ContactTuple(interval=0, sent=ident(SECRET_B, 0), received=ident(SECRET_A, 0))
    ]
    assert not enclave.match_poll(stray).matched


def test_empty_poll_no_match(enclave):
    result = enclave.match_poll([])
    assert not result.matched
    assert result.matched_intervals == ()


def test_match_via_derived_ids(enclave, ha, clock):
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN, 1)
    enclave.upload_secret(TOKEN, SECRET_C, 0, 1)
    a_poll = [
        ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))
    ]
    result = enclave.match_poll(a_poll)
    assert result.matched and result.matched_intervals == (0,)


def test_matched_intervals_deduped_ascending(enclave, ha, clock):
    c_upload(enclave, ha, clock)
    poll = [
        ContactTuple(interval=1, sent=ident(SECRET_B, 1), received=ident(SECRET_C, 1)),
        ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0)),
        # same interval twice via a second identifier pair
        ContactTuple(interval=0, sent=ident(SECRET_B, 0), received=ident(SECRET_C, 0)),
    ]
    clock.set_interval(1)
    register_positive(enclave, ha, TOKEN2, 1)
    enclave.upload_secret(TOKEN2, SECRET_C, 0, 1)
    result = enclave.match_poll(poll)
    assert result.matched_intervals == (0, 1)


def test_strict_mode_requires_equal_interval(ha, platform_secret, clock):
    poll = [
        ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))
    ]
    clock.set_interval(1)
    matched = {}
    for strict in (False, True):
        config = EnclaveConfig(
            ha_verify_key=ha.verify_key,
            time=TimeParams(t0=0),
            strict_interval_match=strict,
        )
        enclave = Enclave(config, platform_secret, clock=clock)
        register_positive(enclave, ha, TOKEN, 1)
        # stored under interval 1, but the identifier pair is from interval 0
        enclave.upload_contact_log(
            TOKEN,
            [ContactTuple(interval=1, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0))],
        )
        matched[strict] = enclave.match_poll(poll).matched
    assert matched == {False: True, True: False}


def test_match_result_invariant(enclave, ha, clock):
    c_upload(enclave, ha, clock)
    for poll in ([], [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))]):
        result = enclave.match_poll(poll)
        assert result.matched == bool(result.matched_intervals)


# -- expiry ----------------------------------------------------------------------

def _small_enclave(ha, platform_secret, clock, retention=5):
    config = EnclaveConfig(
        ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=retention
    )
    return Enclave(config, platform_secret, clock=clock)


def test_expired_entries_never_match(ha, platform_secret, clock):
    enclave = _small_enclave(ha, platform_secret, clock)
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    enclave.upload_contact_log(
        TOKEN,
        [ContactTuple(interval=0, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0))],
    )
    poll = [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))]
    clock.set_interval(5)  # expiry = 0 + 5, still alive
    assert enclave.match_poll(poll).matched
    clock.set_interval(6)  # expiry < current even without a sweep
    assert not enclave.match_poll(poll).matched


def test_expire_store_strict_threshold(ha, platform_secret, clock):
    enclave = _small_enclave(ha, platform_secret, clock)
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    enclave.upload_contact_log(
        TOKEN,
        [ContactTuple(interval=0, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0))],
    )  # expiry = 5
    assert enclave.expire_store(5) == 0  # expiry < current is strict
    assert enclave.expire_store(6) == 1
    assert enclave.expire_store(6) == 0


def test_expire_store_empty(enclave):
    assert enclave.expire_store(10**6) == 0


def test_expire_covers_derived_and_gps(ha, platform_secret, clock):
    enclave = _small_enclave(ha, platform_secret, clock)
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    enclave.upload_secret(TOKEN, SECRET_C, 0, 0)
    register_positive(enclave, ha, TOKEN2, 0)
    enclave.upload_gps_trace(TOKEN2, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    assert enclave.expire_store(6) == 2
    state = canonical_decode(enclave.serialize_state())
    assert state["derived_ids"] == []
    assert state["gps_traces"] == []
    # test records themselves do not expire with contact data
    assert len(state["records"]) == 2


def test_upload_sweeps_expired_entries(ha, platform_secret, clock, tmp_path):
    path = tmp_path / "state.sealed"
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=5)
    enclave = Enclave(config, platform_secret, store_path=path, clock=clock)
    clock.set_interval(0)
    tokens = [bytes([0x30 + i]) * 32 for i in range(5)]
    for token in tokens:
        register_positive(enclave, ha, token, 0)
    enclave.upload_contact_log(
        tokens[0],
        [ContactTuple(interval=0, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0))],
    )
    enclave.upload_secret(tokens[1], SECRET_B, 0, 0)
    enclave.upload_gps_trace(tokens[2], [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    first = canonical_decode(enclave.serialize_state())
    assert [len(first[kind]) for kind in ("tuples", "derived_ids", "gps_traces")] == [1, 1, 1]

    digest, sealed = state_digest(enclave), enclave.sealed_bytes()
    poll = [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))]
    for k in range(8):
        clock.set_interval(k)
        enclave.match_poll(poll)
        enclave.match_gps([GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    assert state_digest(enclave) == digest
    assert enclave.sealed_bytes() == sealed

    # a refused upload sweeps nothing either
    with pytest.raises(ValueError, match="empty trace"):
        enclave.upload_gps_trace(tokens[3], [])
    assert state_digest(enclave) == digest
    assert enclave.sealed_bytes() == sealed

    clock.set_interval(7)
    second = [ContactTuple(interval=7, sent=ident(SECRET_C, 7), received=ident(SECRET_B, 7))]
    enclave.upload_contact_log(tokens[4], second)
    state = canonical_decode(enclave.serialize_state())
    assert [ContactTuple.from_wire(e) for e in state["tuples"]] == second
    assert state["tuples"][0]["expiry"] == 12
    assert state["derived_ids"] == [] and state["gps_traces"] == []
    assert len(state["records"]) == 5
    # the sweep happened before the seal
    reloaded = Enclave(config, platform_secret, store_path=path, clock=clock)
    assert reloaded.serialize_state() == enclave.serialize_state()


def test_each_change_seals_once(ha, platform_secret, clock):
    enclave = _small_enclave(ha, platform_secret, clock)
    seals = []
    persist = enclave._persist
    enclave._persist = lambda delta: seals.append(1) or persist(delta)
    clock.set_interval(0)
    tokens = [bytes([0x40 + i]) * 32 for i in range(4)]
    for token in tokens:
        register_positive(enclave, ha, token, 0)
    assert len(seals) == 4
    enclave.upload_contact_log(
        tokens[0],
        [ContactTuple(interval=0, sent=ident(SECRET_C, 0), received=ident(SECRET_A, 0))],
    )
    enclave.upload_secret(tokens[1], SECRET_B, 0, 0)
    assert len(seals) == 6
    clock.set_interval(9)  # the upload below also sweeps the two above
    enclave.upload_gps_trace(tokens[2], [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    assert len(seals) == 7
    assert enclave.expire_store(20) == 1
    assert len(seals) == 8
    with pytest.raises(AuthorizationError):
        enclave.upload_secret(tokens[0], SECRET_B, 0, 0)
    assert len(seals) == 8


def test_infection_record_value_round_trip():
    record = InfectionRecord(
        token_hash=b"\x5a" * 32, result=RESULT_POSITIVE, registered_interval=9, upload_used=True
    )
    value = canonical_decode(record.render())
    assert value == {
        "interval": 9,
        "result": "positive",
        "token_hash": "5a" * 32,
        "upload_used": True,
    }
    assert InfectionRecord.from_value(value) == record


# -- flush semantics ---------------------------------------------------------------

def test_polls_leave_state_untouched(enclave, ha, clock):
    c_upload(enclave, ha, clock)
    digest = state_digest(enclave)
    sealed = enclave.sealed_bytes()
    polls = [
        [],
        [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))],
        [ContactTuple(interval=3, sent=ident(SECRET_B, 3), received=ident(SECRET_A, 3))],
    ]
    for poll in polls * 30:
        enclave.match_poll(poll)
        enclave.match_gps([GpsPoint(lat=1.0, lon=1.0, t=50.0)])
        enclave.poll_test_result(TOKEN)
    assert state_digest(enclave) == digest
    assert enclave.sealed_bytes() == sealed


def test_log_polls_control_breaks_flush(ha, platform_secret, clock):
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, platform_secret, clock=clock, log_polls=True)
    digest = state_digest(enclave)
    enclave.match_poll(
        [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_B, 0))]
    )
    assert state_digest(enclave) != digest


# -- persistence --------------------------------------------------------------------

def test_sealed_store_round_trip(ha, platform_secret, clock, tmp_path):
    path = tmp_path / "state.sealed"
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, platform_secret, store_path=path, clock=clock)
    c_upload(enclave, ha, clock)
    expected = enclave.serialize_state()

    reloaded = Enclave(config, platform_secret, store_path=path, clock=clock)
    assert reloaded.serialize_state() == expected
    poll = [ContactTuple(interval=0, sent=ident(SECRET_A, 0), received=ident(SECRET_C, 0))]
    assert reloaded.match_poll(poll).matched


def test_sealed_store_round_trip_with_gps_trace(ha, platform_secret, clock, tmp_path):
    path = tmp_path / "state.sealed"
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, platform_secret, store_path=path, clock=clock)
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    trace = [GpsPoint(lat=1.5, lon=-2.25, t=100.0), GpsPoint(lat=1.5, lon=-2.0, t=160.0)]
    enclave.upload_gps_trace(TOKEN, trace)
    expected = enclave.serialize_state()

    reloaded = Enclave(config, platform_secret, store_path=path, clock=clock)
    assert reloaded.serialize_state() == expected
    assert reloaded.match_gps([trace[1]], d_max=10.0, tau=300.0) == [(160.0, 160.0)]


def test_sealed_store_bound_to_measurement(ha, platform_secret, clock, tmp_path):
    path = tmp_path / "state.sealed"
    config = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))
    enclave = Enclave(config, platform_secret, store_path=path, clock=clock)
    c_upload(enclave, ha, clock)

    other_config = EnclaveConfig(
        ha_verify_key=ha.verify_key, time=TimeParams(t0=0), retention=999
    )
    with pytest.raises(SealError, match="unseal failed"):
        Enclave(other_config, platform_secret, store_path=path, clock=clock)


def test_measurement_depends_on_config(ha):
    base = EnclaveConfig(ha_verify_key=ha.verify_key, time=TimeParams(t0=0))
    strict = EnclaveConfig(
        ha_verify_key=ha.verify_key, time=TimeParams(t0=0), strict_interval_match=True
    )
    assert base.measurement() != strict.measurement()
    assert base.measurement() == EnclaveConfig(
        ha_verify_key=ha.verify_key, time=TimeParams(t0=0)
    ).measurement()
    assert ENCLAVE_CODE_VERSION  # version string participates via compute_measurement


# -- GPS variant ---------------------------------------------------------------------

def test_haversine_examples():
    origin = GpsPoint(lat=0.0, lon=0.0, t=0.0)
    assert haversine_distance(origin, origin) == 0.0
    one_degree = GpsPoint(lat=0.0, lon=1.0, t=0.0)
    distance = haversine_distance(origin, one_degree)
    assert math.isclose(distance, 111_195, rel_tol=0.001)


@given(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-179.9, max_value=180),
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-179.9, max_value=180),
)
def test_haversine_symmetry(lat1, lon1, lat2, lon2):
    p = GpsPoint(lat=lat1, lon=lon1, t=0.0)
    q = GpsPoint(lat=lat2, lon=lon2, t=1.0)
    assert math.isclose(
        haversine_distance(p, q), haversine_distance(q, p), abs_tol=1e-6
    )


def test_gps_point_validation():
    with pytest.raises(ValueError, match="latitude"):
        GpsPoint(lat=90.5, lon=0.0, t=0.0)
    with pytest.raises(ValueError, match="longitude"):
        GpsPoint(lat=0.0, lon=-180.0, t=0.0)
    GpsPoint(lat=0.0, lon=180.0, t=0.0)


@pytest.mark.parametrize("t", [10**400, -(10**400), math.inf, -math.inf, math.nan])
def test_gps_point_time_must_be_a_finite_float(t):
    with pytest.raises(ValueError, match="time out of range"):
        GpsPoint(lat=1.0, lon=2.0, t=t)


def test_gps_point_takes_the_largest_integer_a_float_holds():
    largest = int(sys.float_info.max)
    assert GpsPoint(lat=1.0, lon=2.0, t=largest).t == largest


def test_gps_point_wire_round_trip():
    point = GpsPoint(lat=-33.5, lon=151.25, t=42.0)
    assert point.to_wire() == {"lat": -33.5, "lon": 151.25, "t": 42.0}
    assert GpsPoint.from_wire(point.to_wire()) == point
    with pytest.raises(ValueError):
        GpsPoint.from_wire({"lat": 91.0, "lon": 0.0, "t": 0.0})


def _gps_enclave(enclave, ha, clock, trace):
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    enclave.upload_gps_trace(TOKEN, trace)


def test_gps_coincident_point_matches(enclave, ha, clock):
    _gps_enclave(enclave, ha, clock, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    events = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.0, t=100.0)], d_max=10.0, tau=300.0
    )
    assert events == [(100.0, 100.0)]


def test_gps_outside_radius_no_match(enclave, ha, clock):
    _gps_enclave(enclave, ha, clock, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    # 0.01 degrees of longitude at the equator is ~1,112 m
    events = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.01, t=100.0)], d_max=10.0, tau=300.0
    )
    assert events == []


def test_gps_outside_time_window_no_match(enclave, ha, clock):
    _gps_enclave(enclave, ha, clock, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    events = enclave.match_gps(
        [GpsPoint(lat=0.0, lon=0.0, t=500.0)], d_max=10.0, tau=300.0
    )
    assert events == []


def test_gps_poll_thresholds_capped_by_config(enclave, ha, clock):
    _gps_enclave(enclave, ha, clock, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    far = [GpsPoint(lat=45.0, lon=0.0, t=100.0)]  # 5,000 km away
    with pytest.raises(ProtocolError, match="d_max above the configured 10.0 m"):
        enclave.match_gps(far, d_max=3e7, tau=900.0)
    with pytest.raises(ProtocolError, match="tau above the configured 900.0 s"):
        enclave.match_gps(far, d_max=10.0, tau=1e12)
    with pytest.raises(ProtocolError, match="d_max above"):
        enclave.match_gps(far, d_max=10.000001)
    at_limit = [GpsPoint(lat=0.0, lon=0.0, t=1000.0)]
    assert enclave.match_gps(at_limit, d_max=10.0, tau=900.0) == [(100.0, 1000.0)]
    assert enclave.match_gps(at_limit) == [(100.0, 1000.0)]


def test_gps_upload_requires_authorization(enclave):
    with pytest.raises(AuthorizationError, match="not authorized to upload"):
        enclave.upload_gps_trace(TOKEN, [GpsPoint(lat=0.0, lon=0.0, t=0.0)])


def test_gps_trace_must_be_time_ordered(enclave, ha, clock):
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    with pytest.raises(ValueError, match="time-ordered"):
        enclave.upload_gps_trace(
            TOKEN,
            [GpsPoint(lat=0.0, lon=0.0, t=10.0), GpsPoint(lat=0.0, lon=0.0, t=5.0)],
        )
    with pytest.raises(ValueError, match="empty trace"):
        enclave.upload_gps_trace(TOKEN, [])


def test_gps_single_use_shared_with_tuple_upload(enclave, ha, clock):
    clock.set_interval(0)
    register_positive(enclave, ha, TOKEN, 0)
    enclave.upload_gps_trace(TOKEN, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    with pytest.raises(AuthorizationError, match="upload already used"):
        enclave.upload_contact_log(TOKEN, [])


def test_gps_poll_not_persisted(enclave, ha, clock):
    _gps_enclave(enclave, ha, clock, [GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    digest = state_digest(enclave)
    for _ in range(20):
        enclave.match_gps([GpsPoint(lat=0.0, lon=0.0, t=100.0)])
    assert state_digest(enclave) == digest
