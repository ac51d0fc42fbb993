from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cct import wire
from cct.attestation import platform_verify_key
from cct.client import EnclaveClient, LoopbackTransport
from cct.errors import RemoteError
from cct.ident import derive_identifier
from cct.sim.audit import Transcript, audit_transcript
from cct.sim.encounters import generate_encounters, pair_threshold
from cct.sim.oracle import oracle_notified
from cct.sim.runner import SimReport, _PlaintextTranscriptService, run_scenario
from cct.sim.scenario import (
    EncounterEvent,
    InfectionSpec,
    ScenarioConfig,
    fig1_scenario,
    flush_scenario,
    material,
    poll_intervals,
    scale_scenario,
)

from conftest import run_fresh

U64 = 2**64


# -- scenario config ---------------------------------------------------------------

def test_encounter_event_normalized():
    assert EncounterEvent(interval=0, device_i=5, device_j=2) == EncounterEvent(
        interval=0, device_i=2, device_j=5
    )
    with pytest.raises(ValueError, match="distinct devices"):
        EncounterEvent(interval=0, device_i=3, device_j=3)


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"n_devices": 0}, "n_devices must be positive"),
        ({"n_intervals": 0}, "n_intervals must be positive"),
        ({"encounter_rate": -0.5}, "encounter rate must be non-negative"),
        ({"poll_every": -1}, "poll_every must be non-negative"),
        ({"retention": -1}, "retention must be non-negative"),
        ({"seed": U64}, "seed must fit in 64 bits"),
        (
            {"infected": (InfectionSpec(device=9, test_interval=0),)},
            "infected device index out of range",
        ),
        (
            {"infected": (InfectionSpec(device=0, test_interval=99),)},
            "test interval out of range",
        ),
        (
            {"infected": (InfectionSpec(device=0, test_interval=0, mode="carrier"),)},
            "unknown upload mode",
        ),
        (
            {
                "infected": (
                    InfectionSpec(device=0, test_interval=0),
                    InfectionSpec(device=0, test_interval=1),
                )
            },
            "duplicate infected device",
        ),
        (
            {"encounters": (EncounterEvent(interval=0, device_i=0, device_j=9),)},
            "encounter device index out of range",
        ),
        (
            {"encounters": (EncounterEvent(interval=5, device_i=0, device_j=1),)},
            "encounter interval out of range",
        ),
    ],
)
def test_config_validation(overrides, message):
    kwargs = {"n_devices": 3, "n_intervals": 3, **overrides}
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**kwargs)


def test_config_json_round_trip(tmp_path):
    config = fig1_scenario()
    again = ScenarioConfig.from_value(
        wire.canonical_decode(config.to_json_bytes())
    )
    assert again == config
    path = tmp_path / "fig1.json"
    path.write_bytes(config.to_json_bytes() + b"\n")
    assert ScenarioConfig.from_file(path) == config


def test_hand_written_scenario_file_loads(tmp_path):
    import json

    config = fig1_scenario()
    path = tmp_path / "pretty.json"
    path.write_text(json.dumps(config.to_value(), indent=2) + "\n")
    assert ScenarioConfig.from_file(path) == config


def test_config_rejects_unknown_and_missing_fields():
    value = fig1_scenario().to_value()
    value["surprise"] = 1
    with pytest.raises(ValueError, match="unknown scenario field"):
        ScenarioConfig.from_value(value)
    del value["surprise"]
    for nested, what in (("encounters", "encounter"), ("infected", "infected")):
        entry = {**value[nested][0], "surprise": 1}
        with pytest.raises(ValueError, match=f"unknown {what} field: surprise"):
            ScenarioConfig.from_value({**value, nested: [entry]})
    del value["n_devices"]
    with pytest.raises(ValueError, match="missing scenario field"):
        ScenarioConfig.from_value(value)


def test_checked_in_scenario_files_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "scenarios"
    assert ScenarioConfig.from_file(root / "fig1.json") == fig1_scenario()
    assert ScenarioConfig.from_file(root / "flush.json") == flush_scenario()


def test_with_mode():
    config = fig1_scenario().with_mode("secret")
    assert all(s.mode == "secret" for s in config.infected)


def test_poll_intervals():
    base = ScenarioConfig(n_devices=2, n_intervals=10)
    assert poll_intervals(base) == [9]
    every3 = ScenarioConfig(n_devices=2, n_intervals=10, poll_every=3)
    assert poll_intervals(every3) == [2, 5, 8, 9]
    every1 = ScenarioConfig(n_devices=2, n_intervals=4, poll_every=1)
    assert poll_intervals(every1) == [0, 1, 2, 3]


def test_material_separates_labels_and_indexes():
    assert material(1, "secret", 0) == material(1, "secret", 0)
    assert material(1, "secret", 0) != material(1, "secret", 1)
    assert material(1, "secret", 0) != material(1, "token", 0)
    assert material(1, "secret", 0) != material(2, "secret", 0)
    assert len(material(1, "secret", 0)) == 32


# -- encounter generation --------------------------------------------------------------

def test_rate_zero_yields_only_explicit_encounters():
    config = fig1_scenario()
    assert generate_encounters(config) == sorted(config.encounters)


def test_complete_graph():
    config = ScenarioConfig(n_devices=3, n_intervals=2, complete_graph=True)
    assert generate_encounters(config) == [
        EncounterEvent(interval=0, device_i=0, device_j=1),
        EncounterEvent(interval=0, device_i=0, device_j=2),
        EncounterEvent(interval=0, device_i=1, device_j=2),
    ]


def test_encounters_deterministic_and_sorted():
    config = ScenarioConfig(n_devices=20, n_intervals=30, seed=9, encounter_rate=0.4)
    events = generate_encounters(config)
    assert events, "workload expected to produce encounters"
    assert events == generate_encounters(config)
    assert events == sorted(events)
    assert len(set(events)) == len(events)
    other = generate_encounters(
        ScenarioConfig(n_devices=20, n_intervals=30, seed=10, encounter_rate=0.4)
    )
    assert events != other


def test_explicit_duplicates_collapse():
    config = ScenarioConfig(
        n_devices=3,
        n_intervals=1,
        encounters=(
            EncounterEvent(interval=0, device_i=0, device_j=1),
            EncounterEvent(interval=0, device_i=1, device_j=0),
        ),
    )
    assert len(generate_encounters(config)) == 1


def test_pair_threshold():
    assert pair_threshold(0.0, 100) == 0
    assert pair_threshold(0.5, 1) == 0
    # probability capped at 1 and threshold clamped into 64 bits
    assert pair_threshold(50.0, 3) == U64 - 1
    assert pair_threshold(0.05, 100) == int(0.05 / 99 * U64)


# -- oracle ------------------------------------------------------------------------

def test_oracle_fig1():
    config = fig1_scenario()
    assert oracle_notified(config, generate_encounters(config)) == {0, 1}


def test_oracle_empty_without_uploads():
    config = fig1_scenario()
    muted = config._replace(infected=(InfectionSpec(device=2, test_interval=1, uploads=False),))
    assert oracle_notified(muted, generate_encounters(muted)) == set()
    lonely = config._replace(infected=())
    assert oracle_notified(lonely, generate_encounters(lonely)) == set()


def test_oracle_respects_retention_window():
    # encounter at interval 0 is already outside the uploader's log when the
    # test happens at interval 8 with retention 2
    config = ScenarioConfig(
        n_devices=2,
        n_intervals=10,
        retention=2,
        encounters=(EncounterEvent(interval=0, device_i=0, device_j=1),),
        infected=(InfectionSpec(device=1, test_interval=8),),
    )
    assert oracle_notified(config, generate_encounters(config)) == set()
    fresh = ScenarioConfig(
        n_devices=2,
        n_intervals=10,
        retention=2,
        encounters=(EncounterEvent(interval=7, device_i=0, device_j=1),),
        infected=(InfectionSpec(device=1, test_interval=8),),
    )
    assert oracle_notified(fresh, generate_encounters(fresh)) == {0}


def test_oracle_respects_poll_window():
    # only poll happens at interval 9, after the store entry (upload 1,
    # retention 2, alive through interval 3) has expired
    config = ScenarioConfig(
        n_devices=2,
        n_intervals=10,
        retention=2,
        encounters=(EncounterEvent(interval=1, device_i=0, device_j=1),),
        infected=(InfectionSpec(device=1, test_interval=1),),
    )
    assert oracle_notified(config, generate_encounters(config)) == set()
    polling = ScenarioConfig(
        n_devices=2,
        n_intervals=10,
        retention=2,
        poll_every=1,
        encounters=(EncounterEvent(interval=1, device_i=0, device_j=1),),
        infected=(InfectionSpec(device=1, test_interval=1),),
    )
    assert oracle_notified(polling, generate_encounters(polling)) == {0}


# -- transcript audit ---------------------------------------------------------------

def test_audit_flags_hex_identifier():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = Transcript()
    transcript.append(
        "c2e",
        wire.canonical_encode({"type": "poll_req", "tuples": [], "x": identifier.hex()}),
    )
    assert audit_transcript(transcript, [identifier], []) == 1


# every field of each handshake message, with its width in hex characters
_HANDSHAKE_FIELDS = {
    "attest_req": {},
    "attest_resp": {"enclave_session_pub": 64, "measurement": 64, "platform_signature": 128},
    "session_req": {"client_session_pub": 64, "enclave_session_pub": 64},
    "session_resp": {"session_id": 32},
}


def _handshake(msg_type: str, value: str) -> dict:
    """A schema-valid handshake message whose every field starts with the hex value."""
    fields = _HANDSHAKE_FIELDS[msg_type].items()
    return {**{name: (value + "0" * width)[:width] for name, width in fields}, "type": msg_type}


def test_audit_flags_identifier_in_handshake_message():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    msg = _handshake("attest_resp", identifier.hex())
    message = wire.canonical_encode(msg)
    assert wire.decode(message) == msg
    # each of its three fields starts with the identifier's hex: one pattern, one leak
    assert audit_transcript(_transcript(message), [identifier], []) == 1
    # with an extra field or spaced out, the same pattern still counts once
    extra = wire.canonical_encode({**msg, "x": "00"})
    spaced = message.replace(b":", b": ", 1)
    for other in (extra, spaced):
        assert audit_transcript(_transcript(other), [identifier], []) == 1


@pytest.mark.parametrize("msg_type", sorted(_HANDSHAKE_FIELDS))
def test_audit_scans_every_handshake_type(msg_type):
    identifier = derive_identifier(b"\x0a" * 32, 0)
    msg = _handshake(msg_type, identifier.hex())
    message = wire.canonical_encode(msg)
    assert wire.decode(message) == msg
    # attest_req has no field, so nothing is planted in it
    planted = 1 if _HANDSHAKE_FIELDS[msg_type] else 0
    assert audit_transcript(_transcript(message), [identifier], []) == planted
    leaky = {**msg, "leak": identifier.hex()}
    for other in (leaky, {**leaky, "type": "poll_req"}):
        assert audit_transcript(_transcript(wire.canonical_encode(other)), [identifier], []) == 1


def test_audit_flags_raw_bytes_in_binary_message():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = Transcript()
    transcript.append("c2e", b"\x00\x01" + identifier + b"\xff")
    assert audit_transcript(transcript, [identifier], []) == 1


def test_audit_accepts_one_shot_identifier_iterable():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = Transcript()
    transcript.append("c2e", b"\x00\x01" + identifier + b"\xff")
    assert audit_transcript(transcript, (i for i in [identifier]), []) == 1


def test_audit_flags_secret_hex():
    secret = b"\x0b" * 32
    transcript = Transcript()
    transcript.append(
        "c2e",
        wire.canonical_encode({"type": "secret_upload_req", "secret": secret.hex()}),
    )
    assert audit_transcript(transcript, [], [secret]) == 1


def test_audit_clean_transcript():
    transcript = Transcript()
    transcript.append("c2e", wire.canonical_encode({"type": "poll_req", "tuples": []}))
    transcript.append("e2c", b"\x80" * 64)
    secret = b"\x0c" * 32
    assert audit_transcript(transcript, [derive_identifier(secret, 0)], [secret]) == 0


def _transcript(*messages):
    transcript = Transcript()
    for raw in messages:
        transcript.append("c2e", raw)
    return transcript


def test_audit_counts_secrets_sharing_a_hex_prefix():
    a = b"\x01" * 16 + b"\x02" * 16
    b = b"\x01" * 16 + b"\x03" * 16
    transcript = _transcript(
        wire.canonical_encode({"type": "secret_upload_req", "secret": a.hex()}),
        wire.canonical_encode({"type": "secret_upload_req", "secret": b.hex()}),
    )
    assert audit_transcript(transcript, [], [a, b]) == 2
    assert audit_transcript(transcript, [], [b, a]) == 2


def test_audit_counts_identifier_that_is_a_secret_prefix_and_the_secret():
    secret = b"\x01" * 16 + b"\x02" * 16
    identifier = secret[:16]
    both = _transcript(wire.canonical_encode({"type": "poll_req", "x": secret.hex()}))
    assert audit_transcript(both, [identifier], [secret]) == 2
    only_identifier = _transcript(
        wire.canonical_encode({"type": "poll_req", "x": identifier.hex()})
    )
    assert audit_transcript(only_identifier, [identifier], [secret]) == 1


def test_audit_confirms_secret_beyond_its_prefix():
    secret = bytes(range(32))
    prefix_only = secret.hex()[:32] + "ff" * 16
    assert audit_transcript(_transcript(prefix_only.encode()), [], [secret]) == 0
    # the full secret may not run past the end of its message
    split = _transcript(secret.hex()[:40].encode(), secret.hex()[40:].encode())
    assert audit_transcript(split, [], [secret]) == 0


def test_audit_counts_each_message_and_each_pattern_once():
    identifier = bytes(range(16))
    secret = bytes(range(100, 132))
    body = (identifier.hex() * 2 + secret.hex() * 3).encode()
    transcript = _transcript(body, body, b"\x80" + identifier + identifier + secret)
    # two hex leaks in each of the two hex messages, two raw leaks in the
    # binary one; repeats within a message and in the arguments count once
    assert audit_transcript(transcript, [identifier, identifier], [secret]) == 6


def test_in_process_runs_load_no_tcp_server():
    # only a live run imports cct.service, and only a TcpTransport, which a live
    # run or a cct command builds, imports socket
    run_fresh(
        "import sys, cct.client, cct.sim\n"
        "host = [m for m in ('socketserver', 'cct.service', 'socket', 'selectors') if m in sys.modules]\n"
        "assert not host, host\n"
    )


def test_audit_imports_numpy_only_when_it_scans():
    run_fresh(
        "import sys, cct, cct.sim\n"
        "from cct.sim.audit import Transcript\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by cct.sim'\n"
        "transcript = Transcript()\n"
        "transcript.append('c2e', ('00' * 16).encode())\n"
        "assert cct.sim.audit_transcript(transcript, [bytes(16)], []) == 1\n"
        "assert 'numpy' in sys.modules, 'numpy not imported by the audit'\n"
    )


def _reference_audit(transcript, identifiers, secrets):
    """The set-of-windows scan that the numpy filter replaced.

    It keeps one secret per 32-char hex prefix, and it counts an identifier
    whose hex is also a secret's hex prefix once even when the full secret
    is present too; it is compared only on inputs where no two of those
    prefixes coincide.
    """

    def window_hits(raw, patterns, width):
        if not patterns or len(raw) < width:
            return 0
        windows = {raw[i : i + width] for i in range(len(raw) - width + 1)}
        return len(windows & patterns)

    id_raw = frozenset(bytes(i) for i in identifiers)
    id_hex = frozenset(i.hex().encode("ascii") for i in id_raw)
    secret_list = [bytes(s) for s in secrets]
    sec_hex = frozenset(s.hex().encode("ascii") for s in secret_list)
    sec_prefix = {p[:32]: p for p in sec_hex}
    scan32 = id_hex | frozenset(sec_prefix)
    sec_raw = frozenset(secret_list)

    leaks = 0
    for raw in transcript.messages():
        if len(raw) >= 32:
            windows = {raw[i : i + 32] for i in range(len(raw) - 31)}
            for hit in windows & scan32:
                if hit in id_hex:
                    leaks += 1
                elif sec_prefix[hit] in raw:
                    leaks += 1
        if not raw.isascii():
            leaks += window_hits(raw, id_raw, 16)
            leaks += window_hits(raw, sec_raw, 32)
    return leaks


_HEX_FILLER = st.text(alphabet="0123456789abcdef", max_size=40)


def _plant(draw, filler, plant):
    """Put `plant` into `filler` at offset 0, at the end or anywhere between."""
    at = draw(st.one_of(st.just(0), st.just(len(filler)), st.integers(0, len(filler))))
    return filler[:at] + plant + filler[at:]


_HEADS = st.lists(st.binary(min_size=16, max_size=16), unique=True, max_size=6)


@st.composite
def _shared_prefix_heads(draw):
    """Distinct 16-byte heads, most sharing their first 4 or 8 bytes: the
    8-byte key of the hex scan and of the raw scans, respectively."""
    stems = draw(st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=2))
    head = st.builds(
        lambda stem, cut, tail: stem[:cut] + tail[cut:],
        st.sampled_from(stems),
        st.sampled_from([4, 8, 0]),
        st.binary(min_size=16, max_size=16),
    )
    return draw(st.lists(head, unique=True, max_size=6))


@st.composite
def _audit_inputs(draw, heads=_HEADS, odd_identifiers=False):
    # distinct 16-byte heads: no identifier equals a secret's first half and
    # no two secrets share one, so the reference scan is exact
    heads = draw(heads)
    n_ids = draw(st.integers(0, len(heads)))
    identifiers = heads[:n_ids]
    secrets = [h + draw(st.binary(min_size=16, max_size=16)) for h in heads[n_ids:]]
    if odd_identifiers:
        # never a 16-byte window of any scan, but planted like the others;
        # some extend a head, so their hex holds a counted identifier's
        odd = st.binary(max_size=40)
        if heads:
            odd = st.one_of(odd, st.builds(bytes.__add__, st.sampled_from(heads), odd))
        identifiers = identifiers + draw(st.lists(odd.filter(lambda i: len(i) != 16), max_size=3))
    hex_plants = [i.hex() for i in identifiers] + [s.hex() for s in secrets]
    hex_plants += [s.hex()[:32] for s in secrets]
    raw_plants = identifiers + secrets
    hex_plant = st.sampled_from(hex_plants) if hex_plants else st.just("")
    raw_plant = st.sampled_from(raw_plants) if raw_plants else st.just(b"")

    messages = []
    kinds = ["hex", "json", "binary", "handshake", "short", "split"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if kind == "hex":
            messages.append(_plant(draw, draw(_HEX_FILLER), draw(hex_plant)).encode())
        elif kind == "json":
            value = _plant(draw, draw(_HEX_FILLER), draw(hex_plant))
            messages.append(wire.canonical_encode({"type": "poll_req", "x": value, "y": [value]}))
        elif kind == "handshake":
            # audited like any other message, valid or with a field its schema lacks
            value = _plant(draw, draw(_HEX_FILLER), draw(hex_plant))
            msg = _handshake(draw(st.sampled_from(sorted(_HANDSHAKE_FIELDS))), value)
            if draw(st.booleans()):
                msg["x"] = value
            messages.append(wire.canonical_encode(msg))
        elif kind == "binary":
            raw = _plant(draw, draw(st.binary(max_size=40)), draw(st.one_of(raw_plant, hex_plant.map(str.encode))))
            messages.append(raw if not raw.isascii() else raw + b"\x80")
        elif kind == "short":
            messages.append(draw(st.binary(max_size=7)))
        else:
            plant = draw(st.one_of(raw_plant, hex_plant.map(str.encode)))
            cut = draw(st.integers(0, len(plant)))
            messages.append(draw(st.binary(max_size=8)) + plant[:cut])
            messages.append(plant[cut:] + draw(st.binary(max_size=8)))
    repeats = draw(st.integers(0, 2))
    return messages, identifiers + identifiers[:repeats], secrets + secrets[:repeats]


@settings(max_examples=300, deadline=None)
@given(_audit_inputs())
def test_audit_matches_window_set_reference(inputs):
    messages, identifiers, secrets = inputs
    transcript = _transcript(*messages)
    assert audit_transcript(transcript, identifiers, secrets) == _reference_audit(
        transcript, identifiers, secrets
    )


_STEM = bytes(range(1, 9))
_ID_A = _STEM + bytes(8)
_ID_B = _STEM + b"\xff" * 8  # shares 8 raw bytes with _ID_A
_ID_C = _STEM[:4] + b"\xee" * 12  # shares 4 raw bytes, 8 hex chars, with both
_SECRET = _STEM[:4] + b"\xdd" * 28  # and so does this secret's hex


@pytest.mark.parametrize(
    "messages,identifiers,secrets,leaks",
    [
        ([(_ID_A.hex() + _ID_B.hex() + _ID_C.hex()).encode()], [_ID_A, _ID_B, _ID_C], [], 3),
        ([_ID_B.hex().encode(), _ID_C.hex().encode()], [_ID_A, _ID_B, _ID_C], [], 2),
        ([_ID_A.hex()[:24].encode() + _ID_B.hex()[8:].encode()], [_ID_A, _ID_B], [], 0),
        ([b"\x80" + _ID_B + _ID_A[:12]], [_ID_A, _ID_B], [], 1),
        ([b"\x80" + _ID_A + _ID_B + _SECRET], [_ID_A, _ID_B], [_SECRET], 3),
        ([_SECRET.hex().encode()], [_ID_C], [_SECRET], 1),
        ([_SECRET.hex()[:32].encode()], [_ID_C], [_SECRET], 0),
        ([_ID_C.hex().encode() + _SECRET.hex().encode()], [_ID_C], [_SECRET], 2),
        ([_ID_A.hex().encode(), b"\x80" + _ID_A], [_ID_A[:15], _ID_A + b"\x00", _ID_A * 2], [], 0),
    ],
    ids=[
        "three-hex-sharing-a-key",
        "two-of-three-hex",
        "key-of-one-tail-of-another",
        "raw-sharing-a-key",
        "raw-ids-and-secret",
        "secret-sharing-an-ids-key",
        "secret-prefix-only",
        "id-and-secret-sharing-a-key",
        "identifiers-not-16-bytes",
    ],
)
def test_audit_confirms_patterns_sharing_a_key(messages, identifiers, secrets, leaks):
    transcript = _transcript(*messages)
    assert audit_transcript(transcript, identifiers, secrets) == leaks
    assert _reference_audit(transcript, identifiers, secrets) == leaks


# the profile is loaded before collection, so `--hypothesis-profile=deep` raises this
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(_audit_inputs(heads=_shared_prefix_heads(), odd_identifiers=True))
def test_audit_matches_reference_on_shared_prefixes(inputs):
    """Patterns that share a scan key each get confirmed on their own.

    A head cut at 0 shares nothing, so these inputs also include those of
    the test above.
    """
    messages, identifiers, secrets = inputs
    transcript = _transcript(*messages)
    assert audit_transcript(transcript, identifiers, secrets) == _reference_audit(
        transcript, identifiers, secrets
    )


# -- full runs ----------------------------------------------------------------------

def test_fig1_run():
    report = run_scenario(fig1_scenario())
    assert report.notified == (0, 1)
    assert report.oracle_notified == (0, 1)
    assert report.transcript_leaks == 0
    assert report.state_digest_violations == 0
    assert report.auth_violations == 0
    assert report.passed


def test_fig1_secret_mode():
    report = run_scenario(fig1_scenario(mode="secret"))
    assert report.notified == (0, 1)
    assert report.passed


def test_fig1_deterministic():
    a = run_scenario(fig1_scenario()).to_json_bytes()
    b = run_scenario(fig1_scenario()).to_json_bytes()
    assert a == b


@pytest.mark.parametrize("mode", ["tuple", "secret"])
def test_run_survives_session_eviction(mode, monkeypatch):
    from cct import enclave

    expected = run_scenario(fig1_scenario(mode=mode)).to_json_bytes()
    # fewer open sessions than clients: evicted clients connect again
    monkeypatch.setattr(enclave, "MAX_SESSIONS", 2)
    assert run_scenario(fig1_scenario(mode=mode)).to_json_bytes() == expected


def test_no_infection_notifies_nobody():
    config = fig1_scenario()._replace(infected=())
    report = run_scenario(config)
    assert report.notified == ()
    assert report.passed


def test_uploads_disabled_notifies_nobody():
    config = fig1_scenario()._replace(
        infected=(InfectionSpec(device=2, test_interval=1, uploads=False),),
    )
    report = run_scenario(config)
    assert report.notified == ()
    assert report.passed


SMALL_RANDOM = ScenarioConfig(
    name="small-random",
    n_devices=10,
    n_intervals=30,
    seed=12,
    encounter_rate=0.2,
    infected=(InfectionSpec(device=4, test_interval=15),),
    poll_every=5,
)


def test_random_scenario_matches_oracle():
    report = run_scenario(SMALL_RANDOM)
    assert report.notified == report.oracle_notified
    assert report.passed


def test_insecure_plaintext_leaks():
    report = run_scenario(fig1_scenario(), insecure_plaintext=True)
    assert report.transcript_leaks > 0
    assert not report.passed


@pytest.mark.parametrize(
    "config,leaks",
    [
        (fig1_scenario(), 15),
        (fig1_scenario(mode="secret"), 13),
        (SMALL_RANDOM, 414),
        (SMALL_RANDOM.with_mode("secret"), 407),
    ],
    ids=["fig1-tuple", "fig1-secret", "small-random-tuple", "small-random-secret"],
)
def test_insecure_plaintext_leak_counts_pinned(config, leaks):
    # the counts of the set-of-windows scan: a faster audit that undercounts
    # (or overcounts) these controls fails here
    assert run_scenario(config, insecure_plaintext=True).transcript_leaks == leaks


def test_plaintext_control_records_refused_requests(enclave, platform_secret):
    # the control records a request before the enclave answers it, so the device
    # secret of a refused upload reaches the audited transcript too
    transcript = Transcript()
    service = _PlaintextTranscriptService(enclave, platform_secret, transcript)
    client = EnclaveClient(LoopbackTransport(service), enclave.measurement, platform_verify_key(platform_secret))
    secret = b"\x0c" * 32
    with pytest.raises(RemoteError, match="^not authorized to upload$"):
        client.upload_secret(b"\x01" * 32, secret, 0, 1)  # no test result for this token
    assert [direction for direction, _ in transcript] == ["c2e"]  # a refusal is no answer
    assert secret.hex().encode() in transcript.messages()[0]
    assert audit_transcript(transcript, [], [secret]) == 1


def test_log_polls_breaks_flush_audit():
    report = run_scenario(fig1_scenario(), log_polls=True)
    # one audited poll round, four devices, every poll rewrites the store
    assert report.state_digest_violations == 4
    assert not report.passed


def test_live_tcp_run():
    report = run_scenario(fig1_scenario(), live=True)
    assert report.passed
    assert report.notified == (0, 1)


@pytest.mark.parametrize(
    "name,flag,report",
    [
        (
            "fig1",
            None,
            b'{"auth_violations":0,"notified":[0,1],"oracle_notified":[0,1],'
            b'"passed":true,"state_digest_violations":0,"transcript_leaks":0}',
        ),
        (
            "fig1",
            "live",
            b'{"auth_violations":0,"notified":[0,1],"oracle_notified":[0,1],'
            b'"passed":true,"state_digest_violations":0,"transcript_leaks":0}',
        ),
        (
            "fig1",
            "log_polls",
            b'{"auth_violations":0,"notified":[0,1,2],"oracle_notified":[0,1],'
            b'"passed":false,"state_digest_violations":4,"transcript_leaks":0}',
        ),
        (
            "fig1",
            "insecure_plaintext",
            b'{"auth_violations":0,"notified":[0,1],"oracle_notified":[0,1],'
            b'"passed":false,"state_digest_violations":0,"transcript_leaks":15}',
        ),
        (
            "flush",
            None,
            b'{"auth_violations":0,"notified":[0,1,2,4,5,6,7,8],"oracle_notified":[0,1,2,4,5,6,7,8],'
            b'"passed":true,"state_digest_violations":0,"transcript_leaks":0}',
        ),
        (
            "flush",
            "live",
            b'{"auth_violations":0,"notified":[0,1,2,4,5,6,7,8],"oracle_notified":[0,1,2,4,5,6,7,8],'
            b'"passed":true,"state_digest_violations":0,"transcript_leaks":0}',
        ),
        (
            "flush",
            "log_polls",
            b'{"auth_violations":0,"notified":[0,1,2,3,4,5,6,7,8,9],"oracle_notified":[0,1,2,4,5,6,7,8],'
            b'"passed":false,"state_digest_violations":1000,"transcript_leaks":0}',
        ),
        (
            "flush",
            "insecure_plaintext",
            b'{"auth_violations":0,"notified":[0,1,2,4,5,6,7,8],"oracle_notified":[0,1,2,4,5,6,7,8],'
            b'"passed":false,"state_digest_violations":0,"transcript_leaks":28934}',
        ),
    ],
)
def test_checked_in_scenario_reports_pinned(name, flag, report):
    # a refactor must leave every report byte-identical, the controls' counts included
    root = Path(__file__).resolve().parent.parent / "scenarios"
    flags = {flag: True} if flag else {}
    config = ScenarioConfig.from_file(root / f"{name}.json")
    assert run_scenario(config, **flags).to_json_bytes() == report


def test_report_json_shape():
    report = SimReport(
        notified=(1, 2),
        oracle_notified=(1, 2),
        transcript_leaks=0,
        state_digest_violations=0,
        auth_violations=0,
    )
    assert report.passed
    assert wire.canonical_decode(report.to_json_bytes()) == {
        "auth_violations": 0,
        "notified": [1, 2],
        "oracle_notified": [1, 2],
        "passed": True,
        "state_digest_violations": 0,
        "transcript_leaks": 0,
    }
    broken = SimReport(
        notified=(1,),
        oracle_notified=(1, 2),
        transcript_leaks=0,
        state_digest_violations=0,
        auth_violations=0,
    )
    assert not broken.passed


def test_scale_scenario_definition():
    config = scale_scenario(seed=3, mode="secret")
    assert config.n_devices == 100
    assert config.n_intervals == 500
    assert config.encounter_rate == 0.05
    assert len(config.infected) == 5
    assert all(s.mode == "secret" for s in config.infected)
    config.validate()
