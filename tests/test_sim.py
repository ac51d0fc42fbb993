import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cct import wire
from cct.errors import WireError
from cct.ident import derive_identifier
from cct.sim.audit import audit_transcript
from cct.sim.encounters import generate_encounters, pair_threshold
from cct.sim.oracle import oracle_notified
from cct.sim.runner import SimReport, run_scenario
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
    muted = dataclasses.replace(
        config, infected=(InfectionSpec(device=2, test_interval=1, uploads=False),)
    )
    assert oracle_notified(muted, generate_encounters(muted)) == set()
    lonely = dataclasses.replace(config, infected=())
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
    transcript = wire.Transcript()
    transcript.append(
        "c2e",
        wire.canonical_encode({"type": "poll_req", "tuples": [], "x": identifier.hex()}),
    )
    assert audit_transcript(transcript, [identifier], []) == 1


def test_audit_skips_handshake_messages():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = wire.Transcript()
    transcript.append(
        "e2c",
        wire.canonical_encode({"type": "attest_resp", "x": identifier.hex()}),
    )
    assert audit_transcript(transcript, [identifier], []) == 0


def test_audit_flags_raw_bytes_in_binary_message():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = wire.Transcript()
    transcript.append("c2e", b"\x00\x01" + identifier + b"\xff")
    assert audit_transcript(transcript, [identifier], []) == 1


def test_audit_accepts_one_shot_identifier_iterable():
    identifier = derive_identifier(b"\x0a" * 32, 0)
    transcript = wire.Transcript()
    transcript.append("c2e", b"\x00\x01" + identifier + b"\xff")
    assert audit_transcript(transcript, (i for i in [identifier]), []) == 1


def test_audit_flags_secret_hex():
    secret = b"\x0b" * 32
    transcript = wire.Transcript()
    transcript.append(
        "c2e",
        wire.canonical_encode({"type": "secret_upload_req", "secret": secret.hex()}),
    )
    assert audit_transcript(transcript, [], [secret]) == 1


def test_audit_clean_transcript():
    transcript = wire.Transcript()
    transcript.append("c2e", wire.canonical_encode({"type": "poll_req", "tuples": []}))
    transcript.append("e2c", b"\x80" * 64)
    secret = b"\x0c" * 32
    assert audit_transcript(transcript, [derive_identifier(secret, 0)], [secret]) == 0


def _transcript(*messages):
    transcript = wire.Transcript()
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


def test_audit_imports_numpy_only_when_it_scans():
    src = str(Path(wire.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, cct, cct.sim\n"
        "from cct import wire\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by cct.sim'\n"
        "transcript = wire.Transcript()\n"
        "transcript.append('c2e', ('00' * 16).encode())\n"
        "assert cct.sim.audit_transcript(transcript, [bytes(16)], []) == 1\n"
        "assert 'numpy' in sys.modules, 'numpy not imported by the audit'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
        try:
            msg = wire.canonical_decode(raw)
        except WireError:
            msg = None
        if isinstance(msg, dict) and isinstance(msg.get("type"), str):
            if msg["type"] in wire.HANDSHAKE_TYPES:
                continue
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


@st.composite
def _audit_inputs(draw):
    # distinct 16-byte heads: no identifier equals a secret's first half and
    # no two secrets share one, so the reference scan is exact
    heads = draw(st.lists(st.binary(min_size=16, max_size=16), unique=True, max_size=6))
    n_ids = draw(st.integers(0, len(heads)))
    identifiers = heads[:n_ids]
    secrets = [h + draw(st.binary(min_size=16, max_size=16)) for h in heads[n_ids:]]
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
        elif kind in ("json", "handshake"):
            value = _plant(draw, draw(_HEX_FILLER), draw(hex_plant))
            msg_type = "poll_req" if kind == "json" else "attest_resp"
            messages.append(wire.canonical_encode({"type": msg_type, "x": value, "y": [value]}))
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


def test_no_infection_notifies_nobody():
    config = dataclasses.replace(fig1_scenario(), infected=())
    report = run_scenario(config)
    assert report.notified == ()
    assert report.passed


def test_uploads_disabled_notifies_nobody():
    config = dataclasses.replace(
        fig1_scenario(),
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
