import dataclasses

import pytest

from cct import wire
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
    config = ScenarioConfig(**kwargs)
    with pytest.raises(ValueError, match=message):
        config.validate()


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


def test_random_scenario_matches_oracle():
    config = ScenarioConfig(
        name="small-random",
        n_devices=10,
        n_intervals=30,
        seed=12,
        encounter_rate=0.2,
        infected=(InfectionSpec(device=4, test_interval=15),),
        poll_every=5,
    )
    report = run_scenario(config)
    assert report.notified == report.oracle_notified
    assert report.passed


def test_insecure_plaintext_leaks():
    report = run_scenario(fig1_scenario(), insecure_plaintext=True)
    assert report.transcript_leaks > 0
    assert not report.passed


def test_log_polls_breaks_flush_audit():
    report = run_scenario(fig1_scenario(), log_polls=True)
    # one audited poll round, four devices, every poll rewrites the store
    assert report.state_digest_violations == 4
    assert not report.passed


def test_live_tcp_run():
    report = run_scenario(fig1_scenario(), live=True)
    assert report.passed
    assert report.notified == (0, 1)


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
