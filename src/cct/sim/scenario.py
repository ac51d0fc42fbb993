"""Scenario configuration for the deterministic multi-device simulator.

A scenario fixes the device population, the timeline, how encounters arise
(explicit list, forced complete graph, or seeded random), who gets tested
when, and how positives upload. Everything downstream (encounters, protocol
run, oracle, report) is a pure function of this config, which is what makes
simulation runs byte-reproducible.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, NamedTuple

from cct import CheckedValue
from cct.config import read_object
from cct.ident import DEFAULT_DELTA_T, DEFAULT_RETENTION, TimeParams
from cct.wire import canonical_encode, lenient_decode

UPLOAD_MODES = ("tuple", "secret")

_SIM_LABEL = b"CCT-SIM-v1"


def material(seed: int, label: str, index: int) -> bytes:
    """Deterministic 32-byte material stream for scenario secrets and tokens."""
    payload = (
        _SIM_LABEL
        + seed.to_bytes(8, "big")
        + label.encode("ascii")
        + index.to_bytes(8, "big")
    )
    return hashlib.sha256(payload).digest()


class InfectionSpec(NamedTuple):
    """One scheduled positive test: who, when, and whether/how they upload."""

    device: int
    test_interval: int
    uploads: bool = True
    mode: str = "tuple"

    def to_value(self) -> dict:
        return {
            "device": self.device,
            "mode": self.mode,
            "test_interval": self.test_interval,
            "uploads": self.uploads,
        }

    @classmethod
    def from_value(cls, value: Any) -> "InfectionSpec":
        template = cls(device=0, test_interval=0).to_value()
        return cls(**read_object(value, template, ("device", "test_interval"), "infected"))


class _EncounterFields(NamedTuple):
    interval: int
    device_i: int
    device_j: int


class EncounterEvent(CheckedValue, _EncounterFields):
    """Symmetric proximity event; produces reciprocal log entries on both sides."""

    __slots__ = ()

    def __new__(cls, interval: int, device_i: int, device_j: int) -> "EncounterEvent":
        if device_i == device_j:
            raise ValueError("encounter requires two distinct devices")
        # normalize so (i, j) and (j, i) are the same event
        if device_i > device_j:
            device_i, device_j = device_j, device_i
        return tuple.__new__(cls, (interval, device_i, device_j))

    def to_value(self) -> dict:
        return {"device_i": self.device_i, "device_j": self.device_j, "interval": self.interval}

    @classmethod
    def from_value(cls, value: Any) -> "EncounterEvent":
        template = cls(interval=0, device_i=0, device_j=1).to_value()
        # every field is required
        return cls(**read_object(value, template, template, "encounter"))


class _ScenarioFields(NamedTuple):
    n_devices: int
    n_intervals: int
    name: str = "scenario"
    seed: int = 0
    encounter_rate: float = 0.0
    complete_graph: bool = False
    encounters: tuple[EncounterEvent, ...] = ()
    infected: tuple[InfectionSpec, ...] = ()
    poll_every: int = 0
    audit_polls: bool = False
    delta_t: int = DEFAULT_DELTA_T
    t0: int = 0
    retention: int = DEFAULT_RETENTION
    strict_interval_match: bool = False


class ScenarioConfig(CheckedValue, _ScenarioFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ScenarioConfig":
        self = super().__new__(cls, *args, **kwargs)
        self.validate()
        return self

    def validate(self) -> None:
        """Reject inconsistent configurations before any protocol work starts."""
        if self.n_devices < 1:
            raise ValueError("n_devices must be positive")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be positive")
        if self.encounter_rate < 0:
            raise ValueError("encounter rate must be non-negative")
        if self.poll_every < 0:
            raise ValueError("poll_every must be non-negative")
        if self.retention < 0:
            raise ValueError("retention must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        seen_devices = set()
        for spec in self.infected:
            if not 0 <= spec.device < self.n_devices:
                raise ValueError("infected device index out of range")
            if not 0 <= spec.test_interval < self.n_intervals:
                raise ValueError("test interval out of range")
            if spec.mode not in UPLOAD_MODES:
                raise ValueError(f"unknown upload mode: {spec.mode!r}")
            if spec.device in seen_devices:
                raise ValueError("duplicate infected device")
            seen_devices.add(spec.device)
        for event in self.encounters:
            if not 0 <= event.device_i < self.n_devices:
                raise ValueError("encounter device index out of range")
            if not 0 <= event.device_j < self.n_devices:
                raise ValueError("encounter device index out of range")
            if not 0 <= event.interval < self.n_intervals:
                raise ValueError("encounter interval out of range")

    def time_params(self) -> TimeParams:
        return TimeParams(t0=self.t0, delta_t=self.delta_t)

    def with_mode(self, mode: str) -> "ScenarioConfig":
        """Same scenario with every upload switched to the given mode."""
        return self._replace(infected=tuple(s._replace(mode=mode) for s in self.infected))

    # -- canonical JSON form --------------------------------------------------

    def to_value(self) -> dict:
        return {
            "audit_polls": self.audit_polls,
            "complete_graph": self.complete_graph,
            "delta_t": self.delta_t,
            "encounter_rate": float(self.encounter_rate),
            "encounters": [e.to_value() for e in self.encounters],
            "infected": [s.to_value() for s in self.infected],
            "n_devices": self.n_devices,
            "n_intervals": self.n_intervals,
            "name": self.name,
            "poll_every": self.poll_every,
            "retention": self.retention,
            "seed": self.seed,
            "strict_interval_match": self.strict_interval_match,
            "t0": self.t0,
        }

    @classmethod
    def from_value(cls, value: Any) -> "ScenarioConfig":
        """Inverse of to_value; absent fields take the defaults above."""
        template = cls(n_devices=1, n_intervals=1).to_value()
        full = read_object(value, template, ("n_devices", "n_intervals"), "scenario")
        full["encounters"] = tuple(EncounterEvent.from_value(e) for e in full["encounters"])
        full["infected"] = tuple(InfectionSpec.from_value(s) for s in full["infected"])
        return cls(**full)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_value(lenient_decode(Path(path).read_bytes()))

    def to_json_bytes(self) -> bytes:
        return canonical_encode(self.to_value())


def poll_intervals(config: ScenarioConfig) -> list[int]:
    """When devices poll: every poll_every intervals plus always at the end."""
    polls = {config.n_intervals - 1}
    if config.poll_every > 0:
        polls.update(
            k
            for k in range(config.n_intervals)
            if (k + 1) % config.poll_every == 0
        )
    return sorted(polls)


# ---------------------------------------------------------------------------
# Stock scenarios
# ---------------------------------------------------------------------------

def fig1_scenario(mode: str = "tuple", seed: int = 1) -> ScenarioConfig:
    """The canonical three-device walkthrough plus one bystander.

    A and C exchange identifiers in interval 0, B and C in interval 1 (A and
    B also meet, which changes nothing). C tests positive and uploads, so A
    and B get notified; device D never meets anyone and must not match.
    """
    return ScenarioConfig(
        name="fig1",
        n_devices=4,
        n_intervals=2,
        seed=seed,
        encounters=(
            EncounterEvent(interval=0, device_i=0, device_j=1),
            EncounterEvent(interval=0, device_i=0, device_j=2),
            EncounterEvent(interval=1, device_i=1, device_j=2),
        ),
        infected=(InfectionSpec(device=2, test_interval=1, uploads=True, mode=mode),),
        audit_polls=True,
    )


def scale_scenario(seed: int, mode: str = "tuple") -> ScenarioConfig:
    """100 devices, 500 intervals, random encounters, five positive uploaders."""
    devices = (7, 23, 41, 59, 77)
    test_intervals = (100, 180, 260, 340, 420)
    return ScenarioConfig(
        name=f"scale-{mode}-seed{seed}",
        n_devices=100,
        n_intervals=500,
        seed=seed,
        encounter_rate=0.05,
        infected=tuple(
            InfectionSpec(device=d, test_interval=t, uploads=True, mode=mode)
            for d, t in zip(devices, test_intervals)
        ),
        poll_every=50,
    )


def flush_scenario(seed: int = 4, mode: str = "tuple") -> ScenarioConfig:
    """Exactly 1000 polls (10 devices x 100 intervals, polling every interval),
    each audited individually, with a mid-run upload so polls hit a non-empty
    store."""
    return ScenarioConfig(
        name="flush-audit",
        n_devices=10,
        n_intervals=100,
        seed=seed,
        encounter_rate=0.3,
        infected=(InfectionSpec(device=3, test_interval=40, uploads=True, mode=mode),),
        poll_every=1,
        audit_polls=True,
    )
