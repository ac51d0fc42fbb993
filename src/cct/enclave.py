"""The confidential backend core.

Holds all infection-related state: health-authority test records, the
infected contact store (tuples uploaded by positive users, or identifiers
derived from an uploaded secret), and infected GPS traces. State lives in
memory inside the simulated enclave boundary and is persisted exclusively as
a sealed blob bound to the enclave measurement, rewritten on every mutation.
Every stored entry carries an expiry; an upload also drops the entries whose
expiry has passed before it seals.

Match polls are strictly read-only: poll inputs and results are never
persisted, so the sealed state and the long-lived in-enclave state are
byte-identical before and after any number of polls. The `log_polls` flag
deliberately breaks that guarantee and exists only as a negative control for
the flush audit.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from cct import attestation
from cct.attestation import Measurement, SealedBlob, seal, unseal
from cct.authority import (
    RESULT_NEGATIVE,
    RESULT_POSITIVE,
    RESULT_UNKNOWN,
    SignedReport,
    token_hash,
    verify_report,
)
from cct.contact_log import DEFAULT_RETENTION, ContactTuple
from cct.errors import AuthorizationError, ProtocolError
from cct.ident import TimeParams, derive_identifier_range, interval_index
from cct.wire import canonical_decode, canonical_encode, read_key, read_object

ENCLAVE_CODE_VERSION = "cct-enclave/1.0"

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_GPS_D_MAX = 10.0
DEFAULT_GPS_TAU = 900.0


# ---------------------------------------------------------------------------
# GPS types and distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpsPoint:
    lat: float
    lon: float
    t: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError("longitude out of range")

    def to_wire(self) -> dict:
        return {"lat": self.lat, "lon": self.lon, "t": self.t}

    @classmethod
    def from_wire(cls, obj: dict) -> "GpsPoint":
        return cls(lat=obj["lat"], lon=obj["lon"], t=obj["t"])


def validate_trace(points: Sequence[GpsPoint]) -> None:
    for a, b in zip(points, points[1:]):
        if b.t <= a.t:
            raise ValueError("trace not strictly time-ordered")


def haversine_distance(p: GpsPoint, q: GpsPoint) -> float:
    """Great-circle distance in meters (spherical Earth, R = 6,371,000 m)."""
    lat1, lat2 = math.radians(p.lat), math.radians(q.lat)
    dlat = lat2 - lat1
    dlon = math.radians(q.lon - p.lon)
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.asin(math.sqrt(a))


# ---------------------------------------------------------------------------
# Records and results
# ---------------------------------------------------------------------------

@dataclass
class InfectionRecord:
    token_hash: bytes
    result: str
    registered_interval: int
    upload_used: bool = False

    def to_value(self) -> dict:
        return {
            "interval": self.registered_interval,
            "result": self.result,
            "token_hash": self.token_hash.hex(),
            "upload_used": self.upload_used,
        }

    @classmethod
    def from_value(cls, value: dict) -> "InfectionRecord":
        return cls(
            token_hash=bytes.fromhex(value["token_hash"]),
            result=value["result"],
            registered_interval=value["interval"],
            upload_used=value["upload_used"],
        )


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    matched_intervals: tuple[int, ...]

    @classmethod
    def from_intervals(cls, intervals: Iterable[int]) -> "MatchResult":
        ordered = tuple(sorted(set(intervals)))
        return cls(matched=bool(ordered), matched_intervals=ordered)

    def to_wire(self) -> dict:
        return {
            "matched": self.matched,
            "matched_intervals": list(self.matched_intervals),
            "type": "poll_resp",
        }

    @classmethod
    def from_wire(cls, msg: dict) -> "MatchResult":
        return cls(
            matched=msg["matched"], matched_intervals=tuple(msg["matched_intervals"])
        )


def gps_events_to_wire(events: Iterable[tuple[float, float]]) -> dict:
    """The gps_poll_resp message for match_gps's (t_infected, t_poller) pairs."""
    return {
        "events": [{"t_infected": a, "t_poller": b} for a, b in events],
        "type": "gps_poll_resp",
    }


def gps_events_from_wire(msg: dict) -> list[tuple[float, float]]:
    return [(e["t_infected"], e["t_poller"]) for e in msg["events"]]


# ---------------------------------------------------------------------------
# Configuration and measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnclaveConfig:
    """Everything that defines enclave behaviour, and hence its measurement.

    Two deployments with the same code version and the same config digest
    are, by construction, the same enclave to a verifying client.
    """

    ha_verify_key: bytes
    time: TimeParams = field(default_factory=lambda: TimeParams(t0=0))
    retention: int = DEFAULT_RETENTION
    strict_interval_match: bool = False
    gps_d_max: float = DEFAULT_GPS_D_MAX
    gps_tau: float = DEFAULT_GPS_TAU

    def to_value(self) -> dict:
        return {
            "delta_t": self.time.delta_t,
            "gps_d_max": float(self.gps_d_max),
            "gps_tau": float(self.gps_tau),
            "ha_verify_key": self.ha_verify_key.hex(),
            "retention": self.retention,
            "strict_interval_match": self.strict_interval_match,
            "t0": self.time.t0,
        }

    @classmethod
    def from_value(cls, value: Any) -> "EnclaveConfig":
        """Inverse of to_value; absent fields take the defaults above."""
        template = cls(ha_verify_key=b"").to_value()
        full = read_object(value, template, ("ha_verify_key",), "config")
        return cls(
            ha_verify_key=read_key(full, "ha_verify_key", "config"),
            time=TimeParams(t0=full["t0"], delta_t=full["delta_t"]),
            retention=full["retention"],
            strict_interval_match=full["strict_interval_match"],
            gps_d_max=full["gps_d_max"],
            gps_tau=full["gps_tau"],
        )

    def digest(self) -> bytes:
        return hashlib.sha256(canonical_encode(self.to_value())).digest()

    def measurement(self) -> Measurement:
        return attestation.compute_measurement(ENCLAVE_CODE_VERSION, self.digest())


# ---------------------------------------------------------------------------
# Enclave
# ---------------------------------------------------------------------------

class Enclave:
    """Application state machine behind the attested boundary."""

    def __init__(
        self,
        config: EnclaveConfig,
        platform_secret: bytes,
        store_path: str | Path | None = None,
        clock: Callable[[], float] = time.time,
        log_polls: bool = False,
    ) -> None:
        if len(platform_secret) != 32:
            raise ValueError("platform secret must be 32 bytes")
        self.config = config
        self.measurement = config.measurement()
        self.log_polls = log_polls
        self._platform_secret = bytes(platform_secret)
        self._store_path = Path(store_path) if store_path else None
        self._clock = clock

        self._records: dict[bytes, InfectionRecord] = {}
        # (sent, received) -> {interval: expiry}; the pair is the match key,
        # intervals matter only in strict mode and for auditing
        self._tuples: dict[tuple[bytes, bytes], dict[int, int]] = {}
        self._derived: dict[bytes, int] = {}
        self._gps: list[tuple[int, tuple[GpsPoint, ...]]] = []
        self._min_expiry: int | None = None

        if self._store_path is not None and self._store_path.exists():
            self._load(self._store_path.read_bytes())
        self._sealed = b""
        self._persist()

    # -- time ---------------------------------------------------------------

    def current_interval(self) -> int:
        return interval_index(self._clock(), self.config.time)

    # -- health-authority path ----------------------------------------------

    def register_test_result(self, report: SignedReport) -> None:
        """Store an HA-signed result; idempotent for byte-identical reports."""
        verify_report(self.config.ha_verify_key, report)
        existing = self._records.get(report.token_hash)
        if existing is not None:
            if (
                existing.result != report.result
                or existing.registered_interval != report.interval
            ):
                raise ProtocolError("conflicting report")
            return
        self._records[report.token_hash] = InfectionRecord(
            token_hash=report.token_hash,
            result=report.result,
            registered_interval=report.interval,
        )
        self._persist()

    def poll_test_result(self, token: bytes) -> str:
        record = self._records.get(token_hash(token))
        return record.result if record is not None else RESULT_UNKNOWN

    # -- infected uploads -----------------------------------------------------

    def _upload(self, token: bytes, insert: Callable[[int], None]) -> None:
        """Authorize, insert at one expiry, sweep expired entries, spend the token, seal."""
        record = self._records.get(token_hash(token))
        if record is None or record.result != RESULT_POSITIVE:
            raise AuthorizationError("not authorized to upload")
        if record.upload_used:
            raise AuthorizationError("upload already used")
        current = self.current_interval()
        insert(current + self.config.retention)
        self._sweep(current)
        record.upload_used = True
        self._persist()

    def upload_contact_log(self, token: bytes, tuples: Sequence[ContactTuple]) -> None:
        """Single-use upload of a positive user's contact log."""

        def insert(expiry: int) -> None:
            for t in tuples:
                self._insert_tuple(t, expiry)

        self._upload(token, insert)

    def upload_secret(self, token: bytes, secret: bytes, first: int, last: int) -> None:
        """Secret-upload mode: derive the identifiers, discard the secret.

        Only the derived identifiers reach the store; the secret itself is
        never sealed or persisted.
        """

        def insert(expiry: int) -> None:
            identifiers = derive_identifier_range(
                secret, first, last, max_range=self.config.retention
            )
            for identifier in identifiers:
                self._insert_derived(identifier, expiry)

        self._upload(token, insert)

    def upload_gps_trace(self, token: bytes, trace: Sequence[GpsPoint]) -> None:
        """GPS variant: the hospital uploads an infected patient's trace."""
        self._upload(token, lambda expiry: self._insert_gps(trace, expiry))

    # -- the stores: one insert helper per kind --------------------------------

    def _note_expiry(self, expiry: int) -> None:
        if self._min_expiry is None or expiry < self._min_expiry:
            self._min_expiry = expiry

    def _insert_tuple(self, t: ContactTuple, expiry: int) -> None:
        intervals = self._tuples.setdefault((t.sent, t.received), {})
        intervals[t.interval] = max(intervals.get(t.interval, 0), expiry)
        self._note_expiry(expiry)

    def _insert_derived(self, identifier: bytes, expiry: int) -> None:
        self._derived[identifier] = max(self._derived.get(identifier, 0), expiry)
        self._note_expiry(expiry)

    def _insert_gps(self, trace: Sequence[GpsPoint], expiry: int) -> None:
        if not trace:
            raise ValueError("empty trace")
        validate_trace(trace)
        self._gps.append((expiry, tuple(trace)))
        self._note_expiry(expiry)

    # -- matching -------------------------------------------------------------

    def match_poll(self, tuples: Sequence[ContactTuple]) -> MatchResult:
        """Match poll tuples against the infected store.

        A poll tuple (s, r, i) matches when the swapped pair (r, s) is stored
        (in strict mode: stored for the same interval i), or when r is a
        derived identifier. Expired entries never match even if a sweep has
        not physically removed them yet. Nothing about the poll is retained.
        """
        strict = self.config.strict_interval_match
        current = self.current_interval()
        hits: list[int] = []
        for t in tuples:
            if self._tuple_matches(t, strict, current):
                hits.append(t.interval)
        result = MatchResult.from_intervals(hits)
        if self.log_polls:
            # negative-control misbehaviour: persist what should be transient
            expiry = current + self.config.retention
            for t in tuples:
                self._insert_tuple(t, expiry)
            self._persist()
        return result

    def _tuple_matches(self, t: ContactTuple, strict: bool, current: int) -> bool:
        intervals = self._tuples.get((t.received, t.sent))
        if intervals is not None:
            if strict:
                if intervals.get(t.interval, -1) >= current:
                    return True
            elif any(expiry >= current for expiry in intervals.values()):
                return True
        expiry = self._derived.get(t.received)
        return expiry is not None and expiry >= current

    def match_gps(
        self,
        trace: Sequence[GpsPoint],
        d_max: float | None = None,
        tau: float | None = None,
    ) -> list[tuple[float, float]]:
        """Contact events between the poll trace and stored infected traces.

        An event is any point pair within tau seconds and d_max meters,
        reported as (t_infected, t_poller). The configured gps_d_max and gps_tau
        are the defaults and the widest thresholds a poll may ask for. The poll
        trace is not persisted.
        """
        d_max = self.config.gps_d_max if d_max is None else d_max
        tau = self.config.gps_tau if tau is None else tau
        if d_max > self.config.gps_d_max:
            raise ProtocolError(f"d_max above the configured {self.config.gps_d_max} m")
        if tau > self.config.gps_tau:
            raise ProtocolError(f"tau above the configured {self.config.gps_tau} s")
        validate_trace(trace)
        current = self.current_interval()
        events: set[tuple[float, float]] = set()
        for expiry, stored in self._gps:
            if expiry < current:
                continue
            for p in stored:
                for q in trace:
                    if abs(p.t - q.t) <= tau and haversine_distance(p, q) <= d_max:
                        events.add((p.t, q.t))
        return sorted(events)

    # -- housekeeping -----------------------------------------------------------

    def expire_store(self, current: int) -> int:
        """Physically remove entries whose expiry passed; returns count removed."""
        removed = self._sweep(current)
        if removed:
            self._persist()
        return removed

    def _sweep(self, current: int) -> int:
        """expire_store without the seal, for callers that seal anyway."""
        if self._min_expiry is None or current <= self._min_expiry:
            return 0
        removed = 0
        expiries: list[int] = []
        for pair in list(self._tuples):
            intervals = self._tuples[pair]
            for interval in [i for i, exp in intervals.items() if exp < current]:
                del intervals[interval]
                removed += 1
            if intervals:
                expiries.extend(intervals.values())
            else:
                del self._tuples[pair]
        for identifier in [i for i, exp in self._derived.items() if exp < current]:
            del self._derived[identifier]
            removed += 1
        expiries.extend(self._derived.values())
        kept_gps = []
        for expiry, stored in self._gps:
            if expiry < current:
                removed += 1
            else:
                kept_gps.append((expiry, stored))
                expiries.append(expiry)
        self._gps = kept_gps
        self._min_expiry = min(expiries) if expiries else None
        return removed

    # -- state serialization and sealing ------------------------------------------

    def _state_value(self) -> dict:
        tuple_entries = []
        for (sent, received), intervals in self._tuples.items():
            for interval, expiry in intervals.items():
                tuple_entries.append(
                    {
                        "expiry": expiry,
                        "interval": interval,
                        "received": received.hex(),
                        "sent": sent.hex(),
                    }
                )
        tuple_entries.sort(key=lambda e: (e["interval"], e["sent"], e["received"]))
        derived_entries = [
            {"expiry": expiry, "id": identifier.hex()}
            for identifier, expiry in sorted(
                self._derived.items(), key=lambda kv: kv[0]
            )
        ]
        record_entries = [
            r.to_value()
            for r in sorted(self._records.values(), key=lambda r: r.token_hash)
        ]
        gps_entries = sorted(
            (
                {
                    "expiry": expiry,
                    "points": [p.to_wire() for p in stored],
                }
                for expiry, stored in self._gps
            ),
            key=lambda e: (e["expiry"], canonical_encode(e)),
        )
        return {
            "derived_ids": derived_entries,
            "gps_traces": gps_entries,
            "records": record_entries,
            "tuples": tuple_entries,
        }

    def serialize_state(self) -> bytes:
        """Canonical plaintext form of all long-lived enclave state."""
        return canonical_encode(self._state_value())

    def sealed_bytes(self) -> bytes:
        """The sealed blob exactly as persisted."""
        return self._sealed

    def _persist(self) -> None:
        blob = seal(self.serialize_state(), self.measurement, self._platform_secret)
        self._sealed = blob.to_bytes()
        if self._store_path is not None:
            self._store_path.write_bytes(self._sealed)

    def _load(self, raw: bytes) -> None:
        data = unseal(SealedBlob.from_bytes(raw), self.measurement, self._platform_secret)
        state = canonical_decode(data)
        for entry in state["records"]:
            record = InfectionRecord.from_value(entry)
            self._records[record.token_hash] = record
        for entry in state["tuples"]:
            self._insert_tuple(ContactTuple.from_wire(entry), entry["expiry"])
        for entry in state["derived_ids"]:
            self._insert_derived(bytes.fromhex(entry["id"]), entry["expiry"])
        for entry in state["gps_traces"]:
            points = [GpsPoint.from_wire(p) for p in entry["points"]]
            self._insert_gps(points, entry["expiry"])
