"""The confidential backend core.

Holds all infection-related state: health-authority test records, the
infected contact store (tuples uploaded by positive users, or identifiers
derived from an uploaded secret), and infected GPS traces. State lives in
memory inside the simulated enclave boundary and is persisted exclusively as
an append-only log of records sealed to the enclave measurement: each change
appends one record holding only what it changed, and the log is compacted to
one record of the whole state once it holds as many dead entries as live ones.
Every stored entry carries an expiry; an upload also drops the entries whose
expiry has passed.

Match polls are strictly read-only: poll inputs and results are never
persisted, so the sealed state and the long-lived in-enclave state are
byte-identical before and after any number of polls. The `log_polls` flag
deliberately breaks that guarantee and exists only as a negative control for
the flush audit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import secrets
import struct
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from cct import attestation
from cct.attestation import Measurement, seal, unseal
from cct.authority import (
    RESULT_POSITIVE,
    RESULT_UNKNOWN,
    SignedReport,
    token_hash,
    verify_report,
)
from cct.contact_log import DEFAULT_RETENTION, ContactTuple
from cct.errors import AuthorizationError, ProtocolError, SealError
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
        try:
            finite = math.isfinite(self.t)
        except (TypeError, OverflowError):  # not a number, or an int past any float
            finite = False
        if not finite:
            raise ValueError("time out of range")

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

    def __post_init__(self) -> None:
        for name in ("retention", "gps_d_max", "gps_tau"):
            if not getattr(self, name) >= 0:  # also refuses NaN
                raise ValueError(f"{name} must be non-negative")

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
# Sealed log format
# ---------------------------------------------------------------------------

# header: magic, then a random file id; then frames of u32 length || nonce || ciphertext
_LOG_MAGIC = b"CCTLOG1\n"
_FILE_ID_LEN = 16
_HEADER_LEN = len(_LOG_MAGIC) + _FILE_ID_LEN
_FRAME_LEN = struct.Struct(">I")


def _record_aad(file_id: bytes, seq: int) -> bytes:
    """Binds a record to its file and position: a moved record fails to unseal."""
    return file_id + seq.to_bytes(8, "big")


def _frame(sealed: bytes) -> bytes:
    return _FRAME_LEN.pack(len(sealed)) + sealed


def _replace_file(path: Path, data: bytes) -> None:
    """Write data to path atomically: tmp file, fsync, rename, fsync the directory."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# The entry values of each delta record and of the state; _apply reads them.

def _tuple_value(t: ContactTuple, expiry: int) -> dict:
    return {**t.to_wire(), "expiry": expiry}


def _derived_value(identifier: bytes, expiry: int) -> dict:
    return {"expiry": expiry, "id": identifier.hex()}


def _gps_value(expiry: int, points: Sequence[GpsPoint]) -> dict:
    return {"expiry": expiry, "points": [p.to_wire() for p in points]}


def _delta(sweep: int | None = None, **entries: list) -> dict:
    """One change in the shape of the state value, plus the interval it sweeps at."""
    delta = {"derived_ids": [], "gps_traces": [], "records": [], "tuples": [], **entries}
    if sweep is not None:
        delta["sweep"] = sweep
    return delta


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
        # expiry -> number of stored tuples, derived ids and GPS traces that carry it
        self._expiries: Counter[int] = Counter()
        # entries the log holds beyond the state (swept, or replaced by a later
        # copy); the log is compacted when they reach the live ones
        self._dead = 0

        # the sealed log, mirrored in memory even without a store file
        self._log = bytearray()
        self._file_id = b""
        self._seq = 0
        if self._store_path is not None and self._store_path.exists():
            self._load(self._store_path.read_bytes())
        else:
            self._rewrite()

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
        record = InfectionRecord(
            token_hash=report.token_hash,
            result=report.result,
            registered_interval=report.interval,
        )
        self._commit(_delta(records=[record.to_value()]))

    def poll_test_result(self, token: bytes) -> str:
        record = self._records.get(token_hash(token))
        return record.result if record is not None else RESULT_UNKNOWN

    # -- infected uploads -----------------------------------------------------

    def _upload(self, token: bytes, entries: Callable[[int], dict]) -> None:
        """Authorize, then commit one record: the entries at one expiry, a sweep, the spent token."""
        record = self._records.get(token_hash(token))
        if record is None or record.result != RESULT_POSITIVE:
            raise AuthorizationError("not authorized to upload")
        if record.upload_used:
            raise AuthorizationError("upload already used")
        current = self.current_interval()
        spent = dataclasses.replace(record, upload_used=True)
        inserted = entries(current + self.config.retention)
        self._commit(_delta(records=[spent.to_value()], sweep=current, **inserted))

    def upload_contact_log(self, token: bytes, tuples: Sequence[ContactTuple]) -> None:
        """Single-use upload of a positive user's contact log."""

        def entries(expiry: int) -> dict:
            return {"tuples": [_tuple_value(t, expiry) for t in tuples]}

        self._upload(token, entries)

    def upload_secret(self, token: bytes, secret: bytes, first: int, last: int) -> None:
        """Secret-upload mode: derive the identifiers, discard the secret.

        Only the derived identifiers reach the store; the secret itself is
        never sealed or persisted.
        """

        def entries(expiry: int) -> dict:
            identifiers = derive_identifier_range(
                secret, first, last, max_range=self.config.retention
            )
            return {"derived_ids": [_derived_value(i, expiry) for i in identifiers]}

        self._upload(token, entries)

    def upload_gps_trace(self, token: bytes, trace: Sequence[GpsPoint]) -> None:
        """GPS variant: the hospital uploads an infected patient's trace."""

        def entries(expiry: int) -> dict:
            if not trace:
                raise ValueError("empty trace")
            validate_trace(trace)
            return {"gps_traces": [_gps_value(expiry, trace)]}

        self._upload(token, entries)

    # -- the stores: every expiring entry is counted in _expiries -------------

    def _insert_record(self, record: InfectionRecord) -> None:
        if record.token_hash in self._records:
            self._dead += 1
        self._records[record.token_hash] = record

    def _insert_expiring(self, store: dict, key: Any, expiry: int) -> None:
        """Store key at expiry; a stored copy is replaced and keeps the later expiry."""
        old = store.get(key)
        if old is not None:
            self._dead += 1
            if old >= expiry:
                return
            self._expiries[old] -= 1
            if not self._expiries[old]:
                del self._expiries[old]
        store[key] = expiry
        self._expiries[expiry] += 1

    def _insert_gps(self, trace: Sequence[GpsPoint], expiry: int) -> None:
        self._gps.append((expiry, tuple(trace)))
        self._expiries[expiry] += 1

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
            self._commit(
                _delta(tuples=[_tuple_value(t, expiry) for t in tuples])
            )
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
        """Physically remove entries whose expiry passed; returns count removed.

        Appends a sweep record only when an entry has expired.
        """
        if not self._expired(current):
            return 0
        return self._commit(_delta(sweep=current))

    def _expired(self, current: int) -> list[int]:
        """The counted expiries before current."""
        return [expiry for expiry in self._expiries if expiry < current]

    def _sweep(self, current: int) -> int:
        """Remove the entries whose expiry is before current; returns count removed."""
        expired = self._expired(current)
        if not expired:
            return 0
        for pair in list(self._tuples):
            intervals = self._tuples[pair]
            for interval in [i for i, exp in intervals.items() if exp < current]:
                del intervals[interval]
            if not intervals:
                del self._tuples[pair]
        for identifier in [i for i, exp in self._derived.items() if exp < current]:
            del self._derived[identifier]
        self._gps = [(expiry, stored) for expiry, stored in self._gps if expiry >= current]
        removed = sum(self._expiries.pop(expiry) for expiry in expired)
        self._dead += removed
        return removed

    # -- state serialization ----------------------------------------------------------

    def _state_value(self) -> dict:
        tuple_entries = []
        for (sent, received), intervals in self._tuples.items():
            # _tuple_value's fields, without building a ContactTuple per entry
            sent_hex, received_hex = sent.hex(), received.hex()
            for interval, expiry in intervals.items():
                tuple_entries.append(
                    {"expiry": expiry, "interval": interval, "received": received_hex, "sent": sent_hex}
                )
        tuple_entries.sort(key=lambda e: (e["interval"], e["sent"], e["received"]))
        derived_entries = [
            _derived_value(identifier, expiry)
            for identifier, expiry in sorted(
                self._derived.items(), key=lambda kv: kv[0]
            )
        ]
        record_entries = [
            r.to_value()
            for r in sorted(self._records.values(), key=lambda r: r.token_hash)
        ]
        gps_entries = sorted(
            (_gps_value(expiry, stored) for expiry, stored in self._gps),
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

    def _apply(self, value: dict) -> int:
        """Insert a record's entries, then run its sweep; returns the count swept.

        The one way the state changes: every change applies its own record
        after appending it, and _load replays the log through here.
        """
        for entry in value["records"]:
            self._insert_record(InfectionRecord.from_value(entry))
        for entry in value["tuples"]:
            t = ContactTuple.from_wire(entry)
            intervals = self._tuples.setdefault((t.sent, t.received), {})
            self._insert_expiring(intervals, t.interval, entry["expiry"])
        for entry in value["derived_ids"]:
            self._insert_expiring(self._derived, bytes.fromhex(entry["id"]), entry["expiry"])
        for entry in value["gps_traces"]:
            self._insert_gps([GpsPoint.from_wire(p) for p in entry["points"]], entry["expiry"])
        return self._sweep(value["sweep"]) if "sweep" in value else 0

    # -- the sealed log -------------------------------------------------------------

    def sealed_bytes(self) -> bytes:
        """The sealed log exactly as persisted."""
        return bytes(self._log)

    def _commit(self, delta: dict) -> int:
        """Append the delta, then apply it; returns the count swept.

        A failed append raises before memory changes. Once dead entries
        reach the live ones the log is compacted.
        """
        self._persist(delta)
        removed = self._apply(delta)
        if self._dead and self._dead >= len(self._records) + self._expiries.total():
            # the change is already durable; a failed compaction leaves the
            # valid log in place and the next change tries again
            with suppress(OSError):
                self._rewrite()
        return removed

    def _persist(self, delta: dict) -> None:
        """Seal one delta record and append it to the log, file first."""
        aad = _record_aad(self._file_id, self._seq)
        frame = _frame(seal(canonical_encode(delta), self.measurement, self._platform_secret, aad))
        if self._store_path is not None:
            try:
                self._append(frame)
            except OSError as exc:
                raise ProtocolError("store write failed") from exc
        self._log += frame
        self._seq += 1

    def _append(self, frame: bytes) -> None:
        """Write frame at the end of the valid log and fsync; undo a failed write.

        Bytes past the valid end (a failed write whose undo failed too) are
        overwritten or truncated, so they never precede a good frame.
        """
        end = len(self._log)
        with open(self._store_path, "r+b", buffering=0) as f:
            try:
                f.seek(end)
                if f.write(frame) != len(frame):
                    raise OSError("short write")
                f.truncate()
                os.fsync(f.fileno())
            except OSError:
                with suppress(OSError):
                    f.truncate(end)
                raise

    def _rewrite(self) -> None:
        """Replace the log by one record of the whole state, under a new file id."""
        file_id = secrets.token_bytes(_FILE_ID_LEN)
        aad = _record_aad(file_id, 0)
        sealed = seal(self.serialize_state(), self.measurement, self._platform_secret, aad)
        log = bytearray(_LOG_MAGIC + file_id + _frame(sealed))
        if self._store_path is not None:
            _replace_file(self._store_path, log)
        self._log, self._file_id, self._seq, self._dead = log, file_id, 1, 0

    def _load(self, raw: bytes) -> None:
        """Replay a log; a torn final frame is cut off, as its write never finished.

        Anything else that does not replay is refused and left as it is: a
        file without the log header, a record that fails to unseal, and a log
        with no complete record (the first record is written whole, with the
        header, so no crash can tear it).
        """
        if len(raw) < _HEADER_LEN or not raw.startswith(_LOG_MAGIC):
            raise SealError("unseal failed")
        file_id = raw[len(_LOG_MAGIC):_HEADER_LEN]
        pos, seq = _HEADER_LEN, 0
        while pos + _FRAME_LEN.size <= len(raw):
            (length,) = _FRAME_LEN.unpack_from(raw, pos)
            body = pos + _FRAME_LEN.size
            if body + length > len(raw):
                break
            aad = _record_aad(file_id, seq)
            sealed = raw[body:body + length]
            self._apply(canonical_decode(unseal(sealed, self.measurement, self._platform_secret, aad)))
            pos, seq = body + length, seq + 1
        if seq == 0:
            raise SealError("unseal failed")
        if pos < len(raw):
            os.truncate(self._store_path, pos)
        self._log, self._file_id, self._seq = bytearray(raw[:pos]), file_id, seq
