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

import hashlib
import math
import os
import secrets
import struct
import time
from binascii import hexlify
from collections import Counter
from contextlib import suppress
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from cct import CheckedValue, attestation
from cct.attestation import Measurement, seal, unseal
from cct.authority import (
    RESULT_POSITIVE,
    RESULT_UNKNOWN,
    SignedReport,
    token_hash,
    verify_report,
)
from cct.errors import AuthorizationError, ProtocolError, SealError
from cct.ident import DEFAULT_RETENTION, TimeParams, derive_identifier_range, interval_index
from cct.wire import canonical_decode, canonical_encode

ENCLAVE_CODE_VERSION = "cct-enclave/1.0"

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_GPS_D_MAX = 10.0
DEFAULT_GPS_TAU = 900.0


# ---------------------------------------------------------------------------
# GPS types and distance
# ---------------------------------------------------------------------------

class _GpsFields(NamedTuple):
    lat: float
    lon: float
    t: float


class GpsPoint(CheckedValue, _GpsFields):
    __slots__ = ()

    def __new__(cls, lat: float, lon: float, t: float) -> "GpsPoint":
        if not -90.0 <= lat <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 < lon <= 180.0:
            raise ValueError("longitude out of range")
        try:
            finite = math.isfinite(t)
        except (TypeError, OverflowError):  # not a number, or an int past any float
            finite = False
        if not finite:
            raise ValueError("time out of range")
        return tuple.__new__(cls, (lat, lon, t))

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

_INFECTION_RECORD = b'{"interval":%d,"result":%s,"token_hash":"%s","upload_used":%s}'


class InfectionRecord(NamedTuple):
    token_hash: bytes
    result: str
    registered_interval: int
    upload_used: bool = False

    def render(self) -> bytes:
        """The canonical JSON of the record's value, which from_value reads."""
        return _INFECTION_RECORD % (
            self.registered_interval,
            canonical_encode(self.result),
            hexlify(self.token_hash),
            b"true" if self.upload_used else b"false",
        )

    @classmethod
    def from_value(cls, value: dict) -> "InfectionRecord":
        return cls(
            token_hash=bytes.fromhex(value["token_hash"]),
            result=value["result"],
            registered_interval=value["interval"],
            upload_used=value["upload_used"],
        )


class MatchResult(NamedTuple):
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

class _EnclaveFields(NamedTuple):
    ha_verify_key: bytes
    time: TimeParams = TimeParams(t0=0)
    retention: int = DEFAULT_RETENTION
    strict_interval_match: bool = False
    gps_d_max: float = DEFAULT_GPS_D_MAX
    gps_tau: float = DEFAULT_GPS_TAU


class EnclaveConfig(CheckedValue, _EnclaveFields):
    """Everything that defines enclave behaviour, and hence its measurement.

    Two deployments with the same code version and the same config digest
    are, by construction, the same enclave to a verifying client.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "EnclaveConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("retention", "gps_d_max", "gps_tau"):
            if not getattr(self, name) >= 0:  # also refuses NaN
                raise ValueError(f"{name} must be non-negative")
        return self

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


class _Change(NamedTuple):
    """One change of the state in the enclave's own types: the entries it
    inserts, then the interval it sweeps at (None: no sweep). The whole state
    is one change without a sweep; _render writes either as a record."""

    records: Sequence[InfectionRecord] = ()
    # (sent, received, interval, expiry)
    tuples: Sequence[tuple[bytes, bytes, int, int]] = ()
    # (identifier, expiry)
    derived: Sequence[tuple[bytes, int]] = ()
    # (expiry, points)
    gps: Sequence[tuple[int, tuple[GpsPoint, ...]]] = ()
    sweep: int | None = None


# the expiry, last in a tuple or derived-id entry of a change
_EXPIRY = itemgetter(-1)
_TUPLE_ENTRY = b'{"expiry":%d,"interval":%d,"received":"%s","sent":"%s"}'
_DERIVED_ENTRY = b'{"expiry":%d,"id":"%s"}'


def _gps_entry(expiry: int, points: Sequence[GpsPoint]) -> bytes:
    return canonical_encode({"expiry": expiry, "points": [p.to_wire() for p in points]})


def _render(change: _Change) -> bytes:
    """The record of a change: canonical JSON, written as one bytes join.

    The one spelling of every entry; _load reads it back. Keys in canonical
    order: derived_ids, gps_traces, records, sweep (if any), tuples.
    """
    sweep = b"" if change.sweep is None else b',"sweep":%d' % change.sweep
    return b"".join(
        (
            b'{"derived_ids":[',
            b",".join([_DERIVED_ENTRY % (e, hexlify(i)) for i, e in change.derived]),
            b'],"gps_traces":[',
            b",".join([_gps_entry(e, points) for e, points in change.gps]),
            b'],"records":[',
            b",".join([r.render() for r in change.records]),
            b"]",
            sweep,
            b',"tuples":[',
            b",".join([_TUPLE_ENTRY % (e, i, hexlify(r), hexlify(s)) for s, r, i, e in change.tuples]),
            b"]}",
        )
    )


def _read_change(value: dict) -> _Change:
    """A record's value back in the enclave's types; the one place hex becomes bytes."""
    return _Change(
        records=[InfectionRecord.from_value(e) for e in value["records"]],
        tuples=[
            (bytes.fromhex(e["sent"]), bytes.fromhex(e["received"]), e["interval"], e["expiry"])
            for e in value["tuples"]
        ],
        derived=[(bytes.fromhex(e["id"]), e["expiry"]) for e in value["derived_ids"]],
        gps=[
            (e["expiry"], tuple(GpsPoint.from_wire(p) for p in e["points"]))
            for e in value["gps_traces"]
        ],
        sweep=value.get("sweep"),
    )


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
        # the keyed stores, one key -> expiry item per stored entry:
        # (sent, received, interval) per tuple, the identifier per derived id
        self._tuples: dict[tuple[bytes, bytes, int], int] = {}
        self._derived: dict[bytes, int] = {}
        # (sent, received) -> the latest expiry of its tuples, the match key outside
        # strict mode (empty in it); an index of _tuples, neither sealed nor counted
        self._pairs: dict[tuple[bytes, bytes], int] = {}
        self._gps: list[tuple[int, tuple[GpsPoint, ...]]] = []
        # expiry -> number of stored tuples, derived ids and GPS traces that carry it
        self._expiries: Counter[int] = Counter()
        # the entries the log's records hold; those beyond the live ones are
        # dead (swept, or replaced by a later copy)
        self._logged = 0

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
        self._commit(_Change(records=(record,)))

    def poll_test_result(self, token: bytes) -> str:
        record = self._records.get(token_hash(token))
        return record.result if record is not None else RESULT_UNKNOWN

    # -- infected uploads -----------------------------------------------------

    def _upload(self, token: bytes, entries: Callable[[int], dict[str, list]]) -> None:
        """Authorize, then commit one record: the entries at one expiry, a sweep, the spent token."""
        record = self._records.get(token_hash(token))
        if record is None or record.result != RESULT_POSITIVE:
            raise AuthorizationError("not authorized to upload")
        if record.upload_used:
            raise AuthorizationError("upload already used")
        current = self.current_interval()
        spent = record._replace(upload_used=True)
        inserted = entries(current + self.config.retention)
        self._commit(_Change(records=(spent,), sweep=current, **inserted))

    def upload_contact_log(self, token: bytes, tuples: Sequence[tuple[int, bytes, bytes]]) -> None:
        """Single-use upload of a positive user's (interval, sent, received) tuples."""

        def entries(expiry: int) -> dict[str, list]:
            # the record spells an interval with %d, which would cut a float
            if not all(type(i) is int for i, _, _ in tuples):
                raise ValueError("interval must be an integer")
            return {"tuples": [(sent, received, i, expiry) for i, sent, received in tuples]}

        self._upload(token, entries)

    def upload_secret(self, token: bytes, secret: bytes, first: int, last: int) -> None:
        """Secret-upload mode: derive the identifiers, discard the secret.

        Only the derived identifiers reach the store; the secret itself is
        never sealed or persisted.
        """

        def entries(expiry: int) -> dict[str, list]:
            identifiers = derive_identifier_range(
                secret, first, last, max_range=self.config.retention
            )
            return {"derived": [(i, expiry) for i in identifiers]}

        self._upload(token, entries)

    def upload_gps_trace(self, token: bytes, trace: Sequence[GpsPoint]) -> None:
        """GPS variant: the hospital uploads an infected patient's trace."""

        def entries(expiry: int) -> dict[str, list]:
            if not trace:
                raise ValueError("empty trace")
            validate_trace(trace)
            return {"gps": [(expiry, tuple(trace))]}

        self._upload(token, entries)

    # -- the stores: every expiring entry is counted in _expiries -------------

    def _insert_expiring(self, store: dict, keys: list, expiry: int) -> None:
        """Store keys at one expiry; a stored copy is replaced and keeps the later expiry.

        In bulk: each overlap with the store is found by one keys
        intersection, and each expiry's count moves once.
        """
        new = dict.fromkeys(keys, expiry)
        overlap = new.keys() & store.keys()
        if overlap:
            replaced: Counter[int] = Counter()
            for key in overlap:
                old = store[key]
                if old >= expiry:
                    del new[key]
                else:
                    replaced[old] += 1
            for old, n in replaced.items():
                if self._expiries[old] == n:
                    del self._expiries[old]
                else:
                    self._expiries[old] -= n
        if new:
            store.update(new)
            self._expiries[expiry] += len(new)

    def _insert_tuples(self, entries: Iterable[tuple[bytes, bytes, int, int]]) -> None:
        """Store (sent, received, interval, expiry) tuples, keeping the pair index."""
        strict = self.config.strict_interval_match
        pairs = self._pairs
        for expiry, group in groupby(sorted(entries, key=_EXPIRY), _EXPIRY):
            keys = [(sent, received, interval) for sent, received, interval, _ in group]
            self._insert_expiring(self._tuples, keys, expiry)
            if not strict:
                # a pair keeps the latest expiry of its tuples
                new = dict.fromkeys([(sent, received) for sent, received, _ in keys], expiry)
                for pair in new.keys() & pairs.keys():
                    if pairs[pair] >= expiry:
                        del new[pair]
                pairs.update(new)

    def _insert_derived(self, entries: Iterable[tuple[bytes, int]]) -> None:
        for expiry, group in groupby(sorted(entries, key=_EXPIRY), _EXPIRY):
            self._insert_expiring(self._derived, [identifier for identifier, _ in group], expiry)

    # -- matching -------------------------------------------------------------

    def match_poll(self, tuples: Sequence[tuple[int, bytes, bytes]]) -> MatchResult:
        """Match poll (interval, sent, received) tuples against the infected store.

        A poll tuple (i, s, r) matches when the swapped pair (r, s) is stored
        (in strict mode: stored for the same interval i), or when r is a
        derived identifier. Expired entries never match even if a sweep has
        not physically removed them yet. Nothing about the poll is retained.
        """
        strict = self.config.strict_interval_match
        current = self.current_interval()
        stored, pairs, derived = self._tuples, self._pairs, self._derived
        hits: list[int] = []
        for interval, sent, received in tuples:
            if strict:
                expiry = stored.get((received, sent, interval))
            else:
                expiry = pairs.get((received, sent))
            if expiry is None or expiry < current:
                expiry = derived.get(received)
            if expiry is not None and expiry >= current:
                hits.append(interval)
        result = MatchResult.from_intervals(hits)
        if self.log_polls:
            # negative-control misbehaviour: persist what should be transient
            expiry = current + self.config.retention
            self._commit(_Change(tuples=[(s, r, i, expiry) for i, s, r in tuples]))
        return result

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
        # each point's time is read once, not once per pair
        poll = [(q.t, q) for q in trace]
        events: set[tuple[float, float]] = set()
        for expiry, stored in self._gps:
            if expiry < current:
                continue
            for p in stored:
                t_infected = p.t
                for t_poller, q in poll:
                    if abs(t_infected - t_poller) <= tau and haversine_distance(p, q) <= d_max:
                        events.add((t_infected, t_poller))
        return sorted(events)

    # -- housekeeping -----------------------------------------------------------

    def expire_store(self, current: int) -> int:
        """Physically remove entries whose expiry passed; returns count removed.

        Appends a sweep record only when an entry has expired.
        """
        if not self._expired(current):
            return 0
        return self._commit(_Change(sweep=current))

    def _expired(self, current: int) -> list[int]:
        """The counted expiries before current."""
        return [expiry for expiry in self._expiries if expiry < current]

    def _sweep(self, current: int) -> int:
        """Remove the entries whose expiry is before current; returns count removed."""
        expired = self._expired(current)
        if not expired:
            return 0
        # a pair's latest expiry passes only once every tuple of the pair has
        for store in (self._tuples, self._pairs, self._derived):
            for key in [k for k, exp in store.items() if exp < current]:
                del store[key]
        self._gps = [(expiry, stored) for expiry, stored in self._gps if expiry >= current]
        return sum(self._expiries.pop(expiry) for expiry in expired)

    # -- state serialization ----------------------------------------------------------

    def _state(self) -> _Change:
        """The whole state as one change, each store in its canonical order."""
        # tuples by interval, then sent, then received
        tuples = sorted([(i, s, r, e) for (s, r, i), e in self._tuples.items()])
        return _Change(
            records=sorted(self._records.values(), key=lambda r: r.token_hash),
            tuples=[(s, r, i, e) for i, s, r, e in tuples],
            derived=sorted(self._derived.items()),
            gps=sorted(self._gps, key=lambda g: (g[0], _gps_entry(*g))),
        )

    def serialize_state(self) -> bytes:
        """Canonical plaintext form of all long-lived enclave state."""
        return _render(self._state())

    def _apply(self, change: _Change) -> int:
        """Insert a change's entries, then run its sweep; returns the count swept.

        The one way the state changes: every change applies itself after
        appending its record, and _load replays the log through here.
        """
        for record in change.records:
            self._records[record.token_hash] = record
        # every sealed tuple passed the wire's and the service's checks at upload
        if change.tuples:
            self._insert_tuples(change.tuples)
        if change.derived:
            self._insert_derived(change.derived)
        for expiry, points in change.gps:
            self._gps.append((expiry, points))
            self._expiries[expiry] += 1
        self._logged += len(change.records) + len(change.tuples) + len(change.derived) + len(change.gps)
        return 0 if change.sweep is None else self._sweep(change.sweep)

    # -- the sealed log -------------------------------------------------------------

    def sealed_bytes(self) -> bytes:
        """The sealed log exactly as persisted."""
        return bytes(self._log)

    def _commit(self, change: _Change) -> int:
        """Append the change's record, then apply it; returns the count swept.

        A failed append raises before memory changes. Once dead entries
        reach the live ones the log is compacted.
        """
        self._persist(change)
        removed = self._apply(change)
        live = len(self._records) + self._expiries.total()
        dead = self._logged - live
        if dead and dead >= live:
            # the change is already durable; a failed compaction leaves the
            # valid log in place and the next change tries again
            with suppress(OSError):
                self._rewrite()
        return removed

    def _persist(self, change: _Change) -> None:
        """Seal one change's record and append it to the log, file first."""
        aad = _record_aad(self._file_id, self._seq)
        frame = _frame(seal(_render(change), self.measurement, self._platform_secret, aad))
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
        self._log, self._file_id, self._seq = log, file_id, 1
        self._logged = len(self._records) + self._expiries.total()

    def _load(self, raw: bytes) -> None:
        """Replay a log, cutting off an append that a crash left unfinished.

        One cut rule: the first frame that fails to unseal is cut, with all
        after it, if a record replayed before it and only zeros follow the
        frame's declared end (or that end passes the end of the file). An
        append that was never fsynced leaves such a frame: torn, zero-filled,
        or a zero length header in a zero tail. A partial length header after
        the last record is cut too. Anything else is refused and left as it
        is: a file without the log header, a frame that fails to unseal with
        a nonzero byte past its end, a record that unseals but does not
        replay, and a log with no complete record (the first record is
        written whole, with the header, so no crash can tear it).
        """
        if len(raw) < _HEADER_LEN or not raw.startswith(_LOG_MAGIC):
            raise SealError("unseal failed")
        file_id = raw[len(_LOG_MAGIC):_HEADER_LEN]
        pos, seq = _HEADER_LEN, 0
        while pos + _FRAME_LEN.size <= len(raw):
            (length,) = _FRAME_LEN.unpack_from(raw, pos)
            body = pos + _FRAME_LEN.size
            end = body + length
            aad = _record_aad(file_id, seq)
            try:
                plaintext = unseal(raw[body:end], self.measurement, self._platform_secret, aad)
            except SealError:
                if seq == 0 or any(raw[end:]):
                    raise
                break
            self._apply(_read_change(canonical_decode(plaintext)))
            pos, seq = end, seq + 1
        if seq == 0:
            raise SealError("unseal failed")
        if pos < len(raw):
            os.truncate(self._store_path, pos)
        self._log, self._file_id, self._seq = bytearray(raw[:pos]), file_id, seq
