"""Device-side contact tuple log.

Every proximity encounter leaves one tuple per device: the identifier the
device sent and the one it received, stamped with the interval. The log has
set semantics, a retention window for pruning, and a deterministic export
order so the same log always produces the same wire bytes. Exports feed both
the infected upload and the regular match polls.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from cct import CheckedValue, wire
from cct.ident import DEFAULT_RETENTION, IDENTIFIER_LEN


class _ContactFields(NamedTuple):
    interval: int
    sent: bytes
    received: bytes


class ContactTuple(CheckedValue, _ContactFields):
    """One recorded identifier exchange: (interval, sent, received).

    A plain tuple that is checked when it is built, so it sorts, hashes and
    unpacks like one and equals the tuple of its fields. Field order gives
    the canonical sort: interval, then sent bytes, then received bytes.
    """

    __slots__ = ()

    def __new__(cls, interval: int, sent: bytes, received: bytes) -> "ContactTuple":
        if len(sent) != IDENTIFIER_LEN or len(received) != IDENTIFIER_LEN:
            raise ValueError(f"identifiers must be {IDENTIFIER_LEN} bytes")
        if sent == received:
            raise ValueError("self-contact")
        if not isinstance(interval, int) or isinstance(interval, bool):
            raise ValueError("interval must be an integer")
        if interval < 0:
            raise ValueError("interval must be non-negative")
        return tuple.__new__(cls, (interval, sent, received))

    def to_wire(self) -> dict:
        return {
            "interval": self.interval,
            "received": self.received.hex(),
            "sent": self.sent.hex(),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "ContactTuple":
        return cls(
            interval=obj["interval"],
            sent=bytes.fromhex(obj["sent"]),
            received=bytes.fromhex(obj["received"]),
        )


class ContactLog:
    """Append-only set of contact tuples with retention pruning."""

    def __init__(
        self,
        retention_intervals: int = DEFAULT_RETENTION,
        tuples: Iterable[ContactTuple] = (),
    ) -> None:
        if retention_intervals < 0:
            raise ValueError("retention must be non-negative")
        self.retention_intervals = retention_intervals
        self._tuples: set[ContactTuple] = set(tuples)

    def record(self, sent: bytes, received: bytes, interval: int) -> None:
        """Record one exchange; re-recording an existing triple is a no-op."""
        self._tuples.add(ContactTuple(interval=interval, sent=sent, received=received))

    def prune_expired(self, current: int) -> int:
        """Drop tuples older than the retention window; returns count removed."""
        threshold = current - self.retention_intervals
        stale = {t for t in self._tuples if t.interval < threshold}
        self._tuples -= stale
        return len(stale)

    def export(self) -> list[ContactTuple]:
        """Tuples in canonical order: interval, sent bytes, received bytes."""
        return sorted(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item: ContactTuple) -> bool:
        return item in self._tuples

    def __iter__(self) -> Iterator[ContactTuple]:
        return iter(self._tuples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactLog):
            return NotImplemented
        return self._tuples == other._tuples

    # -- persistence (canonical JSON of the exported list) --

    def to_json_bytes(self) -> bytes:
        return wire.canonical_encode([t.to_wire() for t in self.export()])

    @classmethod
    def from_json_bytes(
        cls, raw: bytes, retention_intervals: int = DEFAULT_RETENTION
    ) -> "ContactLog":
        entries = wire.lenient_decode(raw)
        if not isinstance(entries, list):
            raise ValueError("contact log file must contain a JSON array")
        for entry in entries:
            wire.validate_tuple_entry(entry)
        return cls(
            retention_intervals=retention_intervals,
            tuples=(ContactTuple.from_wire(e) for e in entries),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_json_bytes())

    @classmethod
    def load(
        cls, path: str | Path, retention_intervals: int = DEFAULT_RETENTION
    ) -> "ContactLog":
        return cls.from_json_bytes(Path(path).read_bytes().strip(), retention_intervals)
