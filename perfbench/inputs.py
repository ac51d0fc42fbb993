"""Inputs the benchmark generates from its seed, and the answers it expects.

Everything here is a pure function of the seed and a label, so the same
seed always gives the same keys, uploads, polls and traces. The expected
answers are computed here without calling the program: identifiers are
re-derived with HMAC-SHA256 from the protocol's definition, contact matches
follow from which pairs were planted, and GPS events come from a brute-force
scan with its own haversine.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import random

from cct.attestation import platform_verify_key
from cct.authority import HealthAuthorityCredential
from cct.contact_log import ContactTuple
from cct.enclave import EnclaveConfig, GpsPoint
from cct.ident import TimeParams

DELTA_T = 900
# The server's clock stands still in the middle of this interval, so every
# stored entry stays unexpired and every answer is reproducible.
NOW_INTERVAL = 5000
NOW_T = NOW_INTERVAL * DELTA_T + DELTA_T // 2
GPS_D_MAX = 10.0
GPS_TAU = 900.0
EARTH_RADIUS_M = 6_371_000.0
_ID_LABEL = b"CCT-ID-v1"


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{label}")


class Keys:
    """Platform secret, health-authority credential and enclave config."""

    def __init__(self, seed: int) -> None:
        r = rng_for(seed, "keys")
        self.platform_secret = r.randbytes(32)
        self.ha = HealthAuthorityCredential.from_seed(r.randbytes(32))
        self.config = EnclaveConfig(
            ha_verify_key=self.ha.verify_key, time=TimeParams(t0=0, delta_t=DELTA_T)
        )
        self.measurement = self.config.measurement()
        self.verify_key = platform_verify_key(self.platform_secret)


def derived_id(secret: bytes, index: int) -> bytes:
    mac = hmac.new(secret, _ID_LABEL + index.to_bytes(8, "big"), hashlib.sha256)
    return mac.digest()[:16]


def random_tuples(r: random.Random, n: int) -> list[ContactTuple]:
    return [
        ContactTuple(
            interval=r.randint(NOW_INTERVAL - 1000, NOW_INTERVAL),
            sent=r.randbytes(16),
            received=r.randbytes(16),
        )
        for _ in range(n)
    ]


def secret_range(r: random.Random, width: int) -> tuple[bytes, int, int]:
    last = NOW_INTERVAL - r.randint(0, 200)
    return r.randbytes(32), last - width + 1, last


def gps_walk(r: random.Random, n: int, lat: float, lon: float, t_end: float) -> list[GpsPoint]:
    """A walk of n points, one per interval, about 100 m apart."""
    points = []
    for k in range(n):
        points.append(GpsPoint(lat=lat, lon=lon, t=t_end - (n - 1 - k) * DELTA_T))
        lat += r.uniform(-0.001, 0.001)
        lon += r.choice((-1, 1)) * r.uniform(0.0008, 0.0015)
    return points


class Store:
    """What the benchmark has uploaded and seen acknowledged.

    Polls are planted only from here, so every expected match refers to an
    upload the server already acknowledged.
    """

    def __init__(self) -> None:
        self.pairs: list[tuple[bytes, bytes, int]] = []
        self.derived: list[tuple[bytes, int]] = []
        self.traces: list[list[GpsPoint]] = []

    def add_tuples(self, tuples: list[ContactTuple]) -> None:
        self.pairs.extend((t.sent, t.received, t.interval) for t in tuples)

    def add_secret(self, secret: bytes, first: int, last: int) -> None:
        self.derived.extend((derived_id(secret, i), i) for i in range(first, last + 1))


def contact_poll(
    r: random.Random, store: Store, n_tuples: int, n_planted: int
) -> tuple[list[ContactTuple], tuple[bool, tuple[int, ...]]]:
    """A poll log of n_tuples with n_planted matches; returns (log, expected).

    Half of the planted tuples are swapped stored pairs (the poller recorded
    the uploader's exchange from the other side), half carry a derived
    identifier as the received one. The rest are random and never match.
    """
    if not (store.pairs or store.derived):
        n_planted = 0
    tuples = random_tuples(r, n_tuples - n_planted)
    intervals = set()
    for k in range(n_planted):
        if (k % 2 == 0 or not store.derived) and store.pairs:
            sent, received, interval = r.choice(store.pairs)
            tuples.append(ContactTuple(interval=interval, sent=received, received=sent))
        else:
            identifier, interval = r.choice(store.derived)
            tuples.append(
                ContactTuple(interval=interval, sent=r.randbytes(16), received=identifier)
            )
        intervals.add(interval)
    r.shuffle(tuples)
    ordered = tuple(sorted(intervals))
    return tuples, (bool(ordered), ordered)


def gps_poll(r: random.Random, store: Store, n_points: int) -> list[GpsPoint]:
    """Half of the GPS polls retrace a stored trace a few meters off."""
    if r.random() < 0.5:
        stored = r.choice(store.traces)
        offset = r.randint(0, len(stored) - n_points)
        return [
            GpsPoint(lat=p.lat + 0.00003, lon=p.lon, t=p.t + 120.0)
            for p in stored[offset : offset + n_points]
        ]
    return gps_walk(r, n_points, r.uniform(46.00, 46.10), r.uniform(7.00, 7.10), float(NOW_T))


def _haversine(p: GpsPoint, q: GpsPoint) -> float:
    lat1, lat2 = math.radians(p.lat), math.radians(q.lat)
    dlat = lat2 - lat1
    dlon = math.radians(q.lon - p.lon)
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.asin(math.sqrt(a))


def expected_gps_events(
    traces: list[list[GpsPoint]], poll: list[GpsPoint]
) -> list[tuple[float, float]]:
    events = set()
    for stored in traces:
        for p in stored:
            for q in poll:
                if abs(p.t - q.t) <= GPS_TAU and _haversine(p, q) <= GPS_D_MAX:
                    events.add((p.t, q.t))
    return sorted(events)
