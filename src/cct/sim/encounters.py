"""Encounter generation: who meets whom in which interval.

Random encounters use a pinned PRNG (splitmix64-seeded xoshiro256**) and a
pinned draw order (per interval, then per ordered device pair), so the same
seed yields the same encounter list in any implementation. The
per-pair hit probability is the Poisson thinning rate/(n-1), capped at 1;
one 64-bit draw per pair per interval, hit iff draw < p * 2^64.
"""

from __future__ import annotations

from cct import rng
from cct.sim.scenario import EncounterEvent, ScenarioConfig

_U64 = 2**64


def pair_threshold(encounter_rate: float, n_devices: int) -> int:
    """64-bit comparison threshold realizing the per-pair hit probability."""
    if n_devices < 2 or encounter_rate <= 0:
        return 0
    p = min(1.0, encounter_rate / (n_devices - 1))
    return min(_U64 - 1, int(p * _U64))


def generate_encounters(config: ScenarioConfig) -> list[EncounterEvent]:
    """Deterministic, deduplicated, (interval, i, j)-sorted encounter list."""
    config.validate()
    events: set[EncounterEvent] = set()
    if config.complete_graph:
        for i in range(config.n_devices):
            for j in range(i + 1, config.n_devices):
                events.add(EncounterEvent(interval=0, device_i=i, device_j=j))
    events.update(config.encounters)
    threshold = pair_threshold(config.encounter_rate, config.n_devices)
    if threshold:
        pairs = [
            (i, j)
            for i in range(config.n_devices)
            for j in range(i + 1, config.n_devices)
        ]
        for interval, pair_index in rng.poisson_pair_events(
            config.seed, config.n_intervals, len(pairs), threshold
        ):
            i, j = pairs[pair_index]
            events.add(EncounterEvent(interval=interval, device_i=i, device_j=j))
    return sorted(events)
