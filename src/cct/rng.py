"""Pinned random kernel for the simulator's encounter model.

xoshiro256** seeded from splitmix64 (state = four successive splitmix64
outputs), after Blackman & Vigna, "Scrambled linear pseudorandom number
generators" (2018). The pinned vectors in the test suite hold this stream
to the published reference implementation.
"""

# names the kernel implementation in benchmark run records
BACKEND = "py"

_MASK = (1 << 64) - 1


def _splitmix_step(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def splitmix_stream(seed: int, n: int) -> list[int]:
    state = seed & _MASK
    out = []
    for _ in range(n):
        state, value = _splitmix_step(state)
        out.append(value)
    return out


def _seed_state(seed: int) -> list[int]:
    return splitmix_stream(seed, 4)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def xoshiro_stream(seed: int, n: int) -> list[int]:
    s0, s1, s2, s3 = _seed_state(seed)
    out = []
    for _ in range(n):
        out.append((_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK)
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out


def poisson_pair_events(
    seed: int, n_intervals: int, n_pairs: int, threshold: int
) -> list[tuple[int, int]]:
    """All (interval, pair_index) hits of `draw < threshold`.

    Exactly one draw per pair per interval, interval-major then
    pair-index-minor, so the stream position of any cell is fixed by
    (n_pairs, interval, pair_index) alone.
    """
    s0, s1, s2, s3 = _seed_state(seed)
    events = []
    for k in range(n_intervals):
        for p in range(n_pairs):
            value = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = _rotl(s3, 45)
            if value < threshold:
                events.append((k, p))
    return events
