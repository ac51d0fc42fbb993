"""Pinned random kernel for the simulator's encounter model.

xoshiro256** seeded from splitmix64 (state = four successive splitmix64
outputs), after Blackman & Vigna, "Scrambled linear pseudorandom number
generators" (2018). The pinned vectors in the test suite hold this stream
to the published reference implementation.

`splitmix_stream` and `xoshiro_stream` draw one value at a time and are the
reference. `poisson_pair_events` draws the same stream with numpy in LANES
lanes, each started at its own stretch of the stream by GF(2) jump-ahead
(Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", 2008). numpy is imported only when it runs, so importing
`cct` does not pay for it.
"""

# names the kernel implementation in benchmark run records
BACKEND = "numpy"

# lanes stepped together by poisson_pair_events; a power of two, because the
# lane start states are found by doubling. On a 2-vCPU x86-64 host the
# 100-device scale call took 0.22/0.15/0.10/0.08/0.07 s at 256..4096 lanes,
# while a 75-draw call grew from 5 ms to 21 ms.
LANES = 2048

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


def _step_lanes(s, draw, t) -> None:
    """One xoshiro256** step of every lane in place.

    `s` is a (4, lanes) uint64 state, one column per lane; the outputs land
    in `draw`, and `t` is scratch of the same length.
    """
    import numpy as np

    s0, s1, s2, s3 = s
    np.multiply(s1, 5, out=draw)
    np.left_shift(draw, 7, out=t)
    draw >>= 57
    draw |= t
    draw *= 9
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


def _to_bits(s):
    """(4, lanes) uint64 state -> (lanes, 256) float32 bit rows, s0 bit 0 first."""
    import numpy as np

    raw = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").astype(np.float32)


def _from_bits(bits):
    """Inverse of `_to_bits`: (lanes, 256) bit rows -> (4, lanes) uint64 state."""
    import numpy as np

    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)


def _gf2_matmul(a, b):
    """Bit-matrix product over GF(2).

    float32 is exact here: every dot product sums at most 256 ones.
    """
    import numpy as np

    return ((a @ b).astype(np.int32) & 1).astype(np.float32)


def _lane_states(seed: int, stride: int):
    """(4, LANES) state whose lane j sits at stream position j * stride.

    xoshiro256**'s state update T is linear over GF(2). Stepping the 256
    unit states once gives T as a 256x256 bit matrix acting on row vectors;
    repeated squaring gives T^stride. Each doubling round then moves every
    lane held so far on by as many lanes as there are.
    """
    import numpy as np

    unit = _from_bits(np.eye(256))
    _step_lanes(unit, np.empty(256, np.uint64), np.empty(256, np.uint64))
    power = _to_bits(unit)
    jump = np.eye(256, dtype=np.float32)
    while stride:
        if stride & 1:
            jump = _gf2_matmul(jump, power)
        power = _gf2_matmul(power, power)
        stride >>= 1
    lanes = _to_bits(np.array([_seed_state(seed)], dtype=np.uint64).T)
    while len(lanes) < LANES:
        lanes = np.concatenate([lanes, _gf2_matmul(lanes, jump)])
        jump = _gf2_matmul(jump, jump)
    return _from_bits(lanes)


def poisson_pair_events(
    seed: int, n_intervals: int, n_pairs: int, threshold: int
) -> list[tuple[int, int]]:
    """All (interval, pair_index) hits of `draw < threshold`.

    Exactly one draw per pair per interval, interval-major then
    pair-index-minor, so the stream position of any cell is fixed by
    (n_pairs, interval, pair_index) alone. The LANES lanes each draw one
    consecutive run of `stride` positions of that stream.
    """
    import numpy as np

    total = n_intervals * n_pairs
    if total <= 0:
        return []
    stride = -(-total // LANES)
    s = _lane_states(seed, stride)
    draw = np.empty(LANES, np.uint64)
    t = np.empty(LANES, np.uint64)
    hit = np.empty((stride, LANES), bool)
    for k in range(stride):
        _step_lanes(s, draw, t)
        np.less(draw, threshold, out=hit[k])
    # flattening lane-major lists the hits by stream position lane*stride+k
    positions = np.flatnonzero(hit.T)
    positions = positions[positions < total]
    intervals, pair_indices = np.divmod(positions, n_pairs)
    return list(zip(intervals.tolist(), pair_indices.tolist()))
