"""The encounter kernel must reproduce pinned reference vectors.

The splitmix64 and xoshiro256** expectations below were produced with an
independent implementation of the published reference algorithms and frozen.
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cct import rng
from cct.sim.encounters import generate_encounters, pair_threshold
from cct.sim.scenario import ScenarioConfig

SPLITMIX_VECTORS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ],
    1: [
        10451216379200822465,
        13757245211066428519,
        17911839290282890590,
        8196980753821780235,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ],
    0xDEADBEEFCAFEF00D: [
        10384543611796878027,
        12091642062541636903,
        1852118247650364724,
        16692712714918790034,
    ],
}

XOSHIRO_VECTORS = {
    0: [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
        18442103541295991498,
        7788427924976520344,
        9881088229871127103,
    ],
    1: [
        12966619160104079557,
        9600361134598540522,
        10590380919521690900,
        7218738570589545383,
        12860671823995680371,
        2648436617965840162,
        1310552918490157286,
        7031611932980406429,
    ],
    42: [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
        14199186830065750584,
        13267978908934200754,
        15679888225317814407,
    ],
    0xDEADBEEFCAFEF00D: [
        11399401986271211195,
        1585385652154531860,
        10005412245774160782,
        8949352449651941944,
        14139734282999090898,
        15808653711773441028,
        14241704741836935076,
        13602525569505684885,
    ],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_VECTORS))
def test_splitmix_pinned(seed):
    assert rng.splitmix_stream(seed, 4) == SPLITMIX_VECTORS[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_VECTORS))
def test_xoshiro_pinned(seed):
    assert rng.xoshiro_stream(seed, 8) == XOSHIRO_VECTORS[seed]


def test_outputs_are_uint64():
    for value in rng.xoshiro_stream(99, 64):
        assert 0 <= value < 1 << 64


def test_stream_prefix_stable():
    long = rng.xoshiro_stream(5, 100)
    assert rng.xoshiro_stream(5, 10) == long[:10]


def test_pair_events_pinned():
    assert rng.poisson_pair_events(7, 4, 6, 1 << 62) == [
        (1, 0),
        (1, 1),
        (1, 3),
        (3, 0),
        (3, 1),
        (3, 2),
    ]
    assert rng.poisson_pair_events(3, 2, 3, 1 << 63) == [
        (0, 2),
        (1, 1),
        (1, 2),
    ]


def test_pair_events_threshold_edges():
    assert rng.poisson_pair_events(7, 10, 10, 0) == []
    full = (1 << 64) - 1
    assert rng.poisson_pair_events(5, 3, 3, full) == [
        (k, p) for k in range(3) for p in range(3)
    ]


def test_pair_events_consume_stream_interval_major():
    threshold = 1 << 62
    draws = rng.xoshiro_stream(7, 24)
    expected = [
        (k, p)
        for idx, (k, p) in enumerate(itertools.product(range(4), range(6)))
        if draws[idx] < threshold
    ]
    assert rng.poisson_pair_events(7, 4, 6, threshold) == expected


def test_encounters_draw_through_rng_module(monkeypatch):
    # the benchmark tracer times the kernel by patching this module attribute
    calls = []
    kernel = rng.poisson_pair_events

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rng, "poisson_pair_events", counting)
    config = ScenarioConfig(n_devices=6, n_intervals=5, seed=3, encounter_rate=0.5)
    assert generate_encounters(config) == generate_encounters(config)
    assert len(calls) == 2
    assert rng.BACKEND == "numpy"


def _filtered_stream(seed, n_intervals, n_pairs, threshold):
    """The scalar reference: filter one draw per cell of the pinned stream."""
    draws = rng.xoshiro_stream(seed, n_intervals * n_pairs)
    return [divmod(pos, n_pairs) for pos, draw in enumerate(draws) if draw < threshold]


def _assert_plain_ints(events):
    assert all(type(e) is tuple and len(e) == 2 for e in events)
    assert all(type(v) is int for e in events for v in e)


LANE_SHAPES = [
    (1, 1),
    (3, 5),
    (1, rng.LANES - 1),
    (1, rng.LANES),
    (8, rng.LANES // 8),
    (1, rng.LANES + 1),
    (7, 1237),
    (3, rng.LANES),
]


def test_lane_shapes_cover_the_lane_count():
    totals = [k * p for k, p in LANE_SHAPES]
    assert min(totals) < rng.LANES < max(totals)
    assert rng.LANES in totals
    assert 7 * 1237 > rng.LANES and 7 * 1237 % rng.LANES != 0


@pytest.mark.parametrize("threshold", [0, 1, 1 << 63, (1 << 64) - 1])
@pytest.mark.parametrize("n_intervals, n_pairs", LANE_SHAPES)
def test_lanes_match_scalar_stream(n_intervals, n_pairs, threshold):
    events = rng.poisson_pair_events(19, n_intervals, n_pairs, threshold)
    assert events == _filtered_stream(19, n_intervals, n_pairs, threshold)
    _assert_plain_ints(events)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    n_intervals=st.integers(min_value=0, max_value=12),
    n_pairs=st.integers(min_value=0, max_value=40),
    threshold=st.integers(min_value=0, max_value=1 << 64),
)
def test_lanes_match_scalar_stream_property(seed, n_intervals, n_pairs, threshold):
    events = rng.poisson_pair_events(seed, n_intervals, n_pairs, threshold)
    assert events == _filtered_stream(seed, n_intervals, n_pairs, threshold)
    _assert_plain_ints(events)


def test_scale_size_output_pinned():
    # recorded from the one-draw-at-a-time kernel this lane kernel replaced
    events = rng.poisson_pair_events(11, 500, 4950, pair_threshold(0.05, 100))
    assert len(events) == 1255
    assert hashlib.sha256(repr(events).encode()).hexdigest() == (
        "00e96c105226bf1aa1038d557318e7002a17f2a817091bed041d63a2a31be9ed"
    )
    _assert_plain_ints(events)


def test_importing_the_simulator_does_not_import_numpy():
    # the benchmark's set-up time is a cold `import cct, cct.sim`
    src = str(Path(rng.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cct, cct.sim; assert 'numpy' not in sys.modules, 'numpy imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
