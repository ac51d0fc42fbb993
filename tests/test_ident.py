import hashlib

import pytest
from hypothesis import given, strategies as st

from cct.ident import (
    IDENTIFIER_LEN,
    SECRET_LEN,
    TimeParams,
    derive_identifier,
    derive_identifier_range,
    identifier_table,
    interval_index,
)

# Frozen outputs of an independent HMAC-SHA256 reference (computed once with
# a standalone hmac/hashlib script, truncated to 16 bytes).
PINNED_IDENTIFIERS = [
    (bytes(32), 0, "e71ee28b661fa4b5205831d7ab7d7d11"),
    (bytes(32), 1, "93d94d2180fa5d9d00e96e4e42d6a233"),
    (bytes(32), 7, "be1f0a3aa04cf0faa4af1feacd968d10"),
    (bytes(32), 4031, "191f9ab97f7288b36c1bae32a33fce1b"),
    (bytes(32), 2**40, "0d5392681f2241dbb91470cef449adc8"),
    (b"\x01" * 32, 0, "69a3b2e8df0f2c9c2d14485a115e0edc"),
    (b"\x01" * 32, 1, "8d96ce332d27fd5b32c827544636635a"),
    (b"\xff" * 32, 0, "10e5c73b83479f59d3c87dc9c8db0423"),
    (b"\xff" * 32, 1, "055b3c31c248bfc55743ea9423bddf5f"),
    (bytes(range(32)), 0, "7ce326d7114db52d546a20e8d3935246"),
    (bytes(range(32)), 1, "fda7637bf1c1a02dc36d2ccd5b5e7290"),
    (hashlib.sha256(b"device secret vector").digest(), 0, "979f3dbbdb33a36cccfd41f3e2a49689"),
    (hashlib.sha256(b"device secret vector").digest(), 1, "10d01e9557b358a89d1e47b499110ca1"),
]

secrets_st = st.binary(min_size=SECRET_LEN, max_size=SECRET_LEN)
index_st = st.integers(min_value=0, max_value=2**64 - 1)


@pytest.mark.parametrize("secret,index,expected_hex", PINNED_IDENTIFIERS)
def test_pinned_identifier_vectors(secret, index, expected_hex):
    assert derive_identifier(secret, index).hex() == expected_hex


def test_identifier_length_and_determinism():
    secret = bytes(32)
    first = derive_identifier(secret, 3)
    assert len(first) == IDENTIFIER_LEN
    assert derive_identifier(secret, 3) == first


def test_index_zero_and_one_differ():
    secret = bytes(32)
    assert derive_identifier(secret, 0) != derive_identifier(secret, 1)


@given(secrets_st, index_st)
def test_derivation_deterministic(secret, index):
    assert derive_identifier(secret, index) == derive_identifier(secret, index)


def test_bad_secret_rejected():
    with pytest.raises(ValueError):
        derive_identifier(b"short", 0)
    with pytest.raises(ValueError):
        derive_identifier(bytes(33), 0)


def test_bad_index_rejected():
    with pytest.raises(ValueError):
        derive_identifier(bytes(32), -1)
    with pytest.raises(ValueError):
        derive_identifier(bytes(32), 2**64)


# -- interval mapping ---------------------------------------------------------

def test_interval_index_examples():
    params = TimeParams(t0=1000, delta_t=900)
    assert interval_index(1000, params) == 0
    assert interval_index(1000 + 900, params) == 1
    assert interval_index(1000 + 2250, params) == 2


def test_interval_before_origin():
    with pytest.raises(ValueError, match="time before epoch origin"):
        interval_index(999, TimeParams(t0=1000))


def test_time_params_validation():
    with pytest.raises(ValueError):
        TimeParams(t0=0, delta_t=0)
    with pytest.raises(ValueError):
        TimeParams(t0=-1)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=2**40),
)
def test_interval_partition(t0, delta_t, offset):
    """The returned index's interval actually contains t."""
    params = TimeParams(t0=t0, delta_t=delta_t)
    t = t0 + offset
    k = interval_index(t, params)
    assert t0 + k * delta_t <= t < t0 + (k + 1) * delta_t


# -- range derivation ---------------------------------------------------------

def test_range_singleton():
    secret = b"\x02" * 32
    assert derive_identifier_range(secret, 0, 0, max_range=0) == [derive_identifier(secret, 0)]


def test_range_matches_pointwise():
    secret = b"\x03" * 32
    ids = derive_identifier_range(secret, 5, 12, max_range=7)
    assert len(ids) == 8
    for k, identifier in enumerate(ids):
        assert identifier == derive_identifier(secret, 5 + k)


def test_range_distinct_elements():
    ids = derive_identifier_range(bytes(32), 0, 2, max_range=2)
    assert len(set(ids)) == 3


def test_range_errors():
    with pytest.raises(ValueError, match="inverted identifier range"):
        derive_identifier_range(bytes(32), 5, 3, max_range=10)
    with pytest.raises(ValueError, match="range too large"):
        derive_identifier_range(bytes(32), 0, 11, max_range=10)
    # exactly at the cap is fine
    assert len(derive_identifier_range(bytes(32), 0, 10, max_range=10)) == 11


@given(secrets_st, st.integers(min_value=0, max_value=2**50), st.integers(min_value=0, max_value=40))
def test_range_consistency(secret, first, span):
    ids = derive_identifier_range(secret, first, first + span, max_range=span)
    assert ids == [derive_identifier(secret, first + k) for k in range(span + 1)]


@pytest.mark.parametrize("secret,index,expected_hex", PINNED_IDENTIFIERS)
def test_range_pinned_identifier_vectors(secret, index, expected_hex):
    assert derive_identifier_range(secret, index, index, max_range=0)[0].hex() == expected_hex


_MAX_INDEX = 2**64 - 1


@given(
    st.one_of(secrets_st, secrets_st.map(bytearray)),
    st.one_of(
        st.integers(min_value=0, max_value=_MAX_INDEX),
        st.integers(min_value=_MAX_INDEX - 40, max_value=_MAX_INDEX),
    ),
    st.integers(min_value=0, max_value=40),
)
def test_batch_prf_agrees_with_single(secret, last, span):
    """The precomputed-state batch path equals HMAC at each index, up to 2^64-1."""
    first = max(0, last - span)
    ids = derive_identifier_range(secret, first, last, max_range=span)
    assert ids == [derive_identifier(secret, i) for i in range(first, last + 1)]


def test_batch_prf_reaches_last_index():
    secret = bytes(range(32))
    ids = derive_identifier_range(secret, _MAX_INDEX - 1, _MAX_INDEX, max_range=1)
    assert ids == [derive_identifier(secret, _MAX_INDEX - 1), derive_identifier(secret, _MAX_INDEX)]


def test_collision_sanity():
    """10^5 derivations over varied secrets/indices: no 16-byte collisions."""
    seen = set()
    for s in range(100):
        secret = hashlib.sha256(s.to_bytes(4, "big")).digest()
        for index in range(1000):
            seen.add(derive_identifier(secret, index))
    assert len(seen) == 100 * 1000



# -- one-call identifier table -------------------------------------------------------

@given(st.one_of(secrets_st, secrets_st.map(bytearray)), st.integers(min_value=1, max_value=700))
def test_identifier_table_agrees_with_single(secret, count):
    """PBKDF2's block i is the identifier PRF at index i, from 1 up."""
    assert identifier_table(secret, count) == [derive_identifier(secret, i) for i in range(count)]


@pytest.mark.parametrize(
    "secret,index,expected_hex",
    [vector for vector in PINNED_IDENTIFIERS if vector[1] < 2**32],
)
def test_table_pinned_identifier_vectors(secret, index, expected_hex):
    table = identifier_table(secret, index + 1)
    assert len(table) == index + 1
    assert table[index].hex() == expected_hex


@pytest.mark.parametrize("count", [0, -1, 2**32 + 1, 2**64])
def test_identifier_table_count_out_of_range(count):
    # refused before any block is hashed, so 2^32 + 1 allocates nothing
    with pytest.raises(ValueError, match="identifier count out of range"):
        identifier_table(bytes(32), count)


@pytest.mark.parametrize("count", [True, 2.0, "3"])
def test_identifier_table_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="identifier count must be an integer"):
        identifier_table(bytes(32), count)


def test_identifier_table_bad_secret_rejected():
    with pytest.raises(ValueError):
        identifier_table(b"short", 2)


def test_identifier_table_largest_count_asks_for_every_block(monkeypatch):
    # 2^32 identifiers take PBKDF2 blocks 1..2^32-1, its last block number;
    # the call is recorded, not run, so nothing of that size is allocated
    calls = []
    monkeypatch.setattr(hashlib, "pbkdf2_hmac", lambda *args: calls.append(args) or b"")
    assert identifier_table(bytes(32), 2**32) == [derive_identifier(bytes(32), 0)]
    assert calls == [("sha256", bytes(32), b"CCT-ID-v1" + bytes(4), 1, 32 * (2**32 - 1))]
