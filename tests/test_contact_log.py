import pytest
from hypothesis import given, strategies as st

from cct.contact_log import ContactLog, ContactTuple
from cct.ident import derive_identifier

A = derive_identifier(b"\x0a" * 32, 0)
A2 = derive_identifier(b"\x0a" * 32, 1)
B = derive_identifier(b"\x0b" * 32, 0)
B2 = derive_identifier(b"\x0b" * 32, 1)
C = derive_identifier(b"\x0c" * 32, 0)
C2 = derive_identifier(b"\x0c" * 32, 1)

def test_tuple_validation():
    ContactTuple(interval=0, sent=A, received=B)
    with pytest.raises(ValueError, match="self-contact"):
        ContactTuple(interval=0, sent=A, received=A)
    with pytest.raises(ValueError):
        ContactTuple(interval=-1, sent=A, received=B)
    with pytest.raises(ValueError):
        ContactTuple(interval=0, sent=b"short", received=B)


def test_tuple_interval_must_be_an_integer():
    t = ContactTuple(interval=3, sent=A, received=B)
    for bad in (1.5, 3.0, True, False, "3", None):
        with pytest.raises(ValueError, match="interval must be an integer"):
            ContactTuple(bad, A, B)
        with pytest.raises(ValueError, match="interval must be an integer"):
            ContactTuple._make((bad, A, B))
        with pytest.raises(ValueError, match="interval must be an integer"):
            t._replace(interval=bad)
    log = ContactLog()
    with pytest.raises(ValueError, match="interval must be an integer"):
        log.record(A, B, interval=1.5)
    assert len(log) == 0


def test_tuple_is_a_checked_plain_tuple():
    t = ContactTuple(interval=3, sent=A, received=B)
    assert t == (3, A, B) and hash(t) == hash((3, A, B))
    assert (t.interval, t.sent, t.received) == tuple(t) == (3, A, B)
    assert ContactTuple(4, A, B) > t > (2, B, A)
    assert t._replace(interval=4) == (4, A, B)
    for bad in ((0, A, A), (-1, A, B), (0, b"short", B)):
        with pytest.raises(ValueError):
            ContactTuple(*bad)
        with pytest.raises(ValueError):  # _make and _replace check too
            ContactTuple._make(bad)
    with pytest.raises(ValueError, match="self-contact"):
        t._replace(received=A)


def test_record_walkthrough():
    """A's view: meets B then C in interval 0."""
    log = ContactLog()
    log.record(sent=A, received=B, interval=0)
    log.record(sent=A, received=C, interval=0)
    assert len(log) == 2
    assert ContactTuple(interval=0, sent=A, received=B) in log
    assert ContactTuple(interval=0, sent=A, received=C) in log


def test_record_idempotent():
    log = ContactLog()
    log.record(sent=A, received=B, interval=0)
    log.record(sent=A, received=B, interval=0)
    assert len(log) == 1


def test_record_self_contact_rejected():
    log = ContactLog()
    with pytest.raises(ValueError, match="self-contact"):
        log.record(sent=A, received=A, interval=0)


def test_prune_threshold():
    log = ContactLog(retention_intervals=5)
    log.record(sent=A, received=B, interval=0)
    log.record(sent=A2, received=B2, interval=10)
    removed = log.prune_expired(12)
    assert removed == 1
    assert len(log) == 1
    assert ContactTuple(interval=10, sent=A2, received=B2) in log


def test_prune_boundary_kept():
    # interval == current - retention is still inside the window
    log = ContactLog(retention_intervals=5)
    log.record(sent=A, received=B, interval=7)
    assert log.prune_expired(12) == 0
    assert len(log) == 1


def test_retention_must_be_an_integer():
    # a float or bool window would compare intervals against a float threshold
    for bad in (1.5, 5.0, True):
        with pytest.raises(ValueError, match="retention must be an integer"):
            ContactLog(retention_intervals=bad)
    with pytest.raises(ValueError, match="retention must be non-negative"):
        ContactLog(retention_intervals=-1)


def test_prune_empty_and_idempotent():
    log = ContactLog(retention_intervals=5)
    assert log.prune_expired(100) == 0
    log.record(sent=A, received=B, interval=98)
    assert log.prune_expired(100) == 0
    assert log.prune_expired(100) == 0
    assert len(log) == 1


def test_export_order():
    log = ContactLog()
    log.record(sent=C2, received=B2, interval=1)
    log.record(sent=C, received=A, interval=0)
    exported = log.export()
    assert exported == [
        ContactTuple(interval=0, sent=C, received=A),
        ContactTuple(interval=1, sent=C2, received=B2),
    ]


def test_export_same_interval_sorted_by_sent():
    lo = bytes(15) + b"\x01"
    hi = b"\xff" * 16
    other = bytes(15) + b"\x02"
    log = ContactLog()
    log.record(sent=hi, received=other, interval=3)
    log.record(sent=lo, received=other, interval=3)
    assert [t.sent for t in log.export()] == [lo, hi]


def test_export_empty():
    assert ContactLog().export() == []


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.sampled_from([A, A2, B, B2, C, C2]),
            st.sampled_from([A, A2, B, B2, C, C2]),
        ),
        max_size=40,
    )
)
def test_set_semantics(entries):
    log = ContactLog()
    distinct = set()
    for interval, sent, received in entries:
        if sent == received:
            continue
        log.record(sent=sent, received=received, interval=interval)
        distinct.add((interval, sent, received))
    assert len(log) == len(distinct)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=20))
def test_prune_monotone(current, retention):
    log = ContactLog(retention_intervals=retention)
    for interval in range(0, 60, 7):
        log.record(sent=A, received=B, interval=interval)
    log.prune_expired(current)
    assert all(t.interval >= current - retention for t in log)
    survivors = set(log.export())
    log.prune_expired(current)
    assert set(log.export()) == survivors


def test_json_round_trip(tmp_path):
    log = ContactLog()
    log.record(sent=C, received=A, interval=0)
    log.record(sent=C2, received=B2, interval=1)
    path = tmp_path / "log.json"
    log.save(path)
    assert ContactLog.load(path) == log


def test_round_trip_through_export():
    log = ContactLog()
    log.record(sent=A, received=B, interval=2)
    log.record(sent=A2, received=C, interval=9)
    rebuilt = ContactLog(tuples=log.export())
    assert rebuilt == log


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"not":"a list"}')
    with pytest.raises(ValueError):
        ContactLog.load(path)
