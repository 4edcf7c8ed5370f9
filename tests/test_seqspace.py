"""Unit tests for the reorder buffer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.seqspace import ReorderBuffer


def test_inorder_sequence():
    rb = ReorderBuffer()
    for seq in range(5):
        assert rb.offer(seq, f"p{seq}") == "inorder"
        rb.advance()
    assert rb.rcv_nxt == 5


def test_out_of_order_buffered_then_drained():
    rb = ReorderBuffer()
    assert rb.offer(2, "c") == "buffered"
    assert rb.offer(1, "b") == "buffered"
    assert rb.offer(0, "a") == "inorder"
    rb.advance()
    drained = list(rb.drain())
    assert drained == [(1, "b"), (2, "c")]
    assert rb.rcv_nxt == 3


def test_duplicate_detection():
    rb = ReorderBuffer()
    rb.offer(0, "a")
    rb.advance()
    assert rb.offer(0, "a2") == "dup"
    rb.offer(5, "f")
    assert rb.offer(5, "f2") == "dup"
    assert rb.duplicates == 2


def test_buffered_seqs_sorted():
    rb = ReorderBuffer()
    for s in (9, 3, 7):
        rb.offer(s, s)
    assert rb.buffered_seqs() == [3, 7, 9]


def test_overflow_guard():
    rb = ReorderBuffer(max_buffered=2)
    assert rb.offer(1, "b") == "buffered"
    assert rb.offer(2, "c") == "buffered"
    assert rb.offer(3, "d") == "dup"  # over budget: treated as ignorable
    assert len(rb) == 2


def test_custom_start():
    rb = ReorderBuffer(start=100)
    assert rb.offer(100, "x") == "inorder"
    assert rb.offer(99, "old") == "dup"


@given(st.permutations(list(range(30))))
@settings(max_examples=60, deadline=None)
def test_any_arrival_order_delivers_everything_in_order(order):
    """Property: whatever the arrival permutation, consuming in-order
    arrivals + draining yields 0..n-1 exactly once, in order."""
    rb = ReorderBuffer()
    delivered = []
    for seq in order:
        verdict = rb.offer(seq, seq)
        if verdict == "inorder":
            delivered.append(seq)
            rb.advance()
            delivered.extend(s for s, _ in rb.drain())
    assert delivered == list(range(30))
    assert len(rb) == 0


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                max_size=200))
@settings(max_examples=60, deadline=None)
def test_rcv_nxt_monotonic_under_duplicates(seqs):
    """Property: rcv_nxt never decreases, even with duplicate storms."""
    rb = ReorderBuffer()
    last = rb.rcv_nxt
    for seq in seqs:
        if rb.offer(seq, seq) == "inorder":
            rb.advance()
            list(rb.drain())
        assert rb.rcv_nxt >= last
        last = rb.rcv_nxt
