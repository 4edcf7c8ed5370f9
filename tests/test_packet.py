"""Unit tests for the packet model."""

from repro.sim.packet import ACK_BYTES, HEADER_BYTES, Packet, PacketKind


def test_defaults():
    p = Packet(flow_id=1)
    assert p.kind == PacketKind.DATA
    assert p.marked and not p.tagged
    assert p.retransmit == 0
    assert not p.skip
    assert p.last_of_frame


def test_wire_size_includes_header():
    p = Packet(flow_id=1, size=1400)
    assert p.wire_size == 1400 + HEADER_BYTES


def test_ack_constants():
    assert ACK_BYTES == HEADER_BYTES == 40


def test_copy_preserves_fields():
    p = Packet(flow_id=3, seq=17, ack=4, size=900, src=1, dst=2, sport=5,
               dport=6, created_at=1.5, marked=False, tagged=True,
               frame_id=9, attrs={"A": 1})
    p.retransmit = 2
    p.skip = True
    p.last_of_frame = False
    q = p.copy()
    for field in ("flow_id", "seq", "ack", "size", "src", "dst", "sport",
                  "dport", "created_at", "marked", "tagged", "frame_id",
                  "retransmit", "skip", "last_of_frame"):
        assert getattr(q, field) == getattr(p, field), field
    assert q.attrs is p.attrs  # shallow: attributes are shared
    assert q is not p


def test_copy_is_independent_for_mutation():
    p = Packet(flow_id=1, seq=5)
    q = p.copy()
    q.retransmit = 99
    assert p.retransmit == 0


def test_repr_smoke():
    assert "seq=7" in repr(Packet(flow_id=1, seq=7))


# ----------------------------------------------------------------------
# Positional construction and the slot-copying copy()
# ----------------------------------------------------------------------
def _keyword_copy(p):
    """``Packet.copy`` as it stood before the slot copy: the keyword
    constructor, then the five slots it does not take (reference)."""
    q = Packet(flow_id=p.flow_id, kind=p.kind, seq=p.seq, ack=p.ack,
               size=p.size, src=p.src, dst=p.dst, sport=p.sport,
               dport=p.dport, created_at=p.created_at, marked=p.marked,
               tagged=p.tagged, frame_id=p.frame_id, attrs=p.attrs)
    q.retransmit = p.retransmit
    q.skip = p.skip
    q.last_of_frame = p.last_of_frame
    q.fec = p.fec
    q.deadline = p.deadline
    return q


def _slots(p):
    """Every slot's value; an unset slot raises AttributeError here."""
    return {name: getattr(p, name) for name in Packet.__slots__}


def _sample_packets():
    data = Packet(flow_id=3, seq=17, size=900, src=1, dst=2, sport=5,
                  dport=6, created_at=1.5, marked=False, tagged=True,
                  frame_id=9, attrs={"A": 1})
    data.retransmit = 2
    data.last_of_frame = False
    data.sent_at = 2.25     # a transmitted original: the copy starts over
    data.ecn = True
    ack = Packet(flow_id=3, kind=PacketKind.ACK, ack=18, src=2, dst=1,
                 sport=6, dport=5, created_at=1.75)
    ack.sack = (20, 21, 23)
    skip = Packet(flow_id=3, seq=4, size=1400, created_at=0.5, marked=False)
    skip.skip = True
    # The wire image of a skip: size rewritten after construction.
    skip.size = 0
    skip.wire_size = HEADER_BYTES
    repair = Packet(flow_id=3, size=1400, src=1, dst=2, created_at=3.0)
    repair.fec = (7, 1, ((40, 1400, 2, True, False, True, 2.9),))
    stamped = Packet(flow_id=3, seq=8, size=600, created_at=4.0, frame_id=12)
    stamped.deadline = 4.4
    return {"data": data, "ack": ack, "skip": skip, "fec-repair": repair,
            "deadline": stamped}


def test_copy_matches_keyword_path_slot_for_slot():
    for label, p in _sample_packets().items():
        assert _slots(p.copy()) == _slots(_keyword_copy(p)), label


def test_copy_starts_a_fresh_wire_image():
    p = _sample_packets()["data"]
    q = p.copy()
    assert q.sent_at == p.created_at != p.sent_at
    assert q.ecn is False and q.sack is None
    skip = _sample_packets()["skip"].copy()
    assert skip.wire_size == skip.size + HEADER_BYTES


def test_positional_and_keyword_construction_agree():
    args = (3, PacketKind.ACK, 17, 4, 900, 1, 2, 5, 6, 1.5, False, True, 9,
            {"A": 1})
    names = ("flow_id", "kind", "seq", "ack", "size", "src", "dst", "sport",
             "dport", "created_at", "marked", "tagged", "frame_id", "attrs")
    assert _slots(Packet(*args)) == _slots(Packet(**dict(zip(names, args))))
    # A prefix of positionals with the rest defaulted, as the ACK site does.
    assert _slots(Packet(3, PacketKind.ACK, 0, 18, 0, 2, 1, 6, 5, 1.75)) == \
        _slots(Packet(flow_id=3, kind=PacketKind.ACK, ack=18, src=2, dst=1,
                      sport=6, dport=5, created_at=1.75))


def test_no_slot_is_left_unset():
    """A slot added to ``Packet.__slots__`` later must be initialised by the
    constructor *and* carried by ``copy()``: the slot copy names every slot
    by hand, so forgetting one would otherwise surface as an
    AttributeError deep inside a run."""
    p = Packet(1)
    for name in Packet.__slots__:
        assert hasattr(p, name), f"constructor leaves {name!r} unset"
    q = p.copy()
    for name in Packet.__slots__:
        assert hasattr(q, name), f"copy() leaves {name!r} unset"
