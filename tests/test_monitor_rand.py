"""Tests for the seeded RNG streams (the monitoring probes that shared
this file went with ``sim/monitor.py``)."""

import numpy as np

from repro.sim.rand import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        rs = RandomStreams(1)
        assert rs.get("a") is rs.get("a")

    def test_deterministic_across_instances(self):
        a = RandomStreams(7).get("marking").random()
        b = RandomStreams(7).get("marking").random()
        assert a == b

    def test_streams_independent_of_request_order(self):
        rs1 = RandomStreams(7)
        rs1.get("x")
        v1 = rs1.get("y").random()
        rs2 = RandomStreams(7)
        v2 = rs2.get("y").random()  # requested first this time
        assert v1 == v2

    def test_different_names_differ(self):
        rs = RandomStreams(7)
        assert rs.get("a").random() != rs.get("b").random()

    def test_different_seeds_differ(self):
        assert (RandomStreams(1).get("a").random()
                != RandomStreams(2).get("a").random())

    def test_numpy_generator(self):
        g1 = RandomStreams(3).numpy("trace")
        g2 = RandomStreams(3).numpy("trace")
        assert np.array_equal(g1.random(5), g2.random(5))
