"""LatencyAgent edge cases: capacity, drops, drain."""

import numpy as np

from repro.benchex import LatencyAgent


class TestAgentCapacity:
    def test_full_ring_drops_and_counts(self):
        agent = LatencyAgent(1, capacity=3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            agent.report(v)
        assert agent.dropped == 2
        assert agent.total_reported == 3
        np.testing.assert_array_equal(agent.drain(), [1.0, 2.0, 3.0])

    def test_drain_frees_capacity(self):
        agent = LatencyAgent(1, capacity=2)
        agent.report(1.0)
        agent.report(2.0)
        agent.drain()
        agent.report(3.0)
        assert agent.dropped == 0
        np.testing.assert_array_equal(agent.drain(), [3.0])

    def test_drain_takes_everything_pending(self):
        agent = LatencyAgent(1)
        agent.report(10.0)
        agent.report(20.0)
        assert len(agent.drain()) == 2
