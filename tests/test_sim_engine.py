"""Tests for the discrete-event clock."""

import pytest

from repro.sim import Environment


class TestScheduling:
    def test_schedule_advances_clock(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda _: fired.append(env.now), None)
        env.run()
        assert fired == [5.0]
        assert env.now == 5.0

    def test_fifo_at_same_instant(self):
        env = Environment()
        order = []
        for i in range(5):
            env.schedule(1.0, order.append, i)
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []
        for delay in (3.0, 1.0, 2.0):
            env.schedule(delay, order.append, delay)
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_delay_is_relative_to_now(self):
        env = Environment()
        times = []

        def tick(left):
            times.append(env.now)
            if left:
                env.schedule(1.5, tick, left - 1)

        env.schedule(1.0, tick, 2)
        env.run()
        assert times == [1.0, 2.5, 4.0]

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Environment().schedule(-1, print, None)


class TestRun:
    def test_run_until_time_stops_clock(self):
        env = Environment()
        fired = []
        env.schedule(5.0, fired.append, 5.0)
        env.schedule(10.0, fired.append, 10.0)
        env.run(until=5.0)
        # An event at exactly ``until`` fires; later ones wait.
        assert fired == [5.0]
        assert env.now == 5.0
        env.run(until=15.0)
        assert fired == [5.0, 10.0]
        assert env.now == 10.0
