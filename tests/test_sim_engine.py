"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, SimulationError


class TestEventBasics:
    def test_event_starts_untriggered(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value

    def test_succeed_sets_value(self):
        env = Environment()
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_double_succeed_raises(self):
        env = Environment()
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_timeout_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)


class TestScheduling:
    def test_timeout_advances_clock(self):
        env = Environment()
        fired = []
        ev = env.timeout(5.0)
        ev.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [5.0]
        assert env.now == 5.0

    def test_fifo_at_same_instant(self):
        env = Environment()
        order = []
        for i in range(5):
            ev = env.timeout(1.0)
            ev.callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []
        for delay in (3.0, 1.0, 2.0):
            ev = env.timeout(delay)
            ev.callbacks.append(lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0


class TestRun:
    def test_run_until_time_stops_clock(self):
        env = Environment()
        fired = []
        env.timeout(10.0).callbacks.append(lambda e: fired.append(True))
        env.run(until=5.0)
        assert not fired
        assert env.now == 5.0
        env.run(until=15.0)
        assert fired

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(3.0)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"
        assert env.now == 3.0

    def test_run_until_event_queue_drains_raises(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=never)


class TestProcesses:
    def test_sequential_timeouts(self):
        env = Environment()
        times = []

        def proc():
            yield env.timeout(1.0)
            times.append(env.now)
            yield env.timeout(2.0)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.0]

    def test_timeout_value_passed(self):
        env = Environment()
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_process_waits_on_custom_event(self):
        env = Environment()
        gate = env.event()
        got = []

        def waiter():
            value = yield gate
            got.append((env.now, value))

        def opener():
            yield env.timeout(4.0)
            gate.succeed("open")

        env.process(waiter())
        env.process(opener())
        env.run()
        assert got == [(4.0, "open")]

    def test_two_processes_interleave(self):
        env = Environment()
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("a", 1.0))
        env.process(ticker("b", 1.5))
        env.run()
        # At t=3.0 both fire; b's timeout was scheduled first (at 1.5,
        # vs a's at 2.0), so FIFO tie-breaking runs b first.
        assert log == [
            (1.0, "a"),
            (1.5, "b"),
            (2.0, "a"),
            (3.0, "b"),
            (3.0, "a"),
            (4.5, "b"),
        ]

    def test_failed_event_throws_into_process(self):
        env = Environment()
        gate = env.event()
        caught = []

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter())
        gate.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_process_exception_propagates_via_run_until(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise ValueError("exploded")

        p = env.process(bad())
        with pytest.raises(ValueError, match="exploded"):
            env.run(until=p)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield 42  # type: ignore[misc]

        p = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_process_waits_on_process(self):
        env = Environment()
        log = []

        def inner():
            yield env.timeout(2.0)
            return "inner-result"

        def outer():
            result = yield env.process(inner())
            log.append((env.now, result))

        env.process(outer())
        env.run()
        assert log == [(2.0, "inner-result")]

    def test_yield_already_processed_event(self):
        env = Environment()
        log = []
        done = env.event()
        done.succeed("early")

        def proc():
            yield env.timeout(1.0)
            value = yield done  # already processed by now
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [(1.0, "early")]

