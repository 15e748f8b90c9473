"""Property-based tests for the discrete-event clock."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestEngineProperties:
    @given(delays)
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time_order(self, ds):
        env = Environment()
        fired: list[float] = []
        for d in ds:
            env.schedule(d, lambda _: fired.append(env.now), None)
        env.run()
        assert len(fired) == len(ds)
        assert all(a <= b for a, b in zip(fired, fired[1:]))
        assert sorted(fired) == sorted(ds)

    @given(delays)
    @settings(max_examples=60)
    def test_equal_times_fire_in_scheduling_order(self, ds):
        env = Environment()
        order: list[int] = []
        # Schedule every event at the same instant; FIFO must hold.
        for i, _ in enumerate(ds):
            env.schedule(1.0, order.append, i)
        env.run()
        assert order == list(range(len(ds)))

    @given(delays)
    @settings(max_examples=40)
    def test_clock_never_goes_backwards(self, ds):
        """Callbacks that schedule further events see a monotone clock."""
        env = Environment()
        observed: list[float] = []
        targets = sorted(ds)

        def step(i: int) -> None:
            observed.append(env.now)
            if i < len(targets):
                env.schedule(max(0.0, targets[i] - env.now), step, i + 1)

        env.schedule(0.0, step, 0)
        env.run()
        assert len(observed) == len(targets) + 1
        assert all(a <= b for a, b in zip(observed, observed[1:]))

    @given(delays)
    @settings(max_examples=40)
    def test_run_until_time_is_resumable(self, ds):
        """Running in two halves produces the same firings as one run."""
        cut = max(ds) / 2 if ds else 0.0

        def run_split():
            env = Environment()
            fired = []
            for d in ds:
                env.schedule(d, fired.append, d)
            env.run(until=cut)
            env.run()
            return fired

        def run_whole():
            env = Environment()
            fired = []
            for d in ds:
                env.schedule(d, fired.append, d)
            env.run()
            return fired

        assert run_split() == run_whole()
