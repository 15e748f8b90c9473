"""The generative scenario surface: determinism, coupling, invariants.

The generator's contract is threefold.  Equal ``(archetype, seed,
parameters)`` must yield byte-identical specs and — through the
unchanged driver, at any worker count — byte-identical results.
Mobility must add walkers whose endpoints follow their trajectories
(visible as replans on otherwise-quiet epochs).  And congestion must
*couple*: the same timeline scored under a saturating shared-air
window must deliver strictly less than the private-air scoring, while
leaving the uncongested result untouched byte for byte.
"""

import json

import pytest

from repro.scenario import (
    ARCHETYPES,
    CongestionSpec,
    check_invariants,
    fuzz_specs,
    generate_scenario,
    run_scenario,
    spec_digest,
)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_same_seed_same_spec_bytes(self, archetype):
        a = generate_scenario(archetype, seed=7)
        b = generate_scenario(archetype, seed=7)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        assert spec_digest(a) == spec_digest(b)

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_seed_changes_the_spec(self, archetype):
        assert spec_digest(
            generate_scenario(archetype, seed=7)
        ) != spec_digest(generate_scenario(archetype, seed=8))

    def test_every_parameter_shows_in_the_digest(self):
        base = generate_scenario("flood", seed=3)
        for variant in (
            generate_scenario("flood", seed=3, flows=9),
            generate_scenario("flood", seed=3, intensity=1.5),
            generate_scenario("flood", seed=3, epochs=9),
            generate_scenario("flood", seed=3, mobile_flows=2),
            generate_scenario(
                "flood", seed=3, congestion=CongestionSpec(window_s=0.5)
            ),
        ):
            assert spec_digest(variant) != spec_digest(base)

    def test_fuzz_specs_deterministic(self):
        first = [spec_digest(s) for s in fuzz_specs(6, seed=2)]
        second = [spec_digest(s) for s in fuzz_specs(6, seed=2)]
        assert first == second
        # The draws genuinely vary — a fuzzer stuck on one archetype
        # or one flow count is not fuzzing.
        specs = fuzz_specs(12, seed=2)
        assert len({s.name.split("-")[1] for s in specs}) > 1
        assert len({s.flows for s in specs}) > 1


class TestGeneratedTimelines:
    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_runs_clean_through_the_driver(self, archetype):
        spec = generate_scenario(archetype, seed=11, flows=8)
        result = run_scenario(spec)
        assert check_invariants(result, spec) == []
        # Every archetype must actually hurt the mesh at some point.
        assert any(
            r.alive_aps < r.total_aps for r in result.epochs
        ), f"{archetype} timeline never degraded the mesh"

    def test_mobility_adds_scored_walkers(self):
        spec = generate_scenario(
            "earthquake", seed=5, flows=8, mobile_flows=4
        )
        result = run_scenario(spec)
        assert check_invariants(result, spec) == []
        assert all(r.flows == 12 for r in result.epochs)
        # Walkers move between epochs, so replans happen even on
        # epochs where no event mutated the map.
        quiet = [
            r for r in result.epochs if r.epoch > 0 and not r.mutated
        ]
        assert quiet, "timeline has no quiet epochs to observe"
        assert any(r.replans > 0 for r in quiet)

    def test_mobility_defaults_leave_static_results_untouched(self):
        # mobile_flows=0 must reduce to the pre-mobility scoring: the
        # walkers' seed streams must not perturb the static flows.
        spec = generate_scenario("flood", seed=7, flows=8)
        again = generate_scenario("flood", seed=7, flows=8)
        assert run_scenario(spec).to_json(
            manifest=False
        ) == run_scenario(again).to_json(manifest=False)

    def test_congestion_degrades_delivery(self):
        base = generate_scenario("flood", seed=7, flows=12)
        squeezed = generate_scenario(
            "flood",
            seed=7,
            flows=12,
            congestion=CongestionSpec(window_s=0.5),
        )
        free = run_scenario(base)
        jammed = run_scenario(squeezed)
        assert check_invariants(jammed, squeezed) == []
        free_total = sum(r.delivered_flows for r in free.epochs)
        jammed_total = sum(r.delivered_flows for r in jammed.epochs)
        # Cramming 12 flows into a 0.5 s shared-air window collides;
        # the private-air scoring cannot see that.
        assert jammed_total < free_total

    def test_wide_congestion_window_converges_to_free_air(self):
        # With flows spread over a huge window there is nothing to
        # collide with: delivery must not collapse.
        spec = generate_scenario(
            "brownout",
            seed=3,
            flows=8,
            congestion=CongestionSpec(window_s=600.0),
        )
        result = run_scenario(spec)
        assert check_invariants(result, spec) == []
        assert any(r.delivered_flows > 0 for r in result.epochs)


class TestGeneratorErrors:
    def test_unknown_archetype(self):
        with pytest.raises(KeyError, match="known archetypes"):
            generate_scenario("asteroid", seed=1)

    @pytest.mark.parametrize("intensity", [0.0, -1.0, 3.5])
    def test_bad_intensity(self, intensity):
        with pytest.raises(ValueError, match="intensity"):
            generate_scenario("flood", seed=1, intensity=intensity)

    def test_too_few_epochs(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_scenario("flood", seed=1, epochs=3)

    def test_negative_congestion_window(self):
        with pytest.raises(ValueError, match="non-negative"):
            CongestionSpec(window_s=-1.0)

    def test_fuzz_needs_draws(self):
        with pytest.raises(ValueError, match="at least one"):
            fuzz_specs(0, seed=1)
