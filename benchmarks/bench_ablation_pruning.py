"""Ablation: contribution of each pruning rule (Observations 1-4).

Each configuration of the scalar TraversePowerset runs on the same
graph/landmark; outputs are identical (verified by the test suite), so this
measures pure bookkeeping cost/savings per rule under the vectorized
substrate.  The wave builder has one configuration, Observations 1-3, and
is checked once against the scalar builder run the same way.
"""

from __future__ import annotations

import pytest

from repro.core.powcov import traverse_powerset, traverse_powerset_waves

LANDMARK = 3

CONFIGS = {
    "all-rules": dict(),
    "no-obs1": dict(use_obs1=False),
    "no-obs2": dict(use_obs2=False),
    "no-obs3": dict(use_obs3=False),
    "no-obs4": dict(use_obs4=False),
    "none": dict(use_obs1=False, use_obs2=False, use_obs3=False, use_obs4=False),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_pruning_config(benchmark, synthetic_l6, config):
    flags = CONFIGS[config]
    result = benchmark.pedantic(
        lambda: traverse_powerset(synthetic_l6, LANDMARK, **flags),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["full_tests"] = result.num_full_tests
    benchmark.extra_info["sssps"] = result.num_sssp
    benchmark.extra_info["auto_minimal"] = result.num_auto_minimal


def test_wave_builder_agrees_with_scalar(synthetic_l6):
    scalar = traverse_powerset(synthetic_l6, LANDMARK, use_obs4=False)
    wave = traverse_powerset_waves(synthetic_l6, LANDMARK)
    assert wave.entries == scalar.entries
    assert wave.num_sssp == scalar.num_sssp
    assert wave.num_full_tests == scalar.num_full_tests
    assert wave.num_auto_minimal == scalar.num_auto_minimal == 0


def test_rules_cut_counters(synthetic_l6):
    full = traverse_powerset(synthetic_l6, LANDMARK)
    none = traverse_powerset(
        synthetic_l6, LANDMARK,
        use_obs1=False, use_obs2=False, use_obs3=False, use_obs4=False,
    )
    assert full.num_full_tests < none.num_full_tests
    assert full.num_sssp <= none.num_sssp
    assert full.entries == none.entries
