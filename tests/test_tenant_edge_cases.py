"""Edge cases for the multi-tenant workload layer.

``Trace.label_tenants``, :class:`TenantPopulation`, the hot-tenant storm
overlay, and :class:`TenantFairnessPolicy` construction, at their boundary
inputs: 1-tenant populations, zero skew, empty traces, rejected kwargs, and
the deliberate formula duplication between ``label_tenants`` and
``distributions.zipf_weights`` (pinned allclose here so the two
normalizations cannot silently drift apart).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.admission import DEFAULT_WEIGHT, TenantFairnessPolicy
from repro.sim.rng import RngStreams
from repro.workload.distributions import zipf_weights
from repro.workload.tenants import (
    DEFAULT_SLO_CLASSES,
    SloClass,
    TenantPopulation,
    TenantSpec,
    inject_hot_tenant_storm,
)
from repro.workload.trace import SPLITWISE_PROFILE, Trace, synthesize_trace


def _trace(rps=20.0, duration=10.0, seed=3):
    return synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                            rng=RngStreams(seed).get("trace"))


# --------------------------------------------------------------------- #
# Trace.label_tenants
# --------------------------------------------------------------------- #
def test_label_tenants_single_tenant_labels_everything_zero():
    trace = _trace()
    out = trace.label_tenants(1, RngStreams(3).get("tenants"))
    assert out is trace
    assert all(r.tenant_id == 0 for r in trace.requests)


def test_label_tenants_empty_trace_returns_self_without_drawing():
    empty = Trace(requests=[], profile=SPLITWISE_PROFILE, rps=0.0,
                  duration=0.0)
    rng = RngStreams(3).get("tenants")
    twin = RngStreams(3).get("tenants")
    assert empty.label_tenants(4, rng) is empty
    # The rng must be untouched: next draw matches a fresh stream.
    assert rng.random() == twin.random()


def test_label_tenants_is_deterministic_on_the_tenants_stream():
    a, b = _trace(), _trace()
    a.label_tenants(6, RngStreams(3).get("tenants"))
    b.label_tenants(6, RngStreams(3).get("tenants"))
    assert [r.tenant_id for r in a.requests] \
        == [r.tenant_id for r in b.requests]


def test_label_tenants_skew_zero_is_uniform():
    trace = _trace(rps=120.0, duration=30.0)
    trace.label_tenants(3, RngStreams(3).get("tenants"), skew=0.0)
    counts = np.bincount([r.tenant_id for r in trace.requests], minlength=3)
    # ~1200 i.i.d. uniform draws over 3 bins: each within 20% of n/3.
    assert counts.min() > 0.8 * len(trace.requests) / 3
    assert counts.max() < 1.2 * len(trace.requests) / 3


def test_label_tenants_skew_favors_tenant_zero():
    trace = _trace(rps=120.0, duration=30.0)
    trace.label_tenants(6, RngStreams(3).get("tenants"), skew=1.5)
    counts = np.bincount([r.tenant_id for r in trace.requests], minlength=6)
    assert counts[0] > counts[-1]


def test_label_tenants_validates_arguments():
    trace = _trace(duration=2.0)
    rng = RngStreams(3).get("tenants")
    with pytest.raises(ValueError, match="n_tenants"):
        trace.label_tenants(0, rng)
    with pytest.raises(ValueError, match="skew"):
        trace.label_tenants(3, rng, skew=-0.1)


@pytest.mark.parametrize("skew", (0.0, 0.7, 1.2, 2.0))
@pytest.mark.parametrize("n", (1, 3, 17))
def test_label_tenants_formula_matches_zipf_weights(n, skew):
    """label_tenants inlines 1/(t+1)**skew instead of calling zipf_weights:
    pow(x, -a) and 1/pow(x, a) differ by an ulp and any weight change can
    flip rng.choice draws, so the inline form is frozen for byte-stability.
    This pin is the drift alarm: if either normalization changes, it fires.
    """
    inline = np.array([1.0 / (t + 1) ** skew for t in range(n)])
    inline = inline / inline.sum()
    np.testing.assert_allclose(inline, zipf_weights(n, skew), rtol=1e-12)


# --------------------------------------------------------------------- #
# TenantPopulation.build / synthesize
# --------------------------------------------------------------------- #
def test_build_validates_arguments():
    with pytest.raises(ValueError, match="n_tenants"):
        TenantPopulation.build(0)
    with pytest.raises(ValueError, match="skew"):
        TenantPopulation.build(3, skew=-1.0)
    with pytest.raises(ValueError, match="class_cycle"):
        TenantPopulation.build(3, class_cycle=())


def test_build_skew_zero_gives_uniform_shares():
    population = TenantPopulation.build(5, skew=0.0)
    shares = population.shares()
    assert all(share == pytest.approx(0.2) for share in shares.values())


def test_build_deals_classes_round_robin_down_the_size_ranking():
    population = TenantPopulation.build(5)
    assert [spec.slo_class for spec in population.tenants] \
        == ["gold", "standard", "batch", "gold", "standard"]
    # Zipf: tenant 0 (gold) is the biggest, shares strictly decreasing.
    shares = [spec.share for spec in population.tenants]
    assert shares == sorted(shares, reverse=True)


def test_build_phase_cycle_staggers_but_keeps_tenant_zero_at_zero():
    population = TenantPopulation.build(4, phase_cycle=60.0)
    assert [spec.phase for spec in population.tenants] \
        == [0.0, 15.0, 30.0, 45.0]
    # No phase_cycle: everyone at phase 0 (the anonymous-identity default).
    assert all(s.phase == 0.0 for s in TenantPopulation.build(4).tenants)


def test_population_rejects_duplicate_and_unknown():
    spec = TenantSpec(tenant_id=0, share=1.0, slo_class="gold")
    with pytest.raises(ValueError, match="duplicate"):
        TenantPopulation(tenants=(spec, spec), classes=dict(DEFAULT_SLO_CLASSES))
    with pytest.raises(ValueError, match="unknown class"):
        TenantPopulation(
            tenants=(TenantSpec(tenant_id=0, share=1.0, slo_class="platinum"),),
            classes=dict(DEFAULT_SLO_CLASSES))
    with pytest.raises(ValueError, match="share"):
        TenantSpec(tenant_id=0, share=0.0, slo_class="gold")


def test_slo_class_validation():
    with pytest.raises(ValueError, match="deadline_scale"):
        SloClass(name="x", deadline_scale=0.0)
    with pytest.raises(ValueError, match="weight"):
        SloClass(name="x", weight=0.0)


def test_synthesize_rejects_burst_phase_kwarg():
    population = TenantPopulation.build(2)
    with pytest.raises(ValueError, match="burst_phase"):
        population.synthesize(rps=10.0, duration=5.0,
                              rng=RngStreams(3).get("trace"),
                              burst_phase=7.0)


@pytest.mark.parametrize("rps", [0.0, -3.0])
def test_synthesize_reports_the_rate_it_was_given(rps):
    """The error names the aggregate rate, not one tenant's share of it."""
    population = TenantPopulation.build(3)
    with pytest.raises(ValueError, match=f"rate must be positive, got {rps}$"):
        population.synthesize(rps=rps, duration=5.0,
                              rng=RngStreams(3).get("trace"))


def test_synthesize_renumbers_ids_in_arrival_order():
    population = TenantPopulation.build(3)
    trace = population.synthesize(rps=30.0, duration=8.0,
                                  rng=RngStreams(3).get("trace"))
    arrivals = [r.arrival_time for r in trace.requests]
    assert arrivals == sorted(arrivals)
    assert [r.request_id for r in trace.requests] \
        == list(range(len(trace.requests)))
    assert {r.tenant_id for r in trace.requests} <= {0, 1, 2}


# --------------------------------------------------------------------- #
# inject_hot_tenant_storm
# --------------------------------------------------------------------- #
def test_storm_validates_tenant_and_window():
    population = TenantPopulation.build(2)
    trace = population.synthesize(rps=10.0, duration=5.0,
                                  rng=RngStreams(3).get("trace"))
    rng = RngStreams(3).get("storm")
    with pytest.raises(ValueError, match="unknown storm tenant"):
        inject_hot_tenant_storm(trace, population, 9, 20.0, 1.0, 2.0, rng)
    with pytest.raises(ValueError, match="storm window"):
        inject_hot_tenant_storm(trace, population, 0, 20.0, -1.0, 2.0, rng)
    with pytest.raises(ValueError, match="storm window"):
        inject_hot_tenant_storm(trace, population, 0, 20.0, 1.0, 0.0, rng)


def test_storm_overlay_is_confined_and_stamped():
    population = TenantPopulation.build(3)
    base = population.synthesize(rps=10.0, duration=20.0,
                                 rng=RngStreams(3).get("trace"))
    stormed = inject_hot_tenant_storm(
        base, population, 1, storm_rps=40.0, start=5.0, storm_duration=4.0,
        rng=RngStreams(3).get("storm"))
    extra = len(stormed.requests) - len(base.requests)
    assert extra > 0
    in_window = [r for r in stormed.requests
                 if 5.0 <= r.arrival_time < 9.0 and r.tenant_id == 1]
    assert len(in_window) >= extra  # all storm arrivals land in the window
    assert all(r.slo_class == "standard" for r in in_window
               if r.tenant_id == 1)
    assert [r.request_id for r in stormed.requests] \
        == list(range(len(stormed.requests)))


# --------------------------------------------------------------------- #
# Policy construction
# --------------------------------------------------------------------- #
def test_policy_validation_and_defaults():
    with pytest.raises(ValueError, match="quota_burst"):
        TenantFairnessPolicy(quota_burst=0.5)
    with pytest.raises(ValueError, match="quota_rps"):
        TenantFairnessPolicy(quota_rps={0: -1.0})
    policy = TenantFairnessPolicy(classes=DEFAULT_SLO_CLASSES)
    assert policy.weight_for("gold") == DEFAULT_SLO_CLASSES["gold"].weight
    assert policy.weight_for("nope") == DEFAULT_WEIGHT
    assert policy.weight_for(None) == DEFAULT_WEIGHT
    assert policy.rate_for(None) is None
    assert policy.rate_for(7) is None  # uncapped tenant
