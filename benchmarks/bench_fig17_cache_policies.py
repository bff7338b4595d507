"""Bench: regenerate Figure 17 (cache eviction policy comparison)."""

from repro.experiments.fig17_cache_policies import run


def test_fig17(run_experiment):
    result = run_experiment(run, duration=120.0)
    total = next(row for row in result.rows if row["rank"] == "total")
    # Every caching scheme beats S-LoRA on total P99 (paper: -18/-22/-26%).
    assert total["Ch-LRU_norm_p99"] < 1.0
    assert total["Ch-FairShare_norm_p99"] < 1.0
    assert total["Chameleon_norm_p99"] < 1.0
    # The tuned policy tracks or beats LRU overall (the fine ordering between
    # cache policies is a second-order effect: at full scale the total P99
    # cuts vs S-LoRA read LRU 82%, FairShare 79%, Chameleon 78%).
    assert total["Chameleon_norm_p99"] <= total["Ch-LRU_norm_p99"] * 1.15
