"""Tests for the ASCII visualization helpers and the CLI entry point."""

import json

import pytest

from repro.cli import QUICK_OVERRIDES, main
from repro.experiments.common import ExperimentResult
from repro.viz import bar_chart, line_chart, result_chart


def test_line_chart_contains_series_and_axes():
    chart = line_chart(
        [1.0, 2.0, 3.0],
        {"alpha": [1.0, 2.0, 4.0], "beta": [4.0, 2.0, 1.0]},
        title="demo", x_label="rps",
    )
    assert "demo" in chart
    assert "*=alpha" in chart and "o=beta" in chart
    assert "rps" in chart
    assert "*" in chart and "o" in chart


def test_line_chart_skips_none_values():
    chart = line_chart([1.0, 2.0], {"a": [None, 3.0]})
    assert "*" in chart


def test_line_chart_validates():
    with pytest.raises(ValueError):
        line_chart([], {})
    with pytest.raises(ValueError):
        line_chart([1.0], {"a": [None]})


def test_line_chart_constant_series():
    chart = line_chart([1.0, 2.0], {"a": [5.0, 5.0]})
    assert "*" in chart


def test_bar_chart_scales_to_peak():
    chart = bar_chart(["x", "yy"], [1.0, 2.0], width=10, unit="s")
    lines = chart.splitlines()
    assert lines[0].count("#") == 5
    assert lines[1].count("#") == 10
    assert "2s" in lines[1]


def test_bar_chart_validates():
    with pytest.raises(ValueError):
        bar_chart([], [])
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])


def test_result_chart_line_for_numeric_rows():
    result = ExperimentResult(
        "demo", "numeric sweep",
        rows=[{"rps": float(i), "a_p99": float(i * i), "b_p99": 1.0}
              for i in range(1, 6)],
    )
    chart = result_chart(result)
    assert chart is not None
    assert "numeric sweep" in chart


def test_result_chart_bars_for_categorical_rows():
    result = ExperimentResult(
        "demo", "grouped",
        rows=[{"system": "a", "p99": 1.0}, {"system": "b", "p99": 2.0}],
    )
    chart = result_chart(result)
    assert chart is not None and "#" in chart


def test_result_chart_none_for_empty():
    assert result_chart(ExperimentResult("demo", "x", rows=[])) is None


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig02" in out and "fig25" in out and "abl_gdsf" in out


def test_cli_runs_fig02(capsys):
    assert main(["fig02"]) == 0
    out = capsys.readouterr().out
    assert "TTFT breakdown" in out
    assert "143.7" in out or "144" in out


def test_cli_plot_flag(capsys):
    assert main(["fig03", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out


def test_cli_param_override(capsys):
    assert main(["fig02", "--param", "ranks=(8, 16)"]) == 0
    out = capsys.readouterr().out
    assert "128" not in out.split("note:")[0].split("rank")[2]


def test_cli_json_export(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["fig02", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload[0]["experiment"] == "fig02"
    assert len(payload[0]["rows"]) == 5


def test_cli_verify_quick_matches_committed_goldens(capsys):
    assert main(["verify", "--quick", "--only", "fig02",
                 "--only", "fig07"]) == 0
    out = capsys.readouterr().out
    assert "fig02" in out and "fig07" in out and "match" in out


def test_cli_verify_digest_is_the_json_export_entry(tmp_path, monkeypatch):
    import hashlib

    import repro.cli as cli

    path = tmp_path / "out.json"
    assert main(["fig02", "--quick", "--json", str(path)]) == 0
    entry = json.loads(path.read_text())[0]
    text = json.dumps(entry, indent=2, default=str)
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(cli, "QUICK_GOLDENS", golden)
    assert main(["verify", "--quick", "--update", "--only", "fig02"]) == 0
    recorded = json.loads(golden.read_text())["experiments"]
    assert recorded == {"fig02": hashlib.sha256(text.encode()).hexdigest()}


def test_cli_verify_lists_moved_experiments(tmp_path, monkeypatch, capsys):
    import repro.cli as cli

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(
        {"experiments": {"fig02": "0" * 64, "fig03": "0" * 64}}))
    monkeypatch.setattr(cli, "QUICK_GOLDENS", golden)
    assert main(["verify", "--quick", "--only", "fig02", "--only", "fig03",
                 "--only", "fig05"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.endswith("differ from the goldens: fig02, fig03, fig05")


def test_cli_verify_full_scale_matches_committed_goldens(capsys):
    # fig07 has --quick overrides, so its two goldens differ: a match
    # shows that verify without --quick runs full scale against
    # tests/golden/experiments.json.
    assert main(["verify", "--only", "fig02", "--only", "fig07"]) == 0
    out = capsys.readouterr().out
    assert "fig07" in out and "all 2 experiment(s) match" in out


def test_cli_verify_full_scale_digest_is_the_json_export_entry(
        tmp_path, monkeypatch):
    import hashlib

    import repro.cli as cli

    path = tmp_path / "out.json"
    assert main(["fig07", "--json", str(path)]) == 0
    text = json.dumps(json.loads(path.read_text())[0], indent=2, default=str)
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(cli, "FULL_GOLDENS", golden)
    assert main(["verify", "--update", "--only", "fig07"]) == 0
    recorded = json.loads(golden.read_text())["experiments"]
    assert recorded == {"fig07": hashlib.sha256(text.encode()).hexdigest()}


def test_cli_verify_rejects_unknown_ids():
    for scale in ([], ["--quick"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *scale, "--only", "fig99"])
        assert exc.value.code == 2


def test_cli_unknown_experiment():
    with pytest.raises(KeyError):
        main(["fig99"])


def test_quick_overrides_reference_known_experiments():
    from repro.experiments.registry import EXPERIMENTS

    assert set(QUICK_OVERRIDES) <= set(EXPERIMENTS)


def test_cli_cluster_subcommand(capsys):
    assert main(["cluster", "--replicas", "2", "--policy", "p2c",
                 "--rps", "4", "--duration", "8", "--warmup", "0"]) == 0
    out = capsys.readouterr().out
    assert "per-replica counts" in out
    assert "aggregate hit rate" in out
    assert "dispatch-queue delay" in out


def test_cli_cluster_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["cluster", "--policy", "definitely_not_a_policy"])


def test_cli_cluster_hetero_and_slo(capsys):
    assert main(["cluster", "--replica-specs", "a40-48gb,a100-80gb",
                 "--rps", "4", "--duration", "8", "--warmup", "0",
                 "--slo-ttft", "0"]) == 0
    out = capsys.readouterr().out
    assert "capability weights" in out
    assert "goodput" in out
    assert "SLO admission (shed)" in out


def test_cli_cluster_rejects_unknown_gpu():
    with pytest.raises(SystemExit):
        main(["cluster", "--replica-specs", "a40-48gb,tpu-v9"])


def test_cli_cluster_derived_slo_tracks_fleet_hardware(capsys):
    def deadline_for(fleet):
        assert main(["cluster", "--replica-specs", fleet, "--rps", "4",
                     "--duration", "8", "--warmup", "0", "--slo-ttft", "0"]) == 0
        out = capsys.readouterr().out
        return float(out.split("deadline=")[1].split("s ")[0])

    # The derived 5x-mean-isolated deadline reflects the fleet's GPUs:
    # an all-A100 fleet gets a tighter deadline than an all-A40 fleet.
    assert deadline_for("a100-80gb,a100-80gb") < deadline_for("a40-48gb,a40-48gb")


def test_cli_cluster_rejects_replica_count_conflict():
    with pytest.raises(SystemExit):
        main(["cluster", "--replicas", "3",
              "--replica-specs", "a40-48gb,a100-80gb"])


def test_cli_cluster_rejects_slo_without_backpressure():
    with pytest.raises(SystemExit):
        main(["cluster", "--slo-ttft", "1.0", "--no-backpressure"])


def test_cli_cluster_autoscale(capsys):
    assert main(["cluster", "--autoscale", "--min-replicas", "1",
                 "--max-replicas", "3", "--provision-delay", "1",
                 "--rps", "30", "--duration", "20", "--warmup", "0",
                 "--slo-ttft", "0"]) == 0
    out = capsys.readouterr().out
    assert "autoscale" in out
    assert "replica-seconds" in out


def test_cli_cluster_autoscale_rejects_no_backpressure():
    with pytest.raises(SystemExit):
        main(["cluster", "--autoscale", "--no-backpressure"])


def test_cli_cluster_autoscale_rejects_bad_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["cluster", "--autoscale", "--min-replicas", "4",
              "--max-replicas", "2"])
    with pytest.raises(SystemExit):
        main(["cluster", "--autoscale", "--replicas", "9",
              "--max-replicas", "4"])
    capsys.readouterr()
    # AutoscaleConfig's own checks surface as usage errors (exit code 2).
    for flag, value, message in (
            ("--forecast-window", "0", "forecast_window must be > 0"),
            ("--provision-delay", "-1", "cold-start delays must be >= 0")):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--autoscale", "--duration", "2", "--warmup",
                  "0", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_cluster_fair_needs_slo_ttft(capsys):
    # Without a deadline every completion is "attained", so the fairness
    # report would read 1.000 for every tenant whatever the quotas did.
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--duration", "20", "--warmup", "0",
              "--tenants", "3", "--fair"])
    assert exc.value.code == 2
    assert "--fair needs --slo-ttft" in capsys.readouterr().err


def test_cli_cluster_rejects_warmup_at_or_past_duration(capsys):
    # The default --warmup is 10 s; every request would fall before it.
    for argv in (["--duration", "5", "--tenants", "3"],
                 ["--duration", "8", "--warmup", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", *argv])
        assert exc.value.code == 2
        assert "must be below --duration" in capsys.readouterr().err


def test_cli_cluster_reports_the_rate_the_user_typed(capsys):
    # The burst generator and the tenant split derive other rates from
    # --rps; a bad value is reported as typed, not as a derived rate.
    for argv in (["--rps", "-3"], ["--tenants", "3", "--rps", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--duration", "20", *argv])
        assert exc.value.code == 2
        assert "rate must be positive, got -3.0" in capsys.readouterr().err


def test_cli_trace_turns_library_errors_into_usage_errors(capsys, tmp_path):
    # The library validates every value it sees; only --slowest, which the
    # CLI alone reads, has a check of its own.
    out = str(tmp_path / "trace.json")
    for argv, message in (
            (["--rps", "0"], "rate must be positive, got 0.0"),
            (["--rps", "-3"], "rate must be positive, got -3.0"),
            (["--duration", "0"], "duration must be positive, got 0.0"),
            (["--replicas", "0"], "n_replicas must be >= 1, got 0"),
            (["--shards", "2", "--replicas", "0"],
             "n_replicas must be >= 1, got 0"),
            (["--shards", "0"], "n_shards must be >= 1, got 0"),
            (["--slo-ttft", "0"], "ttft_deadline must be > 0, got 0.0"),
            (["--metrics-interval", "0"], "interval must be > 0, got 0.0"),
            (["--slowest", "-1"], "--slowest must be >= 0, got -1")):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--duration", "2", "--out", out, *argv])
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not (tmp_path / "trace.json").exists()
