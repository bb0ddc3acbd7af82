"""Tests for the experiment CLI."""

import pytest

from repro.experiments import chaos, runner
from repro.experiments.__main__ import main
from repro.experiments.registry import FIGURES
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import Scale


@pytest.fixture(autouse=True)
def _isolated_runner_state(tmp_path, monkeypatch):
    # the CLI enables the disk cache by default; keep it out of the repo
    # and undo the context it installs
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    previous = runner.current_context()
    yield
    runner.install_context(previous)
    runner.reset_run_stats()
    runner.clear_cache()


@pytest.fixture
def tiny_quick(monkeypatch):
    # shrink the quick scale further for test speed
    from repro.experiments import __main__ as cli

    monkeypatch.setitem(
        cli.SCALES,
        "quick",
        lambda: ExperimentScale(scale=Scale.tiny(), workloads=("gups",)),
    )


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out and "tables" in out


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "Interconnect" in out


def test_unknown_target(capsys):
    assert main(["fig99"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_every_figure_registered():
    expected = {f"fig{i}" for i in (3, 4, 5, 6, 7, 8, 9, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22)}
    assert expected <= set(FIGURES)
    assert {"abl_scheduler", "abl_cq_capacity"} <= set(FIGURES)


@pytest.mark.parametrize("target", ["fig6", "fig9"])
def test_run_single_figure_quick(capsys, target, tiny_quick):
    assert main([target, "--scale", "quick"]) == 0
    assert target in capsys.readouterr().out


def test_jobs_flag_parallel_run_and_summary(capsys, tiny_quick, tmp_path):
    assert main(
        ["fig3", "--scale", "quick", "--jobs", "2", "--cache-dir", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "fig3" in out
    assert "run summary" in out
    assert "disk cache hits" in out
    assert len(runner.current_context().cache) > 0


def test_no_cache_flag_disables_disk_cache(capsys, tiny_quick, tmp_path):
    assert main(["fig6", "--scale", "quick", "--no-cache"]) == 0
    assert runner.current_context().cache is None
    assert not (tmp_path / "cache").exists()


def test_second_invocation_hits_disk_cache(capsys, tiny_quick, tmp_path):
    args = ["fig3", "--scale", "quick", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "disk-cache hit rate: 0.0%" in first
    # a fresh process would start with an empty memo; simulate that
    runner.clear_cache()
    runner.reset_run_stats()
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "disk-cache hit rate: 100.0%" in second
    assert "simulated:          0" in second


def test_observability_flags_write_artifacts(capsys, tiny_quick, tmp_path):
    obs_dir = tmp_path / "obs"
    assert main(
        [
            "fig6",
            "--scale",
            "quick",
            "--no-cache",
            "--trace",
            "--trace-sample",
            "2",
            "--metrics-interval",
            "500",
            "--profile",
            "--obs-dir",
            str(obs_dir),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "observability artifacts" in out
    assert list(obs_dir.glob("*.trace.jsonl"))
    assert list(obs_dir.glob("*.trace.json"))
    assert list(obs_dir.glob("*.metrics.jsonl"))
    assert list(obs_dir.glob("*.profile.json"))


def test_emitted_trace_passes_validator(capsys, tiny_quick, tmp_path):
    from repro.obs.validate import main as validate_main

    obs_dir = tmp_path / "obs"
    assert main(
        ["fig6", "--scale", "quick", "--no-cache", "--trace",
         "--obs-dir", str(obs_dir)]
    ) == 0
    traces = [str(p) for p in obs_dir.glob("*.trace.jsonl")]
    assert traces
    assert validate_main(traces) == 0


def test_invalid_observability_values_rejected(tiny_quick):
    with pytest.raises(SystemExit):
        main(["fig6", "--trace-sample", "0"])
    with pytest.raises(SystemExit):
        main(["fig6", "--metrics-interval", "0"])


def test_bw_class_duplicate_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["list", "--bw-class", "inter=32", "--bw-class", "inter=64"])
    err = capsys.readouterr().err
    assert "duplicate --bw-class" in err
    assert "'inter'" in err


def test_bw_class_unknown_class_rejected_eagerly(capsys):
    # fails at argument handling, before any simulation
    with pytest.raises(SystemExit):
        main(["list", "--bw-class", "up=32"])
    err = capsys.readouterr().err
    assert "bandwidth class 'up'" in err
    assert "classes: inter" in err  # names the topology's valid classes


def test_bw_class_malformed_spec_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["list", "--bw-class", "inter"])
    assert "CLASS=BW" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["list", "--bw-class", "inter=fast"])
    assert "bad bandwidth" in capsys.readouterr().err


def test_bw_class_valid_for_topology(capsys):
    # star defines up/down tiers; both accepted, listed in the echo
    assert main(["list", "--topology", "star", "--bw-class", "up=32",
                 "--bw-class", "down=64"]) == 0
    out = capsys.readouterr().out
    assert "topology overrides" in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--shards", "0"],
        ["--shards", "-2", "--sequential-shards"],
    ],
    ids=["zero-shards", "negative-shards-sequential"],
)
def test_bad_sharding_flags_exit_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["fig6", *flags])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_bad_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["list"])
    assert exc.value.code == 2
    assert "REPRO_" in capsys.readouterr().err


def test_cli_installs_its_context(capsys, tiny_quick, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main(["fig6", "--scale", "quick", "--cache-dir", str(tmp_path),
                 "--shards", "2", "--sequential-shards"]) == 0
    ctx = runner.current_context()
    assert ctx.jobs == 2
    assert ctx.cache.root == tmp_path
    assert (ctx.sharding.n_shards, ctx.sharding.parallel) == (2, False)
    assert "cluster sharding: 2 shard(s)" in capsys.readouterr().out


def test_bad_checkpoint_period_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig6", "--checkpoint-every", "0"])
    assert exc.value.code == 2


def test_fault_options_do_not_leak_into_a_later_invocation(capsys, tiny_quick):
    # one process, two CLI calls: the second, without --fault-* flags,
    # must sweep the default BERs, not the first call's
    assert main(["chaos", "--scale", "quick", "--no-cache", "--fault-ber", "0"]) == 0
    first = capsys.readouterr().out
    assert "ber=0" in first and "ber=0.0005" not in first
    assert main(["chaos", "--scale", "quick", "--no-cache"]) == 0
    second = capsys.readouterr().out
    for ber in chaos.ChaosOptions().bers:
        assert f"ber={ber:g}" in second
