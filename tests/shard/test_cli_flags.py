"""Every CLI spells the shard drive mode the same way: ``--shards N`` is
process-parallel, ``--sequential-shards`` opts out."""

import pytest

from repro.shard.build import ShardingOptions


class _Parsed(Exception):
    """Stops a CLI once it has turned its flags into options."""


def _experiments(monkeypatch, argv):
    from repro.experiments import __main__ as cli
    from repro.experiments import runner

    def capture(ctx):
        raise _Parsed(ctx.sharding)

    monkeypatch.setattr(runner, "install_context", capture)
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    with pytest.raises(_Parsed) as parsed:
        cli.main(["fig6", "--no-cache", *argv])
    return parsed.value.args[0]


def _captured(monkeypatch, module, function, main, argv):
    def capture(*args, **kwargs):
        raise _Parsed(ShardingOptions(kwargs["n_shards"], kwargs["parallel"]))

    monkeypatch.setattr(module, function, capture)
    with pytest.raises(_Parsed) as parsed:
        main(argv)
    return parsed.value.args[0]


def _smoke(monkeypatch, argv):
    from repro.bench import smoke

    return _captured(monkeypatch, smoke, "run_smoke_grid", smoke.main, ["--quick", *argv])


def _ckpt(monkeypatch, argv):
    from repro.ckpt import __main__ as cli

    return _captured(monkeypatch, cli, "run_smoke", cli.main, ["--smoke", *argv])


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--shards", "2"], ShardingOptions(2, parallel=True)),
        (["--shards", "2", "--sequential-shards"], ShardingOptions(2, parallel=False)),
        (["--shards", "4", "--sequential-shards"], ShardingOptions(4, parallel=False)),
    ],
    ids=["parallel", "sequential", "four-sequential"],
)
def test_three_clis_map_the_same_flags_to_the_same_options(monkeypatch, argv, expected):
    assert _experiments(monkeypatch, argv) == expected
    assert _smoke(monkeypatch, argv) == expected
    assert _ckpt(monkeypatch, argv) == expected


@pytest.mark.parametrize("cli", [_smoke, _ckpt], ids=["smoke", "ckpt"])
def test_parallel_flag_is_gone(monkeypatch, capsys, cli):
    with pytest.raises(SystemExit) as exc:
        cli(monkeypatch, ["--shards", "2", "--parallel"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
