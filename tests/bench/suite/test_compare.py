"""``compare`` verdicts on synthetic reports."""

import json

import pytest

from repro.bench.suite import cli
from repro.bench.suite.compare import compare, failing, load_samples, verdict
from repro.bench.suite.report import load_declaration


def _report(tmp_path, name, workload, metrics, correct=True, failed=0):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "result": {
                    "correct": correct,
                    "attempted": 10,
                    "failed": failed,
                    "metrics": {
                        metric: {"value": value, "unit": "s"}
                        for metric, value in metrics.items()
                    },
                },
            }
        )
    )
    return str(path)


def _side(tmp_path, tag, values, workload="local_sweep", **result):
    return [
        _report(tmp_path, f"{tag}{i}", workload, {"latency_s_p50": v}, **result)
        for i, v in enumerate(values)
    ]


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


@pytest.mark.parametrize(
    "after, expected",
    [
        ([v * 1.30 for v in STEADY], "worse"),
        ([v * 0.70 for v in STEADY], "better"),
        ([v * 1.005 for v in STEADY], "unchanged"),
        ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2], "unresolved"),
    ],
)
def test_verdicts(after, expected):
    _, result = verdict(STEADY, after, lower_is_better=True, bound=0.10)
    assert result == expected


def test_direction_follows_the_declaration():
    worse_by, result = verdict(STEADY, [v * 1.3 for v in STEADY], False, 0.10)
    assert worse_by < 0 and result == "better"


def test_wide_spread_that_every_run_beats_is_better():
    before = [1.0, 2.0, 1.5, 1.2, 1.8]
    after = [0.5, 0.6, 0.55, 0.52, 0.58]
    assert verdict(before, after, True, 0.10)[1] == "better"


def test_rows_carry_quartiles_and_bounds(tmp_path):
    before = load_samples(_side(tmp_path, "b", STEADY))
    after = load_samples(_side(tmp_path, "a", [v * 1.3 for v in STEADY]))
    (row,) = compare(before, after, load_declaration())
    assert row.workload == "local_sweep" and row.metric == "latency_s_p50"
    assert row.before[0] <= row.before[1] <= row.before[2]
    assert row.bound is not None and row.verdict == "worse"
    assert row.worse_by == pytest.approx(0.30)


def test_pair_absent_after_is_missing_and_fails(tmp_path, capsys):
    before = _side(tmp_path, "b", STEADY) + _side(tmp_path, "c", STEADY, "serve_mixed")
    after = _side(tmp_path, "a", STEADY)
    rows = compare(load_samples(before), load_samples(after), load_declaration())
    assert {(r.workload, r.verdict) for r in rows} == {
        ("local_sweep", "unchanged"),
        ("serve_mixed", "missing"),
    }
    assert cli.main(["compare", "--before", *before, "--after", *after]) == 1
    assert "missing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "result", [{"correct": False}, {"failed": 1}], ids=["incorrect", "failed"]
)
def test_incorrect_reports_add_no_values_and_fail(tmp_path, capsys, result):
    before = _side(tmp_path, "b", STEADY)
    # faster, but wrong: the numbers must not count as a gain
    wrong = _side(tmp_path, "w", [v * 0.5 for v in STEADY], **result)
    after = load_samples(wrong)
    assert after.samples == {} and len(after.incorrect) == len(STEADY)
    rows = compare(load_samples(before), after, load_declaration())
    assert [r.verdict for r in rows] == ["missing"]
    assert failing(rows, load_samples(before), after)
    assert cli.main(["compare", "--before", *before, "--after", *wrong]) == 1
    assert "INCORRECT after" in capsys.readouterr().out


def test_cli_exits_nonzero_only_on_worse(tmp_path, capsys):
    before = _side(tmp_path, "b", STEADY)
    worse = _side(tmp_path, "w", [v * 1.3 for v in STEADY])
    same = _side(tmp_path, "s", STEADY)
    assert cli.main(["compare", "--before", *before, "--after", *worse]) == 1
    assert "worse" in capsys.readouterr().out
    assert cli.main(["compare", "--before", *before, "--after", *same]) == 0
