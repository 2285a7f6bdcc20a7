"""compare.py's verdicts on hand-made sweep files."""

import json

from bench import compare


def sweep(tmp_path, name, req_values, failed=0, workload="sim_null"):
    with open(compare.os.path.join(compare.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = [m["name"] for m in json.load(handle)["end_to_end"]]
    runs = [
        {
            "workload": workload, "seed": i, "trace": 0, "correct": not failed,
            "attempted": 1000, "failed": failed,
            "metrics": {
                m: {"value": value if m == "req_us_norm" else 10.0, "unit": "x"}
                for m in metrics
            },
        }
        for i, value in enumerate(req_values)
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"seconds": 1, "runs": runs}))
    return str(path)


def test_same_numbers_are_ok(tmp_path, capsys):
    a = sweep(tmp_path, "a.json", [100, 101, 102, 103])
    assert compare.main([a, a]) == 0
    assert "REGRESSION" not in capsys.readouterr().out


def test_worse_beyond_the_bound_is_a_regression(tmp_path, capsys):
    a = sweep(tmp_path, "a.json", [100, 101, 102, 103])
    b = sweep(tmp_path, "b.json", [120, 121, 122, 123])
    assert compare.main([a, b]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([b, a]) == 0  # an improvement is never a regression


def test_spread_wider_than_the_bound_is_unresolved_not_a_verdict(tmp_path, capsys):
    a = sweep(tmp_path, "a.json", [80, 100, 120, 140])
    b = sweep(tmp_path, "b.json", [100, 125, 150, 175])
    assert compare.main([a, b]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_more_failures_fail_even_when_every_metric_holds(tmp_path, capsys):
    a = sweep(tmp_path, "a.json", [100, 101, 102, 103])
    b = sweep(tmp_path, "b.json", [100, 101, 102, 103], failed=3)
    assert compare.main([a, b]) == 1
    assert "MORE FAILURES" in capsys.readouterr().out


def test_one_file_reports_its_own_spread(tmp_path, capsys):
    a = sweep(tmp_path, "a.json", [80, 100, 120, 140])
    assert compare.main([a]) == 0
    assert "WIDE" in capsys.readouterr().out
