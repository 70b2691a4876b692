"""``tools/ab.py``, the paired A/B of the repository benchmark.

No subprocess is started: the benchmark runs are replaced by a fake
runner returning canned simbench result lines, and the metric list and
bounds come from a temporary copy of ``BENCHMARK.json``.
"""

import importlib.util
import io
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.fixture
def declared(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    shutil.copy(ROOT / "BENCHMARK.json", path)
    metrics, workloads, _ = ab.load_benchmark(str(path))
    return metrics, workloads


def result_line(failed=0, **values):
    metrics = {name: {"value": value, "unit": "x"}
               for name, value in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": 4,
                       "failed": failed, "metrics": metrics})


BASE = dict(sim_kips=40.0, wall_s=10.0, setup_s=1.0, peak_rss_mb=50.0)
FASTER = dict(sim_kips=50.0, wall_s=8.0, setup_s=0.8, peak_rss_mb=40.0)


class FakeRunner:
    """Stands in for ``run_simbench``: records which side ran, in order."""

    def __init__(self, outputs):
        self.outputs = outputs  # side -> (returncode, stdout)
        self.calls = []

    def __call__(self, root, workload, seconds):
        self.calls.append(root)
        return self.outputs[root]


def run(declared, outputs, pairs=2):
    metrics, _ = declared
    runner = FakeRunner(outputs)
    ratios = ab.run_pairs("sim-busy", pairs, 1.0,
                          {"base": "base", "change": "change"}, metrics,
                          run=runner, out=io.StringIO())
    return ratios, runner


def test_metrics_and_bounds_come_from_benchmark_json(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    document["end_to_end"][0]["bound"] = 0.05
    path.write_text(json.dumps(document))
    metrics, workloads, seconds = ab.load_benchmark(str(path))
    assert list(metrics) == ["sim_kips", "wall_s", "setup_s", "peak_rss_mb"]
    assert metrics["sim_kips"]["bound"] == 0.05
    assert workloads == ["sim-busy", "sim-blocked", "campaign"]
    assert seconds == document["run_seconds"]


def test_a_gated_metric_missing_from_benchmark_json_is_an_error(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    document["end_to_end"] = [entry for entry in document["end_to_end"]
                              if entry["name"] != "peak_rss_mb"]
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="peak_rss_mb"):
        ab.load_benchmark(str(path))


def test_sides_alternate_which_runs_first(declared):
    assert [ab.pair_order(i) for i in range(4)] == [
        ("base", "change"), ("change", "base"),
        ("base", "change"), ("change", "base")]
    _, runner = run(declared, {"base": (0, result_line(**BASE)),
                                "change": (0, result_line(**BASE))},
                    pairs=3)
    assert runner.calls == ["base", "change", "change", "base",
                            "base", "change"]


def test_ratios_above_one_mean_the_change_is_better(declared):
    ratios, _ = run(declared, {"base": (0, result_line(**BASE)),
                                "change": (0, result_line(**FASTER))})
    assert ratios["sim_kips"] == [pytest.approx(1.25)] * 2  # higher
    assert ratios["wall_s"] == [pytest.approx(1.25)] * 2  # lower
    assert ratios["setup_s"] == [pytest.approx(1.25)] * 2
    assert ratios["peak_rss_mb"] == [pytest.approx(1.25)] * 2
    # and swapping the sides turns every ratio below one
    swapped, _ = run(declared, {"base": (0, result_line(**FASTER)),
                                 "change": (0, result_line(**BASE))})
    assert all(value == pytest.approx(0.8)
               for values in swapped.values() for value in values)


def test_median_and_quartiles():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 1.5, 4.5)
    assert ab.quartiles([4.0, 1.0, 2.0, 3.0]) == (2.5, 1.25, 3.75)


@pytest.mark.parametrize("name,worst", [
    ("sim_kips", 1 - 0.25),          # change may be 25% slower
    ("peak_rss_mb", 1 / (1 + 0.15)),  # change may use 15% more memory
])
def test_gate_on_the_median_ratio(declared, name, worst):
    metrics, _ = declared
    ok = {other: [1.0] for other in metrics}

    def failures(median):
        # Two of three pairs at ``median``: the third cannot move it.
        return ab.gate(metrics, {**ok, name: [median, median, 0.1]})

    assert ab.floor(metrics[name]) == pytest.approx(worst)
    assert failures(worst + 1e-6) == []
    (failure,) = failures(worst - 1e-6)
    assert failure.startswith(name)
    # The gate reads the median, not the worst pair.
    assert ab.gate(metrics, {**ok, name: [1.0, 1.0, 0.1]}) == []


def test_ungated_metrics_never_fail_the_gate(declared):
    metrics, _ = declared
    ratios = {name: [1.0] for name in metrics}
    ratios["wall_s"] = ratios["setup_s"] = [0.1]
    assert ab.gate(metrics, ratios) == []


@pytest.mark.parametrize("side", ["base", "change"])
@pytest.mark.parametrize("outcome,message", [
    ((1, result_line(failed=1, **BASE)), "failed 1 of 4"),
    ((0, result_line(failed=2, **BASE)), "failed 2 of 4"),
    ((1, ""), "exited with code 1"),
    ((0, "no json here"), "printed no JSON result"),
    ((0, result_line(**{**BASE, "sim_kips": 0.0})), "sim_kips=0.0"),
])
def test_a_failing_side_is_named(declared, side, outcome, message):
    good = (0, result_line(**BASE))
    outputs = {"base": good, "change": good, side: outcome}
    with pytest.raises(ab.SideFailed, match=f"^{side} run .*{message}"):
        run(declared, outputs)


def test_report_prints_every_pair_and_the_spread(declared):
    metrics, _ = declared
    ratios = {name: [1.0, 1.1, 1.2] for name in metrics}
    out = io.StringIO()
    ab.report("sim-blocked", metrics, ratios, out=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(metrics)
    assert lines[0] == ("sim-blocked sim_kips (higher is better, bound "
                        "0.25): ratios 1.000 1.100 1.200 | median 1.100 "
                        "q1 1.000 q3 1.200")
