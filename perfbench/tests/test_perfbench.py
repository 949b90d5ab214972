"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from grat import attention, autodiff, objectives, training  # noqa: E402
from perfbench import harness, layers, speed, tracing, workloads  # noqa: E402
from perfbench import run as run_script  # noqa: E402
from perfbench.stats import covered, percentile, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def grat_attributes():
    """(owner, name) -> object for every attribute a traced run may replace."""
    owners = [m for name, m in sys.modules.items()
              if name == "grat" or name.startswith("grat.")]
    owners += [autodiff.Adam, autodiff.Tensor, training.TranslationModel]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def run(tmp_path, workload, trace, seconds=0.05):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return harness.run(workload, 3, seconds, trace, work, tmp_path / "spans.jsonl")


def test_traced_run_restores_every_attribute(tmp_path):
    before = grat_attributes()
    result = run(tmp_path, "generate-greedy", trace=True)
    after = grat_attributes()
    assert result["correct"] and result["failed"] == 0
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_install_wraps_every_import_site_and_uninstall_restores():
    encode, init = attention.encode, vars(autodiff.Tensor)["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert attention.encode is not encode
        assert training.encode is attention.encode
        assert objectives.encode is attention.encode
        assert vars(autodiff.Tensor)["__init__"] is not init
    finally:
        tracer.uninstall()
    assert attention.encode is encode and training.encode is encode
    assert objectives.encode is encode
    assert vars(autodiff.Tensor)["__init__"] is init


def test_untraced_run_replaces_nothing(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = grat_attributes()
    result = run(tmp_path, "property-eval", trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(grat_attributes()[key] is value for key, value in before.items())


def test_speed_probe_samples_and_ends():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert probe._process.returncode == 0
    assert len(probe.costs) >= 3 and all(c > 0 for c in probe.costs)
    assert probe.nominal(start, end) > 0


def test_nominal_time_scales_by_the_median_cost_of_a_widened_window():
    probe = speed.SpeedProbe()
    probe.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    nominal = speed.NOMINAL_S
    probe.costs = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 9.0, 2 * nominal]
    # samples 3..7 lie inside; their median ignores the outlier
    assert probe.nominal(2.5, 7.5) == pytest.approx(5.0 / 2)
    # no sample inside: the window widens to the five nearest
    assert probe.nominal(3.4, 3.6) == pytest.approx(0.2 / 2)


def test_traced_greedy_counts_the_prefix_re_decode(tmp_path):
    result = run(tmp_path, "generate-greedy", trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    nodes = workloads.GEN_NODES
    # one pass per step, the k-th decoding 2k+1 positions of which 2 are new
    assert metrics["decoder.forward_calls_per_graph"] == nodes + 1
    assert metrics["decoder.positions_per_graph"] == (nodes + 1) ** 2
    assert metrics["decoder.new_position_ratio"] == pytest.approx(
        (2 * nodes + 1) / (nodes + 1) ** 2)
    assert metrics["autodiff.backward_ms_per_step"] == 0
    assert metrics["decoder.l1.cross_ms"] > 0 and metrics["attention.l0.ln_ms"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["fields"] == list(tracing.SPAN_FIELDS)


def test_self_time_on_a_synthetic_tree():
    spans = [(-1, 0.0, 10.0),   # root
             (0, 1.0, 4.0),     # child
             (0, 5.0, 7.0),     # child
             (1, 2.0, 3.0),     # grandchild
             (-1, 20.0, 21.0)]  # second root, no children
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 1.0]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 50)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(tmp_path, name):
    cls = workloads.WORKLOADS[name]

    def digests(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        return [workloads.file_digest(p) for p in cls(work, seed).setup()]

    first = digests(5, "a")
    assert digests(5, "b") == first
    assert digests(6, "c")[0] != first[0]


def test_tape_size_counts_recorded_operations_only():
    x = autodiff.Tensor([1.0, 2.0], requires_grad=True)
    loss = autodiff.sum_(autodiff.add(autodiff.mul(x, 2.0), x))
    assert tracing.tape_size(loss) == 3


def test_trained_graphs_follows_epoch_batching():
    assert workloads.trained_graphs(13, 202, 16) == 202
    assert workloads.trained_graphs(24, 202, 16) == 378
    assert workloads.trained_graphs(26, 202, 16) == 404


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run_script.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    preset = training.PRESETS["desk"]
    names = layers.layer_metrics([], {}, [], {}, preset["encoder"]["layers"],
                                 preset["decoder"]["layers"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        list(names) + ["trace.overhead_ratio"]
    units = {name: unit for name, (_, unit) in names.items()}
    assert all(units[m["name"]] == m["unit"] for m in BENCHMARK["per_layer"][:-1])
    assert all(math.isclose(0, value) for value, _ in names.values())
