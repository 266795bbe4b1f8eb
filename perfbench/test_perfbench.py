"""The benchmark's own tests: `python3 -m pytest perfbench`.

They run a handful of the smallest tasks in-process, so they take seconds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import loop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_tasks(seed=1, per_workload=3):
    """The `per_workload` smallest modules of each workload's list for `seed`."""
    tasks = []
    for workload in workloads.WORKLOADS:
        listed = workloads.generate(workload, seed)
        listed.sort(key=lambda t: workloads.weyl_dim(*workloads.module_of(t)[:2]))
        tasks += listed[:per_workload]
    return tasks


@pytest.fixture(scope="module")
def untraced_and_traced():
    tasks = small_tasks()
    loop.run_tasks(tasks)  # loads what the tasks import lazily, so both passes below start alike
    untraced = loop.run_tasks(tasks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = loop.run_tasks(tasks, tracer)
    finally:
        tracer.uninstall()
    return tasks, untraced, traced, tracer


def test_traced_outputs_identical_to_untraced(untraced_and_traced):
    tasks, untraced, traced, _ = untraced_and_traced
    plain, traced = untraced["tasks"], traced["tasks"]
    assert [r["problem"] for r in plain] == [None] * len(tasks)
    assert [r["sha256"] for r in plain] == [r["sha256"] for r in traced]
    assert not run.find_problems([plain], traced, {})


def test_uninstall_restores_every_binding(untraced_and_traced):
    from projrep import action, cli, irreducibility
    from projrep.linalg import Matrix

    for fn in (action.operator_matrix, irreducibility.operator_matrix, cli.build_irreducible, cli.main):
        assert not hasattr(fn, "__wrapped__")
    assert not hasattr(Matrix.__matmul__, "__wrapped__")


def test_trace_accounts_for_the_traced_loop(untraced_and_traced):
    _, untraced, traced, tracer = untraced_and_traced
    assert tracer.check() == []
    metrics = tracer.metrics()
    self_s = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert min(self_s.values()) >= 0
    assert sum(self_s.values()) == pytest.approx(traced["loop_span_s"], rel=1e-9)
    # the benchmark's own share is small, and the projrep layers take about
    # what the untraced pass took, plus the tracing overhead
    bench = metrics[f"{spans.BENCH}.self_s"]
    assert bench < 0.2 * traced["loop_span_s"]
    program = sum(self_s.values()) - bench
    assert 0.5 * untraced["wall_raw_s"] < program < 3 * untraced["wall_raw_s"]
    for layer in ("glmodules.build_irreducible", "action.operator_matrix", "linalg.matmul",
                  "linalg.rank", "charident.tensor_projector", "irreducibility.up_submodule_rank", "cli.main"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert 0 < metrics["action.operator_matrix.assembled"] <= metrics["action.operator_matrix.calls"]
    assert metrics["linalg.matmul.madds"] > 0


def test_span_check_reports_broken_nesting():
    # span 1 ends after its parent; spans 1 and 2 together outlast span 0
    problems = spans.check([0, 0, 0], [0.0, 0.5, 0.1], [1.0, 1.5, 0.9], [-1, 0, 0])
    assert problems == ["span 1 lies outside its parent 0", "the children of span 0 cover more than its duration"]
    assert "span 1 ends before it starts" in spans.check([0, 0], [0.0, 0.5], [1.0, 0.4], [-1, 0])


def test_sample_outside_its_innermost_span_moves_to_the_enclosing_one():
    tracer = spans.Tracer()
    outer = tracer.open()
    inner = tracer.open("cli.main")
    tracer.close(inner, 1.0, 2.0)
    tracer.close(outer, 0.0, 3.0)
    # landed after `inner` was pushed but before its start was read
    tracer.add_samples([(0.5, 0.6, 0.0, inner), (1.5, 1.6, 0.0, inner)])
    assert list(tracer.parent[2:]) == [outer, inner]
    assert tracer.check() == []


def test_saved_spans_reload_to_the_same_metrics(untraced_and_traced, tmp_path):
    *_, tracer = untraced_and_traced
    tracer.save(tmp_path / "t.spans")
    header, arrays = spans.load(tmp_path / "t.spans")
    again = spans.layer_metrics(header["layers"], arrays["name"], arrays["start"], arrays["end"],
                                arrays["parent"], header["counts"])
    assert again == tracer.metrics()


def test_corrupted_reference_digest_is_a_failure(untraced_and_traced):
    records = untraced_and_traced[1]["tasks"]
    reference = {r["key"]: r["sha256"] for r in records}
    assert not run.find_problems([records], None, reference)
    reference[records[0]["key"]] = "0" * 64
    problems = run.find_problems([records], None, reference)
    assert [(key, why) for _, key, why in problems] == [(records[0]["key"], "output differs from the recorded digest")]


def test_failed_check_and_exception_are_failures():
    bad = ["decompose", "--json", "-k", "1", "-n", "2", "-a", "1", "-b", "1/0"]
    records = loop.run_tasks([bad])["tasks"]
    assert records[0]["problem"]
    assert workloads.check(["bracket", "-n", "1", "-a", "", "-b", "0", "-k", "1"], 0, "false")


def test_default_seed_outputs_have_recorded_digests():
    reference = json.loads(run.DIGESTS.read_text())
    for workload in workloads.WORKLOADS:
        for task in workloads.generate(workload, run.DEFAULT_SEED):
            assert (workloads.task_key(task) in reference) == workloads.has_digest(task), task


def test_hd_quantile():
    assert run.hd_quantile([0.25] * 7, 0.5) == pytest.approx(0.25)
    values = [i / 100 for i in range(101)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert run.hd_quantile(values, 0.9) == pytest.approx(0.9, abs=0.01)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**spans.metric_units(), "trace.overhead_s": "s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
