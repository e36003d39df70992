"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def _digest_line(lines):
    return next(line for line in lines if "outputs digest" in line)


def test_every_workload_untraced_and_traced():
    import workloads
    code, lines = _run("--workload", "all", "--smoke", "--seconds", "0")
    assert code == 0, lines
    table = "\n".join(lines)
    for name in workloads.WORKLOADS:
        for metric in ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90",
                       "peak_rss_mib", "failed_ratio", "trace_overhead",
                       "centralizers.brute.cold_s", "trace.unattributed_s"):
            assert f"{name:<13} {metric} " in table, (name, metric)


def test_result_line_and_seed_independence():
    results = {}
    for seed in ("1", "2"):
        code, lines = _run("--workload", "cli_large", "--smoke", "--seed", seed,
                           "--seconds", "0", "--trace", "0")
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50",
                                          "op_ms_p90", "peak_rss_mib"}
        results[seed] = (result["attempted"], _digest_line(lines).split(" passes")[1])
    assert results["1"] == results["2"]


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, lines = _run("--workload", "sweep_oracle", "--smoke", "--seconds", "0",
                       "--trace", "1")
    assert code == 0, lines
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["centralizers.nullspace.calls"] == {"value": 342, "unit": "count"}
    assert metrics["blades.blade_product.calls"]["value"] > 0
    assert metrics["blades.blade_product.self_s"]["value"] > 0
    assert metrics["multivector.mul.self_s"]["value"] > 0


def test_seeded_order_keeps_groups_whole():
    import workloads
    ops = workloads.WORKLOADS["sweep_closed"].ops(smoke=True)
    ordered = workloads.seeded_order(ops, 7)
    assert sorted(map(id, ordered)) == sorted(map(id, ops))
    assert ordered != ops
    seen = []
    for op in ordered:
        if not seen or seen[-1] != op.group:
            assert op.group not in seen
            seen.append(op.group)


def test_tracer_restores_every_patch():
    import tracer
    from cliffcent import centralizers, cli, multivector, subspaces
    before = (centralizers.verify_case, cli.main, cli.json,
              multivector.Multivector.__mul__, subspaces.Subspace.__post_init__,
              multivector.blade_product)
    t = tracer.Tracer()
    t.install()
    assert centralizers.verify_case is not before[0]
    t.restore()
    t.install_leaf_timers()
    assert multivector.blade_product is not before[5]
    t.restore()
    after = (centralizers.verify_case, cli.main, cli.json,
             multivector.Multivector.__mul__, subspaces.Subspace.__post_init__,
             multivector.blade_product)
    assert all(a is b for a, b in zip(before, after))


def test_wrong_digest_fails_exactly_its_group():
    import run
    import workloads
    workload = workloads.WORKLOADS["sweep_oracle"]
    ops = workloads.seeded_order(workload.ops(smoke=True), 0)
    expected = run.load_expected("smoke/sweep_oracle")
    assert run.measure(workload, ops, 0, expected)["failed"] == 0
    group = ops[-1].group
    tampered = dict(expected, **{group: "0" * 16})
    done = run.measure(workload, ops, 0, tampered)
    in_group = {i for i, op in enumerate(ops) if op.group == group}
    assert 0 < len(in_group) < len(ops)
    assert done["passes"] == 1
    assert done["failed_ops"] == in_group
    assert done["failed"] == len(in_group)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run("--workload", "sweep_oracle", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
