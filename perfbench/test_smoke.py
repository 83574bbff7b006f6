"""Smoke test of the benchmark at its tiny size (under two minutes on 2 cores).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_tiny(monkeypatch, capsys, workload, trace):
    """run.main at the tiny size, in-process; returns (result, stdout)."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SIZE", "tiny")
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, out


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_predictions_cite_known_names():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        pred = json.load(fh)
    layer = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for p in pred["predictions"]:
        assert set(p["layer_metrics"]) <= layer, p["id"]
        assert set(p["moves"]) <= e2e, p["id"]
        for key in ("on", "unchanged_on", "small_on"):
            assert set(p.get(key, [])) <= set(WORKLOADS), p["id"]
    assert set(pred["zero_by_construction"]) <= layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace, monkeypatch, capsys):
    result, _ = run_tiny(monkeypatch, capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", ["bounds_short_block", "validity_oracles"])
def test_wrong_reference_counts_as_failure(workload, tmp_path, monkeypatch, capsys):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    values = ref["tiny"][workload]["values"]
    key = sorted(values)[0]
    value, se = values[key]
    values[key] = [value + 100 * se + 1.0, se]
    path = tmp_path / "wrong_reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    result, out = run_tiny(monkeypatch, capsys, workload, 0)
    assert not result["correct"]
    # The shifted value fails on every operation, and each operation counts once.
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"]["pass_ratio"]["value"] == 0
    assert f"# FAILED op0: ref/{key}" in out


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
