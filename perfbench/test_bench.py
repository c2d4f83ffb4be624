"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_and_seeded(name):
    build = workloads.GENERATORS[name]
    assert build(3) == build(3)
    assert build(workloads.DEFAULT_SEED) == build(workloads.DEFAULT_SEED)
    assert build(3) != build(4)
    assert workloads.case_count(build(3)) == workloads.case_count(build(4))


def test_seed_changes_the_cases():
    for name in ("motor_sweep", "closure_campaign"):
        build = workloads.GENERATORS[name]
        assert build(3)["parameters"] != build(4)["parameters"]
    assert workloads.motor_sweep(workloads.DEFAULT_SEED)["parameters"]["omega_r"] == \
        [float(v) for v in range(12, 24)]


@pytest.fixture(scope="module")
def motor_outputs(tmp_path_factory):
    """The default-seed motor sweep, written by the twistlab CLI."""
    from twistlab.runner import main
    tmp = tmp_path_factory.mktemp("motor")
    config = tmp / "config.json"
    config.write_text(json.dumps(workloads.motor_sweep(workloads.DEFAULT_SEED)))
    out = tmp / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--workers", str(workloads.WORKERS["motor_sweep"])]) == 0
    return out


def _flip_byte(path: Path, offset: int = 40) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_golden_outputs_match(motor_outputs):
    labels = [p.name for p in motor_outputs.iterdir() if p.is_dir()]
    assert len(labels) == 12
    assert golden.failed_labels(golden.hash_tree(motor_outputs),
                                golden.load("motor_sweep"), labels) == set()


@pytest.mark.parametrize("target, expected", [("wr16/trajectory.csv", {"wr16"}),
                                              ("bounds.csv", "all")])
def test_flipped_byte_in_golden_copy_fails(motor_outputs, tmp_path, target, expected):
    copy = tmp_path / "copy"
    shutil.copytree(motor_outputs, copy)
    _flip_byte(copy / target)
    labels = sorted(p.name for p in copy.iterdir() if p.is_dir())
    failed = golden.failed_labels(golden.hash_tree(copy), golden.load("motor_sweep"), labels)
    assert failed == (set(labels) if expected == "all" else expected)

    records = [{"label": label, "error": None, "converged": True, "amplitude": 0.0,
                "coarse_bound": 1.0} for label in labels]
    rep = {"records": records, "codes": [0], "hashes": golden.hash_tree(copy)}
    config = workloads.motor_sweep(workloads.DEFAULT_SEED)
    assert run.failed_cases("motor_sweep", config, rep, None,
                            golden.load("motor_sweep")) == len(failed)


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_appears_with_its_unit(trace, kind):
    proc = _bench("--workload", "closure_campaign", "--seed", "0", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared(kind)
    assert units == (run.PER_LAYER if trace == "1" else run.END_TO_END)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "motor_sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
