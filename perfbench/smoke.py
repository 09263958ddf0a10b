"""Smoke test of the benchmark at its tiny input size.

Usage: python3 perfbench/smoke.py

It runs run.py on every workload of BENCHMARK.json, untraced and traced, and
asserts that the result line is correct and carries exactly the metrics that
BENCHMARK.json names, each with its unit, and that each layer reports work
on the workloads that exercise it.  It runs the one-command table
(--workload all) and checks that it prints every end-to-end metric and
failed_frac for every workload.  Last, it runs the benchmark in a directory
that holds only BENCHMARK.json and perfbench/, where it must exit nonzero
without printing a result.  Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metrics that must be nonzero on the workload that exercises them
EXERCISED = {
    "search8-grid": (
        "family8.improper_witnesses.self_s", "family8.diag_forms.calls",
        "poly.substitute.calls", "poly.new.count", "search.search8_seeded.self_s",
        "search.hit_ratio", "cli.main.self_s",
    ),
    "search5-cayley": (
        "cayley.cayley.calls", "matrices.mat_inverse.calls", "matrices.rescale_primitive.calls",
        "matrices.mat_mul.calls", "verify.verify.calls", "search.search5_cayley.self_s",
        "cli.main.self_s",
    ),
    "certify": (
        "family8.enumerate_w1.self_s", "family8.w1_checker.calls",
        "family8.four_parameter_family.calls", "matrices.rescale_primitive.calls",
        "matrices.mat_mul.calls", "verify.verify.calls", "verify.euler_magic_ratio",
    ),
}


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "1",
         "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            code, lines = bench(ROOT, "--workload", workload, "--trace", str(trace),
                                "--size", "tiny")
            assert code == 0, (workload, trace, code)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1 + trace
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == units[trace], (workload, trace, sorted(set(got) ^ set(units[trace])))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
                assert any(line.startswith(f"# {workload} {name} = ")
                           and f" {metric['unit']} (" in line for line in lines), (workload, name)
            if trace:
                for name in EXERCISED[workload]:
                    assert result["metrics"][name]["value"] > 0, (workload, name)
            print(f"smoke: {workload} trace={trace} ok", flush=True)

    code, lines = bench(ROOT, "--workload", "all", "--size", "tiny")
    assert code == 0 and json.loads(lines[-1])["correct"], code
    for workload in workloads:
        for name, unit in units[0].items():
            assert any(line.startswith(f"# {workload} {name} = ") and f" {unit} (" in line
                       for line in lines), (workload, name)
        assert any(line.startswith(f"# {workload} failed_frac = 0.0 ratio") for line in lines)
    print("smoke: all ok", flush=True)

    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(bare, "--workload", workloads[0], "--trace", "0")
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("smoke: bare checkout fails without a result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
