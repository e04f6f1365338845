#!/usr/bin/env python3
"""Smoke test of the fleet-campaign benchmark at its small (--smoke) sizes.

Runs every workload of BENCHMARK.json once untraced and once traced through
run.py and checks the output contract: the result line's keys, a correct
outcome, every declared metric with its unit, named steps covering at least
90% of the traced run on fleet_full and fleet_delta, and fleet_sharded
replaying fleet_full's campaign exactly. Run from the root of the checkout:

    python3 fleetbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    fingerprints = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            detail, result = run(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{tag}: incorrect")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared[trace], f"{tag}: metrics differ from BENCHMARK.json")
            if trace == 1 and workload in ("fleet_full", "fleet_delta"):
                share = result["metrics"]["sim.trace_named_share_pct"]["value"]
                expect(share >= 90.0, f"{tag}: named steps cover only {share:.1f}%")
            fingerprints.setdefault(workload, set()).add(detail["fingerprint"])
            print(f"ok {tag} fingerprint {detail['fingerprint']}")
    for workload, seen in fingerprints.items():
        expect(len(seen) == 1, f"{workload}: traced and untraced campaigns differ")
    if "fleet_sharded" in fingerprints:
        expect(fingerprints["fleet_sharded"] == fingerprints["fleet_full"],
               "fleet_sharded does not replay fleet_full")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"smoke test FAILED: {e}", file=sys.stderr)
        sys.exit(1)
