#!/usr/bin/env python3
"""Sensitivity self-test: a deliberately slowed kernel must be flagged.

    python3 perfbench/selftest.py [--seeds 3] [--seconds 20] [--workloads ...]

Runs each workload untraced on the default kernel backend and again with
D2STGNN_FORCE_BACKEND=scalar (the reference loops, several times slower
than AVX2 on matmul), alternating which side runs first, and compares the
medians of every end-to-end metric against the bounds in BENCHMARK.json.
It prints, per workload, which metrics moved beyond their bound and in
which direction, and exits non-zero unless goodput_per_s on train_table3
is flagged as a regression. Run from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds, scalar):
    env = dict(os.environ)
    env.pop("D2STGNN_FORCE_BACKEND", None)
    if scalar:
        env["D2STGNN_FORCE_BACKEND"] = "scalar"
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{out.stderr}")
    backend = next((l.split("backend=")[1].split()[0] for l in lines
                    if l.startswith("perfbench ") and "backend=" in l), "?")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} scalar={scalar}: "
                           f"incorrect run\n{out.stdout}")
    return backend, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    flagged = {}
    backends = set()
    for workload in workloads:
        base, slow = {}, {}
        for i in range(args.seeds):
            seed = 1000 + i
            order = [False, True] if i % 2 == 0 else [True, False]
            for scalar in order:
                backend, values = run(workload, seed, seconds, scalar)
                backends.add((scalar, backend))
                side = slow if scalar else base
                for name, value in values.items():
                    side.setdefault(name, []).append(value)
        print(f"\n{workload}: median default vs forced-scalar over "
              f"{args.seeds} seeds")
        moved = []
        for name, m in metrics.items():
            if name not in base or name not in slow:
                continue
            b = statistics.median(base[name])
            s = statistics.median(slow[name])
            change = (s - b) / b if b else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "within bound"
            if worse > m["bound"]:
                verdict = "REGRESSION"
                moved.append(f"{name} worse")
            elif -worse > m["bound"]:
                verdict = "improved"
                moved.append(f"{name} better")
            print(f"  {name:16s} {b:12.4f} -> {s:12.4f} {m['unit']:6s} "
                  f"{change:+7.1%} (bound {m['bound']:.2f}, "
                  f"{m['better']} is better): {verdict}")
        print(f"  moved: {', '.join(moved) if moved else 'nothing'}")
        flagged[workload] = moved

    print("\nbackends seen:", sorted(backends))
    if {b for scalar, b in backends if not scalar} == {"scalar"}:
        print("default backend is already scalar here: nothing to compare")
        return 0
    if "train_table3" in flagged:
        ok = "goodput_per_s worse" in flagged["train_table3"]
        print("train_table3 goodput_per_s flagged as a regression:",
              "yes" if ok else "NO")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
