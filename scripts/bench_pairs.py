#!/usr/bin/env python3
"""Runs alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload fleet_reload --seeds 801-810 --seconds 40 --trace 0

Each checkout's own, unmodified `perfbench/run.py` is run from that
checkout's root, once per seed and side. Pair i runs the parent first when i
is even and the change first when i is odd, so drift in the machine's load
falls on both sides alike. For every metric the result reports each side's
median and quartiles, how many pairs the change won (ties count for
neither), and a verdict:

  gain          ten or more pairs, the change won at least 9/10 of them,
                and its median is better than the parent's by more than
                the parent's interquartile range;
  worse         the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
  unresolved    the parent's interquartile range exceeds that bound, and not
                every change run beats every parent run;
  within bound  none of the above (no gain claimed, no regression shown);
  no gain       a metric without a bound that shows no gain.

The rule is the one for claiming a gain from ten or more pairs on a small,
shared machine. A run that exits non-zero or reports "correct": false is
listed and left out of the statistics. --json writes every run's metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'801-810' or '801,805,907' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def load_metric_specs(checkout, trace):
    """name -> {better, bound, unit} from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for entry in bench.get("end_to_end", []):
        specs[entry["name"]] = entry
    if trace:
        for entry in bench.get("per_layer", []):
            specs[entry["name"]] = entry
    return specs


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns (metrics dict or None, error text)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace",
               str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        reasons = [line.strip() for line in lines
                   if "INVALID" in line or "FAIL" in line]
        tail = reasons or (proc.stderr.strip().splitlines() + lines)[-5:]
        return None, f"exit {proc.returncode}: " + "; ".join(tail)
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if isinstance(entry, dict) and "value" in entry}, ""


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(pairs, spec):
    """Applies the gain/bound rules to [(parent, change)] of one metric."""
    lower_better = spec.get("better", "lower") == "lower"
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if (c < p if lower_better else c > p))
    gain = (p_med - c_med) if lower_better else (c_med - p_med)
    iqr = p_q3 - p_q1
    bound = spec.get("bound")
    if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gain > iqr:
        label = "gain"
    elif bound is not None and -gain > bound * abs(p_med):
        label = "worse"
    elif bound is not None and iqr > bound * abs(p_med) and not (
            (max(change) < min(parent)) if lower_better
            else (min(change) > max(parent))):
        label = "unresolved"
    else:
        label = "within bound" if bound is not None else "no gain"
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "wins": wins, "pairs": len(pairs), "verdict": label}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="e.g. 801-810 or 801,803,905")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    specs = load_metric_specs(sides["change"], args.trace)
    runs = []  # {"seed", "first", "parent": metrics, "change": metrics}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            metrics, error = run_once(sides[side], args.workload, seed,
                                      args.seconds, args.trace)
            run[side] = metrics
            if metrics is None:
                print(f"seed {seed} {side}: FAILED {error}", flush=True)
        runs.append(run)
        shown = [name for name in specs if name in (run["parent"] or {})]
        print(f"seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {run['parent'][name]:.4g}->"
            f"{(run['change'] or {}).get(name, float('nan')):.4g}"
            for name in shown[:6]), flush=True)

    ok = [r for r in runs if r["parent"] is not None and r["change"] is not None]
    print(f"\n{args.workload}: {len(ok)} complete pairs of {len(runs)} "
          f"(seeds {args.seeds}, {args.seconds:g} s, trace {args.trace})")
    print(f"{'metric':34} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'wins':>6}  verdict")
    summary = {}
    for name, spec in specs.items():
        pairs = [(r["parent"][name], r["change"][name]) for r in ok
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        row = verdict(pairs, spec)
        summary[name] = row
        parent_q, change_q = ("/".join(f"{v:.4g}" for v in row[side])
                              for side in ("parent", "change"))
        print(f"{name:34} {parent_q:>26} {change_q:>26} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=1)
    return 0 if len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
