"""Repeat the benchmark over several seeds and summarise each end-to-end
metric: median, quartiles and the quartile spread as a share of the
median, next to the bound BENCHMARK.json fixes for it. Every workload of
BENCHMARK.json runs with its ``run_seconds``, tracing off, seeds 1, 2, ...

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process; runs of one workload go back to
back, workloads one after another. The output also records the machine
(CPU model, core count) and the library versions the numbers belong to.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    result["info"] = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    env = None
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(range(1, args.runs + 1))
        results = [run_once(workload, seed, seconds) for seed in seeds]
        env = results[0]["env"]
        names = list(results[0]["metrics"])
        stats = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            stats[name] = {**spread(values), "unit": results[0]["metrics"][name]["unit"], "values": values}
            s = stats[name]
            bound = bounds.get(name)
            print(
                f"{workload:11s} {name:30s} median {s['median']:.6g} {s['unit']:6s} "
                f"spread {s['spread']:.4f}" + (f"  bound {bound}" if bound is not None else ""),
                flush=True,
            )
        for name in results[0]["info"]:
            values = [r["info"][name] for r in results]
            stats[name] = {**spread(values), "values": values, "gated": False}
            print(f"{workload:11s} {name:30s} median {stats[name]['median']:.6g}        "
                  f"spread {stats[name]['spread']:.4f}  (not gated)", flush=True)
        summary["workloads"][workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": stats,
        }
        print(f"{workload:11s} correct in {sum(r['correct'] for r in results)}/{len(results)} runs", flush=True)
    summary["env"] = {**(env or {}), "cpu_model": cpu_model(), "os_cpu_count": os.cpu_count()}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
