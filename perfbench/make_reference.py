"""Regenerate ``reference.json``: run every job any seed can select once
(six presets, 27 grid-2d amplitude sets, the certify jobs with each probe
seed) and store the numbers ``run.py`` compares against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; a change that moves
the outputs beyond roundoff must not regenerate it.
"""

import itertools
import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    work = run.OUT / "inputs"
    jobs = workloads.preset_jobs(work)
    for amplitudes in itertools.product(workloads.GRID_AMPLITUDES, repeat=3):
        jobs += workloads.grid_jobs(amplitudes, work)
    for seed in range(workloads.PROBE_SEEDS):
        jobs += [j for j in workloads.certify_jobs(seed) if j.name not in {k.name for k in jobs}]
    reference = {}
    for job in jobs:
        out = run.OUT / "reference" / job.name.replace(":", "_")
        code, payload = job.execute(out)
        if code != 0:
            print(f"{job.name}: exit code {code}", file=sys.stderr)
            return 1
        numbers, problems = job.observe(out, payload)
        if problems:
            print(f"{job.name}: {problems}", file=sys.stderr)
            return 1
        reference[job.name] = numbers
        print(f"{job.name}: {len(numbers)} numbers", file=sys.stderr)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
