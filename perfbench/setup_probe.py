"""Cold set-up probe: in a fresh interpreter, time importing trdlab and
building one workload's configs and initial fields. Prints
``{"setup_s": ...}`` as its last line; ``run.py`` starts it several times
and reports the median as ``setup_s``."""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import trdlab.cli  # noqa: F401  (everything the trdlab command imports)
    import workloads

    workloads.build_inputs(args.workload, args.seed, ROOT / ".perfbench_out" / "inputs")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
