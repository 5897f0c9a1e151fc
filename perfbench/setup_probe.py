"""Time one workload's set-up in a fresh interpreter (one ``setup_s`` sample).

    python3 perfbench/setup_probe.py --workload NAME --seed N --scratch DIR [--smoke]

Prints ``{"import_s": ..., "setup_s": ...}``: the time to import repro
(with every module the workload uses), and that plus building the
workload's geometry, rates, model and runner or scheduler — everything
up to the first timed trial.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    start = time.perf_counter()
    import scenarios

    imported = time.perf_counter() - start
    workload = scenarios.WORKLOADS[args.workload](
        args.seed, args.smoke, Path(args.scratch)
    )
    workload.setup()
    total = time.perf_counter() - start
    workload.close()
    print(json.dumps({"import_s": imported, "setup_s": total}))


if __name__ == "__main__":
    main()
