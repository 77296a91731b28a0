"""Pin the report digests of the default seed.

    python3 perfbench/pin_digests.py

Runs one pass of every workload at the default seed, and writes the
sha256 of each task's report to digests.json only if the oracle accepts
every report.  Run it when a change to the program is meant to change a
report; the benchmark then fails any run whose report differs.
"""

from __future__ import annotations

import json
import sys

import calibrate
import oracle
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    pinned = {}
    for workload in workloads.WORKLOADS:
        workdir = run.WORK / f"{workload}-{run.DEFAULT_SEED}"
        _, _, files, tasks = run.setup(workload, run.DEFAULT_SEED, workdir)
        passes = run.run_passes(tasks, workdir, 0,
                                calibrate.Calibration())
        _, failed, messages = run.judge(passes, oracle.Oracle(files))
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        pinned[workload] = {o.task["id"]: oracle.digest(o.text)
                            for o in passes[0]}
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
