"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record.py [--workload study|transfer|ingest]

For each workload and every input variant this runs the workload's set-up
and one operation, and stores what the checks compare in
bench/references.json. Record again only when a change is meant to alter
the program's outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import OUT, REFERENCES, ROOT  # first: pins BLAS threads before numpy loads

_CHECKED = ("mean_r2", "averaged", "weights")


def record(name: str, variant: int) -> dict:
    import workloads

    work = OUT / f"record-{name}-{variant}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[name](work, variant, None)
        workload.setup()
        outcome = workload.op()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome.problems:
        raise RuntimeError(f"{name} variant {variant}: {outcome.problems}")
    if name == "ingest":
        return outcome.summary
    return {key: outcome.summary[key] for key in _CHECKED}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workload or sorted(workloads.WORKLOADS):
        recorded = {str(v): record(name, v) for v in range(workloads.VARIANTS)}
        references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        references[name] = recorded
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"recorded {name}: {len(recorded)} variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
