"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {study,transfer,ingest} --seed N --seconds S --trace {0,1}

Set-up runs first and is timed on its own. Operations then run back to back
while the next one, judged by the length of the last, ends within S seconds
(at least one operation, and with --trace 1 at least one traced). With --trace 0
the result holds the end-to-end metrics; with --trace 1 untraced and traced
operations alternate and the result holds the per-layer metrics. Every
operation's outputs are checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the machine record, each metric with its unit and sample count, and
failed_ratio with its base. Full results (and the spans of a traced run) are
written under .bench_out/ at the root of the checkout.

BLAS is pinned to one thread before numpy loads: on a 2-core machine
OpenBLAS's second thread otherwise burns CPU beside the interpreter and
widens the run-to-run spread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["study", "transfer", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads(np) -> int | None:
    """OpenBLAS's own thread count, asked through its bundled library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(ROOT),
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "glp" / "__init__.py").is_file():
        print(f"bench: no glp package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import layers
    import workloads
    from tracing import Tracer, instrument

    variant = args.seed % workloads.VARIANTS
    reference = load_references().get(args.workload, {}).get(str(variant))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](work, variant, reference)
    tracer = Tracer() if args.trace else None
    outcomes, traced = [], []
    try:
        setup_times = workload.setup()
        started = time.perf_counter()
        while True:
            op_started = time.perf_counter()
            trace_this = bool(args.trace) and len(outcomes) % 2 == 1
            if trace_this:
                tracer.run_id = len(outcomes)
                with instrument(tracer):
                    outcome = workload.op(tracer.span)
                tracer.counts.update(outcome.layer_counts)
            else:
                outcome = workload.op()
            outcomes.append(outcome)
            traced.append(trace_this)
            # stop before an operation that, as long as the last one, would end past the deadline
            now = time.perf_counter()
            if now - started + (now - op_started) > args.seconds and (not args.trace or any(traced)):
                break
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [o for o, t in zip(outcomes, traced) if not t]
    walls = [o.wall for o in untraced]
    cpus = [o.cpu for o in untraced]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if reference is None:
        problems.append(f"no stored reference for {args.workload} variant {variant}")

    if args.trace:
        traced_walls = [o.wall for o, t in zip(outcomes, traced) if t]
        values = layers.per_layer(tracer, traced_walls, walls, cpus)
        samples = {
            name: (value, layers.PER_LAYER[name][0], f"{len(traced_walls)} traced ops")
            for name, value in values.items()
        }
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {
            # a run holds 3-5 operations and the host's speed drifts rather than
            # spikes, so the mean uses every measured second and spreads less
            "wall_s": (statistics.fmean(walls), "s", f"mean of {len(walls)} ops"),
            "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
            "peak_rss_mb": (peak_mib, "MiB", "process high-water, 1 sample"),
        }

    machine = machine_record(np)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(
        f"workload: {args.workload}, seed {args.seed} -> input variant {variant}; "
        f"closed loop, 1 caller; {len(untraced)} untraced + {sum(traced)} traced ops "
        f"in {elapsed:.1f} s; op walls {[round(o.wall, 3) for o in outcomes]}; "
        f"run.cpu_s {statistics.median(cpus):.3f} (median per untraced op)"
    )
    for name, (value, unit, basis) in samples.items():
        print(f"  {name} = {value:.6g} {unit} ({basis})")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6f} (base: {workload.base})")
    for line in workload.defects(outcomes):
        print(f"  {line}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in samples.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "machine": machine, "workload": args.workload, "seed": args.seed, "variant": variant,
        "seconds": args.seconds, "setup_times": setup_times, "problems": problems,
        "samples": {name: {"value": v, "unit": u, "basis": b} for name, (v, u, b) in samples.items()},
        "ops": [{"wall": o.wall, "cpu": o.cpu, "traced": t, "attempted": o.attempted,
                 "failed": o.failed, "summary": o.summary} for o, t in zip(outcomes, traced)],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
