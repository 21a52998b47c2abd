"""Benchmark entry point: one workload of rsvlm per process.

    python3 perfbench/run.py --workload {caption,vqa} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Human-readable `name value unit` lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: every end-to-end metric with `--trace 0`, every per-layer
metric with `--trace 1` (a layer whose binding is gone reads 0 and is
listed as absent). A traced run also writes its spans to
`perfbench/out/trace-<workload>-<seed>.json`.
"""

import os

# Single-threaded numerics, as the package promises: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("caption", "vqa"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsvlm" / "__init__.py").is_file():
        print(f"error: no rsvlm sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.points = harness.points(tracer)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        res = harness.WORKLOADS[args.workload](args.seed, args.seconds, tracer, Path(work))

    metrics = res.metrics
    if args.trace:
        metrics, absent = harness.layer_metrics(tracer)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "end_to_end_traced": res.metrics, "per_layer": metrics, "absent": absent,
            "notes": res.notes,
        })
        for name in absent:
            print(f"{name} absent")
    for problem in res.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"notes {json.dumps(res.notes)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
