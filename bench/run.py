"""Benchmark entry point.

    python3 bench/run.py --workload solve --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src/``; without it the run stops with exit code 2. Results,
spans and the sweep's CSV go to ``.bench_out/`` under the current
directory. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when an
output check fails.
"""

import os

# BLAS and midscribe must be single-threaded before numpy is first imported:
# the benchmark measures the program on one core, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS", "MIDSCRIBE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = ".bench_out"


def _import_package():
    """Put the checkout's src/ first and make sure midscribe comes from it."""
    if not (SRC_DIR / "midscribe" / "__init__.py").is_file():
        print("bench: no midscribe sources under %s" % SRC_DIR, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import midscribe
    if Path(midscribe.__file__).resolve().parent != SRC_DIR / "midscribe":
        print("bench: midscribe imported from %s, not from %s"
              % (midscribe.__file__, SRC_DIR), file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "verify-packings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             args.trace, OUT_DIR)
    except harness.BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    harness.print_summary(result)
    results_dir = Path(OUT_DIR) / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / ("%s-%d-trace%d.json" % (args.workload, args.seed,
                                            args.trace))).write_text(
        json.dumps(result, indent=1, default=str))
    print(harness.report_line(result))
    return 1 if result["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
