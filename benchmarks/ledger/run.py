#!/usr/bin/env python3
"""Entry point of the performance ledger.

    python3 benchmarks/ledger/run.py --workload fig1_scan --seed 1 --seconds 8 --trace 0
    python3 benchmarks/ledger/run.py --all [--seed N]     # every workload, both modes
    python3 benchmarks/ledger/run.py --report             # out/LEDGER.md from the last runs

One invocation with ``--workload`` runs one workload in this process and
prints, as its last line, the JSON object the driver reads: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--all`` runs each workload in a fresh subprocess, once
per mode.  Everything written lands under ``benchmarks/ledger/out/``.
"""

import time

_ENTERED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    String hashing is salted per process, which reorders sets and dicts
    and moves timings by a percent or two from one process to the next;
    pinned, a seed's run does the same work every time.  The first
    entry's clock rides along so ``setup_s`` still starts there.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0", LEDGER_ENTERED=repr(_ENTERED))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _bootstrap() -> None:
    """Import the engine from *this* checkout, and ``ledger`` as a package."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("ledger: no engine at %s — the benchmark measures this checkout's src/repro" % src)
    # The script's own directory would shadow the stdlib's ``trace``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[0:0] = [src, os.path.dirname(HERE)]


def _print_result(result: dict, units: dict) -> None:
    print(
        "ledger workload=%s seed=%d trace=%d clients=%d requests_per_round=%d"
        % (result["workload"], result["seed"], result["trace"], result["clients"],
           result["requests_per_round"])
    )
    print(
        "  rounds attempted=%d failed=%d latency_samples=%d  per pass: %s"
        % (result["attempted"], result["failed"], result["samples"],
           ", ".join("%s %d @ %.2f ms" % (k, n, result["ms_per_round"][k])
                     for k, n in result["rounds"].items()))
    )
    for name, value in result["metrics"].items():
        print("  %-36s %14.4f %s" % (name, value, units[name]))
    for error in result["errors"]:
        print("  ERROR: " + error.replace("\n", "\n    "))


def run_one(args: argparse.Namespace) -> int:
    from ledger import check_manifest, harness

    try:
        manifest = check_manifest.load(ROOT)
    except check_manifest.ManifestError as exc:
        sys.exit(str(exc))
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        sys.exit("unknown workload %r" % args.workload)
    result = harness.run_workload(
        args.workload,
        args.seed,
        trace=bool(args.trace),
        out_dir=OUT,
        seconds=args.seconds if args.seconds is not None else manifest["run_seconds"],
        preamble_s=time.time() - float(os.environ.get("LEDGER_ENTERED", _ENTERED)),
    )
    check_manifest.check_emitted(manifest, bool(args.trace), result["metrics"])
    with open(os.path.join(OUT, "result_%s_trace%d.json" % (args.workload, args.trace)), "w") as handle:
        json.dump(result, handle, indent=1)
    units = {e["name"]: e["unit"] for e in manifest["end_to_end"] + manifest["per_layer"]}
    _print_result(result, units)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    from ledger import check_manifest

    manifest = check_manifest.load(ROOT)
    status = 0
    for workload in manifest["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds if args.seconds is not None else manifest["run_seconds"]),
                "--trace", str(trace),
            ]
            status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--report", action="store_true", help="write out/LEDGER.md")
    args = parser.parse_args()
    _bootstrap()
    if args.report:
        from ledger import report

        print(report.write(OUT))
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all, --report is required")
    _pin_hash_seed()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
