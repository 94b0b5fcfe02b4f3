"""Record the benchmark's variants and reference outcomes; check parity.

Usage (from the repository root)::

    python3 campaignbench/record.py record --workload W
    python3 campaignbench/record.py parity

``record`` runs candidate campaigns ``0..CANDIDATES-1`` of a workload
(see ``workloads.candidate``) ``REPEAT`` times each, on the workload's
own backend, keeps the ``KEEP`` candidates whose mean run time (and, for
warm workloads, whose mean set-up time, which includes the map prefill)
lie closest to the medians, so that every seed costs about the same, and
writes them with every pair's outcome into ``reference.json``. Every
repetition of a candidate must produce the same outcomes.

``parity`` runs the first ``PARITY_VARIANTS`` recorded variants of
every workload on all three backends and reports any pair whose outcome
differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from campaignbench import workloads as wl  # noqa: E402
from campaignbench.run import run_rep  # noqa: E402

BACKENDS = ("threads", "processes", "distributed")
CANDIDATES = 24
REPEAT = 2
#: Variants kept per workload; ``--seed`` selects one modulo this.
KEEP = 8
PARITY_VARIANTS = 1


def _run(workload: str, variant: dict, work: Path, backend: str | None = None) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    variant_file = work / "variant.json"
    variant_file.write_text(json.dumps(variant))
    try:
        return run_rep(
            workload, str(variant_file), work / "rep", False, backend=backend
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record(workload: str) -> None:
    from repro.chem.generate import receptor_contains_mercury

    work = ROOT / ".campaignbench" / "record"
    runs = []
    for index in range(CANDIDATES):
        variant = wl.candidate(workload, index)
        reps = [_run(workload, variant, work) for _ in range(REPEAT)]
        observed = reps[0]["observed"]
        if any(rep["observed"] != observed for rep in reps[1:]):
            raise SystemExit(f"candidate {index}: outcomes differ between runs")
        for rec, lig in (
            (r, l) for l in variant["ligands"] for r in variant["receptors"]
        ):
            status = observed.get(wl.pair_key(rec, lig), {}).get("status")
            want = "BLOCKED" if receptor_contains_mercury(rec) else "FINISHED"
            if status != want:
                raise SystemExit(f"candidate {index}: {rec}|{lig} is {status}")
        tet = statistics.mean(rep["tet_s"] for rep in reps)
        setup = statistics.mean(rep["setup_s"] for rep in reps)
        print(
            f"{workload} candidate {index}: tet_s={tet:.3f} setup_s={setup:.3f}",
            flush=True,
        )
        runs.append((variant, observed, tet, setup))
    tet_mid = statistics.median(run[2] for run in runs)
    setup_mid = statistics.median(run[3] for run in runs)
    warm = wl.WORKLOADS[workload].warm

    def distance(run) -> float:
        far = abs(run[2] / tet_mid - 1)
        return far + abs(run[3] / setup_mid - 1) if warm else far

    kept = sorted(runs, key=distance)[:KEEP]
    kept.sort(key=lambda run: run[0]["candidate"])
    reference = wl.load_reference() if wl.REFERENCE_PATH.exists() else {}
    reference[workload] = {
        "variants": [
            {
                **variant,
                "recorded_tet_s": round(tet, 3),
                "recorded_setup_s": round(setup, 3),
                "expected": observed,
            }
            for variant, observed, tet, setup in kept
        ],
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"kept candidates {[run[0]['candidate'] for run in kept]}")


def parity() -> int:
    work = ROOT / ".campaignbench" / "parity"
    reference = wl.load_reference()
    mismatches = 0
    for workload in wl.WORKLOADS:
        for variant in reference[workload]["variants"][:PARITY_VARIANTS]:
            for backend in BACKENDS:
                rep = _run(workload, variant, work, backend=backend)
                bad = rep["mismatched"]
                mismatches += len(bad)
                print(
                    f"{workload} variant {variant['candidate']} on {backend}: "
                    f"{rep['pairs'] - len(bad)}/{rep['pairs']} pairs match"
                    + (f"; differ: {bad}" if bad else ""),
                    flush=True,
                )
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    sub.add_parser("parity")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.command == "record":
        record(args.workload)
        return 0
    return parity()


if __name__ == "__main__":
    sys.exit(main())
