"""A traced worker node: ``scidock worker`` with the benchmark's spans.

Usage: ``python -m campaignbench.node --trace-dir DIR <scidock worker args>``.
The node serves until the director shuts it down, then writes its spans
to ``DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import argparse
import os
import sys

from campaignbench.trace import Tracer, install


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    args, worker_args = parser.parse_known_args(argv)
    tracer = Tracer()
    install(tracer)
    from repro.workflow.worker import main as worker_main

    try:
        return worker_main(worker_args)
    finally:
        tracer.dump(os.path.join(args.trace_dir, f"spans-{tracer.pid}.json"))


if __name__ == "__main__":
    sys.exit(main())
