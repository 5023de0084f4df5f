"""Record the pinned outcomes of every workload pool at the current commit.

Usage, from the root of a checkout:  python3 perfbench/pin.py

Each job runs once with the tracer installed.  Its outcome (see
``workloads.py``) and its rejection counts per rule are written with the
digest of the pool's inputs to ``pinned/<workload>.<pool>.json``, which every
later run checks against.  Re-pin only when a change is meant to alter what
the engine decides.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter

import run


def main() -> int:
    run.bootstrap()
    import workloads
    from tracing import Tracer
    rules: Counter[str] = Counter()
    for workload in run.WORKLOAD_NAMES:
        for pool in workloads.POOLS:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
                jobs, probe = run.build(workload, pool, workdir)
                tracer = Tracer()
                tracer.install()
                try:
                    results = [run.run_job(job, None, tracer) for job in jobs]
                finally:
                    tracer.uninstall()
            for r in results:
                if r.error is not None:
                    raise SystemExit(f"{workload}.{pool} {r.job.id}: {r.error}")
            rules.update(tracer.rejects)
            doc = {"input_sha256": workloads.input_digest(jobs + probe),
                   "jobs": {r.job.id: {"outcome": r.outcome, "rejects": r.rejects}
                            for r in results}}
            with open(run.pinned_path(workload, pool), "w") as handle:
                json.dump(doc, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"pinned {workload}.{pool}: {len(results)} jobs")
    print("rejection rules seen:", json.dumps(sorted(rules)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
