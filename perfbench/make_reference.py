"""Record the reference values of the default seed in reference.json.

    python3 perfbench/make_reference.py

Run it at the commit whose results later commits must reproduce: for every
input the default seed gives each workload, it stores the untraced and the
traced summaries that the benchmark compares against.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    from cemlogrank.errors import CemLogrankError
    from measure import Ledger, Tracer

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = HERE / "out" / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = cls(workloads.DEFAULT_SEED, workdir)
            wl.prepare()
            ledger = Ledger(CemLogrankError)
            entries = {}
            for i in range(workloads.CYCLE):
                key = wl.input_key(i)
                if key in entries:
                    continue
                summary = wl.observe(i, wl.op(i), ledger)
                traced, _, _ = wl.traced(i, Tracer())
                entries[key] = {**traced, **summary}
                print(name, key, flush=True)
            reference[name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
