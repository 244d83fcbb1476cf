"""Record the reference output digest of every job at the default seed.

Run from the repository root:

    python3 bench/record_reference.py

The benchmark compares each job's outputs at the default seed with
bench/reference.json.  Re-record only when the program's outputs are meant
to change; a change that should keep outputs identical must pass against
the recorded file.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, digest


def main():
    sys.path.insert(0, str(run.SRC))
    run.WORKDIR.mkdir(exist_ok=True)
    scg = run.import_scg()
    reference = {}
    for name, (make, job) in WORKLOADS.items():
        digests = []
        for idx, spec in enumerate(make(scg, run.DEFAULT_SEED, run.WORKDIR)):
            outputs, problems = job(scg, spec)
            if problems:
                print(f"{name} job {idx}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests.append(digest(outputs))
        reference[name] = digests
        print(f"{name}: {len(digests)} jobs", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
