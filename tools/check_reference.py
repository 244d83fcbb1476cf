"""Check every benchmark job at the default seed against bench/reference.json.

Run from the repository root:

    python3 tools/check_reference.py

Runs each job of every workload in bench/workloads.py once, with the same
import, job list and output digest as bench/run.py, and exits 1 if a job
raises, breaks one of the guarantees it checks, or hashes its outputs to
a digest other than the recorded one.  The jobs write their files into
a temporary directory of the run's own, so two checks can run at once.
``bench/run.py --seconds 0`` does not replace it: a run stops after its
first 100 jobs, which leaves out part of the census and table job lists.
"""

from __future__ import annotations

import json
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (bench/run.py)


def main():
    sys.path.insert(0, str(run.SRC))
    scg = run.import_scg()
    with tempfile.TemporaryDirectory() as workdir:
        return check(scg, Path(workdir))


def check(scg, workdir):
    reference = json.loads(run.REFERENCE.read_text())
    failed = 0
    for name, (make, job) in run.WORKLOADS.items():
        jobs = make(scg, run.DEFAULT_SEED, workdir)
        recorded = reference[name]
        if len(recorded) != len(jobs):
            print(f"{name}: {len(jobs)} jobs, {len(recorded)} recorded",
                  file=sys.stderr)
            failed += 1
        for idx, spec in enumerate(jobs):
            try:
                outputs, problems = job(scg, spec)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                if idx < len(recorded) and run.digest(outputs) != recorded[idx]:
                    problems.append("output digest differs from reference.json")
            if problems:
                print(f"{name} job {idx}: {'; '.join(problems)}",
                      file=sys.stderr)
                failed += 1
        print(f"{name}: {len(jobs)} jobs checked", file=sys.stderr)
    print(f"{failed} failures" if failed else "every job matches",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
