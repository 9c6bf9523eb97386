"""Record the reference outcome of every job of every workload's pool.

    python3 perfbench/record_reference.py SEED [SEED ...]

For each seed and workload, runs each job's construction command and
`verify` once through the CLI, checks them against the rules in
reference.json, and stores per command the digest of its sample values
and skeleton and the names of its failing verdicts (or that it was
refused) under "reports".  Run it only on a commit whose outputs are
accepted as correct: later runs of the benchmark with a recorded seed
count any departure from these records as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main(seeds: list[int]) -> int:
    run.reexec_with_hash_seed(__file__)
    run.import_package()
    import checks
    import workloads

    reference = checks.load_reference()
    os.makedirs(run.RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=run.RUN_DIR)
    try:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                records = {}
                for rnd in workloads.build_pool(workload, seed, tmp):
                    for job in rnd:
                        for res in checks.run_job(job, tmp, reference, {}):
                            if res.failed:
                                print(f"{workload} seed {seed} {job.id} "
                                      f"{res.command}: {res.problems}",
                                      file=sys.stderr)
                                return 1
                            records[f"{job.id}:{res.command}"] = checks.outcome(res)
                reference["reports"].setdefault(workload, {})[str(seed)] = records
                print(f"{workload} seed {seed}: {len(records)} commands")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        fh.write(_format(reference))
    return 0


def _format(reference: dict) -> str:
    """JSON with one line per recorded command."""
    rules = {k: v for k, v in reference.items() if k != "reports"}
    head = json.dumps(rules, indent=2, sort_keys=True)[:-2]
    lines = []
    for workload, seeds in sorted(reference["reports"].items()):
        seed_parts = []
        for seed, records in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            rows = ",\n".join(f"      {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                              for k, v in sorted(records.items()))
            seed_parts.append(f'    "{seed}": {{\n{rows}\n    }}')
        lines.append(f'  "{workload}": {{\n' + ",\n".join(seed_parts) + "\n  }")
    return head + ',\n"reports": {\n' + ",\n".join(lines) + "\n}\n}\n"


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
