#!/usr/bin/env python3
"""Regenerate ``expected_digests.json``: the canonical-output digest of every
query in the default-seed query list of each workload.

Usage, from the root of a checkout:

    python3 benchmarks/record_digests.py [WORKLOAD...]

Each output is first checked against the workload's independent oracle;
nothing is written if any check fails.  Run this only when a change is meant
to alter the query lists or the outputs.
"""

from __future__ import annotations

import json
import random
import sys

from run import DEFAULT_SEED, DIGESTS, Outputs, import_library, run_pass, scratch_dir
from workloads import WORKLOADS


def record(name):
    workload = WORKLOADS[name]
    lib = import_library()
    queries = workload.make_queries(lib, random.Random(DEFAULT_SEED))
    outputs = Outputs(workload)
    with scratch_dir() as tmpdir:
        ctx = workload.prepare(lib, queries, tmpdir)
        run_pass(workload, lib, workload.start_pass(lib, ctx), queries, outputs)
    failed = outputs.verify(None)
    if failed:
        raise SystemExit(f"{name}: {failed} of {outputs.attempted} outputs fail "
                         "their oracle; digests not written")
    return outputs.digests


def main(argv):
    names = argv or sorted(WORKLOADS)
    with open(DIGESTS) as fh:
        doc = json.load(fh)
    doc["seed"] = DEFAULT_SEED
    for name in names:
        doc["workloads"][name] = record(name)
        print(f"{name}: {len(doc['workloads'][name])} digests")
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
