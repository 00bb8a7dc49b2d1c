"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <tmpdir>

Times ``import gfgm`` and then the build of the workload's inputs through
public constructors, and prints {"import_s": ..., "build_s": ...}.
"""

import json
import sys
import time

import provenance

START = time.perf_counter()
provenance.import_checked_gfgm()
IMPORTED = time.perf_counter()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
BUILT = time.perf_counter()
print(json.dumps({"import_s": IMPORTED - START, "build_s": BUILT - IMPORTED}))
