"""Set-up time of one workload in a fresh process.

Usage: python3 setup_probe.py <src dir> <workload> <workdir>

Times importing specconsist, make_config, get_kernel and the first warm-up
call into the workload's entry point, and prints the seconds as JSON. The
inputs in <workdir> were generated beforehand by run.py.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import specconsist as sc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[2]]
config = sc.make_config(*workload.config_args)
sc.get_kernel(config)
workload.warmup(Path(sys.argv[3]), config)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
