"""One cold start of ces, timed by perfbench/run.py.

Imports numpy, scipy.optimize and the ces command line in that order, loads
the config named by argv[1] and builds its state: everything a ``ces``
command does before its first run-mode call.  Prints one JSON line with the
import times, then exits.  The parent takes the time from spawning this
process to reading that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402

t1 = time.perf_counter()
import scipy.optimize  # noqa: E402,F401

t2 = time.perf_counter()
import ces.cli  # noqa: E402,F401
from ces.config import load_config  # noqa: E402
from ces.protocol import final_state  # noqa: E402

t3 = time.perf_counter()
cfg = load_config(sys.argv[1])
final_state(cfg.noise, cfg.dt_us)
print(json.dumps({"ces_file": ces.__file__, "import_numpy_s": t1 - t0,
                  "import_scipy_s": t2 - t1, "import_ces_s": t3 - t2}), flush=True)
