"""Set-up helper run in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SIM_SEED [LABEL ...]

Imports the stack the workloads use and plans the six paper runs.
Each ``LABEL`` (``escat_A`` ... ``prism_C``) is then resolved through
``plan_run(...).fetch_or_run()`` into the run cache named by
``REPRO_CACHE_DIR``.  Without labels this is the cold-start probe
that ``common.import_setup_s`` times.
"""

import sys

from repro.experiments import cache, escat_tables, prism_tables, runner  # noqa: F401
from repro.pablo import sddf  # noqa: F401

seed = int(sys.argv[1])
plans = {
    f"{kind}_{version}": runner.plan_run(kind, version, seed=seed)
    for kind in ("escat", "prism") for version in ("A", "B", "C")
}
for label in sys.argv[2:]:
    plans[label].fetch_or_run()
