"""Pin the expected result rows of every workload at the default seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload's slice once, untimed and untraced, and writes its
rows to ``expected/<workload>.json``. ``run.py`` scores ``case_ok_frac``
against these rows when it runs the default seed. Re-pin only for a
change that is meant to alter results.
"""

import json
import sys

import run

#: The seed whose rows are pinned (``CampaignConfig.base_seed``'s default).
DEFAULT_SEED = 0

run.require_program()
import workloads  # noqa: E402

run.EXPECTED_DIR.mkdir(exist_ok=True)
for name in sys.argv[1:] or workloads.NAMES:
    result = run.run_pass(workloads.build(name, DEFAULT_SEED), clock=None)
    path = run.EXPECTED_DIR / f"{name}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "rows": result.rows}, indent=1) + "\n")
    print(f"{name}: {len(result.rows)} rows -> {path}")
