"""Time one fresh interpreter from spawn to workload inputs built.

Invoked by ``run.py`` as ``setup_probe.py WORKLOAD SEED ORIGIN RATE``,
where ORIGIN is the parent's ``time.monotonic()`` just before the spawn
and RATE the committed reference rate. Prints one JSON line with the
set-up time at reference speed (``ref_s``) and on the host (``raw_s``).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402

workload, seed, origin, rate = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
clock = refclock.RefClock(rate)
clock.start(origin=origin)
sys.path.insert(0, str(Path.cwd() / "src"))
import workloads  # noqa: E402  (imports repro)

workloads.build(workload, seed)
clock.stop()
print(json.dumps({"ref_s": clock.ref_s, "raw_s": clock.raw_s}))
