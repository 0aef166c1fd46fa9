"""Measure the calibration kernel's rate on this host.

    python3 perfbench/calibrate.py [--seconds 60]

Prints the median kernel rate (iterations per second) over probes spread
across the run, and the SHA-256 of ``refclock.py``. Committing both to
``calibration.json`` makes this host's speed the reference speed.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402

parser = argparse.ArgumentParser(description="Measure the calibration kernel's rate.")
parser.add_argument("--seconds", type=float, default=60.0)
args = parser.parse_args()
rates = []
deadline = time.monotonic() + args.seconds
while time.monotonic() < deadline:
    start = time.monotonic()
    refclock.calibration_kernel()
    rates.append(refclock.ITERATIONS / (time.monotonic() - start))
print(
    json.dumps(
        {
            "reference_rate": round(refclock.median(rates), 1),
            "refclock_sha256": hashlib.sha256((HERE / "refclock.py").read_bytes()).hexdigest(),
            "probes": len(rates),
        }
    )
)
