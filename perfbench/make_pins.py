"""Record pins.json: the results every benchmark run is checked against.

Run only at a commit whose results are known to be right.  The pins in
the repository were recorded with the package as it stood when the
benchmark was added, where every acceptance test passes:

    python3 perfbench/make_pins.py

It runs one untraced pass of every workload for each input variant, plus
one traced run of certify-n4 for the searches of its per-layer probe, with
every key recorded the first time it is seen.  A key seen again must
repeat its first value, so a nondeterministic result stops the recording.
"""

from __future__ import annotations

import json
import sys

from workloads import PINS_PATH, PROFILES, VARIANTS, WORKLOADS, Pins, run_workload

SEEDED = ("verify-large", "oracle-sweep")


def record(sizes) -> dict:
    pins = Pins({}, record=True)
    for name in WORKLOADS:
        for variant in (range(VARIANTS) if name in SEEDED else [0]):
            doc = run_workload(name, variant, 0, name not in SEEDED, sizes, pins)
            if doc["failed"]:
                raise SystemExit(f"{name} variant {variant}: {doc['failed']} failed ops")
        print(f"{sizes.name} {name}: {len(pins.values)} keys", file=sys.stderr)
    return dict(sorted(pins.values.items()))


def main() -> int:
    doc = {name: record(sizes) for name, sizes in PROFILES.items()}
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
