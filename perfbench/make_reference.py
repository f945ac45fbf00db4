"""Write census_reference.json: exact masses and ebits of the fixed binary targets.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from a checkout root.  The values come from entcost's exact census at
the commit that defined the benchmark, and every mass is cross-checked
against the benchmark's own census (reference.py) to 1e-12 before writing.
The exact-census workload compares later commits against this file.
"""

import json
from pathlib import Path

import numpy as np

import entcost as ec
import reference as ref

HERE = Path(__file__).resolve().parent
DELTA = 0.05
N_RANGE = range(1, 301)
TARGETS = {"p80": (0.8, 0.2), "p50": (0.5, 0.5)}


def main() -> None:
    out = {"delta": DELTA, "targets": {}}
    for key, probs in TARGETS.items():
        dist = ec.SourceDistribution(np.array(probs))
        spec = ec.Spectrum(np.array(probs))
        masses, ebits = [], []
        for n in N_RANGE:
            mass, _ = ec.weak_typical_census(dist, n, DELTA)
            check, _ = ref.census(probs, n, DELTA, "weak")
            if abs(mass - check) > 1e-12:
                raise SystemExit(f"{key} n={n}: census {mass!r} vs reference {check!r}")
            masses.append(mass)
            ebits.append(ec.pure_dilution(spec, DELTA, n).ebits)
        out["targets"][key] = {"probs": list(probs), "n": list(N_RANGE),
                               "mass": masses, "ebits": ebits}
    (HERE / "census_reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
