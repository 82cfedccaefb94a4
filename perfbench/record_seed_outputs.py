#!/usr/bin/env python3
"""Write seed_outputs.json: every benchmark cell's resource reports, as the
program computes them at the commit the benchmark was defined on.

    PYTHONPATH=src python3 perfbench/record_seed_outputs.py

The benchmark prints ``outputs_match_seed N/M`` against this file.  Rerun it
only to move the comparison point on purpose.
"""

import json
from dataclasses import asdict

from fermap.bench import run_cell

import harness


def main() -> None:
    cells = sorted(
        {c for w in harness.WORKLOADS.values() for c in w.all_cells},
        key=lambda c: (c.dimension, -c.exponent, c.side),
    )
    out = {}
    for cell in cells:
        row = run_cell(cell.dimension, cell.side, cell.exponent, cutoff=harness.CUTOFF)
        if row.error is not None:
            raise SystemExit(f"{cell.label}: {row.error}")
        for mapping, rep in (("jw", row.jw_report), ("ose", row.bksf_report)):
            fields = asdict(rep)
            out[f"{cell.label} {mapping}"] = {
                f: fields[f] for f in harness.EXACT_FIELDS + harness.L1_FIELDS
            }
        print(cell.label, flush=True)
    harness.SEED_OUTPUTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
