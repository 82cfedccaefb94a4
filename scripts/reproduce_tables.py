#!/usr/bin/env python3
"""Re-run the Hydrogen-lattice sweeps and diff them against the bundled
reference tables.

By default the densest 3-D cell (side 4, exponent 1.00) is skipped: its
direct-mapping Hamiltonian holds tens of millions of Pauli factors and needs
far more memory than a typical workstation.  Pass --full to include it.

Every compared row gates the run.  A row passes as KNOWN only when its
failing columns are listed in the bundled ``reference/known.csv`` with the
values it still gives; see ``fermap.bench.compare_reference``.
"""

import argparse
import sys

from fermap.cli import main as fermap_main

EXPONENTS = "8.75,7.00,5.00,3.00,1.00"


def run(argv):
    print("$ fermap " + " ".join(argv), flush=True)
    return fermap_main(argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the densest 3-D cell")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    failures = 0
    common = ["--cutoff", "1e-7", "--jobs", str(args.jobs)]
    failures += run(["compare", "--dim", "1", "--sizes", "2,4,6,8,10",
                     "--exponents", EXPONENTS, *common])
    failures += run(["compare", "--dim", "2", "--sizes", "2,4",
                     "--exponents", EXPONENTS, *common])
    failures += run(["compare", "--dim", "3", "--sizes", "2,4",
                     "--exponents", "8.75,7.00,5.00,3.00", *common])
    d3_dense_sizes = "2,4" if args.full else "2"
    failures += run(["compare", "--dim", "3", "--sizes", d3_dense_sizes,
                     "--exponents", "1.00", *common])
    print(f"reproduce_tables: {'PASS' if failures == 0 else f'{failures} sweep(s) FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
