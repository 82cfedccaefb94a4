"""Command-line driver: lattice sweeps, integral-file transforms, bounds,
spectral verification, reference diffing, and the complete-graph scaling
probe."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import fcidump
from .bench import (
    SweepConfig,
    basis_label,
    compare_reference,
    diff_report_text,
    load_reference,
    run_sweep,
    rows_to_csv,
    rows_to_json,
)
from .fermion import classify_spatial, from_spatial_integrals
from .jw import jw_transform_terms
from .lattice import LatticeSpec, lattice_integrals
from .metrics import probe_scaling, report
from .oracle import sector_spectra_match
from .ortho import (
    canonical_orthogonalizer,
    rotate_integrals,
    symmetric_orthogonalizer,
)
from .molecules import (
    AE6_NAMES,
    load_geometry,
    minimal_orbitals_per_atom,
    molecule_bounds,
    published_bounds,
)
from .sampling import random_spatial_hamiltonian
from .superfast import build_interaction_graph, ose_transform_terms

DEFAULT_SIDES = {1: "2,4,6,8,10", 2: "2,4", 3: "2,4"}
DEFAULT_EXPONENTS = "8.75,7.00,5.00,3.00,1.00"


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _mappings(choice: str):
    return ("jw", "ose") if choice == "both" else (choice,)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    p.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated lattice side lengths (default depends on --dim)",
    )
    p.add_argument("--exponents", type=str, default=DEFAULT_EXPONENTS)
    p.add_argument("--cutoff", type=float, default=1e-7)
    p.add_argument("--rotation", choices=("aos", "aoc"), default="aos")
    p.add_argument("--mapping", choices=("jw", "ose", "both"), default="both")
    p.add_argument("--spacing", type=float, default=1.0, help="lattice spacing in Angstrom")
    p.add_argument("--jobs", type=int, default=1)


def _sweep_config(args) -> SweepConfig:
    sides = _int_list(args.sizes if args.sizes else DEFAULT_SIDES[args.dim])
    return SweepConfig(
        dimension=args.dim,
        sizes=tuple(sides),
        exponents=tuple(_float_list(args.exponents)),
        cutoff=args.cutoff,
        rotation=args.rotation,
        mappings=_mappings(args.mapping),
        spacing=args.spacing,
        output_format=getattr(args, "format", "csv"),
        jobs=args.jobs,
    )


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    rows = run_sweep(cfg)
    text = rows_to_csv(rows) if cfg.output_format == "csv" else rows_to_json(rows)
    _emit(text, args.out)
    return 0 if all(r.error is None for r in rows) else 1


def cmd_transform(args) -> int:
    data = fcidump.load(args.integrals)
    terms = classify_spatial(data.one_body, data.eri, cutoff=args.cutoff)
    num_modes = 2 * data.num_orbitals
    eps = max(args.cutoff, 0.0)
    reports = []
    if "jw" in _mappings(args.mapping):
        op = jw_transform_terms(terms, num_modes, constant=data.constant, eps=eps)
        reports.append(report(op, "jw"))
    if "ose" in _mappings(args.mapping):
        graph = build_interaction_graph(terms, num_modes)
        op = ose_transform_terms(terms, graph, constant=data.constant, eps=eps)
        reports.append(report(op, "ose"))
    rows = [asdict(r) for r in reports]
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(rows[0]) if rows else [], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, args.out)
    return 0


def cmd_bounds(args) -> int:
    names = args.molecules.split(",") if args.molecules else list(AE6_NAMES)
    published = {b.molecule: b for b in published_bounds()}
    lines = [
        f"{'molecule':>12}  {'atoms':>5} {'spatial':>7}  "
        f"{'Q_L':>5} {'Q_U':>5} {'Q_JW':>5}  {'refQ_L':>6} {'refQ_U':>6} {'refQ_JW':>7}"
    ]
    for name in names:
        geometry = load_geometry(name)
        per_atom = minimal_orbitals_per_atom(geometry)
        q_l, q_u, q_jw = molecule_bounds(name)
        ref = published.get(name.lower())
        ref_cols = (
            f"{ref.q_l:>6} {ref.q_u:>6} {ref.q_jw:>7}" if ref else f"{'-':>6} {'-':>6} {'-':>7}"
        )
        lines.append(
            f"{name:>12}  {len(per_atom):>5} {sum(per_atom):>7}  "
            f"{q_l:>5} {q_u:>5} {q_jw:>5}  {ref_cols}"
        )
    lines.append(
        "note: the reported lower-bound column matches the within-atom "
        "edge-count formula only for SiO; other rows are informational."
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    failures = 0
    lines = []
    if args.dim is not None:
        sides = _int_list(args.sizes if args.sizes else "2")
        for exponent in _float_list(args.exponents):
            for side in sides:
                spec = LatticeSpec(args.dim, side, exponent, args.spacing)
                raw = lattice_integrals(spec)
                ortho = (
                    symmetric_orthogonalizer(raw.overlap)
                    if args.rotation == "aos"
                    else canonical_orthogonalizer(raw.overlap)
                )
                h1, eri, constant = rotate_integrals(raw, ortho)
                h = from_spatial_integrals(h1, eri, constant)
                ancilla = h.num_modes - 1 if args.ancilla else None
                dev = sector_spectra_match(
                    h, cutoff=args.cutoff, parity_ancilla_mode=ancilla
                )
                ok = dev < args.tolerance
                failures += not ok
                lines.append(
                    f"lattice d{args.dim} n{side} a{basis_label(exponent)}"
                    f"{' +ancilla' if args.ancilla else ''}: "
                    f"deviation {dev:.3e} {'ok' if ok else 'FAIL'}"
                )
    for seed in range(args.random):
        h = random_spatial_hamiltonian(2, seed + args.seed)
        dev = sector_spectra_match(h)
        ok = dev < args.tolerance
        failures += not ok
        lines.append(f"random 2-orbital seed {seed + args.seed}: deviation {dev:.3e} {'ok' if ok else 'FAIL'}")
    lines.append(f"verify: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def cmd_compare(args) -> int:
    cfg = _sweep_config(args)
    rows = run_sweep(cfg)
    bases = [basis_label(e) for e in cfg.exponents]
    if args.reference:
        reference = load_reference(cfg.dimension, bases, base=Path(args.reference))
    else:
        reference = load_reference(cfg.dimension, bases)
    diff = compare_reference(rows, reference, weight_rtol=args.weight_tol)
    _emit(diff_report_text(diff), args.out)
    return 0 if diff.passed else 1


def cmd_probe(args) -> int:
    modes = _int_list(args.modes)
    samples, fits = probe_scaling(modes)
    lines = [
        f"{'M':>4} {'qubits':>7} {'terms':>8} {'total_wt':>10} {'max_wt':>7} {'jw_total':>9}"
    ]
    for s in samples:
        lines.append(
            f"{s['num_modes']:>4} {s['qubits']:>7} {s['term_count']:>8} "
            f"{s['total_weight']:>10} {s['max_weight']:>7} {s['jw_total_weight']:>9}"
        )
    lines.append(f"encoded max-weight linear fit R^2: {fits['max_weight_r2']:.4f}")
    lines.append(f"encoded total-weight log-log slope: {fits['total_weight_slope']:.3f}")
    lines.append(f"direct total-weight log-log slope: {fits['jw_total_weight_slope']:.3f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermap",
        description="Fermion-to-qubit mapping resource estimation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Hydrogen-lattice sweep")
    _add_sweep_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transform", help="transform an integral file to qubit reports")
    p.add_argument("integrals", type=str, help="FCIDUMP-style integral file")
    p.add_argument("--cutoff", type=float, default=1e-7)
    p.add_argument("--mapping", choices=("jw", "ose", "both"), default="both")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("bounds", help="qubit bounds for the bundled molecules")
    p.add_argument("--molecules", type=str, default=None, help="comma-separated subset")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="spectral equivalence oracle on small inputs")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--sizes", type=str, default=None)
    p.add_argument("--exponents", type=str, default=DEFAULT_EXPONENTS)
    p.add_argument("--cutoff", type=float, default=0.0)
    p.add_argument("--rotation", choices=("aos", "aoc"), default="aos")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--ancilla", action="store_true", help="attach a parity ancilla mode")
    p.add_argument("--random", type=int, default=0, help="number of random 2-orbital checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="diff a sweep against the bundled reference tables")
    _add_sweep_args(p)
    p.add_argument("--reference", type=str, default=None, help="alternate data directory")
    p.add_argument("--weight-tol", type=float, default=0.10)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("probe", help="complete-graph worst-case scaling probe")
    p.add_argument("--modes", type=str, default="4,6,8,10,12,14")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
