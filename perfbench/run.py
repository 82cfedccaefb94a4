#!/usr/bin/env python3
"""fermap benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload dense-2d --seed 0 --seconds 25 --trace 0

Workloads: ``dense-2d``, ``sparse-3d`` and ``small-cells`` (see harness.py for
why each is there).  The loop is closed, with one caller in one process;
only ``small-cells`` adds the sweep's own process pool (``jobs=2``).

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: import, reference-table load, input generation and warm-up,
  the median over several fresh processes;
- ``run_s``: the mean wall time of one pass over the workload's operations,
  passes repeated until ``--seconds`` have gone by (the median and the pass
  count are printed next to it);
- ``peak_rss_mb``: peak RSS of the measuring process over its first pass,
  plus ``jobs`` times the largest pool worker's peak (an upper bound when
  workers exist).

``error_rate`` (failed / attempted operations) is printed by name and carried
by ``attempted`` and ``failed``; it is not a metric because it is 0 on a
correct program.  ``--trace 1`` runs the layer functions one by one with a
span around each call and reports the per-layer metrics; spans go to
``.perfbench/``.  The last line of standard output is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("dense-2d", "sparse-3d", "small-cells")
#: Set-up is timed in this many fresh processes, plus the measuring one.
SETUP_SAMPLES = 6
#: A run must end within 180 s; leave room for start-up and output.
TIME_LIMIT_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("run", "setup", "measure"), default="run", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- child processes ---------------------------------------------------------


def _setup(args):
    """Import fermap from this checkout, load tables, make inputs, warm up."""
    sys.path.insert(0, str(SRC))
    import fermap
    import harness

    if Path(fermap.__file__).resolve().parent != SRC / "fermap":
        raise SystemExit(f"fermap imported from {fermap.__file__}, not from {SRC}")
    workload = harness.WORKLOADS[args.workload]
    inputs = harness.make_inputs(workload, args.seed)
    harness.warm_up()
    return harness, workload, inputs, time.perf_counter() - _START


def _measure(args, harness, workload, inputs, setup_s):
    checks = harness.Checks()
    passes = []
    start = time.perf_counter()
    while True:
        result = harness.run_pass(workload, inputs)
        passes.append(result.seconds)
        if len(passes) == 1:
            # Peak of one pass from a fresh process, as a CLI run sees it; later
            # passes can add allocator fragmentation (+20 MB on some dense-2d runs).
            maxrss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            maxrss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        harness.check_pass(result, inputs, checks)
        del result
        if time.perf_counter() - start >= args.seconds:
            break
    return {
        "setup_s": setup_s,
        "passes": passes,
        "jobs": max((cfg.jobs for cfg in workload.sweeps), default=0),
        "maxrss_self_mb": maxrss_self,
        "maxrss_children_mb": maxrss_children,
        **_checks_record(checks),
    }


def _trace(args, harness, workload, inputs):
    tracer = harness.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    checks = harness.Checks()
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(
            harness.trace_iteration(workload, inputs, tracer, checks, traced_first=len(iterations) % 2 == 0)
        )
        if time.perf_counter() - start >= args.seconds:
            break
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    return {
        "iterations": len(iterations),
        "layers": {
            name: {"value": value, "unit": harness.UNITS[name], "declared": name in harness.PER_LAYER}
            for name, value in harness.layer_metrics(iterations, checks).items()
        },
        "rss_steps_mb": harness.rss_steps(iterations[0])[:5],
        "spans_file": str(spans_path.relative_to(ROOT)),
        **_checks_record(checks),
    }


def _checks_record(checks):
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "known": checks.known,
        "seed_match": checks.seed_match,
    }


def child_main(args) -> int:
    harness, workload, inputs, setup_s = _setup(args)
    if args.phase == "setup":
        record = {"setup_s": setup_s}
    elif args.trace:
        record = _trace(args, harness, workload, inputs)
    else:
        record = _measure(args, harness, workload, inputs, setup_s)
    print(json.dumps(record), flush=True)
    return 0


# --- launcher ------------------------------------------------------------------


def _child(args, phase: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase,
    ]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FERMAP_DATA_DIR")}
    env["PYTHONPATH"] = str(SRC)
    # Its own process group, so a timeout also ends the sweep's pool workers.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """The checked-out commit when this is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the program and benchmark sources, which names the code even
    when the checkout is not a git work tree."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "loadavg_start": list(os.getloadavg()),
    }


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _print_checks(record):
    for label, reason in record["known"].items():
        print(f"KNOWN {label}: {reason}")
    for failure in record["failures"]:
        print(f"FAIL {failure}")
    matched = sum(record["seed_match"].values())
    print(f"check outputs_match_seed {matched}/{len(record['seed_match'])}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else float("nan")
    print(f"error_rate {rate!r} ratio ({record['failed']} failed / {record['attempted']} attempted)")


def launcher_main(args) -> int:
    if not (SRC / "fermap" / "__init__.py").is_file():
        print(f"error: no fermap sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = environment()
    setup_samples = []
    if not args.trace:
        setup_samples = [_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    record = _child(args, "measure", deadline)
    env["loadavg_end"] = list(os.getloadavg())

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        "inputs: lattice cells are fixed by the paper's tables and do not depend on the seed; "
        "the seed drives the random oracle Hamiltonians and the random FCIDUMP file"
    )
    _print_checks(record)
    if args.trace:
        metrics = {}
        for name, m in record["layers"].items():
            print(f"{name} {m['value']!r} {m['unit']}")
            if m["declared"]:
                metrics[name] = {"value": m["value"], "unit": m["unit"]}
        selfs = {n[: -len(".self_s")]: m["value"] for n, m in record["layers"].items() if n.endswith(".self_s")}
        total = sum(selfs.values())
        shares = ", ".join(f"{n} {v / total:.1%}" for n, v in sorted(selfs.items(), key=lambda kv: -kv[1]))
        print(f"self-time shares of the traced iteration: {shares}")
        steps = ", ".join(f"{name} +{mb:.1f} MB" for name, mb in record["rss_steps_mb"])
        print(f"peak RSS steps up in (first iteration): {steps}")
        print(f"trace iterations {record['iterations']}, spans in {record['spans_file']}")
    else:
        passes = record["passes"]
        setup_samples.append(record["setup_s"])
        peak = record["maxrss_self_mb"] + record["jobs"] * record["maxrss_children_mb"]
        metrics = {
            "setup_s": {"value": median(setup_samples), "unit": "s"},
            "run_s": {"value": mean(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        print(f"setup_s {median(setup_samples)!r} s (median of {len(setup_samples)} processes)")
        tail = _tail(passes)
        tail_text = (
            f"p{tail[0]:.0f} {tail[1]!r} s" if tail else "no percentile has 10 samples beyond it"
        )
        print(f"run_s {mean(passes)!r} s (mean of {len(passes)} passes; median {median(passes)!r} s; {tail_text})")
        print(
            f"peak_rss_mb {peak!r} MB (own {record['maxrss_self_mb']:.1f} MB"
            + (f" + {record['jobs']} x largest worker {record['maxrss_children_mb']:.1f} MB)" if record["jobs"] else ")")
        )
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(
        json.dumps({"env": env, "setup_samples": setup_samples, **record, "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8",
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase != "run":
        return child_main(args)
    return launcher_main(args)


if __name__ == "__main__":
    sys.exit(main())
