"""Benchmark for the bicameral package: fit, score, generate and lemma workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs each unit twice, untraced and then under the span
tracer in ``perfbench/tracer.py``, and reports the per-layer metrics
plus the tracer's overhead (traced minus untraced wall time).
``--workload all`` runs each workload in its own process and prints
every named metric of all four.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those listed in ``BENCHMARK.json``. A fuller report (named
metrics, reproducibility block, checks) goes to
``.perfbench/out/<workload>-seed<n>-trace<t>.json`` and, for traced runs,
every span to a ``.npz`` beside it.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit", "score", "generate", "lemma")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_package():
    """Put the checkout's ``src`` first on the path; refuse to run without it,
    so an installed copy of the package is never measured by mistake."""
    src = ROOT / "src"
    if not (src / "bicameral" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}/bicameral", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def reproducibility(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": int(BLAS_THREADS), "blas_threads_read": _blas_threads(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def setup_seconds(args) -> list[float]:
    """Process start to ready-for-the-first-operation, in fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed (exit {rc})")
        samples.append(elapsed)
    return samples


def _workdir(tag: str) -> Path:
    path = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def run_untraced(wl, work, args) -> tuple[dict, dict]:
    setup = setup_seconds(args)
    units = wl.run_units(work.step, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = work.check(units)
    named = work.metrics(units)
    generic = named.pop("generic")
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb, **generic}
    named = {"setup_s": ("s", {"n": len(setup), "p50": metrics["setup_s"]}),
             "peak_rss_mb": ("MB", metrics["peak_rss_mb"]), **named}
    extra = {"units": len(units)}
    if hasattr(work, "digest"):
        extra["greedy_digest"] = work.digest(units)
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}, {"named": named, **extra})


def run_traced(wl, work, args, out_stem: Path) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics
    tracer = Tracer()

    def timed(i: int, tag: str = "") -> dict:
        t0 = perf_counter()
        unit = work.step(i, tag=tag)
        unit["wall"] = perf_counter() - t0
        return unit

    def pair(i: int) -> dict:
        # each unit runs untraced and then traced, back to back, so that
        # drift in machine speed falls on both sides of the overhead alike
        plain = timed(i)
        tracer.install()
        try:
            return {"plain": plain, "traced": timed(i, tag="t")}
        finally:
            tracer.uninstall()

    pairs = wl.run_units(pair, seconds=args.seconds)
    plain = [p["plain"] for p in pairs]
    traced = [p["traced"] for p in pairs]
    attempted, failed = work.check(traced)
    same = work.same_outputs(plain, traced)
    untraced_s = sum(u["wall"] for u in plain)
    traced_s = sum(u["wall"] for u in traced)
    metrics = layer_metrics(tracer)
    metrics.update(work.layer_counts(tracer, traced))
    if hasattr(work, "prefix_mismatches"):
        metrics["doppelganger.prefix_mismatches"], metrics["doppelganger.prefix_checks"] = \
            work.prefix_mismatches(traced)
    metrics.update({"trace.units": len(traced), "trace.spans": len(tracer.start),
                    "trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s,
                    "trace.overhead_share": (traced_s - untraced_s) / untraced_s})
    tracer.save(out_stem.with_suffix(".spans.npz"))
    return ({"correct": failed == 0 and same, "attempted": attempted, "failed": failed,
             "metrics": metrics}, {"traced_equals_untraced": same})


def _format(value) -> str:
    if isinstance(value, dict):
        parts = [f"p50 {value['p50']:.4f}"]
        if "tail" in value:
            parts.append(f"p{value['tail']} {value['p' + str(value['tail'])]:.4f}")
        return ", ".join(parts) + f" (n={value['n']})"
    return f"{value:.4f}"


def run_one(args) -> int:
    wl = _import_package()
    spec = _load_spec()
    work_dir = _workdir(args.workload)
    try:
        if args.setup_only:
            wl.WORKLOADS[args.workload](args.seed, work_dir)
            print("ready", flush=True)
            return 0
        out_dir = ROOT / ".perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        work = wl.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            result, detail = run_traced(wl, work, args, stem)
            wanted = spec["per_layer"]
        else:
            result, detail = run_untraced(wl, work, args)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = result["metrics"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result["metrics"] = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                     "unit": m["unit"]} for m in wanted}
    report = {"reproducibility": reproducibility(args), **detail, **result}
    (stem.with_suffix(".json")).write_text(json.dumps(report, indent=1, default=str) + "\n",
                                           encoding="utf-8")

    print(f"# {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# " + json.dumps(report["reproducibility"]))
    for name, (unit, value) in detail.get("named", {}).items():
        print(f"{args.workload}.{name} = {_format(value)} {unit}")
    if args.trace:  # layers this workload does not reach read 0 and are left out
        for name, m in result["metrics"].items():
            if m["value"]:
                print(f"{args.workload} layer {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints what each one reports
    except its final JSON line, and fails if any workload did."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
