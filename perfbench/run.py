"""Repo benchmark: three seeded workloads through the public ``repro`` API.

Run from the repository root::

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics, with item times normalized to the reference host's full speed
by a probe timed between items (``bench_host.py``); ``--trace 1`` times the same items (or their first part) with
spans around every layer's entry points and prints the per-layer
metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_host
import bench_loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; removed when the run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where the traced run writes its spans, one file per workload.
SPANS_DIR = ROOT / ".perfbench_out"
READY = "perfbench-setup-ready"
#: Fresh-process set-ups measured per timed run, half before and half
#: after the timed phase so that they see the host at two moments;
#: setup_s is their median.
SETUP_SAMPLES = 6
#: Timed runs are cut into at most this many segments of at least
#: SEGMENT_ITEMS items, so each segment's p95 has 10 samples beyond it.
SEGMENTS = 5
SEGMENT_ITEMS = 200

#: Environment that would change which path the program takes.
SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_TRACE_FILE", "REPRO_RACE_CHECK",
                "REPRO_SIM_ENGINE")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*bench_loads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few items per workload, for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result document here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values: list, q: int) -> float:
    """The q-th percentile, linearly interpolated between closest ranks
    (``statistics.quantiles(..., method="inclusive")``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def declared(kind: str, values: dict) -> dict:
    """``values`` as the metrics BENCHMARK.json declares under ``kind``,
    in its order and with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def segment(lat: list) -> list[list]:
    """Per-item latencies cut into consecutive segments of at least
    ``SEGMENT_ITEMS`` items (at most ``SEGMENTS``).

    Throughput and percentiles are taken per segment and the median
    across segments is reported, so a host stall during part of the run
    moves the result less than it would move a whole-run figure.
    """
    count = max(1, min(SEGMENTS, len(lat) // SEGMENT_ITEMS))
    size = len(lat) // count
    return [lat[i * size:(i + 1) * size if i < count - 1 else len(lat)]
            for i in range(count)]


# ---------------------------------------------------------------------------
# set-up


def setup(args, workload):
    """Import the program and generate the items; returns the items and
    the two timings."""
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    import repro.api
    import repro.engine
    if workload.name == "service-mix":
        import repro.client
        import repro.service  # noqa: F401
    t1 = time.perf_counter()

    items = workload.generate(args.seed, workload.items(args.seconds, args.smoke))
    t2 = time.perf_counter()
    return items, {"import_s": t1 - t0, "generate_s": t2 - t1}


def setup_probe(args, workload) -> int:
    """Child mode: set up exactly as a timed run does, report, tear down."""
    root = Path(tempfile.mkdtemp(prefix="probe-"))
    try:
        items, _ = setup(args, workload)
        with workload.session(root):
            print(READY, len(items), flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


def measure_setup(args, samples: int) -> list[float]:
    """Process start to ready-for-the-first-item, in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        ready = None
        try:
            for line in child.stdout:
                if line.startswith(READY):
                    ready = time.perf_counter() - t0
                    break
            _, err = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0 or ready is None:
            raise RuntimeError(f"set-up probe failed ({child.returncode}):\n{err}")
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# modes


def timed_run(args, workload, root: Path) -> dict:
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup_times = measure_setup(args, (samples + 1) // 2)
    items, _ = setup(args, workload)
    keep = workload.sample(args.seed, len(items), args.smoke)
    host = bench_host.HostSpeed()
    with workload.session(root) as session:
        phase = workload.run(session, items, keep, host=host)
        # The checks below build their own clusters and engines; the
        # peak is read before them.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines = workload.check(session, items, phase)
    errors = workload.guard(items, phase)
    setup_times += measure_setup(args, samples // 2)
    factors = host.factors(phase.items)
    alpha = workload.host_exponent
    segments = segment([lat / f ** alpha
                        for lat, f in zip(phase.latencies, factors)])
    metrics = declared("end_to_end", {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(len(lat) / sum(lat) for lat in segments),
        "latency_p50_ms": statistics.median(
            1e3 * statistics.median(lat) for lat in segments),
        "latency_p95_ms": statistics.median(
            1e3 * percentile(lat, 95) for lat in segments),
        "peak_rss_mb": peak_rss_mb,
    })
    beyond = sum(sum(1 for x in lat if x > percentile(lat, 95)) for lat in segments)
    raw = phase.latencies
    notes = [
        f"setup_s: median of {len(setup_times)} fresh-process set-ups "
        + " ".join(f"{t:.3f}" for t in setup_times),
        f"items: {phase.items} in {phase.wall:.3f} s of wall time; "
        f"{len(segments)} segments of {len(segments[0])}+ latency samples, "
        f"{beyond} samples beyond their segment's p95",
        f"as timed on this host, before normalization: "
        f"{len(raw) / sum(raw):.6g} items/s, p50 "
        f"{1e3 * statistics.median(raw):.6g} ms, p95 "
        f"{1e3 * percentile(raw, 95):.6g} ms (whole run)",
        f"{host.summary()}; mean host factor "
        f"{statistics.fmean(factors):.4f}, applied to the power {alpha}",
        *lines,
        f"digest {workload.name} seed={args.seed} items={phase.items} "
        f"sha256={phase.digest}",
    ]
    return _result(phase.items, phase.failed, errors, metrics, notes)


def traced_run(args, workload, root: Path) -> dict:
    import bench_layers
    import bench_spans

    items, setup_times = setup(args, workload)
    items = items[:workload.trace_items]
    keep = workload.sample(args.seed, len(items), args.smoke)
    tracer = bench_spans.Tracer()
    t0 = time.perf_counter()
    with workload.session(root) as session:
        setup_times["warmup_s"] = time.perf_counter() - t0
        try:
            tracer.install()
            phase = workload.run(session, items, keep, tracer=tracer)
        finally:
            tracer.uninstall()
        journal = sum(p.stat().st_size for p in session.cache_root.glob("*.jsonl"))
        lines = workload.check(session, items, phase)
    errors = workload.guard(items, phase)
    spans_path = SPANS_DIR / f"spans-{workload.name}.jsonl"
    tracer.write(spans_path)

    values, split = bench_layers.per_layer(
        tracer, phase, bench_spans.span_cost(), setup_times, journal)
    metrics = declared("per_layer", values)
    if workload.name == "sim-sweep" and values["simulator.runs"] != phase.items:
        errors.append(f"simulator.runs {values['simulator.runs']} "
                      f"!= {phase.items} items")
    notes = [
        f"traced {phase.items} items in {phase.wall:.3f} s "
        f"({phase.items / phase.wall:.6g} items/s; compare items_per_s of "
        f"--trace 0); {len(tracer.spans)} spans written to "
        f"{spans_path.relative_to(ROOT)}",
        "layer split (% of item time): "
        + " ".join(f"{k}={v:.1f}" for k, v in split.items()),
        *lines,
        f"digest {workload.name} seed={args.seed} items={phase.items} "
        f"sha256={phase.digest}",
    ]
    if tracer.missing:
        notes.append("trace targets not found: " + ", ".join(tracer.missing))
    return _result(phase.items, phase.failed, errors, metrics, notes)


def run_all(args) -> int:
    """Every workload in a fresh interpreter of its own; one verdict.

    Prints each workload's report, then one JSON line whose metrics are
    named ``<workload>/<metric>``.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench_loads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        *report, last = proc.stdout.strip().splitlines() or [""]
        if proc.returncode not in (0, 1) or not last.startswith("{"):
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = m
    if args.out is not None:
        args.out.write_text(json.dumps(combined, indent=2) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _result(attempted: int, failed, errors: list, metrics: dict,
            notes: list) -> dict:
    for error in errors:
        notes.append(f"COVERAGE GUARD FAILED: {error}")
    return {
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
        "notes": notes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    # One CPU for the process, its service threads and its set-up
    # probes: the workloads are single-process and GIL-bound, and on a
    # shared host this keeps steal on the other CPU and cross-CPU thread
    # wake-ups out of the figures.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    TMP_ROOT.mkdir(exist_ok=True)
    # Everything this process or its children write stays in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(TMP_ROOT)
    workload = bench_loads.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(args, workload)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    try:
        result = (traced_run if args.trace else timed_run)(args, workload, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    mode = "traced" if args.trace else "timed"
    print(f"perfbench {args.workload} seed={args.seed} mode={mode} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"  {note}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
