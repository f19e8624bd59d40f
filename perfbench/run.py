#!/usr/bin/env python3
"""hemoflow benchmark: time each workload, check its outputs, report metrics.

    python3 perfbench/run.py --workload run_default --seed 1234 --seconds 20
    python3 perfbench/run.py                    # every workload, one table
    python3 perfbench/run.py --workload estimate_res2 --trace 1
    python3 perfbench/run.py --workload synth_paper_slab --record

One process runs one workload: set-up (repeated, median reported), then
operations one at a time until ``--seconds`` of operation wall time has
passed, each checked against the recorded reference. ``--trace 1`` then
repeats the operations with spans around every mapped hemoflow function
and reports per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, environment and spans are written under ``perfbench-out/``.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import os
import sys

# BLAS threads, set before numpy loads; one is within any CPU cap. On 2
# CPUs a second thread made the default run 15% slower and its first
# operation erratic.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUTPUT = CHECKOUT / "perfbench-out"
WORKLOAD_NAMES = ("run_default", "synth_paper_slab", "estimate_res2")
SETUP_REPS = 2

END_TO_END = {"op_cpu_s": "s", "cpu_throughput": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"),
                                ("errors", "count"))}
PER_LAYER.update({
    "mri.synthesize.qk_pairs": "count",
    "mri.synthesize.qk_pairs_per_s": "1/s",
    "mri.synthesize.peak_alloc_mb": "MB",
    "hemodynamics.gradients.tet_frames_per_s": "1/s",
    "hemodynamics.gradients.peak_alloc_mb": "MB",
    "flowfields.flow_rate.cut_tets": "count",
    "flowfields.flow_rate.cut_tets_per_s": "1/s",
    "mesh.generate.tets_per_s": "1/s",
    "windkessel.simulate.steps_per_s": "1/s",
    "mri.io.bytes_written": "B",
    "mri.io.bytes_read": "B",
    "hemodynamics.export.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
})


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, inputs: dict) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "hemoflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": _git_commit(),
            "source_sha256": digest.hexdigest(),
            "nproc": NPROC, "blas_threads": BLAS_THREADS,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "inputs": inputs, "seconds": args.seconds,
            "trace": args.trace}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


# =========================================================================
# One workload
# =========================================================================

def measure(wl, state, work: Path, seconds: float, seen: dict, probe,
            tracer=None, first_op: int = 0):
    """Operations until ``seconds`` of operation wall time has passed.

    Returns wall seconds per operation, its CPU seconds (less the probe's),
    the host's speed over each, the failed operations with their
    messages, and the bytes the first operation wrote per kind.
    """
    from workloads import MissingReference
    walls, cpus, speeds, failed, messages, artifacts = [], [], [], [], [], None
    while not walls or sum(walls) < seconds:
        op = first_op + len(walls)
        out = work / f"op{op}"
        out.mkdir()
        mark = probe.mark()
        start = time.perf_counter()
        cpu = time.process_time()
        raised = None
        try:
            with tracer.op_span(op) if tracer else nullcontext():
                result = wl.run(state, out)
        except Exception as exc:
            raised = exc
        walls.append(time.perf_counter() - start)
        cpu = time.process_time() - cpu
        speed, probe_cpu = probe.since(mark)
        cpus.append(cpu - probe_cpu)
        speeds.append(speed)
        if raised is None:
            try:
                errors = wl.check(state, result, out, seen)
            except MissingReference:
                raise
            except Exception as exc:
                raised = exc
        if raised is not None:
            # a raising operation ends the measurement: later ones would
            # only repeat the failure
            traceback.print_exception(raised, file=sys.stderr)
            failed.append(op)
            messages.append(f"operation {op}: {type(raised).__name__}: "
                            f"{raised}")
            break
        if artifacts is None:
            artifacts = wl.artifact_bytes(out)
        if errors:
            failed.append(op)
            messages += [f"operation {op}: {e}" for e in errors]
        shutil.rmtree(out)
    return walls, cpus, speeds, failed, messages, artifacts


def layer_expectations(wl, tracer) -> tuple[set, list[str]]:
    """Traced operations that broke the workload's layer predictions."""
    bad_ops, messages = set(), [f"unresolved function {m}"
                                for m in tracer.missing]
    for op, layers in sorted(tracer.per_op_layers().items()):
        for layer in wl.expected_layers:
            if layers[layer]["calls"] == 0:
                bad_ops.add(op)
                messages.append(f"operation {op}: layer {layer} not called")
        for layer in wl.idle_layers:
            if layers[layer]["calls"] != 0:
                bad_ops.add(op)
                messages.append(f"operation {op}: layer {layer} called")
    if tracer.missing:
        bad_ops.update(tracer.per_op_layers())
    return bad_ops, messages


def run_one(args) -> int:
    from workloads import WORKLOADS, MissingReference
    wl = WORKLOADS[args.workload](args.seed)
    OUTPUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUTPUT))
    try:
        with calibrate.SpeedProbe() as probe:
            setups, setup_cpus = [], []
            for rep in range(SETUP_REPS):
                target = work / f"setup{rep}"
                target.mkdir()
                mark = probe.mark()
                start = time.perf_counter()
                cpu = time.process_time()
                state = wl.setup(target)
                setups.append(time.perf_counter() - start)
                cpu = time.process_time() - cpu
                speed, probe_cpu = probe.since(mark)
                setup_cpus.append((cpu - probe_cpu) * speed)
            seen: dict = {}
            walls, raw_cpus, speeds, failed, messages, artifacts = measure(
                wl, state, work, args.seconds, seen, probe)
            cpus = [c * v for c, v in zip(raw_cpus, speeds)]
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            traced_walls, traced_cpus, layers, counts = [], [], {}, {}
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced_walls, traced_cpus, _, t_failed, t_messages, _ = \
                        measure(wl, state, work, args.seconds, seen, probe,
                                tracer, first_op=len(walls))
                finally:
                    tracer.uninstall()
                bad_ops, expectation_messages = layer_expectations(wl, tracer)
                failed = sorted(set(failed) | set(t_failed) | bad_ops)
                messages += t_messages + expectation_messages
                all_layer = tracer.layer_metrics()
                # unscaled: tracemalloc slows the probe's kernel as well
                all_layer["trace.overhead_ratio"] = (
                    statistics.median(traced_cpus)
                    / statistics.median(raw_cpus))
                layers = {k: all_layer.get(k, 0) for k in PER_LAYER}
                counts = {k: v for k, v in all_layer.items()
                          if k not in PER_LAYER}
                tracer.dump(OUTPUT / f"trace_{wl.name}_seed{args.seed}.json")
    except MissingReference as exc:
        print(f"error: seed {args.seed} refused: {exc}; record the case "
              "with --record at a commit whose outputs are trusted",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    q1, median, q3 = _quartiles(walls)
    cq1, op_cpu, cq3 = _quartiles(cpus)
    e2e = {"op_cpu_s": op_cpu,
           "cpu_throughput": wl.work_done(state) / op_cpu,
           "setup_s": statistics.median(setup_cpus),
           "peak_rss_mb": peak_rss_mb}
    attempted = len(walls) + len(traced_walls)
    env = environment(args, wl.inputs())
    print(f"hemoflow benchmark: {wl.name} -- {wl.why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"  op_cpu_s         {op_cpu:.6g} s  (q1 {cq1:.6g}, q3 {cq3:.6g}, "
          f"n={len(cpus)} operations)")
    print(f"  cpu_throughput   {e2e['cpu_throughput']:.6g} 1/s  "
          f"({wl.unit_of_work} per CPU second)")
    print(f"  setup_s          {e2e['setup_s']:.6g} s  (CPU, median of "
          f"{len(setups)}; {statistics.median(setups):.6g} s wall)")
    print(f"  peak_rss_mb      {peak_rss_mb:.6g} MB")
    print(f"  wall_s           {median:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g}; "
          f"printed, not gated: it counts the time the host runs others)")
    print(f"  host_speed       {statistics.median(speeds):.6g}  (median "
          f"over the operations; 1 on the host that defined the benchmark)")
    print(f"  error_rate       {len(failed) / attempted:.6g}  "
          f"({len(failed)} of {attempted} operations failed or wrong)")
    if args.trace:
        print(f"  traced operations: {len(traced_walls)}, median "
              f"{statistics.median(traced_walls):.6g} s")
        for key in sorted(PER_LAYER, key=lambda k: (k.rsplit(".", 1)[0], k)):
            print(f"  {key:44s} {layers[key]:.6g} {PER_LAYER[key]}")
        for key, value in sorted(counts.items()):
            print(f"  {key:44s} {value:.6g} (computed)")
    for message in messages[:20]:
        print(f"  FAILED {message}")

    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    record = {"environment": env, "walls_s": walls, "cpu_s": raw_cpus,
              "host_speeds": speeds, "scaled_cpu_s": cpus,
              "setups_s": setups, "scaled_setup_cpu_s": setup_cpus,
              "traced_walls_s": traced_walls,
              "traced_cpu_s": traced_cpus,
              "end_to_end": e2e,
              "per_layer": layers, "computed_counts": counts,
              "artifact_bytes": artifacts, "failures": messages}
    (OUTPUT / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def record_references(args) -> int:
    """Run one operation per input case and store its outputs as reference."""
    from workloads import CASE_SEEDS, WORKLOADS
    OUTPUT.mkdir(exist_ok=True)
    for seed in CASE_SEEDS:
        wl = WORKLOADS[args.workload](seed)
        work = Path(tempfile.mkdtemp(prefix=f"record-{wl.name}-", dir=OUTPUT))
        try:
            state = wl.setup(work)
            out = work / "op"
            out.mkdir()
            wl.record(state, wl.run(state, out), out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {wl.name} case {wl.case} (seed {seed})")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print("\nworkload            metric" + " " * 38 + "value unit")
    for name, result in results.items():
        for key, metric in result["metrics"].items():
            print(f"{name:19s} {key:44s} {metric['value']:.6g} "
                  f"{metric['unit']}")
        print(f"{name:19s} {'error_rate':44s} "
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric
                    for name, r in results.items()
                    for key, metric in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="operation time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the outputs of every input case as the "
                             "reference instead of measuring")
    args = parser.parse_args(argv)

    if args.workload == "all":
        if args.record:
            parser.error("--record needs one --workload")
        return run_all(args)
    if not (SRC / "hemoflow" / "__init__.py").is_file():
        print(f"error: no hemoflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hemoflow
    if Path(hemoflow.__file__).resolve().parent != SRC / "hemoflow":
        print(f"error: imported hemoflow from {hemoflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.record:
        return record_references(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
