"""Benchmark harness for edk: end-to-end and per-layer metrics.

Run one workload from the repository root:

    python3 bench/run.py --workload bounds --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run of the same workload and seed that records spans around
calls into each ``edk`` module and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload all --out BENCH_x.json   # every workload
    python3 bench/run.py --compare BENCH_old.json BENCH_new.json
    python3 bench/run.py --selftest

The loop is closed: one op starts only after the previous one returned, in
one process and one thread.  A run repeats whole cycles of its workload's
ops until the ops have taken ``--seconds``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import BOUNDS_REFERENCE, WORKLOADS, Bounds  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10
# The reference kernel's time on this machine when it is quiet (2 shared
# vCPUs, Python 3.11): times scaled to it read as seconds on that machine.
REFERENCE_KERNEL_S = 0.0006
clock = time.perf_counter


def reference_kernel():
    """A fixed piece of interpreter work, like the edk matchers' inner loops
    (calls, list indexing, comparisons), that does not touch edk."""
    data = list(range(64))
    count = 0

    def at(i, j):
        return data[(i * j) & 63]

    for i in range(700):
        for j in range(8):
            if at(i, j) != j:
                count += 1
    return count


class SpeedMeter:
    """Times an op in pieces and scales each piece by the machine's speed.

    The machine is shared: the same op runs up to twice as slow for tens of
    seconds while neighbours are busy.  So the meter times the reference
    kernel at the start and end of an op and at each ``mark()`` in between,
    and scales each piece of the op by ``REFERENCE_KERNEL_S`` over the mean
    of the kernel times on either side of it.  The kernel runs outside the
    op's time.  ``stop`` returns the op's (wall seconds, scaled seconds);
    with ``scale`` false the scaled seconds are the wall seconds.
    """

    def __init__(self, scale):
        self.scale = scale
        self.kernel_times = []

    def _kernel(self):
        """One reading: the median of three kernel times, so that a single
        preemption does not scale a whole piece of an op."""
        times = []
        for _ in range(3):
            t0 = clock()
            reference_kernel()
            times.append(clock() - t0)
        seconds = statistics.median(times)
        self.kernel_times.append(seconds)
        return seconds

    def start(self):
        self.raw = self.scaled = 0.0
        self.kernel = self._kernel()
        self.t0 = clock()

    def mark(self):
        piece = clock() - self.t0
        kernel = self._kernel()
        self.raw += piece
        if self.scale:
            piece *= REFERENCE_KERNEL_S * 2 / (self.kernel + kernel)
        self.scaled += piece
        self.kernel = kernel
        self.t0 = clock()

    def stop(self):
        self.mark()
        return self.raw, self.scaled


class Op:
    __slots__ = ("index", "name", "latency", "wall", "error", "base")

    def __init__(self, index, name, wall, latency, error, base=None):
        self.index = index
        self.name = name
        self.wall = wall
        self.latency = latency  # scaled by the machine's speed, if the workload is
        self.error = error
        self.base = base  # wall seconds of the same op untraced, in a traced run


def import_edk():
    """Import edk from this checkout's ``src``, afresh each time."""
    for key in [k for k in sys.modules if k == "edk" or k.startswith("edk.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edk

    if not Path(edk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"edk imported from {edk.__file__}, not from {SRC}")
    return edk


def timed_setup(workload_cls, meter):
    """Import edk and build the workload ``SETUP_REPEATS`` times; the last
    build is the one measured.  Returns (workload, per-repeat scaled
    seconds, per-repeat wall seconds)."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        meter.start()
        edk = import_edk()
        workload = workload_cls()
        workload.setup(edk)
        raw, seconds = meter.stop()
        scaled.append(seconds)
        wall.append(raw)
    return workload, scaled, wall


def run_op(workload, spec, index, seed, meter):
    """One checked op; returns (wall seconds, scaled seconds, error message
    or None)."""
    meter.start()
    try:
        workload.run(spec, index, seed, meter.mark)
        error = None
    except Exception as exc:  # a failed op is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return (*meter.stop(), error)


def run_ops(workload, seed, seconds, meter, limit=None, tracer=None):
    """Closed loop over whole cycles until the ops have taken ``seconds`` of
    op time (or ``limit`` ops ran).  Returns (ops, wall seconds).

    Op time is scaled by the machine's speed where the workload is, so that
    a run does the same amount of work however busy the machine is: its op
    count, and with it the tail percentile, does not follow the load.

    With a tracer, each op also runs once untraced on the same inputs, just
    before or just after (alternating), as the base of the overhead ratio;
    ``seconds`` counts the traced runs only.
    """
    ops = []
    busy = 0.0
    start = clock()
    while True:
        for spec in workload.cycle:
            if limit is not None and len(ops) >= limit:
                return ops, clock() - start
            index = len(ops)
            if tracer is None:
                op = Op(index, spec[0], *run_op(workload, spec, index, seed, meter))
            else:
                tracer.op = index
                runs = {}
                for traced in (False, True) if index % 2 == 0 else (True, False):
                    tracer.enabled = traced
                    runs[traced] = run_op(workload, spec, index, seed, meter)
                op = Op(index, spec[0], *runs[True], base=runs[False][0])
            ops.append(op)
            busy += op.latency
        if busy >= seconds:
            return ops, clock() - start


def tail_percentile(latencies):
    """The highest whole percentile that still has ``TAIL_BEYOND`` ops above
    it (nearest rank), as (percentile, value).  With too few ops, the max."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return 100, lat[-1]
    q = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, lat[rank - 1]


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload_cls, seed, seconds, trace, limit=None):
    """One run of one workload; returns the result record."""
    workload, setup_times, setup_wall = timed_setup(workload_cls, SpeedMeter(scale=True))
    meter = SpeedMeter(workload_cls.scaled)
    meta = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "scaled": workload_cls.scaled,
        "setup_repeats_s": setup_times,
        "setup_repeats_wall_s": setup_wall,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            ops, wall = run_ops(workload, seed, seconds, meter, limit, tracer)
        finally:
            tracer.uninstall()
        op_busy = sum(o.wall for o in ops)
        values = layer_metrics(tracer.spans, op_busy)
        values["bench.trace_overhead"] = (op_busy / sum(o.base for o in ops), "ratio")
        values["bench.ops"] = (len(ops), "count")
        values["bench.op_busy_s"] = (op_busy, "s")
        meta["spans"] = [span.record(tracer.origin) for span in tracer.spans]
    else:
        ops, wall = run_ops(workload, seed, seconds, meter, limit)
        passed = sum(1 for o in ops if o.error is None)
        q, tail = tail_percentile([o.latency for o in ops])
        values = {
            "ops_per_s": (passed / sum(o.latency for o in ops), "1/s"),
            "op_p50_s": (statistics.median(o.latency for o in ops), "s"),
            "op_tail_s": (tail, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        meta["op_tail_percentile"] = f"p{q}"
        meta["op_p50_samples"] = meta["op_tail_samples"] = len(ops)
        meta["unscaled"] = {
            "ops_per_s": passed / wall,
            "op_p50_s": statistics.median(o.wall for o in ops),
            "op_tail_s": tail_percentile([o.wall for o in ops])[1],
            "setup_s": statistics.median(setup_wall),
        }
    meta["kernel_s"] = {"median": statistics.median(meter.kernel_times),
                        "min": min(meter.kernel_times), "max": max(meter.kernel_times),
                        "count": len(meter.kernel_times)}
    failed = [o for o in ops if o.error is not None]
    meta.update({
        "wall_s": wall,
        "ops": len(ops),
        "cycles": len(ops) / len(workload.cycle),
        "error_rate": len(failed) / len(ops),
        "errors": [f"op {o.index} ({o.name}): {o.error}" for o in failed[:5]],
    })
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "meta": meta,
    }


def print_report(record):
    meta = record["meta"]
    name = meta["workload"]
    print(f"# {name}: seed {meta['seed']}, {meta['ops']} ops in {meta['wall_s']:.3f} s, "
          f"python {meta['python']}, {meta['cpu_count']} cpus, git {meta['git_sha'][:12]}")
    for key, m in record["metrics"].items():
        note = ""
        if key == "op_tail_s":
            note = f"  ({meta['op_tail_percentile']} of {meta['op_tail_samples']} ops)"
        elif key == "op_p50_s":
            note = f"  (of {meta['op_p50_samples']} ops)"
        print(f"{name:8s} {key:44s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{name:8s} {'error_rate':44s} {meta['error_rate']:>16.6g} ratio  "
          f"({record['failed']} of {record['attempted']} ops)")
    for key, value in meta.get("unscaled", {}).items():
        print(f"{name:8s} {key + ' (wall, unscaled)':44s} {value:>16.6g}")
    kernel = meta["kernel_s"]
    scaling = (f"times scaled to a kernel time of {1000 * REFERENCE_KERNEL_S:g} ms"
               if meta["scaled"]
               else "op times not scaled on this workload")
    print(f"# reference kernel: median {1000 * kernel['median']:.3f} ms, "
          f"{1000 * kernel['min']:.3f} to {1000 * kernel['max']:.3f} ms over "
          f"{kernel['count']} readings; {scaling}")
    for line in meta["errors"]:
        print(f"# failed {line}")


def save(path, record):
    """Merge one run into a result file keyed by workload and trace mode."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    meta = record["meta"]
    kind = "per_layer" if meta["trace"] else "end_to_end"
    data["workloads"].setdefault(meta["workload"], {})[kind] = record
    path.write_text(json.dumps(data, indent=1) + "\n")


def compare(old_path, new_path):
    """Per-metric deltas of NEW against OLD, one row per workload."""
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    for kind in ("end_to_end", "per_layer"):
        rows = []
        names = []
        for workload in sorted(set(old) & set(new)):
            a, b = old[workload].get(kind), new[workload].get(kind)
            if a is None or b is None:
                continue
            cells = {}
            for key in b["metrics"]:
                if key in a["metrics"]:
                    cells[key] = _delta(a["metrics"][key]["value"], b["metrics"][key]["value"])
            if kind == "end_to_end":
                cells["error_rate"] = _delta(a["meta"]["error_rate"], b["meta"]["error_rate"])
            names.extend(k for k in cells if k not in names)
            rows.append((workload, cells))
        if not rows:
            continue
        print(f"## {kind}: {new_path} against {old_path}")
        print("\t".join(["workload"] + names))
        for workload, cells in rows:
            print("\t".join([workload] + [cells.get(k, "-") for k in names]))


def _delta(a, b):
    if a == b:
        return "0"
    if a == 0:
        return f"{a:g}->{b:g}"
    return f"{100 * (b - a) / abs(a):+.1f}%"


def selftest():
    """Every metric named in BENCHMARK.json is emitted for every workload,
    and a wrong reference value counts as a failed op without stopping the
    run.  Runs one op per workload and mode; returns the failures found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the harness")

    class QuickBounds(Bounds):  # one cheap family instead of the whole pass
        families = ("qr7",)
        verify_paper = False

    for name, workload_cls in dict(WORKLOADS, bounds=QuickBounds).items():
        for trace in (0, 1):
            record = measure(workload_cls, seed=1, seconds=0, trace=trace, limit=1)
            missing = wanted[trace] ^ set(record["metrics"])
            if missing:
                failures.append(f"{name} trace={trace}: metrics differ: {sorted(missing)}")
            if not record["correct"] or record["attempted"] != 1:
                failures.append(f"{name} trace={trace}: {record['meta']['errors']}")
    ref = BOUNDS_REFERENCE["qr7"]
    saved = ref["types"]
    ref["types"] = saved + 1
    try:
        record = measure(QuickBounds, seed=1, seconds=0, trace=0, limit=1)
    finally:
        ref["types"] = saved
    errors = record["meta"]["errors"]
    if record["correct"] or record["meta"]["error_rate"] != 1.0 or \
            not errors or "CheckFailed" not in errors[0]:
        failures.append(f"a wrong reference value was not counted as a failed op: {errors}")
    return failures


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, check=False)
        if done.returncode != 0:
            return done.returncode
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the result into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    try:
        import_edk()
    except ImportError as exc:
        print(f"error: cannot import edk from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        failures = selftest()
        for line in failures:
            print(f"selftest: {line}", file=sys.stderr)
        print("selftest " + ("failed" if failures else "passed"))
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if args.out:
        save(args.out, record)
    print_report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
