"""cckit benchmark: one workload, one seed, one closed loop with one client.

Usage (from the repository root)::

    python3 bench/run.py --max-terms 1000 --workload dual-certify --seed 1 \
        --seconds 30 --trace 0

The program is imported from ``src/`` with ``CCKIT_MAX_TERMS`` fixed by
``--max-terms``.  Set-up (import, input generation and file writing,
parsing, set-up duals) is repeated ``SETUP_REPEATS`` times with a fresh
import each time and ``setup_s`` is the median.  Ops then run one after another in whole
passes over the workload's seeded order, as many passes as fit in
``--seconds`` of op time (at least one); every input thus carries the same
weight in every run.  Op times are scaled to a reference machine
speed, measured by a fixed kernel timed after every op (see REFERENCE_S).
An op that hits the size cap or raises counts as failed; an op with any
other unexpected verdict is wrong, which makes the result incorrect and the
exit code 1.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` each op runs under the tracer of ``tracing.py``
and then once more without it, which measures the tracing overhead, and
the last line holds the per-layer metrics.  The line before it holds provenance
(including the op count, which is the percentiles' sample count) and
details (fail ratio, failures by input, every set-up time).  Traced runs also
write every span to ``bench/results/``.  See ``bench/README.md`` for what
each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracing import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MODULES = ("algebra", "exterior", "structures", "symmetries", "cli", "cli.files")
# Set-up takes a few tenths of a second, so single timings of it are noisy;
# its metric is the median of this many fresh set-ups.
SETUP_REPEATS = 7
# On a shared host the same code runs up to 1.5 times slower for a fraction
# of a second to minutes at a time, which moved the op-time metrics of one
# run against another by up to 0.3 (quartile distance over median over ten
# runs).  A fixed kernel, timed after every op, measures the machine's speed
# as the ops run; over 2 s windows its time and an op's time correlated at
# 0.99.  Each op's time is scaled by REFERENCE_S over the median kernel time
# of the KERNEL_WINDOW ops around it, so it reads as on a machine on which
# the kernel takes REFERENCE_S (about its median on the 2-vCPU machine the
# bounds were set on).
REFERENCE_S = 0.003
KERNEL_WINDOW = 5


class Program:
    """A freshly imported cckit, its modules as attributes (files = cli.files)."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "cckit" or m.startswith("cckit.")]:
            del sys.modules[name]
        importlib.import_module("cckit")
        for name in MODULES:
            module = importlib.import_module(f"cckit.{name}")
            setattr(self, name.rsplit(".", 1)[-1], module)
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"cckit imported from {self.cli.__file__}, not {SRC}")


def reference_kernel() -> float:
    """Seconds that one fixed product of two dict polynomials takes now.

    Pure Python with no call into cckit, like the inner loops of
    ``Poly.__mul__``, so it slows down with the machine but never with the
    program.  The garbage collector is off while it runs, as in ``timeit``,
    so that the size of the program's heap cannot change its time.
    """
    poly = {(i, j): i - 2 * j + 1 for i in range(10) for j in range(10)}
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        product: dict[tuple[int, int], int] = {}
        for (i, j), x in poly.items():
            for (k, l), y in poly.items():
                key = (i + k, j + l)
                product[key] = product.get(key, 0) + x * y
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_scaled(latencies: list[float], kernel_times: list[float]) -> list[float]:
    """Each op's time times REFERENCE_S over the median kernel time around it.

    `kernel_times[i]` is the kernel timed right after op `i`; the median is
    over the KERNEL_WINDOW ops centred on it (fewer at the ends).
    """
    half = KERNEL_WINDOW // 2
    return [
        elapsed * REFERENCE_S / statistics.median(kernel_times[max(i - half, 0): i + half + 1])
        for i, elapsed in enumerate(latencies)
    ]


def percentile(latencies: list[float], failed: list[bool], q: float) -> float:
    """Nearest-rank percentile with every failed op ranked after every success.

    A failed op that lands on the rank reads as the slowest latency of the
    run, so it is never faster than a success.
    """
    ranked = sorted(zip(failed, latencies))
    is_failed, value = ranked[max(ceil(q * len(ranked)) - 1, 0)]
    return max(latencies) if is_failed else value


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def attempt(workload, program, index):
    """One timed op: (seconds, raw result or None, error text or None)."""
    start = time.perf_counter()
    try:
        raw = workload.run_op(index)
        error = None
    except program.algebra.TermLimitExceeded as exc:
        raw, error = None, f"size cap: {exc}"
    except Exception as exc:  # a crash is a failed op, never a lost one
        raw, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, raw, error


def run_ops(workload, program, indices, records, tracer=None, kernel_times=None) -> None:
    """Issue one op per index in turn, appending (index, seconds, status, raw).

    After each op the reference kernel is timed into `kernel_times`, if given.

    Only an input's first result is kept as raw (None after it, or the
    error text of a failed op), so memory does not grow with the passes.
    With a tracer each op runs traced and then again untraced; the untraced
    time goes to `tracer.untraced_s`, and a verdict that differs between
    the two makes the op wrong.
    """
    seen = {record[0] for record in records}
    for index in indices:
        if tracer is not None:
            tracer.op = len(records)
        elapsed, raw, error = attempt(workload, program, index)
        if tracer is not None:
            tracer.op = -1  # the checks below are the benchmark's, not the op's
        status = "failed" if error else workload.judge(index, raw)
        if tracer is not None:
            tracer.uninstall()
            untraced, again, again_error = attempt(workload, program, index)
            tracer.install()
            tracer.untraced_s += untraced
            if status != ("failed" if again_error else workload.judge(index, again)):
                status = "wrong"
        if kernel_times is not None:
            kernel_times.append(reference_kernel())
        if index in seen:
            raw = None
        seen.add(index)
        records.append((index, elapsed, status, raw if error is None else error))


def measure(workload, program, seconds, tracer=None, kernel_times=None):
    """Whole passes over the workload's order, as many as fit in `seconds`.

    The first pass always runs; another starts only while it is expected,
    at the mean pass time so far, to end within `seconds`.  The ops' summed
    time thus stays within `seconds` unless one pass alone is longer, so a
    run on a fast machine does not grow by a whole extra pass.
    """
    records = []
    passes = busy = 0
    while passes == 0 or busy + busy / passes <= seconds:
        run_ops(workload, program, workload.order, records, tracer, kernel_times)
        passes += 1
        busy = sum(record[1] for record in records)
    return records, passes


def output_sizes(workload, records) -> dict[str, int]:
    """Exact term counts over the outputs of every input, computed untimed."""
    raws = {}
    for index, _, status, raw in records:
        if status != "failed":
            raws.setdefault(index, raw)
    num_max = den_max = total = 0
    for index in workload.order:
        for value in workload.outputs(index, raws.get(index)):
            num, den = len(value.num.terms), len(value.den.terms)
            num_max, den_max, total = max(num_max, num), max(den_max, den), total + num + den
    return {
        "result_num_terms_max": num_max,
        "result_den_terms_max": den_max,
        "result_terms_total": total,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-terms", type=int, default=1000,
                        help="CCKIT_MAX_TERMS for every op (default 1000)")
    args = parser.parse_args(argv)

    if not (SRC / "cckit" / "__init__.py").is_file():
        print(f"error: no cckit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["CCKIT_MAX_TERMS"] = str(args.max_terms)
    sys.path.insert(0, str(SRC))

    factory = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as tmp:
        setup_times: list[float] = []
        kernel_times: list[float] = []
        for repeat in range(SETUP_REPEATS):
            workdir = Path(tmp) / f"setup{repeat}"
            workdir.mkdir()
            start = time.perf_counter()
            program = Program()
            if tracer is not None and repeat == SETUP_REPEATS - 1:
                tracer.install()
            workload = factory(program, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

        if tracer is not None:
            tracer.reset_aggregates()
        records, passes = measure(workload, program, args.seconds, tracer, kernel_times)
        if tracer is not None:
            tracer.uninstall()
        sizes = output_sizes(workload, records)

    wall_latencies = [elapsed for _, elapsed, _, _ in records]
    latencies = speed_scaled(wall_latencies, kernel_times)
    failed = [status == "failed" for _, _, status, _ in records]
    ok = sum(status == "ok" for _, _, status, _ in records)
    wrong = [index for index, _, status, _ in records if status == "wrong"]
    busy = sum(latencies)
    scale = busy / sum(wall_latencies)
    attempted = len(records)
    correct = not wrong
    failures: dict[str, int] = {}
    for index, _, status, raw in records:
        if status == "failed":
            key = f"input {index}: {str(raw)[:80]}"
            failures[key] = failures.get(key, 0) + 1

    provenance = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "CCKIT_MAX_TERMS": args.max_terms,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(workload.order),
        "passes": passes,
        "ops": attempted,
    }
    detail = {
        "ok": ok,
        "failed": sum(failed),
        "fail_ratio": sum(failed) / attempted,
        "wrong_inputs": sorted(set(wrong)),
        "failures": failures,
        "setup_s_all": setup_times,
        "busy_s": busy,
        "speed_scale": scale,
    }

    if tracer is None:
        detail["wall"] = {
            "busy_s": sum(wall_latencies),
            "op_p50_ms": 1000 * percentile(wall_latencies, failed, 0.50),
            "op_p90_ms": 1000 * percentile(wall_latencies, failed, 0.90),
        }
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "goodput_ops_per_s": (ok / busy, "ops/s"),
            "op_p50_ms": (1000 * percentile(latencies, failed, 0.50), "ms"),
            "op_p90_ms": (1000 * percentile(latencies, failed, 0.90), "ms"),
            "ok_ratio": (ok / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update({name: (value, "terms") for name, value in sizes.items()})
    else:
        metrics = tracer.layer_metrics(attempted, scale)
        metrics["trace.overhead_s"] = (scale * (sum(wall_latencies) - tracer.untraced_s), "s")
        detail["spans_kept"] = len(tracer.spans)
        detail["spans_dropped"] = tracer.dropped
        detail["sizes"] = sizes
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        trace_file = results / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "provenance": provenance,
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
        }))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))

    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
