"""Benchmark of the ``fpl`` command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

One run is one fresh process.  It imports ``fpl`` from ``src/``, writes the
workload's inputs (made from ``--seed``) into a temporary directory under
``.perfbench/``, and drives the CLI in-process through ``fpl.cli.run``,
one call after another (a closed loop with one caller), in whole cycles
of the workload's call mix for about ``--seconds``.  Every output is then
checked against references the benchmark computes itself.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the mix
untraced for half the time, then the same calls again with spans around
the calls into every ``fpl`` module, and reports the per-layer metrics;
the spans are written to ``.perfbench/traces/``.  ``--workload all`` runs
each workload in its own process and prints one line per metric.
BENCHMARK.json leaves ``search-complex`` out, because ``fpl``'s complex
search misses its accuracy check on some seeds; it still runs by name,
with ``all`` and with ``--smoke``.
``--smoke`` runs every workload on its smallest inputs with tracing on and
also checks the solver call counts recorded at the commit that defined
the benchmark.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Set-ups per run; setup_s reports import time plus their median.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("search-real", "search-complex", "harness", "analysis")
END_TO_END = {"setup_s": "s", "calls_per_s": "1/s", "frames_per_s": "1/s",
              "call_p50_ms": "ms", "call_tail_ms": "ms", "peak_rss_mb": "MB"}
# Samples a tail percentile must leave above it.
TAIL_BEYOND = 10


def import_cli():
    """Import fpl.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fpl" / "cli.py").is_file():
        sys.exit(f"perfbench: no fpl sources under {src}")
    sys.path.insert(0, str(src))
    import fpl.cli
    if Path(fpl.cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported fpl from {fpl.cli.__file__}")
    return fpl.cli


@dataclass
class Result:
    call: object
    seconds: float
    rc: object
    out: str
    err: str
    failure: str | None = None


def invoke(cli, call, tracer=None, index=0) -> Result:
    os.environ["FPL_THREADS"] = str(call.threads)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.root(index) if tracer else None
        start = time.perf_counter()
        try:
            rc = cli.run(list(call.argv))
        except Exception as exc:  # a crash is a failed call, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return Result(call, seconds, rc, out.getvalue(), err.getvalue())


def measure(cli, wl, seconds=None, cycles=None, tracer=None) -> list[Result]:
    """Whole cycles of the mix: ``cycles`` of them, or as many as fit in
    ``seconds`` judging by the last cycle's length (at least one)."""
    results: list[Result] = []
    # One copy of each distinct output, so that peak_rss_mb does not grow
    # with the number of calls a run fits in.
    outputs: dict[tuple, str] = {}
    start = time.perf_counter()
    c = 0
    while True:
        began = time.perf_counter()
        for call in wl.cycle(c):
            r = invoke(cli, call, tracer, len(results))
            if r.rc == call.exit_code:
                r.failure = wl.after(call, r.out)
            first = outputs.setdefault(call.argv, r.out)
            if r.out == first:
                r.out = first
            results.append(r)
        c += 1
        now = time.perf_counter()
        if cycles is not None:
            if c >= cycles:
                return results
        elif now - start + (now - began) > seconds:
            return results


def set_up(cli, workload_cls, seed: int, smoke: bool):
    """Make the inputs and warm up once per verb; repeated, timed."""
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        wl = workload_cls(seed, smoke)
        wl.write_inputs()
        verbs = {}
        for call in wl.cycle(0):
            verbs.setdefault(call.argv[0], call)
        for call in verbs.values():
            invoke(cli, call)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


def failures(wl, results: list[Result]) -> list[str]:
    """Check every call; references are computed here, outside timing."""
    bad = []
    for r in results:
        reason = r.failure
        if reason is None and r.rc != r.call.exit_code:
            reason = (f"exit {r.rc}, want {r.call.exit_code}: "
                      f"{r.err.strip()[-300:]}")
        if reason is None:
            reason = wl.check(r.call, r.out)
        if reason:
            bad.append(f"{' '.join(r.call.argv)}: {reason}")
    return bad


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when too few samples leave it above the
    median."""
    s = sorted(samples)
    rank = len(s) - TAIL_BEYOND
    if rank < (len(s) + 1) / 2:
        return s[-1], 100.0
    return s[rank - 1], 100.0 * rank / len(s)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(results: list[Result], setup_s: float, rss_mb: float,
               lines: list[str]) -> dict[str, float]:
    """Every input is called several times and counts with its median
    call; a kind's latency is the median over its inputs.  Medians move
    less than sums when a slow spell of the machine covers part of a run.
    Throughput is that of one cycle of the mix at those latencies.  The
    p50 is their geometric mean over kinds, so each kind counts once; the
    tail scales it by the tail of every call's latency relative to its
    kind's latency, so slow inputs count in the tail as slow calls do."""
    kinds: dict[str, dict[tuple, list[Result]]] = {}
    for r in results:
        kinds.setdefault(r.call.kind, {}).setdefault(r.call.key, []).append(r)
    latency, frames, ratios = [], [], []
    for kind, inputs in kinds.items():
        typical = {key: statistics.median(r.seconds for r in runs)
                   for key, runs in inputs.items()}
        latency.append(statistics.median(typical.values()))
        frames.append(next(iter(inputs.values()))[0].call.frames)
        ratios += [r.seconds / latency[-1] for runs in inputs.values()
                   for r in runs]
        lines.append(f"kind {kind!r}: {len(inputs)} inputs x "
                     f"{sum(map(len, inputs.values())) / len(inputs):.1f} "
                     f"calls, latency={1e3 * latency[-1]:.3f} ms")
    tail_ratio, pct = tail(ratios)
    p50_ms = 1e3 * geomean(latency)
    lines.append(f"tail: p{pct:.1f} of {len(ratios)} calls is {tail_ratio:.3f}"
                 f" x its kind's latency")
    cycle_s = sum(latency)
    return {"setup_s": setup_s,
            "calls_per_s": len(kinds) / cycle_s,
            "frames_per_s": sum(frames) / cycle_s,
            "call_p50_ms": p50_ms,
            "call_tail_ms": p50_ms * tail_ratio,
            "peak_rss_mb": rss_mb}


def environment() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} "
            f"blas={blas.get('openblas configuration', blas.get('name'))!r} "
            f"blas_threads={blas_threads()}")


def blas_threads() -> str:
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            return str(ctypes.CDLL(str(lib))
                       .scipy_openblas_get_num_threads64_())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_one(args) -> int:
    cli = import_cli()
    import_s = time.perf_counter() - STARTED
    import layers
    import workloads

    lines = [environment()]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=_mkdir(OUT / "tmp")))
    os.chdir(workdir)
    try:
        wl, setup_s = set_up(cli, workloads.WORKLOADS[args.workload],
                             args.seed, args.smoke)
        setup_s += import_s
        if not args.trace:
            results = measure(cli, wl, seconds=args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(results, setup_s, rss_mb, lines)
            units = END_TO_END
            bad = failures(wl, results)
        else:
            results, metrics, bad = traced_run(cli, wl, args, lines)
            units = {name: layers.unit_of(name) for name in metrics}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    lines.append(f"workload={args.workload} seed={args.seed} "
                 f"trace={args.trace} calls={len(results)}")
    lines += [f"metric {name}={value!r} {units[name]}"
              for name, value in metrics.items()]
    lines.append(f"failed_frac={len(bad) / len(results)!r} "
                 f"({len(bad)}/{len(results)})")
    print("\n".join(lines))
    for reason in bad[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad, "attempted": len(results), "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def traced_run(cli, wl, args, lines):
    import layers
    import tracing

    untraced = measure(cli, wl, seconds=args.seconds / 2)
    cycles = len(untraced) // len(wl.cycle(0))
    tracer = tracing.Tracer()
    tracer.install(tracing.fpl_modules())
    try:
        traced = measure(cli, wl, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    bad = failures(wl, untraced + traced)
    metrics = layers.per_layer(tracer.spans, traced, untraced)

    trace_file = _mkdir(OUT / "traces") / f"{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    lines.append(f"trace spans={len(tracer.spans)} file={trace_file}")

    blind = [name for name in layers.EXPECTED[args.workload]
             if not metrics[name]]
    if blind:
        sys.exit(f"perfbench: traced run went blind, zero {blind}")
    if args.workload != "search-complex":
        for name in layers.COMPLEX_PATH:
            del metrics[name]
    expected = layers.SEED_COUNTS.get(args.workload)
    counts = layers.solver_counts(tracer.spans)
    for i, r in enumerate(traced if expected else []):
        got = {key: counts[i].get(key, 0) for key in expected}
        ok = got == expected
        lines.append(f"self_check {r.call.kind!r}: {got} "
                     f"{'matches' if ok else 'differs from'} the seed's "
                     f"{expected}")
        if args.smoke and not ok:
            sys.exit(f"perfbench: solver counts {got}, seed had {expected}")
    return untraced + traced, metrics, bad


def run_all(args) -> int:
    """Each workload in a fresh process; one line per metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        for line in proc.stdout.splitlines()[:-1]:
            if line.startswith(("metric ", "failed_frac", "self_check")):
                print(f"{name} {line}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{key}": value for key, value
                                  in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, one cycle, tracing on, and "
                             "the seed's solver call counts enforced")
    args = parser.parse_args()
    if args.smoke:
        args.trace, args.seconds = 1, 0.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
