"""The repository benchmark: one command, two workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-decode --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` splits ``--seconds``
between an untraced and a traced pass, probes every layer of the program
(the paper-sweep and sustained-load serving probes included), writes the
spans as Chrome trace-event JSON under ``.perfbench/traces/`` and prints
every per-layer metric plus the tracing overhead.  Human-readable lines
start with ``#``; the last line of standard output is the JSON result.  The
exit code is 1 when an output check failed and 2 when the program is
missing.

Set-up time is the median of three set-ups: this process's own and two
fresh processes started with ``--setup-only``, which set up, tear down and
report their set-up time.

BLAS runs one thread in every process the benchmark starts (the serving
worker inherits the setting).  With two threads a GEMM waits for the slower
core: on a shared two-core host, one of three two-thread prune-transformer
runs was 1.6x slower than the others, while one-thread runs stayed within 3%.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import TAIL_BEYOND, percentile, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload name -> the module that runs it.
WORKLOADS = {"serve-decode": "serving", "prune-transformer": "pruning"}
SETUP_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running only the set-up."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
        cwd=ROOT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (the worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> str:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for library in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(library)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            function = getattr(handle, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest matching mount)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and (target == fields[1] or target.startswith(fields[1].rstrip("/") + "/")):
            if len(fields[1]) > len(best):
                best, kind = fields[1], fields[2]
    return kind


def environment(seed: int, workdir: Path) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "store_filesystem": filesystem(workdir),
        "python": platform.python_version(),
    }


def end_to_end(run, setup_s: float, peak_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "throughput_per_s": (run.throughput_per_s, "1/s"),
        "latency_mean_ms": (statistics.fmean(run.latencies_s) * 1e3, "ms"),
    }


def describe_latency(run) -> str:
    """The sample count, the p10, the median, and the tail: p90 with at least
    100 samples, else the highest percentile with ``TAIL_BEYOND`` beyond it."""
    values = run.latencies_s
    count = len(values)
    line = (
        f"latency samples: {count}; p10 {percentile(values, 10) * 1e3:.3f} ms, "
        f"median {percentile(values, 50) * 1e3:.3f} ms"
    )
    tail = tail_percentile(count)
    if tail is None:
        return f"{line}; no percentile has {TAIL_BEYOND} samples beyond it"
    return f"{line}; tail p{tail:.1f} {percentile(values, tail) * 1e3:.3f} ms (not gated)"


def check_names(metrics: dict, declared: list[dict], kind: str) -> None:
    expected = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong units {wrong}"
        )


def layer_probes(module, seed: int, workdir: Path, tracer) -> dict:
    """Per-layer metrics from probing every layer the workload did not run;
    the serving probe always adds the sustained-load batch widths."""
    import pruning
    import serving
    import sweep

    metrics = serving.probe(seed, workdir, tracer, traffic_measured=module is serving)
    for other in (sweep, pruning):
        if other is not module:
            metrics.update(other.probe(seed, workdir / "probe", tracer))
    return metrics


def traced_layer_metrics(module, args, workdir: Path, tracer, untraced, traced) -> dict:
    """Per-layer metrics of a traced run, with the tracing overhead."""
    layer = dict(traced.layer)
    layer.update(layer_probes(module, args.seed, workdir, tracer))
    for name in ("setup.import", "setup.plan", "setup.service_start"):
        spans = tracer.durations(name)
        if spans:
            layer[f"{name}_s"] = (spans[0], "s")
    layer["trace.overhead.throughput_per_s"] = (
        traced.throughput_per_s - untraced.throughput_per_s,
        "1/s",
    )
    overhead = statistics.fmean(traced.latencies_s) - statistics.fmean(untraced.latencies_s)
    layer["trace.overhead.latency_mean_ms"] = (overhead * 1e3, "ms")
    return layer


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program under {ROOT / 'src'} to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tracer = Tracer(args.trace == 1)
    try:
        with tracer.span("setup.import"):
            module = importlib.import_module(WORKLOADS[args.workload])
        state = module.start(args.seed, workdir, tracer)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            module.stop(state)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # A traced run spends half its time on each pass.
        seconds = args.seconds / 2 if args.trace else args.seconds
        try:
            untraced = module.measure(state, seconds, Tracer(False))
            traced = module.traced_measure(state, seconds, tracer) if args.trace else None
        finally:
            module.stop(state)
        peak_mb = peak_rss_mb()
        if args.trace:
            runs = [untraced, traced]
            metrics = traced_layer_metrics(module, args, workdir, tracer, untraced, traced)
            check_names(metrics, declared["per_layer"], "per-layer")
        else:
            runs = [untraced]
            setups = [setup_s] + [
                child_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
            ]
            metrics = end_to_end(untraced, statistics.median(setups), peak_mb)
            check_names(metrics, declared["end_to_end"], "end-to-end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, ROOT / ".perfbench")
    print(f"# {args.workload} environment: {json.dumps(env)}")
    print(f"# {args.workload} {describe_latency(untraced)}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"# {args.workload} failed_ratio = {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, env)
        print(f"# {args.workload} trace written to {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
