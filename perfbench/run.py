"""cateselect benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py                  # every workload, each in its own process
    python3 perfbench/run.py --workload mc_n2k_d406 --seed 3 --seconds 25 --trace 0

One client runs one study at a time for ``--seconds`` seconds. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs every study twice in one process, plain and traced, and reports
per-layer metrics from the traced copy. Outputs are checked against the
stored references (see check.py). The last line of a single-workload run is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record, environment included, goes to ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import compare, decision_problems, load_reference
from tracing import Tracer, layer_totals, patched

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 2  # set-ups timed before the timed loop, and as many after it
CANARY_SEED = 0
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "nuisance.fit.ms": "ms",
    "nuisance.fit.self_share": "share",
    "nuisance.fit.calls_per_rep": "count",
    "scores.build_score_tensor.ms": "ms",
    "scores.build_score_tensor.calls_per_rep": "count",
    "scores.tensor_bytes_per_rep": "bytes",
    "scores.delta_hat.ms": "ms",
    "scores.cov_hat.ms": "ms",
    "selectors.naive_critical_value.ms": "ms",
    "selectors.exp_weighted_statistics.ms": "ms",
    "selectors.two_way_split.ms": "ms",
    "selectors.proposed.self_ms": "ms",
    "selectors.naive.self_ms": "ms",
    "selectors.bonferroni.self_ms": "ms",
    "selectors.ablation.self_ms": "ms",
    "datagen.generate_toy.ms": "ms",
    "datagen.make_candidates.ms": "ms",
    "datagen.ingest.ms": "ms",
    "datagen.ingest.rows_per_s": "rows/s",
    "harness.rep_self_ms": "ms",
    "harness.summarize_records.ms": "ms",
    "cli.select.self_ms": "ms",
    "cli.import_s": "s",
    "trace.overhead_share": "share",
}
# Layers listed per candidate count in the traced power-sweep table.
REP_TABLE = (
    "harness.rep",
    "datagen.generate_toy",
    "nuisance.fit",
    "scores.build_score_tensor",
    "selectors.exp_weighted_statistics",
    "scores.delta_hat",
    "scores.cov_hat",
    "selectors.naive_critical_value",
    "selectors.proposed",
    "selectors.naive",
)


def _cpu_s() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _llc_bytes() -> int | None:
    """Size of the highest cache level CPU 0 reports."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale), key=lambda item: item[0])
    return best[1]


def environment(workloads: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "workers": {w.name: w.workers for w in workloads.values()},
    }


def _warn_oversubscription(env: dict, names: list[str]) -> None:
    threads = env["blas"]["threads"] or 1
    for name in names:
        workers = env["workers"][name]
        if workers * threads > env["nproc"]:
            print(
                f"warning: {name} runs {workers} workers x {threads} BLAS threads on {env['nproc']} CPUs",
                file=sys.stderr,
            )


def set_up(workload, seed: int) -> tuple[list[float], object]:
    """Time ``SETUP_SAMPLES`` set-ups, each a fresh-interpreter import of the
    module the workload enters the package through plus one preparation of
    its inputs."""
    from workloads import program_env

    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(workload.module)],
            capture_output=True, text=True, env=program_env(), timeout=120, check=True,
        )
        start = time.perf_counter()
        inputs = workload.prepare(WORK, seed)
        samples.append(float(proc.stdout) + time.perf_counter() - start)
    return samples, inputs


def check_studies(workload, seed: int, studies: list) -> tuple[int, int, list[str]]:
    """Check every study, then a canary study against the shipped reference.

    Returns operations attempted, operations failed and report lines. A study
    with any problem counts all its operations as failed.
    """
    from workloads import run_study

    reference = load_reference(workload.name)
    attempted = failed = 0
    lines = []

    def judge(label: str, outcome, expected, required: bool = False) -> None:
        nonlocal attempted, failed
        problems = outcome.problems + decision_problems(outcome.decisions)
        if expected is not None:
            problems += compare(expected, outcome.output())
        elif required:
            problems.append("no stored reference")
        attempted += outcome.ops
        failed += outcome.ops if problems else outcome.failed
        status = "FAILED" if problems else "passed"
        if expected is not None or required or problems:
            lines.append(f"check {label}: {status} ({len(outcome.decisions)} decisions)")
        lines.extend(f"  {p}" for p in problems[:5])

    expected0 = reference.get(str(seed))
    for index, outcome in studies:
        judge(f"study {index}", outcome, expected0 if index == 0 else None)
    lines.append(f"check invariants: {len(studies)} studies")
    if expected0 is None:
        lines.append(f"check reference for seed {seed}: skipped (no stored reference)")
    canary_inputs = workload.prepare(WORK, CANARY_SEED)
    canary = run_study(workload, canary_inputs, CANARY_SEED, 0, workload.workers)
    judge(f"canary seed {CANARY_SEED} study 0 against reference", canary, reference.get(str(CANARY_SEED)), True)
    return attempted, failed, lines


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from workloads import run_study

    setup, inputs = set_up(workload, seed)
    studies, walls = [], []
    cpu_start = _cpu_s()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        studies.append((len(walls), run_study(workload, inputs, seed, len(walls), workload.workers)))
        walls.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu_start
    # The machine's speed drifts over tens of seconds, so set-up is sampled
    # on both sides of the timed loop rather than only at one moment.
    setup += set_up(workload, seed)[0]
    attempted = sum(o.ops for _, o in studies)
    completed = attempted - sum(o.failed for _, o in studies)
    metrics = {
        "ops_per_s": completed / wall,
        "cpu_ms_per_op": 1000.0 * cpu / attempted,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    detail = {"studies": len(walls), "study_s": walls, "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "ops": attempted, "op": workload.op}
    return metrics, studies, detail


def layer_metrics(tracer, ops: int, traced_s: float, plain_s: float) -> dict[str, float]:
    totals = layer_totals(tracer.spans)

    def calls(name: str) -> int:
        return totals[name].calls if name in totals else 0

    def ms(name: str, own: bool = False) -> float:
        if name not in totals:
            return 0.0
        t = totals[name]
        return 1000.0 * (t.self_s if own else t.total_s) / t.calls

    ingest_s = sum(totals[n].total_s for n in ("datagen.ingest_dataset", "datagen.ingest_predictions") if n in totals)
    fit_self_s = totals["nuisance.fit"].self_s if "nuisance.fit" in totals else 0.0
    metrics = {
        "nuisance.fit.ms": ms("nuisance.fit"),
        "nuisance.fit.self_share": fit_self_s / traced_s,
        "nuisance.fit.calls_per_rep": calls("nuisance.fit") / ops,
        "scores.build_score_tensor.ms": ms("scores.build_score_tensor"),
        "scores.build_score_tensor.calls_per_rep": calls("scores.build_score_tensor") / ops,
        "scores.tensor_bytes_per_rep": tracer.counters["tensor_bytes"] / ops,
        "datagen.ingest.ms": 1000.0 * ingest_s / max(calls("datagen.ingest_dataset"), 1),
        "datagen.ingest.rows_per_s": tracer.counters["ingest_rows"] / ingest_s if ingest_s else 0.0,
        "harness.rep_self_ms": ms("harness.rep", own=True),
        "cli.select.self_ms": ms("cli.select", own=True),
        "cli.import_s": tracer.counters["cli.import_s"] / max(calls("cli.select"), 1),
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }
    for name in PER_LAYER:
        if name.endswith(".self_ms") and name not in metrics:
            metrics[name] = ms(name[: -len(".self_ms")], own=True)
        elif name.endswith(".ms") and name not in metrics:
            metrics[name] = ms(name[: -len(".ms")])
    return {name: metrics[name] for name in PER_LAYER}


def rep_table(tracer) -> list[str]:
    """Per candidate count: ms per call and calls per repetition of each layer."""
    by_count: dict[int, list] = {}
    for span in tracer.spans:
        if span.rep is not None and span.rep[2] is not None:
            by_count.setdefault(span.rep[2], []).append(span)
    lines = []
    for count in sorted(by_count):
        totals = layer_totals(by_count[count])
        reps = totals["harness.rep"].calls
        cells = [
            f"{name}={1000.0 * totals[name].total_s / totals[name].calls:.1f}ms x{totals[name].calls / reps:g}"
            for name in REP_TABLE
            if name in totals
        ]
        lines.append(f"  p={count} reps={reps}: " + " ".join(cells))
    return lines


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    from workloads import run_study

    inputs = workload.prepare(WORK, seed)
    tracer = Tracer()
    studies = []
    plain_s = traced_s = 0.0
    traced_ops = 0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        tracer.study = index
        for traced in (index % 2 == 1, index % 2 == 0):  # alternate which copy runs first
            began = time.perf_counter()
            if traced:
                with patched(tracer):
                    outcome = run_study(workload, inputs, seed, index, 1, tracer)
                traced_s += time.perf_counter() - began
                traced_ops += outcome.ops - outcome.failed
            else:
                outcome = run_study(workload, inputs, seed, index, 1)
                plain_s += time.perf_counter() - began
            studies.append((index, outcome))
        index += 1
    metrics = layer_metrics(tracer, max(traced_ops, 1), traced_s, plain_s)
    trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    detail = {"studies": index, "traced_s": traced_s, "plain_s": plain_s, "ops": traced_ops, "trace_file": str(trace_path)}
    detail["rep_table"] = rep_table(tracer)
    detail["missing_hooks"] = tracer.missing
    return metrics, studies, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    env = environment(WORKLOADS)
    _warn_oversubscription(env, [name])
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        metrics, studies, detail = traced_run(workload, seed, seconds)
        units = PER_LAYER
    else:
        metrics, studies, detail = timed_run(workload, seed, seconds)
        units = END_TO_END
    attempted, failed, check_lines = check_studies(workload, seed, studies)
    for key, value in metrics.items():
        print(f"{key:42s} {value:14.6g} {units[key]}")
    print(f"{'failed_share':42s} {failed / attempted:14.6g} ({failed}/{attempted})")
    for line in detail.pop("rep_table", []):
        print(line)
    if detail.get("missing_hooks"):
        print("trace hooks not found: " + ", ".join(detail["missing_hooks"]))
    for line in check_lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    record = {**result, "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env, "detail": detail}
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results[name] = (proc.returncode, result)
    print("\nsummary")
    ok = True
    for name, (code, result) in results.items():
        ok = ok and code == 0
        if result is None:
            print(f"{name}: no result (exit {code})")
            continue
        figures = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name}: correct={result['correct']} failed={result['failed']}/{result['attempted']}  {figures}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cateselect" / "__init__.py").is_file():
        print(f"error: the cateselect sources are missing ({SRC / 'cateselect'})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
