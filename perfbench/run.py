"""velakit benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (velakit is imported from its src/):

    python3 perfbench/run.py --workload spec_search --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process does the work, one operation at a time (a closed loop); the
cli_pipeline workload starts one `velakit` child per operation. The last
line of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Results and traces are also written under .perfbench/.
Exit code 2 means the checkout has no velakit source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli_pipeline", "spec_search", "mc_cv", "mc_recovery")
SETUP_PROBES = 3  # set-ups in fresh processes; setup_s is their median
TAIL_MIN_OPS = 40
IMPORT_SAMPLES = 5
IMPORT_CODE = "import time\nt = time.perf_counter()\nimport velakit.cli\nprint(time.perf_counter() - t)"

LAYER_CALLS = (
    "manifest.jsonable", "report.render", "unit_root.adf_test", "lag_selection.fit_var",
    "johansen.concentrate", "johansen.solve_cointegration_eigenproblem", "johansen.rank_test",
    "vecm.estimate_vecm", "linalg.ols_fit", "linalg.cholesky_factor",
    "linalg.symmetric_eigendecomposition", "linalg.general_eigenvalues", "linalg.pd_inverse",
    "synthetic.generate_vecm_data", "synthetic.rng_for",
)
LAYER_SELF = LAYER_CALLS + (
    "manifest.dump_json", "panel.load_panel", "panel.interpolate_missing",
    "panel.to_log_levels", "lag_selection.select_lag", "vecm.normalize_cointegrating_equation",
    "spec_search.fit_specifications", "spec_search.build_correlation_table",
    "synthetic.monte_carlo_critical_values", "synthetic.run_recovery_study",
    "synthetic.subspace_angle_deg",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def child_json(cmd, cwd) -> dict:
    """Run a child to completion and parse the last line of its stdout."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[2:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(args, root: Path):
    """Import velakit, make the inputs and run one warm-up operation; timed."""
    start = time.perf_counter()
    import velakit
    import workloads

    src = (root / "src").resolve()
    if src not in Path(velakit.__file__).resolve().parents:
        raise RuntimeError(f"velakit was imported from {velakit.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    warm = wl.collect(wl.run(0))
    return wl, warm, time.perf_counter() - start


def tail(latencies: list[float]) -> float:
    """The 75th percentile: the highest with ten operations beyond it in a run
    of TAIL_MIN_OPS, the fewest a workload that reports a tail runs. It stays
    the 75th in longer runs, so it does not move with how many operations the
    host's speed fitted into the run."""
    return statistics.quantiles(latencies, n=4)[2]


def layer_metrics(snaps: list[dict], scales: list[float], import_s: list[float],
                  overhead_s: float) -> dict:
    """Per-operation medians of the traced operations' per-layer records;
    self times are rescaled by their operation's calibration factor."""
    def per_op(values):
        return statistics.median(values) if values else 0.0

    # counts repeat exactly from one operation to the next; median_low keeps them whole
    def calls(layer):
        return statistics.median_low([s["layers"].get(layer, [0, 0.0])[0] for s in snaps])

    def counter(key):
        return statistics.median_low([s["counters"].get(key, 0) for s in snaps])

    m = {"cli.import_ms": (1000.0 * statistics.median(import_s), "ms")}
    for layer in LAYER_CALLS:
        m[f"{layer}.calls"] = (calls(layer), "count")
    for layer in LAYER_SELF:
        m[f"{layer}.self_ms"] = (1000.0 * per_op(
            [s["layers"].get(layer, [0, 0.0])[1] * k for s, k in zip(snaps, scales)]), "ms")
    m["manifest.dump_json.bytes"] = (counter("manifest.dump_json.bytes"), "bytes")
    rank_tests = calls("johansen.rank_test")
    m["johansen.concentrations_per_rank_test"] = (
        calls("johansen.concentrate") / rank_tests if rank_tests else 0.0, "ratio")
    attempted = counter("spec_search.attempted")
    m["spec_search.admissible_ratio"] = (
        counter("spec_search.fitted") / attempted if attempted else 0.0, "ratio")
    m["trace.overhead_ms"] = (1000.0 * overhead_s, "ms")
    return m


def measure(args, root: Path) -> int:
    from calibration import Clock

    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    # wall seconds of set-ups in fresh processes, rescaled at the end by the
    # median of all the run's kernel passes: a single pass next to a set-up
    # adds more noise than it removes, but the host's speed moves set-up too
    setup_samples = [child_json(probe, root)["setup_s"]
                     for _ in range(0 if args.trace else SETUP_PROBES)]
    wl, warm, _ = set_up(args, root)
    try:
        return _measure(args, root, wl, warm, Clock(), setup_samples)
    finally:
        wl.close()


def _measure(args, root, wl, warm, clock, setup_samples) -> int:
    import numpy as np
    import velakit
    import workloads
    from calibration import NOMINAL_S
    from tracer import Tracer

    # what an operation of the program may raise; anything else is a fault
    # of the benchmark itself and stops the run
    op_errors = (workloads.OperationFailed, velakit.VelakitError, ArithmeticError,
                 ValueError, LookupError, np.linalg.LinAlgError)
    problems = wl.check_inputs() + wl.check_reference(warm)
    tracer = Tracer() if args.trace else None
    in_process = wl.name != "cli_pipeline"
    # (raw seconds, calibration factor) per operation
    latencies, traced_latencies, snaps, spans, failures = [], [], [], None, []
    attempted = failed = 0
    min_ops = max(wl.min_ops, TAIL_MIN_OPS if wl.reports_tail else 1, 4 if args.trace else 1)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or attempted < min_ops:
        attempted += 1
        traced = tracer is not None and attempted % 2 == 0
        if traced:
            tracer.spans = [] if spans is None else None
            tracer.reset()
            if in_process:
                tracer.install()
        try:
            handle, raw, scale = clock.interval(wl.run, attempted, tracer if traced else None)
            out = wl.collect(handle)
        except op_errors as exc:
            failed += 1
            failures.append(f"operation {attempted}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced and in_process:
                tracer.uninstall()
        problems += wl.check(out)
        if not traced:
            latencies.append((raw, scale))
            continue
        traced_latencies.append((raw, scale))
        snap = tracer.snapshot() if in_process else out["trace"]
        if spans is None:
            spans = tracer.spans if in_process else snap.pop("spans", [])
        snaps.append(snap)
    peak_rss_mb = wl.peak_rss_mb()
    scaled = [raw * k for raw, k in latencies]
    raw_p50 = statistics.median(raw for raw, _ in latencies)

    if args.trace:
        import_cmd = [sys.executable, "-c", IMPORT_CODE]
        imports = [clock.interval(child_json, import_cmd, root / "src")
                   for _ in range(IMPORT_SAMPLES)]
        import_s = [seconds * k for seconds, _, k in imports]
        overhead = statistics.median(raw * k for raw, k in traced_latencies) - statistics.median(scaled)
        scales = [k for _, k in traced_latencies]
        metrics = layer_metrics(snaps, scales, import_s, overhead)
    else:
        run_scale = NOMINAL_S / statistics.median(clock.kernel_samples)
        metrics = {
            "latency_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "latency_tail_ms": (1000.0 * (tail(scaled) if wl.reports_tail
                                          else statistics.median(scaled)), "ms"),
            "throughput_per_s": (wl.units_per_op * len(scaled) / sum(scaled), "1/s"),
            "setup_s": (statistics.median(setup_samples) * run_scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:13s} {name:52s} {value:14.4f} {unit}")
    for problem in problems[:20]:
        print(f"{wl.name}: PROBLEM {problem}")
    for failure in failures[:5]:
        print(f"{wl.name}: FAILED {failure}")
    print(f"{wl.name}: {attempted} operations, {failed} failed, correct={not problems}; "
          f"raw wall p50 {1000.0 * raw_p50:.1f} ms, calibration kernel median "
          f"{1000.0 * statistics.median(clock.kernel_samples):.2f} ms "
          f"(nominal {1000.0 * NOMINAL_S:.2f} ms)")
    _write_record(root, args, result, {
        "latencies_ms": [(1000.0 * raw, k) for raw, k in latencies],
        "traced_latencies_ms": [(1000.0 * raw, k) for raw, k in traced_latencies],
        "setup_samples_s": setup_samples,
        "calibration_kernel_s": clock.kernel_samples,
        "problems": problems[:100],
        "failures": failures[:100],
        **({"per_op": snaps, "spans_first_traced_op": spans} if args.trace else {}),
    })
    print(json.dumps(result))
    return 0


def _write_record(root: Path, args, result: dict, detail: dict) -> None:
    import numpy as np

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        **result,
        **detail,
    }
    path = out / f"{kind}_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def run_all(args, root: Path) -> int:
    """Each workload in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result = child_json([sys.executable, str(HERE / "run.py"), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], root)
        for key, metric in result["metrics"].items():
            print(f"{name:13s} {key:52s} {metric['value']:14.4f} {metric['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "velakit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no velakit source under {root / 'src'}; "
                         "run from the root of a velakit checkout\n")
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    if args.workload == "all":
        return run_all(args, root)
    if args.setup_probe:
        wl, _, setup_s = set_up(args, root)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return measure(args, root)


if __name__ == "__main__":
    sys.exit(main())
