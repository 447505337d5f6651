"""End-to-end benchmark of vampcf on seeded synthetic workloads.

    python3 perfbench/run.py --workload train-hvamp-4k --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --seed 1        # each in its own process
    python3 perfbench/run.py --workload eval-hvamp-20k --trace 1

Run from the repository root; the package is imported from ``src/``. A
run prints each metric by name with its unit, writes its results with a
run manifest to ``perfbench/out/``, and prints one JSON object as the
last line of standard output. ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` wraps the package's
public functions (see ``spans.py``) and reports the per-layer metrics,
writing every span to ``perfbench/out/`` as well. The exit code is 0
only when every output check passed and no operation failed.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    # Only a checkout's own .git counts; never a repository above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def manifest(seed):
    import numpy as np

    from vampcf import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernels_backend": kernels.BACKEND_NAME,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def check_bypasses(name, metrics, outcome):
    """Layers that layer_map.json says do no work on this workload must
    report zero calls (or zero, for a computed metric) in a traced run."""
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    for entry in layers:
        if name not in entry.get("zero_on", ()):
            continue
        key = entry["metric"]
        key = f"{key}_calls" if f"{key}_calls" in metrics else key
        outcome.check(f"bypass_{key}", metrics[key] == 0,
                      f"{key} reads {metrics[key]:g}")


def measure(w, seed, seconds, trace, outcome, tracer, workdir):
    """Set up, run the measured repetitions and the checks of one run."""
    import workloads as W

    m = {"setup_seconds": [], "rep_seconds": [], "traced_rep_seconds": [],
         "rates": [], "setup_roots": set(), "rep_roots": set()}
    fingerprints = []

    def set_up():
        if trace:
            tracer.enabled = True
            m["setup_roots"].add(len(tracer.spans))
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            state = W.setup(w, seed, workdir)
            m["setup_seconds"].append(time.perf_counter() - t0)
        tracer.enabled = False
        fingerprints.append(W.data.vocab_fingerprint(state["split"].vocab))
        return state

    # Set-ups run on both sides of the repetitions. This machine's speed
    # moves between levels up to 40% apart every few seconds to minutes;
    # spread over the whole run, the set-ups' median averages the levels
    # instead of landing on the one the run started in.
    before, state = (w.setups + 1) // 2, None
    for _ in range(before):
        state = None  # free the previous set-up's checkpoint first
        state = set_up()
    m["vocab_fingerprint"] = fingerprints[0]
    m["shapes"] = W.shapes(w, state["split"])
    bench = (W.TrainWorkload if w.kind == "train" else W.EvalWorkload)(
        w, seed, state, outcome)
    del state

    # Untraced runs time only the measured call. A traced run also times
    # the popularity baseline, on both sides of the repetitions because
    # the machine's speed drifts over tens of seconds, and traces every
    # repetition after an untraced warm-up, which also runs the first
    # call's one-off checks.
    if trace:
        bench.baseline(W.BASELINE_SECONDS)
    t_start, i = time.perf_counter(), 0
    while True:
        traced = bool(trace) and i > 0
        tracer.enabled = traced
        if traced:
            m["rep_roots"].add(len(tracer.spans))
        r0 = time.perf_counter()
        with tracer.span("bench.rep"):
            rate = bench.rep()
        dt = time.perf_counter() - r0
        m["rep_seconds"].append(dt)
        tracer.enabled = False
        if traced:
            m["traced_rep_seconds"].append(dt)
        elif rate is not None and not trace:
            m["rates"].append(rate)
        i += 1
        if time.perf_counter() - t_start >= seconds and (not trace or i >= 2):
            break
    if trace:
        bench.baseline(W.BASELINE_SECONDS)
    for _ in range(w.setups - before):
        set_up()
    outcome.check("setup_deterministic", len(set(fingerprints)) == 1,
                  "every set-up gives the same vocabulary")
    m["quality"] = bench.finish()
    m["computed"] = bench.computed()
    m["computed"]["training.test_ndcg_100"] = m["quality"].get("model_ndcg_100", 0.0)
    m["computed"]["metrics.popularity_users_per_s"] = _median(bench.baseline_rates)
    m["baseline_rates"] = bench.baseline_rates
    return m


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, spec):
    import tempfile

    import workloads as W
    from spans import Tracer, per_layer_metrics

    w = W.WORKLOADS[name]
    outcome = W.Outcome()
    tracer = Tracer()
    if trace:
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
            m = measure(w, seed, seconds, trace, outcome, tracer, workdir)
    finally:
        tracer.uninstall()

    if trace:
        metrics = per_layer_metrics(tracer, m["setup_roots"], m["rep_roots"],
                                    m["computed"], m["traced_rep_seconds"])
        check_bypasses(name, metrics, outcome)
        declared = spec["per_layer"]
    else:
        metrics = {
            "users_per_s": _median(m["rates"]),
            "peak_rss_mb": W.peak_rss_mb(),
            "setup_s": _median(m["setup_seconds"]),
        }
        declared = spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    why = {d["name"]: d["why"] for d in spec["workloads"]}
    if sorted(metrics) != sorted(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         f"match BENCHMARK.json")

    correct = outcome.failed == 0 and all(c["ok"] for c in outcome.checks.values())
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    tag = f"{name}_seed{seed}_trace{trace}"
    results = {
        "workload": name, "why": why[name], "seed": seed, "seconds": seconds,
        "trace": trace, "manifest": manifest(seed), "shapes": m["shapes"],
        "vocab_fingerprint": m["vocab_fingerprint"], "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_frac": failed_frac, "checks": outcome.checks,
        "metrics": metrics, "quality": m["quality"], "computed": m["computed"],
        "peak_rss_mb": W.peak_rss_mb(),
        **{k: m[k] for k in ("setup_seconds", "rep_seconds", "rates",
                             "traced_rep_seconds", "baseline_rates")},
    }
    if trace:
        results["by_key"] = tracer.by_key(m["rep_roots"])
        results["tape_ops"] = tracer.counts["tape_ops"]
        tracer.write(os.path.join(OUT, f"{tag}_spans.jsonl"))
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for key, value in sorted(metrics.items()):
        print(f"{name} {key} {value:.6g} {units[key]}")
    print(f"{name} failed_frac {failed_frac:.6g} ratio")
    for key, c in sorted(outcome.checks.items()):
        print(f"{name} check {key} {'ok' if c['ok'] else 'FAILED'} {c['detail']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args, spec):
    """Each workload in its own process; a summary line per metric."""
    import workloads as W
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return code


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "vampcf", "__init__.py")):
        print(f"error: no vampcf sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long to repeat the measured call")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = _load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
