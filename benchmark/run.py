"""cdrecon benchmark.  Run from the root of a checkout:

    python3 benchmark/run.py --workload recon-n64 --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all       # every workload, one after another

Each workload runs in its own worker process (``worker.py``), after
``SETUP_PROBES`` extra processes that only set up, so ``setup_s`` is a
median over several set-ups.  Times are scaled by a reference kernel timed
in the same process (``reference.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.  Everything the run produced, spans
included, is kept under ``.benchmark_out/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
BUDGET_S = 170.0  # the whole run, per workload
# The pipeline is sequential; one BLAS thread keeps a worker at one OS thread
# (numpy and scipy each load their own OpenBLAS, each with its own pool).
WORKER_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "worker_thread_env": WORKER_THREADS,
        "seed": seed,
    }


def run_worker(args, workload: str, out: Path, tag: str, deadline: float,
               setup_only: bool) -> dict:
    result = out / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result),
           "--workdir", str(out / f"work-{workload}")]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(out / f"{tag}.spans.json")]
    env = dict(os.environ, **WORKER_THREADS)
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    data = json.loads(result.read_text())
    if setup_only:
        result.unlink()
    return data


def run_workload(args, workload: str, out: Path, spec: dict) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    probes = [run_worker(args, workload, out, f"{stem}-setup{k}", deadline, True)
              for k in range(SETUP_PROBES)]
    res = run_worker(args, workload, out, stem, deadline, False)
    shutil.rmtree(out / f"work-{workload}", ignore_errors=True)
    setups = [p["setup_scaled_s"] for p in probes + [res]]

    ops = res["ops"]
    failed = [o for o in ops if o["problems"]]
    good = [o for o in ops if not o["problems"] and not o["traced"]]
    if not good:
        raise BenchError(f"{workload}: no untraced op succeeded")
    op_times = [o["seconds"] for o in good]
    values = {
        "op_s": statistics.median(o["scaled_seconds"] for o in good),
        "setup_s": statistics.median(setups),
        "rel_l2_error": statistics.median(o["rel_l2_error"] for o in good),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        layers = dict(res["layers"])
        for name in ("recon.sweeps", "bregman.iterations", "elliptic.solve_iterations"):
            layers[name] = res["counts"].get(name, 0)
        values.update(layers)
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}

    notes = {
        "op_s": f"median of {len(op_times)} scaled untraced ops; wall median "
                f"{statistics.median(op_times):.4f}, min {min(op_times):.4f}, "
                f"max {max(op_times):.4f}; reference kernel median "
                f"{statistics.median(o['ref_seconds'] for o in good):.4f}",
        "setup_s": f"median of {len(setups)} scaled set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups) + "; wall "
                   + ", ".join(f"{p['setup_s']:.3f}" for p in probes + [res]),
    }
    print(f"[{workload}] seed={args.seed} trace={args.trace} ops={len(ops)}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {values[m['name']]:<12.6g} {m['unit']:<6} {notes.get(m['name'], '')}")
    print(f"  {'ops_failed':<14} {len(failed) / len(ops):<12.6g} {'share':<6} "
          f"{len(failed)} of {len(ops)} ops")
    print("  counts         " + " ".join(f"{k}={v}" for k, v in sorted(res["counts"].items())))
    print(f"  threads        at most {res['threads_max']} OS threads, nproc {res['nproc']}")
    if args.trace:
        modules = layers["trace.other_s"] + sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"  trace          {layers['trace.functions']} functions wrapped; per traced op "
              f"{layers['trace.op_s']:.4f} s = module self times {modules:.4f} s "
              f"+ outside {layers['trace.outside_s']:.4f} s")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<26} {values[m['name']]:<12.6g} {m['unit']}")
    for o in failed:
        print(f"  op {o['index']} failed: {o['problems'][0].strip().splitlines()[-1]}")
    return {"attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cdrecon" / "__init__.py").is_file():
        print(f"benchmark: no src/cdrecon under {root}; run from a cdrecon checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"benchmark: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 1
    out = root / ".benchmark_out"
    out.mkdir(exist_ok=True)

    env = environment(args.seed)
    print("env: " + json.dumps(env))
    results = {}
    try:
        for w in chosen:
            results[w] = run_workload(args, w, out, spec)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.summary.json").write_text(
        json.dumps({"env": env, "seconds": args.seconds, "results": results}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
