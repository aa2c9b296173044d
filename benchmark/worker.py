"""One workload in one process: set up from the seed, then run timed ops
until the measuring time is used up, checking every op's outputs.

Started by ``run.py`` from the root of a checkout; not meant to be run by
hand.  Writes its result as JSON to the ``--result`` path.  With
``--setup-only`` it stops after set-up, so ``run.py`` can sample set-up
time in several processes.  With ``--trace 1`` the ops alternate between
untraced and traced (``spans.Recorder`` installed), and the traced ops'
spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 3          # untraced run: enough for a median and a repeat check
MIN_EACH_TRACED = 2  # traced run: at least this many untraced and traced ops


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import cdrecon

    if Path(cdrecon.__file__).resolve().parent != (src / "cdrecon").resolve():
        raise RuntimeError(f"imported cdrecon from {cdrecon.__file__}, not {src}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, workdir)
    setup_s = time.perf_counter() - args.spawned_at
    from reference import NOMINAL_S, Reference  # after set-up: not part of setup_s

    ref = Reference()
    setup_ref_s = statistics.median(ref.seconds() for _ in range(3))
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
              "setup_scaled_s": setup_s * NOMINAL_S / setup_ref_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    nproc = len(os.sched_getaffinity(0))
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(cdrecon)
    deadline = time.perf_counter() + args.seconds
    ops = []
    threads_max = os_threads()
    while True:
        index = len(ops)
        traced = recorder is not None and index % 2 == 1
        ref_seconds = ref.seconds()
        if traced:
            recorder.install(index)
        t0 = time.perf_counter()
        try:
            raw, error = workload.op(), None
        except Exception:
            raw, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if traced:
            recorder.uninstall()
        op = {"index": index, "traced": traced, "seconds": seconds,
              "ref_seconds": ref_seconds,
              "scaled_seconds": seconds * NOMINAL_S / ref_seconds}
        if error is None:
            try:
                outcome = workload.check(raw)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            op.update(problems=[error], digest=None, counts={}, rel_l2_error=None)
        else:
            op.update(problems=outcome.problems, digest=outcome.digest,
                      counts=outcome.counts, rel_l2_error=outcome.rel_l2_error)
        threads = os_threads()
        threads_max = max(threads_max, threads)
        if threads > nproc:
            op["problems"].append(f"{threads} OS threads running, nproc is {nproc}")
        ops.append(op)
        for line in op["problems"]:
            print(f"{args.workload} op {index}: {line}", file=sys.stderr)
        n_traced = sum(o["traced"] for o in ops)
        enough = (len(ops) - n_traced >= MIN_EACH_TRACED and n_traced >= MIN_EACH_TRACED
                  if recorder else len(ops) >= MIN_OPS)
        # stop at the deadline, or before it when one more op would overrun it
        typical = statistics.median(o["seconds"] + o["ref_seconds"] for o in ops)
        if enough and time.perf_counter() + typical > deadline:
            break

    # the digests cover the counts too, so equal digests mean equal counts
    first_good = next((o for o in ops if o["digest"] is not None), None)
    for o in ops:
        if first_good is not None and o["digest"] not in (None, first_good["digest"]):
            o["problems"].append(
                f"outputs differ from op {first_good['index']} "
                f"({'traced' if o['traced'] else 'untraced'} vs "
                f"{'traced' if first_good['traced'] else 'untraced'})")

    result.update(
        ops=ops,
        threads_max=threads_max,
        nproc=nproc,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        counts=first_good["counts"] if first_good else {},
    )
    if recorder is not None:
        traced = {o["index"]: o["seconds"] for o in ops if o["traced"]}
        layers = spans.layer_metrics(recorder, traced)
        scaled = {flag: statistics.median(o["scaled_seconds"] for o in ops if o["traced"] == flag)
                  for flag in (True, False)}
        layers["trace.overhead"] = scaled[True] / scaled[False] - 1.0
        layers["trace.functions"] = recorder.functions
        result["layers"] = layers
        if args.spans:
            recorder.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
