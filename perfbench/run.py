#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The workload's inputs
come from ``--seed``.  After set-up, jobs run one after another (a closed
loop with one client) until the next one would end past ``--seconds``;
each job's outputs are checked once its clock has stopped.  With
``--trace 0`` every round is followed by one untimed set-up sample: a
fresh interpreter's imports (``import_time.py``) and the workload's
set-up.  ``setup_s`` is the median import time, this process's own
included, plus the median set-up time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the environment
record, is written to ``--result`` (default ``perfbench/results/``), and a
traced run also writes its spans there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import spec  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class LibraryMissing(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS + spec.PROBE_ONLY)
    p.add_argument("--seed", type=int, default=20250809)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas", choices=("pinned", "default"), default="pinned",
                   help="pin BLAS to one thread per process (pinned), or leave the BLAS "
                        "thread environment untouched (default: the BLAS-default probe)")
    p.add_argument("--result", help="where to write the full result JSON")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas(mode):
    """Pin BLAS to one thread before numpy loads; returns whether it did.

    Pinned, two rounds of the same job agree; with the BLAS environment
    untouched the grid search's two workers each start a BLAS thread per
    core and its round time jumps between two modes about 1.7x apart.
    """
    if mode == "pinned":
        for var in spec.BLAS_THREAD_VARS:
            os.environ[var] = "1"
        return True
    return False


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "robusthcn")):
        raise LibraryMissing("no robusthcn sources under %s" % src)
    sys.path.insert(0, src)
    import robusthcn

    where = os.path.dirname(os.path.abspath(robusthcn.__file__))
    if where != os.path.join(src, "robusthcn"):
        raise LibraryMissing("robusthcn imported from %s, not from this checkout" % where)


def import_sample():
    """Seconds a fresh interpreter takes for the imports this one made before set-up.

    The child inherits this process's BLAS environment, pin included.
    """
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "import_time.py")],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def median(values):
    return float(statistics.median(values))


def run_rounds(workload, args, inputs, workdir):
    """The timed loop; returns per-round records and the traced spans."""
    import layers
    import tracing

    stage = tracing.Tracer(layers.stage_targets())
    full = tracing.Tracer(layers.layer_targets(), spill_dir=workdir) if args.trace else None
    traced_spans = []
    rounds = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if rounds:
            same = [r["wall_s"] + r["setup_s"] + r.get("import_s", 0.0)
                    for r in rounds if r["traced"] == traced]
            estimate = median(same) if same else 0.0
            enough = any(r["traced"] for r in rounds) or not args.trace
            if enough and time.perf_counter() + estimate > deadline:
                break
        tracer = full if traced else stage
        tracer.reset()
        record = {"traced": traced, "setup_s": 0.0, "error": None}
        with tracer:
            if traced:
                t0 = time.perf_counter()
                inputs = workload.setup(args.seed, workdir)
                record["setup_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                raw = workload.job(inputs)
            except Exception as exc:  # a failed job is a failed operation, not a crash
                raw = None
                record["error"] = "%s: %s" % (type(exc).__name__, exc)
            record["wall_s"] = time.perf_counter() - t0
        tracer.merge_spills()
        for key, names in (("train", layers.TRAIN_SPANS), ("infer", layers.INFER_SPANS),
                           ("prep", layers.PREP_SPANS)):
            record[key + "_s"], record[key + "_turns"] = layers.stage_totals(tracer.spans, names)
        if raw is not None:
            try:
                review = workload.review(inputs, raw, tracer)
            except Exception as exc:  # unreadable output fails the round's checks
                record["error"] = "review: %s: %s" % (type(exc).__name__, exc)
            else:
                record.update(checks=review.checks, steps=review.steps,
                              evaluated=review.evaluated, quality=review.quality)
        if not args.trace:
            # One set-up sample after every round: spread over the run like the
            # rounds, so that the host's speed drift over seconds averages out
            # of setup_s as it does out of wall_s.
            record["import_s"] = import_sample()
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            record["setup_s"] = time.perf_counter() - t0
        if traced:
            base = len(traced_spans)
            for span in tracer.spans:
                if span.parent is not None:
                    span.parent += base
                traced_spans.append(span)
        rounds.append(record)
    return rounds, traced_spans


def end_to_end(workload, setup_s, rounds):
    untraced = [r for r in rounds if not r["traced"]]
    metrics = {
        "setup_s": setup_s,
        "wall_s": median([r["wall_s"] for r in untraced]),
    }
    for stage in ("train", "infer", "prep"):
        rates = [r[stage + "_turns"] / r[stage + "_s"] for r in untraced
                 if r[stage + "_turns"] and r[stage + "_s"] > 0]
        if rates:
            metrics[stage + "_turns_per_s"] = median(rates)
    metrics["turns_per_s"] = metrics.get(spec.HEADLINE[workload.name], 0.0)
    # this process's peak plus, where the job has worker processes, the largest
    # worker's (the import-time children are smaller than a grid-search worker)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if getattr(workload, "jobs", 1) > 1:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    quality = [r["quality"] for r in untraced if "quality" in r]
    if quality:
        for key in quality[-1]:
            metrics[key] = median([q[key] for q in quality])
    return metrics


def per_layer(rounds, spans):
    import layers

    traced = [r for r in rounds if r["traced"]]
    metrics = layers.layer_metrics(spans, len(traced))
    untraced_wall = [r["wall_s"] for r in rounds if not r["traced"]]
    metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(untraced_wall)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    pinned = pin_blas(args.blas)
    try:
        import_library()
    except (LibraryMissing, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    import envinfo
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(BENCH_DIR, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=os.path.join(BENCH_DIR, "work"))
    try:
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - t0
        rounds, spans = run_rounds(workload, args, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sampled = [r for r in rounds if "import_s" in r]
    imports = [import_s] + [r["import_s"] for r in sampled]
    setups = [setup_s] + [r["setup_s"] for r in sampled]
    attempted = failed = 0
    failures = []
    for i, r in enumerate(rounds):
        if r["error"] is not None:
            attempted += 1
            failed += 1
            failures.append("round %d: %s" % (i, r["error"]))
            continue
        attempted += r["steps"] + r["evaluated"] + len(r["checks"])
        bad = [name for name, ok in r["checks"].items() if not ok]
        failed += len(bad)
        failures += ["round %d: check %s failed" % (i, name) for name in bad]

    if args.trace:
        metrics = per_layer(rounds, spans)
        wanted = [m.name for m in spec.PER_LAYER]
    else:
        metrics = end_to_end(workload, median(imports) + median(setups), rounds)
        wanted = [m.name for m in spec.GATED]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_pinned": pinned,
        "rounds": rounds,
        "import_samples_s": imports,
        "setup_samples_s": setups,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": spec.BY_NAME[k].unit} for k, v in metrics.items()},
        "env": envinfo.environment(ROOT, args.seed),
    }
    print("env %s" % json.dumps(result["env"], sort_keys=True))
    results_dir = os.path.join(BENCH_DIR, "results")
    path = args.result or os.path.join(
        results_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if args.trace:
        import tracing

        tracing.write_spans(os.path.splitext(path)[0] + "-spans.jsonl", spans)

    print("workload %s seed %d: %d rounds, %d operations, %d failed"
          % (args.workload, args.seed, len(rounds), attempted, failed))
    for line in failures:
        print("  " + line)
    for name in sorted(metrics):
        print("metric %s = %.6g %s" % (name, metrics[name], spec.BY_NAME[name].unit))
    print("result written to %s" % os.path.relpath(path, ROOT))
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": spec.BY_NAME[name].unit}
                    for name in wanted},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
