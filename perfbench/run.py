"""End-to-end and per-layer benchmark of latticeface.

Run from the root of a source checkout (standard library only, nothing to
install):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client runs jobs in a closed loop, in this process: each job is one call of
``latticeface.cli.main([...])`` on a generated document, so it includes parsing,
the library and rendering, as a user's command would.  The job list is the
seeded corpus of ``corpus.py``; the run repeats whole passes over it while the
next pass still fits in ``--seconds``.  Every result is checked by the oracles
of ``oracles.py`` after the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` ignores
``--seconds`` and runs exactly four passes, untraced and traced in turn (spans
from ``spans.py``), so that its counts depend on the seed alone.  It
fails with exit code 3 if the two traced passes differ in any call or size
count, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced, on each end-to-end metric).  The last line of standard output
is one JSON object; a full record of the run, and the spans of a traced run,
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import oracles  # noqa: E402
import spans as spans_mod  # noqa: E402

SETUP_REPEATS = 5
# The tail is the highest percentile with at least this many distinct corpus
# jobs beyond it, so it does not move when a run fits one more pass.
TAIL_JOBS_BEYOND = 10
EXIT_NO_PROGRAM = 2
EXIT_NOT_REPEATABLE = 3

END_TO_END = {
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
OVERHEAD_PREFIX = "trace_overhead."


def per_layer_names() -> list[str]:
    return spans_mod.layer_metric_names() + [OVERHEAD_PREFIX + m for m in END_TO_END]


def per_layer_unit(name: str) -> str:
    if name.startswith(OVERHEAD_PREFIX):
        return END_TO_END[name[len(OVERHEAD_PREFIX):]]
    stat = name.rsplit(".", 1)[1]
    return "s" if stat.endswith("_s") else "ratio" if stat.endswith(("ratio", "share")) else "count"


# -- set-up -------------------------------------------------------------------


def import_program():
    """Import latticeface afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "latticeface" or n.startswith("latticeface.")]:
        del sys.modules[name]
    cli = importlib.import_module("latticeface.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"latticeface was imported from {cli.__file__}, not from {src}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the corpus from the seed and write its documents,
    SETUP_REPEATS times; returns the last result and every duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_program()
        corpus = corpus_mod.generate(workload, seed)
        corpus.write(workdir)
        durations.append(time.perf_counter() - t0)
    return cli, corpus, durations


# -- running jobs -------------------------------------------------------------


def run_job(cli, argv: list[str]):
    """(latency, exit code or None when it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a job that raises is a failed job, not a failed run
            code = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
    return latency, code, out.getvalue(), err.getvalue()


def run_pass(cli, argvs, tracer=None) -> list[tuple]:
    samples = []
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = index
        samples.append((index, *run_job(cli, argv)))
    return samples


def run_for(cli, argvs, seconds: float):
    """Whole passes while the next one is expected to end within ``seconds``.

    Returns the samples, each pass's wall time and the peak RSS after the
    first pass.  Later passes in the same process only add allocator
    fragmentation, which would make the peak depend on how many passes fit.
    """
    samples, walls, rss = [], [], None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        samples += run_pass(cli, argvs)
        now = time.perf_counter()
        walls.append(now - pass_start)
        if rss is None:
            rss = peak_rss_mb()
        if now - start + walls[-1] > seconds:
            return samples, walls, rss


# -- checking -----------------------------------------------------------------


def judge(corpus, samples) -> list[str | None]:
    """Per sample: None when correct, else why not.  Oracles check each job's
    first result; a later result must repeat it exactly."""
    first: dict[int, tuple] = {}
    for index, _, code, out, err in samples:
        first.setdefault(index, (code, out, err))
    parsed = {}
    for index, (code, out, _) in first.items():
        try:
            payload = json.loads(out) if out.strip() else None
        except json.JSONDecodeError:
            payload = None
        parsed[index] = (code, payload)
    by_key = {}
    for index, job in enumerate(corpus.jobs):
        if index in parsed:
            by_key[(job.shape, job.command, job.args)] = parsed[index]
    verdict = {}
    for index, result in parsed.items():
        job = corpus.jobs[index]

        def sibling(command, *args, _shape=job.shape):
            found = by_key.get((_shape, command, tuple(str(a) for a in args)))
            return found if found is not None and found[1] is not None else None

        reason = oracles.check(job, corpus.shapes[job.shape], result, sibling)
        if reason is not None and first[index][2]:
            reason += " | " + first[index][2].strip().splitlines()[-1]
        verdict[index] = reason
    out = []
    for index, _, code, stdout, _ in samples:
        reason = verdict[index]
        if reason is None and (code, stdout) != first[index][:2]:
            reason = "result differs from the same job's first result"
        out.append(reason)
    return out


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the order statistics around p."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(distinct_jobs: int) -> float:
    return max(0.5, 1.0 - TAIL_JOBS_BEYOND / distinct_jobs)


def end_to_end(samples, reasons, walls: list[float], distinct_jobs: int) -> dict:
    latencies = [s[1] for s in samples]
    correct = sum(1 for r in reasons if r is None)
    p_tail = tail_percentile(distinct_jobs)
    return {
        "jobs_per_s": correct / sum(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, p_tail),
        "tail_percentile": 100 * p_tail,
        "failed_ratio": (len(samples) - correct) / len(samples),
        "sample_count": len(samples),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- the two kinds of run -----------------------------------------------------


def measured_run(cli, corpus, argvs, seconds: float) -> dict:
    samples, walls, rss = run_for(cli, argvs, seconds)
    reasons = judge(corpus, samples)
    metrics = end_to_end(samples, reasons, walls, len(argvs))
    metrics["peak_rss_mb"] = rss
    return {"passes": len(walls), "pass_walls_s": walls, "samples": samples, "reasons": reasons,
            **metrics}


def traced_run(cli, corpus, argvs, out_dir: Path, label: str):
    """Two rounds of one untraced and one traced pass, alternating so that a
    drift in machine speed affects both sides alike.  Returns the per-layer
    metrics, the counts, the verdict on every sample and the end-to-end
    figures of both sides."""
    plain, plain_walls, traced, walls, span_sets, installs = [], [], [], [], [], []
    tracer = spans_mod.Tracer()
    plain_rss = None
    for _ in range(2):
        t0 = time.perf_counter()
        plain += run_pass(cli, argvs)
        plain_walls.append(time.perf_counter() - t0)
        if plain_rss is None:
            plain_rss = peak_rss_mb()
        t0 = time.perf_counter()
        tracer.install()
        installs.append(time.perf_counter() - t0)
        try:
            t0 = time.perf_counter()
            traced += run_pass(cli, argvs, tracer)
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        span_sets.append(tracer.take())

    counts = [spans_mod.count_signature(s) for s in span_sets]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        raise NotRepeatable(f"two traced passes of the same jobs differ in {', '.join(diff)}")

    reasons = judge(corpus, plain + traced)
    e_plain = end_to_end(plain, reasons[:len(plain)], plain_walls, len(argvs))
    e_traced = end_to_end(traced, reasons[len(plain):], walls, len(argvs))
    stats = [spans_mod.layer_stats(s) for s in span_sets]
    # Times are the mean of the two traced passes; counts are identical in both.
    metrics = {name: a if a == b else (a + b) / 2
               for (name, a), b in zip(stats[0].items(), stats[1].values())}
    for name in ("jobs_per_s", "latency_p50_s", "latency_tail_s"):
        metrics[OVERHEAD_PREFIX + name] = e_traced[name] - e_plain[name]
    metrics[OVERHEAD_PREFIX + "peak_rss_mb"] = peak_rss_mb() - plain_rss
    metrics[OVERHEAD_PREFIX + "setup_s"] = statistics.median(installs)

    spans_dir = out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_mod.write_spans(span_sets, spans_dir / f"{label}.jsonl")
    return metrics, counts[0], reasons, {"untraced": e_plain, "traced": e_traced}


class NotRepeatable(RuntimeError):
    pass


def check_counts_across_runs(counts: dict, path: Path, digest: str) -> None:
    """Compare with the counts an earlier traced run of the same seed and source
    wrote, if there is one; then record these."""
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source"] == digest and earlier["counts"] != counts:
            raise NotRepeatable(f"call and size counts differ from the earlier run in {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": digest, "counts": counts}, indent=1))


# -- entry point --------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latticeface" / "__init__.py").is_file():
        print(f"error: no latticeface sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = HERE / "out"
    label = f"{args.workload}-seed{args.seed}"
    load_start = os.getloadavg()
    started = time.time()
    try:
        cli, corpus, setup_durations = set_up(args.workload, args.seed, out_dir / "work" / label)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    argvs = [job.argv(out_dir / "work" / label) for job in corpus.jobs]
    setup_s = statistics.median(setup_durations)
    digest = source_digest()

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": source_commit(), "source_digest": digest,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "started": started,
        "distinct_jobs": len(argvs), "setup_durations_s": setup_durations,
    }
    if args.trace:
        try:
            metrics, counts, reasons, sides = traced_run(cli, corpus, argvs, out_dir, label)
            check_counts_across_runs(counts, out_dir / "counts" / f"{label}.json", digest)
        except NotRepeatable as exc:
            print(f"error: per-layer counts are not repeatable: {exc}", file=sys.stderr)
            return EXIT_NOT_REPEATABLE
        units = {name: per_layer_unit(name) for name in per_layer_names()}
        record.update(counts=counts, **sides)
    else:
        run = measured_run(cli, corpus, argvs, args.seconds)
        reasons = run["reasons"]
        metrics = {name: run[name] for name in ("jobs_per_s", "latency_p50_s",
                                                "latency_tail_s", "peak_rss_mb")}
        metrics["setup_s"] = setup_s
        units = END_TO_END
        record.update({k: run[k] for k in ("passes", "pass_walls_s", "tail_percentile",
                                           "failed_ratio", "sample_count")})
        record["latencies_by_job"] = {
            corpus.jobs[i].key: [s[1] for s in run["samples"] if s[0] == i]
            for i in range(len(argvs))
        }

    failed = sum(1 for r in reasons if r)
    record.update({
        "attempted": len(reasons), "failed": failed,
        "failures": [f"{corpus.jobs[i % len(argvs)].key}: {r}" for i, r in enumerate(reasons) if r][:50],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "loadavg_end": os.getloadavg(),
    })
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = results_dir / f"{label}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, unit in units.items():
        print(f"{name:58s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{'failed_ratio':58s} {record['failed_ratio']:>14.6g} ratio")
        print(f"latency_tail_s is p{record['tail_percentile']:.2f} over {record['sample_count']} jobs "
              f"({record['passes']} passes of {len(argvs)} distinct jobs)")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
