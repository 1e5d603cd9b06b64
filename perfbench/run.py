"""Benchmark for stag: seeded workloads, end-to-end metrics, answer checks
and a traced per-module breakdown.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

All three workloads, each in its own process:

    for w in forward recognize scale; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20; done

Workloads (inputs and the reasons for them are in corpus.py):
  forward    G -> Aux(G): build_stag + stag_to_json, and param_report
  recognize  Aux -> minimal preimage: invert, in process and via ``stag invert``
  scale      parsing, serialising, blocks, counting and isomorphism on
             large sparse graphs, in process and via ``stag count``/``blocks``

A run imports stag from ``src/`` of the checkout it sits in, sets up
(fresh import, input generation, warm-up), then runs passes over the
workload's operations, one at a time in this single process:
``--seconds`` divided by the workload's nominal pass length, rounded, and
at least three. The few heavy operations, the slowest of each workload,
run in the first and the last pass only, so the other operations get
more passes in the same time. The pass count depends on ``--seconds``
only, never on how fast the host happens to be, so every run of a
workload takes the median of the same number of passes. Each operation runs
under a per-operation limit enforced by a real-time interval timer. After
timing, it sets up again, SETUPS set-ups in all, reports their median, and
checks every answer against an independent reference (checks.py).

On a shared host the speed of pure-Python code changes by up to 1.7 times
within seconds, and stays slow or fast for seconds to minutes, with CPU
time equal to wall time. So every time is scaled to a reference host
speed: a fixed pure-Python graph computation (``calibrate``, about 1 ms)
is timed before every operation, after the last one and before and after
every set-up, and each time is multiplied by REF_CAL_S over the median of
the loop times around it (CAL_WINDOW operations either side, or CAL_SETUP
samples either side of a set-up). An operation's latency is then the
median of its scaled passes (a failure counts at the limit, unscaled), and
ops_per_s is the number of operations that completed divided by the sum
of those latencies, that is, by the time of one pass at the median. The
printed report also gives every metric unscaled. On a 2-vCPU Intel Xeon
VM, in two sets of ten runs of each workload with different seeds, the
ops_per_s, op_p50_ms and op_p90_ms of a set spread (interquartile range
over median) 0.14-0.45 unscaled and 0.011-0.091 scaled.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs two passes
untraced and two with the span recorder of spans.py installed,
and prints the per-module metrics and the tracing overhead. The
per-module times are the spans' own wall times, unscaled; the overhead
compares the scaled time of one pass at the median, traced and untraced. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. The run record, and with ``--trace 1`` the spans, are written to
``perfbench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3
CAL_WINDOW = 10  # an operation is scaled by the samples of 10 operations either side
CAL_SETUP = 5  # calibration samples before and after each set-up
# 61 vertices of degree 4: the graph the calibration loop searches.
_CAL_GRAPH = {v: frozenset({(7 * v + 1) % 61, (13 * v + 5) % 61, (v + 1) % 61, (v - 1) % 61})
              for v in range(61)}
# Time of the calibration loop in a fast stretch of the host the benchmark
# was sized on (2 vCPUs of an Intel Xeon VM, Python 3.11). Reported times
# are milliseconds and seconds at this host speed.
REF_CAL_S = 0.0007
STAG_MODULES = (
    "errors", "graph_core", "spanning_trees", "aux_graph", "factorization",
    "recognition", "params", "generators", "oracles", "cli",
)
UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# fail_frac can be exactly 0, so the result line carries it as
# attempted/failed rather than as a metric.
RESULT_METRICS = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")


class OpTimeout(BaseException):
    """Raised by the interval timer. A BaseException, so that no handler
    inside stag can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_stag():
    """Fresh import of stag from the checkout's src/."""
    if not (SRC / "stag" / "__init__.py").is_file():
        raise ImportError(f"no stag package under {SRC}")
    for name in [n for n in sys.modules if n == "stag" or n.startswith("stag.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"stag.{name}") for name in STAG_MODULES}
    if Path(sys.modules["stag"].__file__).resolve().parent != SRC / "stag":
        raise ImportError("stag was imported from outside this checkout")
    return SimpleNamespace(**modules)


def calibrate():
    """Time of a fixed pure-Python graph computation: breadth-first search
    over dicts of frozensets, sets of frozensets of edges and sorting, the
    kind of code stag is made of but none of stag's own. One sample of the
    host's speed; it follows stag's timings more closely than an integer
    loop does."""
    start = time.perf_counter()
    seen = set()
    for root in range(0, len(_CAL_GRAPH), 10):
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _CAL_GRAPH[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        tree = frozenset((min(x, y), max(x, y)) for x in dist for y in _CAL_GRAPH[x]
                         if dist[y] == dist[x] + 1)
        for e in sorted(tree)[:12]:
            seen.add(tree - {e})
    return time.perf_counter() - start


def speed(samples):
    """Factor that scales a time taken among these calibration samples to
    the reference host speed."""
    return REF_CAL_S / statistics.median(samples)


def set_up(workload, seed, workdir, tiny, recorder=None, started=None):
    """One set-up: fresh import of stag, input generation and warm-up.
    Returns the stag modules, the corpus and the duration."""
    start = started if started is not None else time.perf_counter()
    S = import_stag()
    if recorder is not None:
        recorder.install(S)
    built = corpus.WORKLOADS[workload](S, seed, workdir, tiny)
    for warm in built.warmups:
        warm()
    if recorder is not None:
        recorder.uninstall()
    return S, built, time.perf_counter() - start


def repeat_set_up(workload, seed, workdir, tiny, setups):
    """Further set-ups after the timed phase, up to SETUPS in all, so that
    the median samples the host at other moments than the first set-up.
    setups holds (seconds, scale factor) pairs."""
    while len(setups) < SETUPS:
        before = [calibrate() for _ in range(CAL_SETUP)]
        seconds = set_up(workload, seed, workdir, tiny)[2]
        setups.append((seconds, speed(before + [calibrate() for _ in range(CAL_SETUP)])))


class Answers:
    """First answer of every operation, kept for the checks, and the
    digests that later passes are compared against."""

    def __init__(self, count):
        self.first = [None] * count
        self.have = [False] * count
        self.digest = [None] * count
        self.changed = set()
        self.wrong = set()  # negatives that were given a preimage

    def record(self, i, op, value):
        d = op.digest(value) if op.digest else None
        if not self.have[i]:
            self.first[i] = op.keep(value) if op.keep else value
            self.digest[i] = d
            self.have[i] = True
        elif d != self.digest[i]:
            self.changed.add(i)


def run_op(op, limit, errors):
    """(status, value, seconds, detail); failures count at the limit."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None, limit, f"no answer within {limit:g} s"
    except (errors.TooLarge, errors.TooManyTrees) as exc:
        return "guard", None, limit, f"{type(exc).__name__}: {exc}"
    except errors.NotAStag as exc:
        if op.negative:
            return "ok", exc, time.perf_counter() - start, ""
        return "wrong_verdict", None, limit, f"NotAStag: {exc}"
    except Exception as exc:  # any other error fails this operation only
        return "error", None, limit, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if op.cli and value != (1 if op.negative else 0):
        status = {1: "wrong_verdict", 3: "guard"}.get(value, "error")
        if op.negative and value == 0:
            status = "wrong_answer"
        return status, None, limit, f"stag exit code {value}"
    if op.negative and not op.cli:
        return "wrong_answer", None, limit, "returned a preimage of a negative"
    return "ok", value, seconds, ""


def run_passes(ops, limit, passes, errors, answers, recorder=None):
    """Passes over ops, heavy ops in the first and the last only, with a
    calibration sample before every operation and after the last. Returns
    the records (op index, status, seconds, detail, scale factor), each
    pass's wall time and the calibration samples."""
    records = []
    walls = []
    cal = [calibrate()]
    for j in range(passes):
        gc.collect()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if op.heavy and 0 < j < passes - 1:
                continue
            if recorder is not None:
                recorder.op = f"{len(walls)}:{i}"
            status, value, seconds, detail = run_op(op, limit, errors)
            cal.append(calibrate())
            records.append((i, status, seconds, detail))
            if status == "ok":
                answers.record(i, op, value)
            elif status == "wrong_answer":
                answers.wrong.add(i)
        walls.append(time.perf_counter() - start)
    # Record k ran between samples k and k + 1.
    records = [r + (speed(cal[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 2]),)
               for k, r in enumerate(records)]
    return records, walls, cal


def latencies(records, scaled=True):
    """Each operation's median pass, scaled unless a failure (which counts
    at the limit) or scaled is false, and the operations that completed."""
    passes, done = {}, set()
    for i, status, seconds, _, factor in records:
        ok = status == "ok"
        passes.setdefault(i, []).append(seconds * factor if ok and scaled else seconds)
        if ok:
            done.add(i)
    return [statistics.median(p) for p in passes.values()], done


def end_to_end(records, setups, rss_mb, scaled=True):
    """The end-to-end metrics; setups holds (seconds, scale factor) pairs."""
    lat, done = latencies(records, scaled)
    failed = sum(1 for r in records if r[1] != "ok")
    return {
        "ops_per_s": len(done) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
        "fail_frac": failed / len(records),
        "setup_s": statistics.median(t * f if scaled else t for t, f in setups),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_answers(ops, answers):
    problems = []
    for i, op in enumerate(ops):
        if not answers.have[i]:
            continue
        try:
            found = op.check(answers.first[i])
        except Exception as exc:  # a malformed answer is a wrong answer
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems.extend(f"{op.label}: {p}" for p in found)
    problems.extend(f"{ops[i].label}: answer changed between passes" for i in sorted(answers.changed))
    problems.extend(f"{ops[i].label}: returned a preimage of a negative" for i in sorted(answers.wrong))
    return problems


def failures(ops, records):
    return Counter(
        (ops[i].label, status, detail) for i, status, _, detail, _ in records if status != "ok"
    )


# -- run context ---------------------------------------------------------------


def _git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context():
    lines = 0
    for path in sorted((SRC / "stag").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_stag_lines": lines,
    }


# -- one run ---------------------------------------------------------------------


def _print_e2e(metrics, raw, records, walls, out):
    n = len(records)
    failed = sum(1 for r in records if r[1] != "ok")
    runs = Counter(r[0] for r in records)
    ops = len(runs)
    heavy = sum(1 for k in runs.values() if k < len(walls))
    passes = f"{len(walls)} passes" + (f", {heavy} heavy ones of 2" if heavy else "")
    wall = sum(walls)
    notes = {
        "ops_per_s": f"median of {passes} per operation; all passes: {n - failed}"
                     f" completed in {wall:.2f} s wall = {(n - failed) / wall:.4f}",
        "op_p50_ms": f"n={ops} operations, each its median of {passes}",
        "op_p90_ms": f"n={ops}, {ops - int(0.9 * ops)} beyond",
        "fail_frac": f"{failed} of {n} failed",
        "setup_s": f"median of {SETUPS} set-ups",
        "peak_rss_mb": "ru_maxrss after the timed phase",
    }
    for name, value in metrics.items():
        unscaled = "" if raw[name] == value else f"unscaled {raw[name]:.4f}; "
        print(f"  {name:<12} {value:>12.4f} {UNITS[name]:<6} ({unscaled}{notes[name]})",
              file=out)


def run(workload, seed, seconds, trace, tiny=False, out=sys.stdout, started=None):
    """Run one workload; print the report and return the result object."""
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    recorder = spans.Recorder() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        S, built, first_setup = set_up(workload, seed, workdir, tiny, recorder, started)
        # No sample can precede the first set-up, which starts with the process.
        setups = [(first_setup, speed([calibrate() for _ in range(2 * CAL_SETUP)]))]
        ops, limit = built.ops, built.limit_s
        answers = Answers(len(ops))
        # Two passes when traced, so that every operation is in every pass
        # and the per-module metrics are per pass.
        passes = 2 if trace else max(MIN_PASSES, round(seconds / built.pass_s))
        records, walls, cal = run_passes(ops, limit, passes, S.errors, answers)
        if trace:
            recorder.install(S)
            recorder.begin_timed()
            t_records, t_walls, _ = run_passes(
                ops, limit, passes, S.errors, answers, recorder)
            recorder.uninstall()
        rss = peak_rss_mb()
        repeat_set_up(workload, seed, workdir, tiny, setups)
        problems = check_answers(ops, answers)
    ctx = context()
    ctx["calibration_ms"] = [1000.0 * t for t in cal]
    metrics = end_to_end(records, setups, rss)
    raw = end_to_end(records, setups, rss, scaled=False)
    print(
        f"perfbench {workload} seed={seed} trace={trace} python={ctx['python']} "
        f"nproc={ctx['nproc']} src/stag lines={ctx['src_stag_lines']} sha={ctx['git_sha']}",
        file=out,
    )
    print(f"{workload}: {len(ops)} operations per pass, limit {limit:g} s per operation"
          + (", untraced" if trace else ""), file=out)
    print(f"  times scaled to the reference host speed: calibration loop "
          f"{1000.0 * REF_CAL_S:.3f} ms there, {min(cal) * 1000.0:.3f}-"
          f"{statistics.median(cal) * 1000.0:.3f} ms (fastest-median) in this run, "
          f"n={len(cal)}", file=out)
    _print_e2e(metrics, raw, records, walls, out)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "context": ctx, "end_to_end": metrics, "unscaled_end_to_end": raw,
              "setups": setups}
    if trace:
        traced = end_to_end(t_records, setups, rss)
        print(f"{workload}: traced", file=out)
        _print_e2e(traced, end_to_end(t_records, setups, rss, scaled=False), t_records,
                   t_walls, out)
        overhead = 100.0 * (sum(latencies(t_records)[0]) / sum(latencies(records)[0]) - 1.0)
        print("  tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {traced[k] - metrics[k]:+.4f} {UNITS[k]}"
            for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")
        ) + f"; median pass time {overhead:+.2f}%", file=out)
        layers = recorder.layer_metrics(len(t_walls))
        layers["trace.overhead_pct"] = (overhead, "%")
        print(f"{workload}: per-module metrics, per pass of the traced phase", file=out)
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:>14.4f} {unit}", file=out)
        if recorder.absent:
            print("  absent wrap targets: " + ", ".join(recorder.absent), file=out)
        records += t_records
        record["traced_end_to_end"] = traced
        record["layers"] = {k: v for k, (v, _) in layers.items()}
        record["trace"] = recorder.to_json()
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": UNITS[k]} for k in RESULT_METRICS}

    failed = failures(ops, records)
    for (label, status, detail), times in sorted(failed.items()):
        print(f"  failed: {label}: {status} x{times} ({detail})", file=out)
    for p in problems:
        print(f"  WRONG ANSWER: {p}", file=out)
    checked = sum(answers.have)
    print(f"answers: {checked} of {len(ops)} inputs checked, "
          f"{'all correct' if not problems else f'{len(problems)} problem(s)'}", file=out)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(failed.values()),
        "metrics": result_metrics,
    }
    record.update(result, failures=[list(k) + [v] for k, v in failed.items()], problems=problems,
                  labels=[op.label for op in ops],
                  samples=[[i, status, seconds, factor]
                           for i, status, seconds, _, factor in records])
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, started=START)
    except ImportError as exc:
        print(f"perfbench: cannot import stag: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
