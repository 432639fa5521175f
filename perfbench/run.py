#!/usr/bin/env python3
"""hopfmin benchmark: whole CLI runs, and a traced in-process run per layer.

    python3 perfbench/run.py --workload a2-qt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

--trace 0 times `python -m hopfmin` processes and prints the end-to-end
metrics; --trace 1 drives the same problem through hopfmin.cli.main in this
process with spans around each layer and prints the per-layer metrics. Run
from a checkout holding src/hopfmin; the last line of stdout is the result
object. perfbench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 2  # cold ops per untraced run, even past --seconds
# Short runs (zero-work, warm) take about 0.2 s and follow the machine's
# speed, which drifts over seconds, so they run in batches spread between
# the cold ops instead of in one block.
SETUP_PER_BATCH = 2
WARM_PER_BATCH = 2  # det has no cache: one rerun per batch, redoing the work
CACHE_READS = 5  # in-process warm and zero-work runs for cli.cache_read_s


def canonical(doc):
    """The document outside `timings`, which must not vary between runs."""
    rest = {k: v for k, v in doc.items() if k != "timings"}
    return json.dumps(rest, sort_keys=True)


class Runner:
    """Runs hopfmin CLI processes from a scratch directory in the checkout."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("HOPFMIN_CACHE", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self._names = itertools.count()

    def fresh_cache(self):
        return self.workdir / f"cache-{next(self._names)}.json"

    def run_cli(self, args):
        """(seconds from spawn to exit, peak RSS in MB of any process in the
        tree, JSON document or None, error text or None)."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "hopfmin", *args],
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            # wait4 reports the largest RSS of the child and its reaped
            # descendants, pool workers included
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip()[-300:]
            return elapsed, rss_mb, None, f"exit code {proc.returncode}: {tail}"
        try:
            return elapsed, rss_mb, json.loads(out_path.read_text()), None
        except ValueError as exc:
            return elapsed, rss_mb, None, f"unreadable output: {exc}"


class Checker:
    """Checks every document of a run against the workload's oracle and
    against the first document: outside `timings` all must be identical."""

    def __init__(self, wl):
        self.wl = wl
        self.ref = None
        self.last = None

    def __call__(self, doc, error=None):
        if doc is None:
            return error
        problem = self.wl.check(doc)
        if problem:
            return problem
        key = canonical(doc)
        if self.ref is None:
            self.ref = key
        elif key != self.ref:
            return "output outside timings differs from the first op's"
        self.last = doc
        return None


def _report(wl, what, problem):
    print(f"FAIL {wl.name} {what}: {problem}", file=sys.stderr)


def measure_cli(wl, seconds, rng, runner):
    """End-to-end metrics of CLI runs, tracing off.

    An op is a cold run of the workload's command with a fresh rank cache;
    ops repeat for `seconds`, and at least MIN_OPS times. Before every op
    and after the last comes a batch of short runs, in an order the seed
    shuffles: zero-work runs for setup_s and warm reruns of the latest op
    for warm_s. Cold runs and warm reruns are checked and counted as
    attempted; zero-work runs only have to succeed.
    """
    check = Checker(wl)
    setup, cold, warm, rss = [], [], [], []
    problems = []
    failed = 0

    def timed(args, times, what):
        nonlocal failed
        t, peak, doc, err = runner.run_cli(args)
        times.append(t)
        problem = check(doc, err)
        if problem:
            failed += 1
            _report(wl, f"{what} run {len(times)}", problem)
        return peak

    def batch(args):
        steps = ["setup"] * SETUP_PER_BATCH
        steps += ["warm"] * (WARM_PER_BATCH if wl.analyze else 1)
        rng.shuffle(steps)
        for step in steps:
            if step == "warm":
                timed(args, warm, "warm")
                continue
            t, _, doc, err = runner.run_cli(wl.zero_args())
            setup.append(t)
            if doc is None:
                problems.append(f"setup run: {err}")

    args = wl.cli_args(runner.fresh_cache())
    runner.run_cli(args)  # untimed warm-up op; the first batch reruns it
    start = time.perf_counter()
    while len(cold) < MIN_OPS or time.perf_counter() - start < seconds:
        batch(args)
        args = wl.cli_args(runner.fresh_cache())
        rss.append(timed(args, cold, "cold"))
    batch(args)
    for problem in problems:
        _report(wl, "setup", problem)
    metrics = {"run_s": median(cold), "setup_s": median(setup),
               "warm_s": median(warm), "peak_rss_mb": median(rss)}
    return metrics, len(cold) + len(warm), failed, problems, check.last, None


def _main_in_process(args, main=None):
    """The CLI run in this process: (seconds, JSON document or None, error)."""
    from hopfmin import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = time.perf_counter()
        code = (main or cli.main)(args)
        elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, None, f"exit code {code}"
    return elapsed, json.loads(buf.getvalue()), None


def measure_traced(wl, seconds, rng, runner):
    """Per-layer metrics: each op runs the CLI in this process twice, once
    plain (the reference) and once with every layer spanned, in an order
    the seed sets and that alternates between ops. The traced op is always
    serial, so every block shows in the spans; for --jobs > 1 a third pass
    times the pool with only the block computation spanned."""
    import spans as sp
    from hopfmin import cli

    tracer = sp.Tracer()
    traced_main = tracer.wrap("cli", cli.main)
    check = Checker(wl)
    counters = []
    overhead = []
    failed = 0
    cache = None

    def serial_args():
        return wl.cli_args(runner.fresh_cache() if wl.analyze else None, jobs=1)

    def plain():
        return _main_in_process(serial_args())

    def traced(c):
        nonlocal cache
        args = serial_args()
        cache = args[args.index("--cache") + 1] if wl.analyze else None
        with sp.layer_probes(tracer, c):
            return _main_in_process(args, traced_main)

    plain()  # untimed warm-up op
    traced_first = rng.random() < 0.5
    start = time.perf_counter()
    while not counters or time.perf_counter() - start < seconds:
        tracer.op = len(counters)
        c = sp.Counters()
        if traced_first == (tracer.op % 2 == 0):
            t_traced, doc_t, err_t = traced(c)
            t_plain, doc_p, err_p = plain()
        else:
            t_plain, doc_p, err_p = plain()
            t_traced, doc_t, err_t = traced(c)
        problem = check(doc_p, err_p) or check(doc_t, err_t)
        if not problem and wl.analyze and c.rank_sum != sum(doc_t["totals"]):
            problem = (f"traced rank sum {c.rank_sum} != CLI totals sum "
                       f"{sum(doc_t['totals'])}")
        if wl.analyze and wl.jobs > 1:
            with sp.pool_probe(tracer):
                _, doc, err = _main_in_process(wl.cli_args(jobs=wl.jobs))
            problem = problem or check(doc, err)
        counters.append(c)
        overhead.append(t_traced - t_plain)
        if problem:
            failed += 1
            _report(wl, f"traced op {len(counters)}", problem)

    own, incl, longest = sp.span_times(tracer.spans)
    per_op = []
    for op, c in enumerate(counters):
        def get(table, name):
            return table.get((op, name), 0.0)

        serial = get(incl, "growth.serial")
        pool = get(incl, "growth.pool")
        per_op.append({
            "datum.load_s": get(own, "datum.load"),
            "words.enumerate_s": get(own, "words.enumerate"),
            "words.count": c.words,
            "shapovalov.sym_s": get(own, "shapovalov.sym"),
            "shapovalov.sym_memo_words": c.memo_words,
            "shapovalov.sym_memo_coeffs": c.memo_coeffs,
            "shapovalov.sym_resets": c.resets,
            "shapovalov.rows_s": get(own, "shapovalov.rows"),
            "shapovalov.rows_entries": c.rows_entries,
            "shapovalov.rows_nonzero_share":
                c.rows_nonzero / c.rows_entries if c.rows_entries else 0.0,
            "shapovalov.rank_s": get(own, "shapovalov.rank"),
            "shapovalov.rank_max_block_s": get(longest, "shapovalov.rank"),
            "shapovalov.rank_sum": c.rank_sum,
            "shapovalov.det_s": get(own, "shapovalov.det"),
            "shapovalov.det_sym_s": get(incl, "shapovalov.symmetrizer"),
            "shapovalov.det_num_degree": c.det_num_degree,
            "growth.serial_s": serial,
            "growth.pool_s": pool,
            "growth.pool_speedup": serial / pool if pool else 0.0,
            "growth.classify_s": get(own, "growth.classify"),
            "cli.self_s": get(own, "cli"),
            "trace.overhead_s": overhead[op],
        })
    metrics = {k: median(m[k] for m in per_op) for k in per_op[0]}

    # cache read: in-process warm reruns on the traced op's cache file
    # against zero-work runs, as warm_s - setup_s; det keeps no cache
    problems = []
    metrics["cli.cache_bytes"] = 0
    metrics["cli.cache_read_s"] = 0.0
    if cache is not None:
        metrics["cli.cache_bytes"] = os.path.getsize(cache)
        warm, zero = [], []
        for _ in range(CACHE_READS):
            t, doc, err = _main_in_process(wl.cli_args(cache, jobs=1))
            warm.append(t)
            problem = check(doc, err)
            if problem:
                problems.append(f"warm rerun: {problem}")
            t, doc, err = _main_in_process(wl.zero_args())
            zero.append(t)
            if doc is None:
                problems.append(f"setup run: {err}")
        metrics["cli.cache_read_s"] = median(warm) - median(zero)
    for problem in problems:
        _report(wl, "cache", problem)
    return metrics, len(counters), failed, problems, check.last, tracer.spans


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def verdict_of(doc):
    """The growth verdict, recorded as an observation and never gated: on
    a2-zeta3-jobs2 it reads polynomial(2) although the table is finite."""
    if not doc or "verdict" not in doc:
        return None
    v = doc["verdict"]
    return v["kind"] + (f"({v['degree']})" if v["degree"] is not None else "")


def run_workload(name, seed, seconds, trace, units):
    """One run of one workload: the result object, after printing the run's
    provenance and observations as a JSON line."""
    rng = random.Random(seed)
    nproc = os.cpu_count() or 1
    prov = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": nproc, "loadavg_start": os.getloadavg()}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        wl = workloads.prepare(name, rng, workdir)
        if wl.analyze and wl.jobs > nproc:
            wl = dataclasses.replace(wl, jobs=nproc)
        prov["jobs"] = wl.jobs
        measure = measure_traced if trace else measure_cli
        metrics, attempted, failed, problems, last, spans = measure(
            wl, seconds, rng, Runner(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans is not None:
        path = WORK / f"spans-{name}-seed{seed}.json"
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": spans}))
        prov["spans_file"] = str(path.relative_to(ROOT))
    prov["loadavg_end"] = os.getloadavg()
    print(json.dumps({"provenance": prov,
                      "observations": {"verdict": verdict_of(last)}}))
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfmin" / "__init__.py").is_file():
        print(f"error: no hopfmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HOPFMIN_CACHE", None)  # the in-process CLI reads it too
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, units)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        result = run_workload(name, args.seed, args.seconds, args.trace, units)
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<30} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
