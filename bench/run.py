"""Benchmark of the sepfair CLI on seeded workloads.

Run from the root of a source checkout::

    python3 bench/run.py --workload exact-shares --seed 1 --seconds 30 \
        --trace 0

Every operation is one CLI subcommand run in this process through
``sepfair.cli.main(argv)``, with its stdout captured, parsed as JSON and
checked by ``checks.py`` against the benchmark's own computation.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a traced pass).  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 5

# A fresh interpreter imports sepfair and parses every file of the run once;
# it prints the system-wide monotonic clock when done.
PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import sepfair.cli
from sepfair.instances import load_allocation, load_instance
with open(sys.argv[2]) as fp:
    files = json.load(fp)
for inst_path, alloc_path in files:
    inst = load_instance(inst_path)
    if alloc_path:
        load_allocation(alloc_path, inst)
print(repr(time.monotonic()))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(src: Path, manifest: Path) -> float:
    """Median, over several fresh processes, of the time from process start
    to sepfair imported and every file parsed; one warm-up probe first."""
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(src), str(manifest)],
            capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout.strip()) - t0)
    return statistics.median(times)


class SessionQueries:
    """Counts eval and cut queries answered by QuerySession objects: every
    session registers its shared transcript when created; the records are
    counted after each operation.  Nothing runs per query."""

    def __init__(self, sessions_module):
        self.live = []
        state_cls = sessions_module._SharedState
        orig_init = state_cls.__init__
        live = self.live

        def init(state):
            orig_init(state)
            live.append(state)

        state_cls.__init__ = init

    def take(self) -> int:
        count = sum(len(st.records) for st in self.live)
        self.live.clear()
        return count


class Runner:
    def __init__(self, cli, counter):
        self.cli = cli
        self.counter = counter
        self.seen = {}            # tag -> checked output
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.queries = 0
        self.check_s = 0.0

    def run(self, op) -> float:
        """Run one operation; returns its wall time in seconds."""
        out_buf, err_buf = io.StringIO(), io.StringIO()
        self.counter.take()
        try:
            with contextlib.redirect_stdout(out_buf), \
                    contextlib.redirect_stderr(err_buf):
                t0 = time.perf_counter()
                code = self.cli.main(op["argv"])
                t1 = time.perf_counter()
        except (Exception, SystemExit):     # SystemExit: argparse rejects
            t1 = time.perf_counter()
            code = None
            err_buf.write(traceback.format_exc())
        queries = self.counter.take()
        self.queries += queries
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED {op['tag']} {op['argv']}: exit {code}\n"
                  f"{err_buf.getvalue()}", file=sys.stderr)
            return t1 - t0
        text = out_buf.getvalue()
        if self.seen.get(op["tag"]) == (text, queries):
            return t1 - t0
        t2 = time.perf_counter()
        try:
            checks.check(op, json.loads(text), queries)
            self.seen[op["tag"]] = (text, queries)
        except (checks.CheckError, json.JSONDecodeError) as exc:
            self.correct = False
            print(f"WRONG {op['tag']} {op['argv']}: {exc}\n{text}",
                  file=sys.stderr)
        self.check_s += time.perf_counter() - t2
        return t1 - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sepfair" / "cli.py").is_file():
        print(f"error: no sepfair sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    clock = time.perf_counter()
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    ops = gen.build(args.workload, args.seed, work)
    files = sorted({(op["instance_path"], op.get("allocation_path"))
                    for op in ops if "instance_path" in op})
    manifest = work / "files.json"
    manifest.write_text(json.dumps(files))

    phases = {"generate": time.perf_counter() - clock}
    setup_s = measure_setup(src, manifest)
    phases["setup"] = time.perf_counter() - clock - sum(phases.values())

    sys.path.insert(0, str(src))
    import sepfair.cli as cli
    import sepfair.sessions as sessions
    if Path(cli.__file__).resolve().parent != (src / "sepfair").resolve():
        print(f"error: imported sepfair from {cli.__file__}", file=sys.stderr)
        return 2
    runner = Runner(cli, SessionQueries(sessions))
    # the run's own inputs stay alive throughout; keep the collector from
    # scanning them while the library runs
    gc.collect()
    gc.freeze()

    # warm-up: the first round, untimed
    for op in ops:
        if op["round"] == 0:
            runner.run(op)
    runner.attempted = runner.failed = runner.queries = 0
    phases["warm-up"] = time.perf_counter() - clock - sum(phases.values())

    if args.trace:
        metrics = traced_run(runner, ops, args)
    else:
        metrics = timed_run(runner, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (peak, "MiB")
    shutil.rmtree(work, ignore_errors=True)
    phases["measure"] = time.perf_counter() - clock - sum(phases.values())
    phases["checks"] = runner.check_s
    print("phases (s): " + ", ".join(f"{k} {v:.1f}" for k, v in
                                      phases.items()), file=sys.stderr)
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def timed_run(runner, ops, seconds) -> dict:
    """Whole passes over the operation list; another pass starts only if
    it is expected to end within ``seconds``."""
    times = []
    begin = time.perf_counter()
    while True:
        pass_begin = time.perf_counter()
        for op in ops:
            times.append(runner.run(op))
        now = time.perf_counter()
        if (now - begin) + (now - pass_begin) > seconds:
            break
    times_ms = sorted(t * 1000 for t in times)
    deciles = statistics.quantiles(times_ms, n=10)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "queries_per_op": (runner.queries / len(times), "count"),
    }


def traced_run(runner, ops, args) -> dict:
    """A plain pass for the baseline, then a traced pass over the same
    list."""
    plain = sum(runner.run(op) for op in ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(runner.run(op) for op in ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced)
    metrics["trace.overhead"] = (traced / plain, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    out = HERE / ".traces"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{args.workload}-{args.seed}.json")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
