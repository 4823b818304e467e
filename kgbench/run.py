"""Benchmark of the KG build, checkpoint resume and the operator mix.

    python3 kgbench/run.py --workload kg_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  One run makes its inputs from ``--seed``,
starts Ray with ``num_cpus`` equal to the CPUs this process may use, sets the
workload up, repeats the workload's operation until ``--seconds`` of
operation time have passed and at least the workload's ``min_ops`` operations
ran (enough for a median that one slow operation does not move), checks every
output, stops Ray, and prints one JSON line as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``op_s``,
``driver_rss_mb``); ``--trace 1`` records spans around the calls into the
program, reports the per-layer metrics instead and writes the spans to
``kgbench/traces/``.  Everything else the run writes goes under
``kgbench/.work/`` and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "kgbench", ".work")
TRACES = os.path.join(ROOT, "kgbench", "traces")
# Ray puts unix sockets under its temp dir, as
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
RAY_SOCKET_SUFFIX = 66
AF_UNIX_MAX = 107


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def process_start() -> float:
    """Wall-clock time this process started (10 ms resolution)."""
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.time() - (uptime - ticks / os.sysconf("SC_CLK_TCK"))


def read_all(ds):
    """Materialize a Dataset into one Arrow table on the driver."""
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")


def tree_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _s, fs in os.walk(path) for f in fs) / 1e6


# ----------------------------------------------------------------- workloads


class KGWorkload:
    """Shared corpus, build and checks of ``kg_cold`` and ``kg_resume``."""

    def __init__(self, seed: int, work: str, tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.last = None          # (pipeline, run_dir) of the latest operation

    def use_corpus(self, k: int) -> None:
        """Write corpus ``k`` of the seed and make it the one built next."""
        from kgbench.checks import source_sha256
        from kgbench.corpus import build_corpus, write_corpus

        self.corpus = build_corpus(self.seed, k=k)
        self.src = write_corpus(self.corpus,
                                os.path.join(self.work, f"corpus-{k}"))
        self.sha = source_sha256(self.corpus)

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def build(self, run_dir: str):
        """``build_kg`` on ``run_dir``, then both products read fully."""
        from folkscope_ray.pipelines.kg import build_kg

        span = self.tracer.span
        kg = build_kg(self.src, run_dir=run_dir)
        with span("kg.scored"):
            kg.scored()
        with span("kg.patterns"):
            kg.patterns()
        with span("kg.triples"):
            tds = kg.triples()
        with span("kg.eventualities"):
            eds = kg.eventualities()
        with span("kg.read"):
            out = read_all(tds), read_all(eds)
        self.last = (kg, run_dir)
        return out

    def check_props(self, out) -> list[str]:
        """Property checks, and the latest operation's layer counts (the
        pipeline itself is released, so the next operation starts clean)."""
        from folkscope_ray.state import manifest as mf
        from kgbench.checks import check_properties

        kg, run_dir = self.last
        self.last = None
        canon = kg.canonical_map()
        self.patterns = kg.patterns()
        self.info = {"count.distinct_surfaces": len(canon),
                     "count.canonical_entities": len(set(canon.values())),
                     "count.patterns": len(self.patterns),
                     "count.triples": out[0].num_rows,
                     "count.eventualities": out[1].num_rows}
        for stage in ("scored", "triples", "eventualities"):
            self.info[f"bytes.{stage}_mb"] = tree_mb(mf.stage_dir(run_dir, stage))
        return check_properties(out[0].to_pandas(), out[1], self.sha)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced operations (trace runs only)."""
        from kgbench.layers import udf_rates

        m = {f"kg.{s}_s": self.tracer.median(f"kg.{s}") for s in
             ("scored", "patterns", "triples", "eventualities", "read")}
        rates, counts = udf_rates(self.corpus, self.patterns)
        m.update(rates)
        m.update(counts)
        m.update(self.info)
        return m


class KGCold(KGWorkload):
    """Full build on a fresh ``run_dir``: every stage does work.

    Each operation builds its own corpus (``k`` = 1, 2, ...; the warm-up
    build uses ``k`` = 0), so no timed build re-reads an input whose
    assertions the workers have parsed before.  Assertion texts come from
    the mock generator's closed phrase pools, so corpora still share some
    (corpus ``k`` shares about 30 % of its distinct assertions with corpus
    0), and each worker process keeps its own parse memo (``cached_parse``
    in ``stages/parse.py``): a parse hits only if the same worker parsed
    that assertion in an earlier build.  The sequence of corpora is fixed
    and the workers live for the whole run, so the memo state a timed build
    meets is the same in every run, not a matter of which workers Ray
    killed."""

    min_ops = 3

    def setup(self) -> None:
        # one untimed build warms the workers, Ray Data and the program's
        # lazy state, so the timed builds all start from the same state
        self.n = 0
        self.use_corpus(0)
        warm = os.path.join(self.work, "warm-run")
        self.build(warm)
        self.last = None
        shutil.rmtree(warm)
        self.built: list = []     # (k, triples) of every timed build

    def prepare(self) -> None:
        shutil.rmtree(os.path.join(self.work, f"corpus-{self.n}"))
        self.n += 1
        self.use_corpus(self.n)

    def op(self):
        return self.build(os.path.join(self.work, f"run-{self.n}"))

    def check(self, out) -> list[str]:
        problems = self.check_props(out)
        shutil.rmtree(os.path.join(self.work, f"run-{self.n}"))
        self.built.append((self.n, out[0].to_pandas()))
        return problems

    def finish(self) -> list[str]:
        """Check every build against the oracle of its own corpus.  The
        oracles run after the timed loop, one process per CPU."""
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        from kgbench.checks import check_against_oracle
        from kgbench.oracle import oracle_triples

        cpus = len(os.sched_getaffinity(0))
        with ProcessPoolExecutor(max_workers=min(cpus, len(self.built)),
                                 mp_context=mp.get_context("spawn")) as pool:
            goldens = list(pool.map(oracle_triples, [self.seed] * len(self.built),
                                    [k for k, _ in self.built]))
        log(f"oracle: {[round(s, 2) for _g, s in goldens]} s single-threaded")
        return [p for (_k, got), (golden, _s) in zip(self.built, goldens)
                for p in check_against_oracle(got, golden)]


class KGResume(KGWorkload):
    """A new pipeline on the complete ``run_dir`` left by set-up.

    Scope: warm workers.  Set-up builds the ``run_dir`` and then resumes it
    ``WARM_RESUMES`` times untimed, and the run keeps idle workers alive
    (``RAY_idle_worker_killing_time_threshold_ms``, set in ``main``), so the
    workers that parse in a timed resume have parsed the same assertions in
    set-up and keep them in their memos.  The operation then measures the
    manifest reads, the stats pass's aggregation, mining and
    canonicalization, and the rebuild of both match memos, not parsing
    (``kg_cold`` measures that)."""

    min_ops = 4
    WARM_RESUMES = 1

    def setup(self) -> None:
        import pyarrow.parquet as pq

        self.use_corpus(0)
        self.run_dir = os.path.join(self.work, "run")
        tri, ev = self.build(self.run_dir)
        self.cold = os.path.join(self.work, "cold-triples.parquet"), \
            os.path.join(self.work, "cold-events.parquet")
        pq.write_table(tri, self.cold[0])
        pq.write_table(ev, self.cold[1])
        for _ in range(self.WARM_RESUMES):
            self.build(self.run_dir)
        self.last = None

    def op(self):
        return self.build(self.run_dir)

    def check(self, out) -> list[str]:
        import pyarrow.parquet as pq

        from kgbench.checks import same_rows

        problems = self.check_props(out)
        for got, path, what in zip(out, self.cold, ("triples", "eventualities")):
            if not same_rows(got, pq.read_table(path)):
                problems.append(f"resumed {what} differ from the cold build")
        return problems

    def finish(self) -> list[str]:
        return []


class OpsMix:
    """One pass over the registry queries in ``kgbench.queries``."""

    min_ops = 1

    def __init__(self, seed: int, work: str, tracer):
        from kgbench.tables import build_tables, write_tables

        self.work = work
        self.tracer = tracer
        self.dir = write_tables(build_tables(seed), os.path.join(work, "tables"))
        self.answers = None
        self.failed = 0

    def setup(self) -> None:
        import __ray_entry__
        from kgbench.queries import QUERIES

        self.fns = {name: __ray_entry__.queries()[name] for name in QUERIES}
        # the cheapest query, to start the workers and Ray Data
        self.fns["exact_dedup_docs"](self.dir).to_pandas()

    def op(self):
        import pandas as pd

        out = {}
        for name, fn in self.fns.items():
            with self.tracer.span(f"ops.{name}"):
                try:
                    res = fn(self.dir)
                    out[name] = res if isinstance(res, pd.DataFrame) \
                        else res.to_pandas()
                except Exception as e:  # counted, reported, run continues
                    log(f"query {name} failed: {type(e).__name__}: {e}")
                    self.failed += 1
        return out

    def check(self, out) -> list[str]:
        from kgbench.queries import compare_frames, sql_answers

        if self.answers is None:
            self.answers = sql_answers(self.dir)
        return [f"{name}: {p}" for name, df in out.items()
                for p in compare_frames(df, self.answers[name])]

    def prepare(self) -> None:
        pass

    def finish(self) -> list[str]:
        return []

    def layer_metrics(self) -> dict:
        return {f"ops.{name}_s": self.tracer.median(f"ops.{name}")
                for name in self.fns}


WORKLOADS = {"kg_cold": KGCold, "kg_resume": KGResume, "ops_mix": OpsMix}


def extra_layers(workload, seed: int, work: str, tracer):
    """The layers the workload's own operation does not reach, measured by
    one operation of the workload that owns them, set up as that workload
    sets up: one cold build after a warm-up build for ``ops_mix``, one query
    pass after the warm-up query for the KG workloads.  Returns the metrics
    and the problems the checks of that operation found."""
    from kgbench.layers import Tracer

    layers = os.path.join(work, "layers")
    owner = KGCold(seed, layers, Tracer(enabled=False)) \
        if isinstance(workload, OpsMix) else OpsMix(seed, layers, tracer)
    owner.setup()
    owner.tracer = tracer
    owner.prepare()
    settle()
    tracer.op += 1
    problems = owner.check(owner.op()) + owner.finish()
    if getattr(owner, "failed", 0):
        problems.append(f"{owner.failed} queries failed")
    return owner.layer_metrics(), problems


# ----------------------------------------------------------------- the run


def descendants() -> list[int]:
    """Pids of every process below this one."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_ray(started: list[int]) -> None:
    """``ray.shutdown()``, then kill and wait for any process Ray started
    that is still running (an agent can outlive a raylet that died)."""
    import ray

    ray.shutdown()
    left = [p for p in started if alive(p)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.time() + 30
    while any(alive(p) for p in left) and time.time() < deadline:
        time.sleep(0.05)
    for pid in left:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def settle(timeout: float = 30.0) -> None:
    """Wait until every CPU of the cluster is free.  Ray Data releases the
    tasks and actor pools of a finished execution asynchronously; an
    operation started at once would share the CPUs with them."""
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.time() + timeout
    while (ray.available_resources().get("CPU", 0) < total
           and time.time() < deadline):
        time.sleep(0.02)


def start_ray(n_cpus: int, temp: str) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    if len(temp) + RAY_SOCKET_SUFFIX <= AF_UNIX_MAX:
        kwargs["_temp_dir"] = temp   # else Ray's default temp dir
    ray.init(address="local", num_cpus=n_cpus, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=512 * 1024 ** 2, **kwargs)
    DataContext.get_current().enable_progress_bars = False


def run(args, t_start: float) -> dict:
    from kgbench.layers import PeakRSS, Tracer

    tracer = Tracer(enabled=bool(args.trace))
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    ray_temp = os.path.join(WORK, f"r{os.getpid()}")
    os.makedirs(work)
    started: list[int] = []
    try:
        start_ray(len(os.sched_getaffinity(0)), ray_temp)
        started = descendants()
        wl = WORKLOADS[args.workload](args.seed, work, tracer)
        wl.setup()
        wl.prepare()
        settle()
        setup_s = time.time() - t_start
        tracer.spans.clear()

        rss = PeakRSS()
        times, problems = [], []
        attempted = failed = 0
        spent = 0.0
        while spent < args.seconds or attempted < wl.min_ops:
            out = None
            if attempted:
                wl.prepare()
            gc.collect()
            settle()
            tracer.op += 1
            attempted += 1
            t = time.perf_counter()
            try:
                with rss:
                    out = wl.op()
            except Exception as e:  # counted, reported, run continues
                log(f"operation failed: {type(e).__name__}: {e}")
                failed += 1
                out = None
            dt = time.perf_counter() - t
            spent += dt
            if out is not None:
                times.append(dt)
                problems += wl.check(out)
        problems += wl.finish()
        if isinstance(wl, OpsMix):
            attempted *= len(wl.fns)
            failed += wl.failed
        if not times:
            raise RuntimeError("every operation failed")
        log(f"{args.workload} seed={args.seed}: op_s {[round(x, 3) for x in times]}"
            f" setup_s {setup_s:.3f}")
        for p in problems:
            log("CHECK FAILED:", p)

        if args.trace:
            metrics = wl.layer_metrics()
            extra, extra_problems = extra_layers(wl, args.seed, work, tracer)
            metrics.update(extra)
            problems += extra_problems
            tracer.dump(os.path.join(
                TRACES, f"{args.workload}-seed{args.seed}-{os.getpid()}.json"))
            units = {k: "1/s" if k.endswith("_per_s") else "s" if k.endswith("_s")
                     else "MB" if k.endswith("_mb") else "count"
                     for k in metrics}
        else:
            metrics = {"setup_s": setup_s, "op_s": statistics.median(times),
                       "driver_rss_mb": rss.peak / 1e6}
            units = {"setup_s": "s", "op_s": "s", "driver_rss_mb": "MB"}
        return {"correct": not problems, "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        stop_ray(started + descendants())
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = process_start()

    # Ray workers import the program from the repository root, wherever this
    # script lives; the import also fails fast, before Ray starts, outside a
    # full checkout.
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import folkscope_ray  # noqa: F401

    # Ray's own telemetry would share the CPU with the timed work, and usage
    # reporting would try to reach a host outside the machine.
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_enable_metrics_collection"] = "0"
    # Workers live for the whole run: Ray's default kills idle workers after
    # 1 s, and a worker restarted inside an operation adds its start-up time
    # and drops its memo caches at random (see KGResume).
    os.environ["RAY_idle_worker_killing_time_threshold_ms"] = str(3_600_000)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    # Anything written to fd 1 while the run is going (Ray, Ray Data, native
    # code) goes to stderr, so the result stays the last line on stdout.
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args, t_start)
    finally:
        sys.stdout.flush()
        os.dup2(stdout, 1)
        os.close(stdout)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
