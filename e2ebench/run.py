#!/usr/bin/env python3
"""End-to-end benchmark of the shipped mublastp CLI tools.

    python3 e2ebench/run.py --workload batch|interactive|sharded|ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the tools and
the layer probe from source into .bench_build/. Every input is generated
from --seed with mublastp_synthgen (src/synth); the program only ever sees
FASTA files. With --trace 0 this process times mublastp_makedb and
mublastp_search from outside (exec to exit, tracing off) and checks every
report against a reference computed outside the timing. With --trace 1 it
interleaves untraced CLI passes with e2e_probe passes (for the glue and
tracing overhead), then runs the full e2e_probe, which calls each module's
public functions in-process and reports per-layer figures.

The last line of stdout is one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
An earlier "header " line records seed, nproc, kernel, build type, L3 size
and the index sizes. See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
TOOLS = os.path.join(BUILD, "mublastp", "tools")
PROBE = os.path.join(BUILD, "e2e_probe")
BUILD_TYPE = "RelWithDebInfo"  # the repository's own default
TARGETS = ["mublastp_makedb", "mublastp_search", "mublastp_synthgen",
           "e2e_probe"]

MIB = 1 << 20
BYTES_PER_RESIDUE = 5.6  # v3 index bytes per residue, sprot-like, T=11
TAIL_PCT = 80  # the highest percentile with >= 10 samples beyond it ...
MIN_LATENCY_SAMPLES = 50  # ... needs this many samples

# Per workload: database residues, how many mixed-length queries make up
# one pass, the report format, and the fewest timed passes per run. One
# call varies by about 10% (IQR) on a shared 4-core host; the median over
# passes damps that, and with 5 passes ingest's p80 is not simply its
# slowest call.
WORKLOADS = {
    "batch": dict(residues=22 * MIB, queries=25, outfmt="tabular",
                  passes=4),
    "sharded": dict(residues=22 * MIB, queries=25, outfmt="tabular",
                    passes=2),
    "interactive": dict(residues=4 * MIB, queries=25, outfmt="pairwise",
                        passes=2),
    "ingest": dict(residues=16 * MIB, queries=16, outfmt="tabular",
                   passes=5),
}
POOL = 2048  # mixed-length queries drawn to pick from
SETUP_REPS = 3
APPEND_REPS = 3


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(nproc())
    return env


# --------------------------------------------------------------------------
# Build


def build():
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    with open(logpath, "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", BUILD, "-j", str(nproc()),
                      "--target"] + TARGETS)
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logpath) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise SystemExit(f"e2ebench: build failed ({' '.join(cmd)})")


def tool(name):
    return os.path.join(TOOLS, name)


# --------------------------------------------------------------------------
# Timed process calls


class Call:
    """One finished CLI call: wall seconds from just before exec to reaped
    exit, exit code, peak RSS (KiB, covering reaped descendants such as
    fork-mode shard workers), stdout bytes and their arrival times."""

    def __init__(self, wall, rc, maxrss_kb, out, chunks):
        self.wall = wall
        self.rc = rc
        self.maxrss_kb = maxrss_kb
        self.out = out
        self.chunks = chunks  # [(seconds since start, cumulative bytes)]

    def arrival(self, offset):
        """Seconds from start until stdout byte `offset` (1-based) arrived."""
        for t, cum in self.chunks:
            if cum >= offset:
                return t
        return self.wall


def run_call(argv, stderr_path):
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        fd = proc.stdout.fileno()
        parts, chunks, total = [], [], 0
        try:
            while True:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                total += len(data)
                parts.append(data)
                chunks.append((time.perf_counter() - t0, total))
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Call(wall, proc.returncode, usage.ru_maxrss, b"".join(parts),
                chunks)


def run_checked(argv, stderr_path):
    """Untimed helper call; any failure aborts the run."""
    call = run_call(argv, stderr_path)
    if call.rc != 0:
        with open(stderr_path, errors="replace") as f:
            sys.stderr.write(f.read()[-2000:])
        raise SystemExit(f"e2ebench: {os.path.basename(argv[0])} exited "
                         f"{call.rc}")
    return call


# --------------------------------------------------------------------------
# Reports: digests and per-query completion


def digest(data):
    return hashlib.sha256(data).hexdigest()


def query_sections(report, outfmt):
    """Splits a report into (query name, start, end) byte ranges in output
    order. Tabular: consecutive lines sharing the first field. Pairwise:
    from one "Query= " line to the next."""
    sections = []
    pos = 0
    for line in report.splitlines(keepends=True):
        if outfmt == "tabular":
            name = line.split(b"\t", 1)[0].decode()
            new = not sections or sections[-1][0] != name
        else:
            new = line.startswith(b"Query= ")
            name = line[7:].strip().decode() if new else None
        if new:
            sections.append([name, pos, pos + len(line)])
        elif sections:
            sections[-1][2] = pos + len(line)
        pos += len(line)
    return [tuple(s) for s in sections]


def completion_times(call, names, outfmt):
    """Seconds from exec until each query's report was complete on stdout:
    the arrival of its last byte. A query without report bytes (tabular,
    no hits) is complete when the output moves past it: the first byte of
    a later query's report, or exit."""
    ends = {name: end for name, _, end in
            query_sections(call.out, outfmt)}
    starts = {name: start for name, start, _ in
              query_sections(call.out, outfmt)}
    times = []
    for i, name in enumerate(names):
        if name in ends:
            times.append(call.arrival(ends[name]))
            continue
        later = [starts[n] for n in names[i + 1:] if n in starts]
        times.append(call.arrival(later[0] + 1) if later else call.wall)
    return times


# --------------------------------------------------------------------------
# Inputs


def read_fasta(path):
    records, name, seq = [], None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith(">"):
                if name is not None:
                    records.append((name, "".join(seq)))
                name, seq = line[1:], []
            elif line:
                seq.append(line)
    if name is not None:
        records.append((name, "".join(seq)))
    return records


def write_fasta(path, records):
    with open(path, "w") as f:
        for name, seq in records:
            f.write(f">{name}\n")
            for i in range(0, len(seq), 70):
                f.write(seq[i:i + 70] + "\n")


def length_targets(count):
    """`count` query lengths at evenly spaced quantiles of the sprot-like
    length model: lognormal with median 292 and mean 355, as
    synth::sprot_like generates them."""
    median, mean = 292.0, 355.0
    sigma = math.sqrt(2.0 * math.log(mean / median))
    normal = statistics.NormalDist()
    return [median * math.exp(sigma * normal.inv_cdf((i + 0.5) / count))
            for i in range(count)]


def pick_queries(pool, count):
    """`count` distinct pool queries, each the closest in length to one of
    length_targets(count): a mixed-length set whose total length, and so
    its work, barely moves between seeds."""
    unique = dict(pool)
    if len(unique) < count:
        raise SystemExit("e2ebench: query pool too small")
    chosen = []
    for target in length_targets(count):
        name = min(unique, key=lambda n: (abs(len(unique[n]) - target), n))
        chosen.append((name, unique.pop(name)))
    return chosen


def l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            with open(os.path.join(d, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * mult
    except OSError:
        pass
    return 0


def db_residues(workload):
    residues = WORKLOADS[workload]["residues"]
    if workload in ("batch", "sharded"):
        # Size the out-of-cache database from the L3, never below the
        # default: its index must stay at least 1.1x the L3.
        residues = max(residues, int(1.1 * l3_bytes() / BYTES_PER_RESIDUE))
    return residues


class Workdir:
    """Generated inputs for one (workload, seed)."""

    def __init__(self, workload, seed, work):
        spec = WORKLOADS[workload]
        self.workload = workload
        self.work = work
        self.outfmt = spec["outfmt"]
        self.err = os.path.join(work, "stderr.log")
        residues = db_residues(workload)
        self.db_fasta = os.path.join(work, "db.fasta")
        pool_fasta = os.path.join(work, "pool.fasta")
        run_checked([tool("mublastp_synthgen"), "--preset=sprot",
                     f"--residues={residues}", f"--seed={seed}",
                     f"--out={self.db_fasta}", f"--queries={POOL}",
                     f"--qout={pool_fasta}"], self.err)
        queries = pick_queries(read_fasta(pool_fasta), spec["queries"])
        self.names = [name for name, _ in queries]
        self.query_fasta = os.path.join(work, "queries.fasta")
        write_fasta(self.query_fasta, queries)
        self.call_fastas = [self.query_fasta]
        self.warm_fasta = os.path.join(work, "warm.fasta")
        write_fasta(self.warm_fasta, queries[:1])
        if workload == "interactive":
            self.call_fastas = []
            for i, rec in enumerate(queries):
                path = os.path.join(work, f"q{i:03d}.fasta")
                write_fasta(path, [rec])
                self.call_fastas.append(path)
        self.delta_fasta = os.path.join(work, "delta.fasta")
        if workload == "ingest":
            # Base = the first 15/16 of the database's residues; the rest
            # is published later with --append.
            db = read_fasta(self.db_fasta)
            total = sum(len(s) for _, s in db)
            cut, acc = len(db), 0
            for i, (_, seq) in enumerate(db):
                acc += len(seq)
                if acc >= total * 15 // 16:
                    cut = i + 1
                    break
            self.db_fasta = os.path.join(work, "base.fasta")
            write_fasta(self.db_fasta, db[:cut])
            write_fasta(self.delta_fasta, db[cut:])
        else:
            # A fresh batch of new sequences to append: 1/16 of the
            # database, and at least 1 Mi residues so the append is not
            # over in a few tenths of a second.
            run_checked([tool("mublastp_synthgen"), "--preset=sprot",
                         f"--residues={max(residues // 16, MIB)}",
                         f"--seed={seed + 1000003}",
                         f"--out={self.delta_fasta}"], self.err)
        self.delta_residues = sum(len(s) for _, s in
                                  read_fasta(self.delta_fasta))
        self.index = os.path.join(work, "db.mbi")
        self.index_bytes = 0  # of the single (ingest: base) index
        self.shards = os.path.join(work, "db.shardset")

    # --- CLI argv builders --------------------------------------------
    def makedb(self):
        return [tool("mublastp_makedb"), f"--in={self.db_fasta}",
                f"--out={self.index}"]

    def makedb_shards(self):
        return [tool("mublastp_makedb"), f"--in={self.db_fasta}",
                f"--out={self.shards}", f"--shards={nproc()}"]

    def append(self):
        return [tool("mublastp_makedb"), f"--append={self.delta_fasta}",
                f"--out={self.index}"]

    def search(self, query):
        return [tool("mublastp_search"), f"--index={self.index}",
                f"--query={query}", f"--threads={nproc()}",
                f"--outfmt={self.outfmt}"]

    def search_shards(self, query):
        return [tool("mublastp_search"), f"--shards-manifest={self.shards}",
                "--shard-mode=process", f"--query={query}",
                f"--threads={nproc()}", f"--outfmt={self.outfmt}"]

    def drop_generations(self):
        """Back to the bare base index: removes every published generation
        next to it (manifests, delta and compacted members)."""
        prefix = os.path.basename(self.index) + "."
        for entry in os.listdir(self.work):
            if entry.startswith(prefix):
                os.remove(os.path.join(self.work, entry))


# --------------------------------------------------------------------------
# Statistics


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil
    return ordered[rank - 1]


class Tally:
    """Attempted/failed accounting over every timed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


# --------------------------------------------------------------------------
# End-to-end runs (--trace 0)


def tally_reports(tally, observed, expected):
    """Counts every observed call; a non-zero exit or a report that differs
    from its reference (`expected[i]` for call i of a pass) is a failure."""
    for i, rc, got in observed:
        tally.add(rc == 0 and got == expected[i])


def references(w):
    """Digests of the reports the timed calls must print, computed outside
    the timing with the scalar kernel, the repository's reference path, so
    a fault in the vector kernels the timed calls dispatch to shows too.
    batch and sharded share one: the single-index search. interactive: one
    call over every query, split per query. (ingest's reference, the same
    scalar search after --compact, comes at the end of the run.)"""
    ref = run_checked(w.search(w.query_fasta) + ["--kernel=scalar"],
                      w.err).out
    if w.workload != "interactive":
        return [digest(ref)]
    expected = [digest(ref[s:e]) for _, s, e in query_sections(ref, w.outfmt)]
    if len(expected) != len(w.call_fastas):
        raise SystemExit("e2ebench: reference lacks queries")
    return expected


def run_e2e(w, seconds, tally):
    """Rounds of (timed set-up, timed append, timed pass). The first
    SETUP_REPS rounds rebuild the database and the first APPEND_REPS append
    to it; passes go on until `seconds` have gone by, with at least the
    workload's passes and MIN_LATENCY_SAMPLES query samples. Spreading
    every metric's samples over the whole run, not one stretch of it,
    evens out a shared host's drift."""
    sharded = w.workload == "sharded"
    ingest = w.workload == "ingest"
    setup_argv = w.makedb_shards() if sharded else w.makedb()
    call_argv = w.search_shards if sharded else w.search
    per_call = len(w.names) // len(w.call_fastas)
    setups, appends, pass_walls, latencies, observed = [], [], [], [], []
    peak_kb = 0
    expected = None
    begin = time.perf_counter()

    def more_passes():
        return (time.perf_counter() - begin < seconds
                or len(pass_walls) < WORKLOADS[w.workload]["passes"]
                or len(latencies) < MIN_LATENCY_SAMPLES)

    r = 0
    while r < max(SETUP_REPS, APPEND_REPS) or more_passes():
        if r < SETUP_REPS:
            w.drop_generations()
            call = run_call(setup_argv, w.err)
            tally.add(call.rc == 0)
            setups.append(call.wall)
        if r == 0 and sharded:
            # The single index: the reference, and what --append grows.
            run_checked(w.makedb(), w.err)
        if r == 0:
            w.index_bytes = os.path.getsize(w.index)
        if r < APPEND_REPS:
            # ingest keeps the two-member base+delta chain it searches.
            w.drop_generations()
            call = run_call(w.append(), w.err)
            tally.add(call.rc == 0)
            appends.append(w.delta_residues / 1e6 / call.wall)
            if not ingest:
                w.drop_generations()
        if r == 0:
            if not ingest:
                expected = references(w)
            run_checked(call_argv(w.warm_fasta), w.err)  # warm-up
        r += 1
        if not more_passes():
            continue
        wall = 0.0
        for i, fasta in enumerate(w.call_fastas):
            call = run_call(call_argv(fasta), w.err)
            observed.append((i, call.rc, digest(call.out)))
            wall += call.wall
            peak_kb = max(peak_kb, call.maxrss_kb)
            names = w.names[i * per_call:(i + 1) * per_call]
            latencies += completion_times(call, names, w.outfmt)
        pass_walls.append(wall)
    if ingest:
        # The chain searches' reference: the same search after --compact.
        run_checked([tool("mublastp_makedb"), "--compact",
                     f"--out={w.index}"], w.err)
        expected = [digest(run_checked(
            w.search(w.query_fasta) + ["--kernel=scalar"], w.err).out)]
    tally_reports(tally, observed, expected)
    log(f"setup {' '.join(f'{x:.2f}' for x in setups)} s; append "
        f"{' '.join(f'{x:.3f}' for x in appends)} Mres/s; passes "
        f"{' '.join(f'{x:.3f}' for x in pass_walls)} s")
    return {
        "setup_s": statistics.median(setups),
        "append_mres_s": statistics.median(appends),
        "qps": len(w.names) / statistics.median(pass_walls),
        "latency_p50_s": statistics.median(latencies),
        f"latency_p{TAIL_PCT}_s": nearest_rank(latencies, TAIL_PCT),
        "peak_rss_mb": peak_kb / 1024.0,
    }


# --------------------------------------------------------------------------
# Traced run (--trace 1)

# Probe figures that are not reported as per-layer metrics themselves.
PROBE_INTERNAL = ("kernel", "probe.shard_mismatches", "probe.chain_mismatches")
GLUE_PASSES = 3  # interleaved untraced CLI passes and probe passes


def run_traced(w, tally):
    """GLUE_PASSES rounds of (untraced CLI pass, probe pass) after a
    warm-up, whose medians give cli.glue_s and trace.overhead; then the
    full probe over the same inputs for every other per-layer figure."""
    run_checked(w.makedb(), w.err)
    w.index_bytes = os.path.getsize(w.index)
    run_checked(w.makedb_shards(), w.err)
    run_checked(w.search(w.warm_fasta), w.err)  # warm-up
    report_out = os.path.join(w.work, "probe_report.txt")
    probe_args = ["--calls=" + ",".join(w.call_fastas),
                  f"--outfmt={w.outfmt}", f"--threads={nproc()}",
                  f"--report-out={report_out}", f"--index={w.index}"]

    def probe_report():
        with open(report_out, "rb") as f:
            return f.read()

    cli_walls, probe_walls, glues = [], [], []
    cli_report = None
    for _ in range(GLUE_PASSES):
        calls = [run_call(w.search(f), w.err) for f in w.call_fastas]
        report = b"".join(c.out for c in calls)
        if cli_report is None:
            cli_report = report
        for call in calls:
            tally.add(call.rc == 0)
        if not tally.add(report == cli_report):
            log("FAILED: CLI pass report differs from the first pass's")
        cli_walls.append(sum(c.wall for c in calls))
        call = run_checked([PROBE, "--pass-only"] + probe_args, w.err)
        p = json.loads(call.out.decode().strip().splitlines()[-1])
        if not tally.add(probe_report() == cli_report):
            log("FAILED: probe pass report differs from the CLI's")
        probe_walls.append(p["probe.pass_wall_s"])
        glues.append((cli_walls[-1] - p["probe.pass_layers_s"])
                     / p["probe.calls"])

    probe_work = os.path.join(w.work, "probe")
    os.makedirs(probe_work)
    call = run_checked([PROBE, f"--db-fasta={w.db_fasta}",
                        f"--delta-fasta={w.delta_fasta}",
                        f"--shards={w.shards}", f"--nproc={nproc()}",
                        f"--work={probe_work}"] + probe_args, w.err)
    p = json.loads(call.out.decode().strip().splitlines()[-1])
    # The probe's reports, the CLI's and the probe's shard and chain
    # searches must all agree.
    for ok, what in ((probe_report() == cli_report,
                      "probe report differs from the CLI's"),
                     (p["probe.shard_mismatches"] == 0,
                      "probe shard search differs from the single index"),
                     (p["probe.chain_mismatches"] == 0,
                      "probe chain search differs from the compacted one")):
        if not tally.add(ok):
            log(f"FAILED: {what}")

    log(f"CLI passes {' '.join(f'{x:.3f}' for x in cli_walls)} s; probe "
        f"passes {' '.join(f'{x:.3f}' for x in probe_walls)} s")
    m = {k: v for k, v in p.items() if k not in PROBE_INTERNAL}
    m["cli.glue_s"] = statistics.median(glues)
    m["trace.overhead"] = (statistics.median(probe_walls)
                           / statistics.median(cli_walls))
    return m, p["kernel"]


# --------------------------------------------------------------------------
# Main


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def dispatched_kernel(w):
    """The kernel a default search dispatches to on this CPU, as an extra
    one-query call over the single index reports it."""
    run_checked(w.search(w.warm_fasta), w.err)
    with open(w.err, errors="replace") as f:
        kernels = [line.split()[1] for line in f
                   if line.startswith("kernel: ")]
    return kernels[-1] if kernels else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in ("MUBLASTP_FAULTS", "MUBLASTP_FAULTS_KILL"):
        if os.environ.get(var):
            raise SystemExit(f"e2ebench: fault injection is armed ({var});"
                             " refusing to benchmark")
    build()

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t0 = time.perf_counter()
        w = Workdir(args.workload, args.seed, work)
        tally = Tally()
        if args.trace:
            metrics, kernel = run_traced(w, tally)
        else:
            metrics = run_e2e(w, args.seconds, tally)
            kernel = dispatched_kernel(w)
        l3 = l3_bytes()
        index_bytes = w.index_bytes
        header = {
            "workload": args.workload, "seed": args.seed, "nproc": nproc(),
            "trace": args.trace, "kernel": kernel, "build_type": BUILD_TYPE,
            "l3_bytes": l3, "db_residues": db_residues(args.workload),
            "index_bytes": index_bytes,
            "index_over_l3": index_bytes / l3 if l3 else None,
            "error_rate": tally.failed / max(1, tally.attempted),
            "run_s": time.perf_counter() - t0,
        }
        print("header " + json.dumps(header), flush=True)
        if args.workload == "batch" and l3 and index_bytes <= l3:
            raise SystemExit("e2ebench: the batch index does not exceed the"
                             " L3; the batch workload needs it to")
        unit = units()
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit.get(k, "ratio")}
                        for k, v in sorted(metrics.items())},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
