#!/usr/bin/env python3
"""One command for the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds a
Release tree (ptran-estimate, ptran-serve and perfbench-harness) in
$CARGO_TARGET_DIR, default .bench_build; later runs only check it is up
to date. Scratch files go to .bench_out/ and are removed at exit, except
the span files of traced runs.

Workloads (see perfbench/BENCHMARK.md for why each was chosen):
  cold-bigfn        cold ptran-estimate on one 2048-unit procedure
  cold-manyfn       cold ptran-estimate on 1023 small procedures
  serve-read        ptran-serve, no state dir, read-mostly open-loop traffic
  serve-repl-write  primary + standby, --repl-ack=always, half mutations

Every line but the last is a human-readable report: each metric by its
name in the issue, with unit and sample count. The last line is the JSON
result. With --trace 0 its metrics are the end-to-end ones, always from
untraced runs; with --trace 1 they are the per-layer ones.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT_BASE = os.path.join(ROOT, ".bench_out")
NPROC = os.cpu_count() or 1

HARNESS = os.path.join(BUILD, "perfbench-harness")
ESTIMATE = os.path.join(BUILD, "ptran-tools", "ptran-estimate")
SERVE_BIN = os.path.join(BUILD, "ptran-tools", "ptran-serve")

# Input sizes. cold-bigfn: at this size intervals are the largest cold
# layer, and the superlinear analysis outweighs the linear allocation
# work whose cost drifts with host memory load (half the drift of 1024
# units); cold-manyfn: each graph is tiny, the per-function fan-out and
# the interprocedural passes dominate.
BIGFN_UNITS = 2048
MANYFN_FUNCS = 1023
SESSIONS = 8
SETUP_REPEATS = 3

# Daemon traffic: base rate, p99 latency limit and the fixed geometric
# ladder of offered rates (stops at the first rate that misses).
SERVE = {
    "serve-read": {
        "mix": "read", "base_rps": 200, "limit_ms": 10.0,
        "ladder": [400, 800, 1600, 3200, 6400, 12800, 25600],
        "primary_jobs": 3,
    },
    "serve-repl-write": {
        "mix": "write", "base_rps": 40, "limit_ms": 300.0,
        "ladder": [48, 58, 69, 83],
        "primary_jobs": 4, "standby_jobs": 1,
    },
}
CONNS = min(4, NPROC)

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parser.parse_ms": "ms", "cfg.build_ms": "ms", "interval.compute_ms": "ms",
    "ecfg.build_ms": "ms", "cdg.fcdg_ms": "ms", "profile.plan_ms": "ms",
    "core.analysis_ms": "ms", "core.analysis_serial_ms": "ms",
    "core.fanout_speedup": "ratio", "interp.run_ms": "ms",
    "profile.recover_ms": "ms", "freq.compute_ms": "ms",
    "cost.timevar_ms": "ms", "cost.report_ms": "ms",
    "ir.statements": "count", "ecfg.nodes": "count", "cdg.edges": "count",
    "profile.counters": "count", "interp.steps": "count",
    "serve.handle_us.estimate": "us", "serve.handle_us.estimate-batch": "us",
    "serve.handle_us.ingest-profile": "us",
    "serve.handle_us.stream-deltas": "us",
    "serve.codec_us": "us", "serve.transport_us": "us",
    "session.estimate_hit_us": "us", "session.estimate_miss_us": "us",
    "session.ingest_us": "us", "session.cache_hit_ratio": "ratio",
    "stream.append_ns": "ns", "stream.flush_us": "us",
    "durable.append_us": "us", "durable.sync_us": "us",
    "repl.ack_wait_ms": "ms", "repl.ack_timeouts": "count",
    "repl.lag_lsn": "count", "serve.rss_growth_kb_per_kreq": "kB/kreq",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
}

COLD_LAYERS = [k for k in PER_LAYER if k.split(".")[0] in (
    "parser", "cfg", "interval", "ecfg", "cdg", "profile", "core", "interp",
    "freq", "cost", "ir")]


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, flush=True)


def run_build_step(cmd):
    """Runs a build command in its own process group, output to stderr;
    an interrupted build takes its compiler processes down with it."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ next to perfbench/: not a ptran checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                    "perfbench-harness", "ptran-estimate", "ptran-serve"])


def harness(*args, cwd=None, timeout=150):
    """Runs a harness subcommand; returns its JSON line."""
    proc = subprocess.run([HARNESS] + [str(a) for a in args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("harness %s failed: %s" % (args[0],
                                                     proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def report(name, value, unit, n, note=""):
    log("  %-34s %14.6g %-7s n=%-5d %s" % (name, value, unit, n, note))


# --------------------------------------------------------------------------
# Cold workloads
# --------------------------------------------------------------------------

def run_cli(src, out_path):
    """One cold ptran-estimate with default flags: wall s, peak RSS MB, stdout."""
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([ESTIMATE, src], stdout=out,
                                stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, text


def parse_cli(text):
    runs = cycles = time_s = std_s = None
    for line in text.splitlines():
        if "simulated cycles total" in line:
            parts = line.split()
            runs, cycles = int(parts[0]), float(parts[2])
        elif line.startswith("TIME(START)"):
            time_s = line.split("=")[1].split()[0]
        elif line.startswith("STD_DEV(START)"):
            std_s = line.split("=")[1].split()[0]
    return runs, cycles, time_s, std_s


def cli_ok(text):
    """Oracle: TIME(START) x runs equals the simulated cycle total."""
    runs, cycles, time_s, _ = parse_cli(text)
    if runs is None or cycles is None or time_s is None:
        return False
    return abs(float(time_s) * runs - cycles) <= 1e-5 * max(1.0, cycles)


def cold_workload(name, seed, seconds, trace, out):
    kind, size = ("bigfn", BIGFN_UNITS) if name == "cold-bigfn" else \
        ("manyfn", MANYFN_FUNCS)
    src = os.path.join(out, "input.f")
    attempted = failed = 0
    setup_times = []
    sizes = None
    reference = None
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        sizes = harness("gen", "--kind", kind, "--seed", seed, "--size", size,
                        "--out", src)
        _, _, rc, text = run_cli(src, os.path.join(out, "warm.out"))
        setup_times.append(time.perf_counter() - t0)
        attempted += 1
        # The in-process replay must print the CLI's TIME / STD_DEV.
        _, _, time_s, std_s = parse_cli(text)
        if rc != 0 or not cli_ok(text) or not sizes["cycles_agree"] or \
                (time_s, std_s) != (sizes["time_text"], sizes["stddev_text"]):
            failed += 1
        reference = text

    log("%s seed=%s: %d function(s), %d statements, %d ECFG nodes, "
        "%d FCDG edges, %d counters, %d interpreter steps" % (
            name, seed, sizes["functions"], sizes["ir.statements"],
            sizes["ecfg.nodes"], sizes["cdg.edges"],
            sizes["profile.counters"], sizes["interp.steps"]))

    if trace:
        layers = harness("cold-trace", "--src", src, "--seconds", seconds,
                         "--spans", spans_path(name, seed), timeout=170)
        attempted += 1
        if not layers["replays_agree"] or \
                layers["time_text"] != sizes["time_text"]:
            failed += 1
        # The serve, session, stream, durable and repl layers do no work
        # on a cold workload: they report 0.
        metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
        log("  in-process replay %.1f ms untraced, %.1f ms traced "
            "(%d iterations); pass sum %.1f ms vs serial analysis %.1f ms" % (
                layers["replay_ms"], layers["replay_traced_ms"],
                layers["iterations"], layers["analysis.passes_sum_ms"],
                layers["core.analysis_serial_ms"]))
        return metrics, attempted, failed

    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        wall, peak, rc, text = run_cli(src, os.path.join(out, "run.out"))
        attempted += 1
        if rc != 0 or text != reference or not cli_ok(text):
            failed += 1
        walls.append(wall * 1000.0)
        rss.append(peak)
    q1, med, q3 = quartiles(walls)
    report("setup_s", statistics.median(setup_times), "s", len(setup_times),
           "generate + check + one warm-up invocation")
    report("cold_ms_p50", med, "ms", len(walls),
           "q1 %.1f q3 %.1f max %.1f" % (q1, q3, max(walls)))
    report("cold_rss_mb", statistics.median(rss), "MB", len(rss),
           "getrusage of each child")
    report("failed_ops_frac", failed / attempted, "ratio", attempted)
    return {
        "setup_s": statistics.median(setup_times),
        "latency_ms_p50": med,
        "peak_rss_mb": statistics.median(rss),
    }, attempted, failed


# --------------------------------------------------------------------------
# Daemon workloads
# --------------------------------------------------------------------------

def proc_status(pid, field):
    """A kB field (VmHWM, VmRSS) of /proc/<pid>/status, in kB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise BenchError("no %s for pid %d" % (field, pid))


def wait_socket(path, proc, timeout=20.0):
    deadline = time.time() + timeout
    while not os.path.exists(path):
        if proc.poll() is not None or time.time() > deadline:
            raise BenchError("daemon did not open %s" % path)
        time.sleep(0.001)


def stop(procs):
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    for p in procs:
        try:
            p.wait(timeout=15)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


class Daemons:
    """The primary, and for serve-repl-write its standby."""

    def __init__(self, name, out):
        self.cfg = SERVE[name]
        self.out = out
        self.procs = []

    def start(self):
        """Boots the daemons and sets the sessions up; returns seconds."""
        for d in ("pstate", "sstate"):
            shutil.rmtree(os.path.join(self.out, d), ignore_errors=True)
        for s in ("p.sock", "s.sock"):
            if os.path.exists(os.path.join(self.out, s)):
                os.unlink(os.path.join(self.out, s))
        cfg = self.cfg
        t0 = time.perf_counter()
        args = [SERVE_BIN, "--socket=p.sock",
                "--jobs=%d" % cfg["primary_jobs"]]
        standby = "standby_jobs" in cfg
        if standby:
            os.makedirs(os.path.join(self.out, "pstate"))
            os.makedirs(os.path.join(self.out, "sstate"))
            args += ["--state-dir=pstate", "--repl-ack=always"]
        with open(os.path.join(self.out, "primary.log"), "w") as errlog:
            self.primary = subprocess.Popen(args, cwd=self.out,
                                            stdout=subprocess.DEVNULL,
                                            stderr=errlog)
        self.procs = [self.primary]
        wait_socket(os.path.join(self.out, "p.sock"), self.primary)
        setup = ["serve-setup", "--socket", "p.sock", "--dir", "."]
        if standby:
            # Both sides run --repl-ack=always: a standby without it never
            # reports a durable LSN and every acked write would wait out
            # the primary's 5 s ack timeout.
            with open(os.path.join(self.out, "standby.log"), "w") as slog:
                self.standby = subprocess.Popen(
                    [SERVE_BIN, "--socket=s.sock",
                     "--jobs=%d" % cfg["standby_jobs"], "--state-dir=sstate",
                     "--standby-of=p.sock", "--repl-ack=always"],
                    cwd=self.out, stdout=subprocess.DEVNULL, stderr=slog)
            self.procs.append(self.standby)
            wait_socket(os.path.join(self.out, "s.sock"), self.standby)
            setup += ["--standby", "s.sock"]
        harness(*setup, cwd=self.out)
        return time.perf_counter() - t0

    def stop(self):
        stop(self.procs)
        self.procs = []


def load(name, seed, rates, phase_seconds, ladder, mutlog, out):
    cfg = SERVE[name]
    return harness("serve-load", "--socket", "p.sock", "--dir", ".",
                   "--mix", cfg["mix"], "--seed", seed,
                   "--rates", ",".join(str(r) for r in rates),
                   "--phase-seconds", phase_seconds, "--limit-ms",
                   cfg["limit_ms"], "--ladder", 1 if ladder else 0,
                   "--conns", CONNS, "--mutlog", mutlog, cwd=out)


def log_phase(tag, res, i):
    p = "phase%d." % i
    log("  %-10s rate=%-6g sent=%-5d ok=%-5d failed=%-3d wrong=%-3d "
        "est p25/p50/p75/p99 %.3f/%.3f/%.3f/%.3f ms (n=%d)  "
        "mut p50/p90 %.3f/%.3f ms (n=%d)  late p50/max %.3f/%.3f ms  %s" % (
            tag, res[p + "rate"], res[p + "sent"], res[p + "succeeded"],
            res[p + "failed"], res[p + "wrong"], res[p + "est_p25_ms"],
            res[p + "est_p50_ms"], res[p + "est_p75_ms"],
            res[p + "est_p99_ms"], res[p + "est_n"], res[p + "mut_p50_ms"],
            res[p + "mut_p90_ms"], res[p + "mut_n"], res[p + "late_p50_ms"],
            res[p + "late_max_ms"], "pass" if res[p + "pass"] else "miss"))


def serve_workload(name, seed, seconds, trace, out):
    cfg = SERVE[name]
    sizes = harness("gen-sessions", "--dir", out, "--seed", seed, "--count",
                    SESSIONS)
    log("%s seed=%s: %d sessions, %d procedures, %d statements, %d ECFG "
        "nodes; %d connection(s), open-loop Poisson, base %g req/s, p99 "
        "limit %g ms" % (
            name, seed, sizes["sessions"], sizes["functions"],
            sizes["ir.statements"], sizes["ecfg.nodes"], CONNS,
            cfg["base_rps"], cfg["limit_ms"]))
    daemons = Daemons(name, out)
    attempted = failed = 0
    setup_times = []
    mutlog = os.path.join(out, "mutations.log")
    try:
        repeats = 1 if trace else SETUP_REPEATS
        for i in range(repeats):
            setup_times.append(daemons.start())
            if i + 1 < repeats:
                daemons.stop()
        pid = daemons.primary.pid
        base_seconds = seconds * (0.5 if trace else 0.75)
        rss0 = proc_status(pid, "VmRSS")
        base = load(name, 2 * seed, [cfg["base_rps"]], base_seconds, False,
                    mutlog, out)
        rss1 = proc_status(pid, "VmRSS")
        # Peak RSS after a fixed amount of traffic: the ladder's request
        # count depends on where it stops.
        hwm = proc_status(pid, "VmHWM")
        log_phase("base", base, 0)
        attempted += base["sent"]
        failed += base["failed"]
        ladder = None
        if not trace:
            steps = len(cfg["ladder"])
            ladder = load(name, 2 * seed + 1, cfg["ladder"],
                          seconds * 0.25 / steps, True, mutlog, out)
            for i in range(int(ladder["phases"])):
                log_phase("ladder", ladder, i)
            attempted += ladder["sent"]
            failed += ladder["failed"]
        verify_args = ["serve-verify", "--socket", "p.sock", "--dir", ".",
                       "--mutlog", mutlog]
        if "standby_jobs" in cfg:
            verify_args += ["--standby", "s.sock"]
        verify = harness(*verify_args, cwd=out)
    finally:
        daemons.stop()
    # Quiesced answers: primary and standby against the in-process replay
    # of the same mutation log. Ack timeouts count as failed operations.
    attempted += int(verify["compared"])
    failed += int(verify["mismatches"] + verify["standby_mismatches"])
    failed += int(verify["repl.ack_timeouts"])
    log("  quiesced: %d answers compared, %d primary / %d standby "
        "mismatches, %d ack timeout(s), %d shed" % (
            verify["compared"], verify["mismatches"],
            verify["standby_mismatches"], verify["repl.ack_timeouts"],
            verify["serve.shed"]))

    est_p50 = base["phase0.est_p50_ms"]
    mut_p50 = base["phase0.mut_p50_ms"]
    if trace:
        layers = serve_trace(name, seed, seconds, out)
        attempted += 1
        if not layers.get("standby_agrees", True):
            failed += 1
        metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
        hits = verify["session.cache_hits"]
        queries = verify["session.queries"]
        metrics["session.cache_hit_ratio"] = hits / queries if queries else 0.0
        metrics["serve.transport_us"] = \
            est_p50 * 1000.0 - layers["serve.handle_us.estimates_all"]
        metrics["serve.rss_growth_kb_per_kreq"] = \
            (rss1 - rss0) / (base["sent"] / 1000.0)
        return metrics, attempted, failed

    report("setup_s", statistics.median(setup_times), "s", len(setup_times),
           "boot + load/run/capture%s" % (
               " + standby catch-up" if "standby_jobs" in cfg else ""))
    report("estimate_ms_p50", est_p50, "ms", base["phase0.est_n"],
           "estimate + estimate-batch at the base rate")
    report("estimate_ms_p99", base["phase0.est_p99_ms"], "ms",
           base["phase0.est_n"])
    report("mutation_ms_p50", mut_p50, "ms", base["phase0.mut_n"],
           "ingest-profile%s" % (" + stream-deltas flush=1"
                                 if cfg["mix"] == "write" else ""))
    report("mutation_ms_p90", base["phase0.mut_p90_ms"], "ms",
           base["phase0.mut_n"])
    # The base rate is the ladder's first rung.
    max_rate = ladder["max_rate_rps"] or \
        (cfg["base_rps"] if base["phase0.pass"] else 0)
    report("max_rate_rps", max_rate, "req/s", int(ladder["phases"]) + 1,
           "ladder %s" % ([cfg["base_rps"]] + cfg["ladder"]))
    report("serve_rss_mb", hwm / 1024.0, "MB", 1,
           "primary VmHWM after the base phase")
    report("failed_ops_frac", failed / attempted, "ratio", attempted)
    return {
        "setup_s": statistics.median(setup_times),
        # The operation each daemon workload was chosen for.
        "latency_ms_p50": mut_p50 if cfg["mix"] == "write" else est_p50,
        "peak_rss_mb": hwm / 1024.0,
    }, attempted, failed


def serve_trace(name, seed, seconds, out):
    """Per-layer numbers of a daemon workload: the in-process replay of
    its request sequence, plus the cold passes on its session programs
    (which the daemon runs during setup)."""
    cfg = SERVE[name]
    write = cfg["mix"] == "write"
    layers = harness("serve-trace", "--dir", out, "--mix", cfg["mix"],
                     "--seed", seed, "--requests", 120 if write else 2000,
                     "--spans", spans_path(name, seed), timeout=170)
    srcs = ",".join(os.path.join(out, "s%d.f" % i) for i in range(SESSIONS))
    cold = harness("cold-trace", "--src", srcs, "--seconds",
                   max(1.0, seconds * 0.2))
    for k in COLD_LAYERS:
        layers[k] = cold.get(k, 0.0)
    # Overhead is the daemon replay's; the unattributed share is the cold
    # replay's (the daemon replay has no layer tree to attribute).
    layers["trace.unattributed_pct"] = cold["trace.unattributed_pct"]
    log("  in-process serve replay %.1f ms untraced, %.1f ms traced "
        "(%d requests)" % (layers["replay_ms"], layers["replay_traced_ms"],
                           layers["requests"]))
    return layers


def spans_path(name, seed):
    return os.path.join(OUT_BASE, "spans-%s-seed%s.jsonl" % (name, seed))


WORKLOADS = {
    "cold-bigfn": cold_workload,
    "cold-manyfn": cold_workload,
    "serve-read": serve_workload,
    "serve-repl-write": serve_workload,
}


def main():
    # SIGTERM unwinds like an error, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError, BenchError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    os.makedirs(OUT_BASE, exist_ok=True)
    out = os.path.join(OUT_BASE, "%s-seed%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(out)
    try:
        metrics, attempted, failed = WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, args.trace == 1, out)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print("perfbench: %s: %s" % (args.workload, e), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        for k in PER_LAYER:
            report(k, metrics[k], units[k], 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
