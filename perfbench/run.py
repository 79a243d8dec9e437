#!/usr/bin/env python3
"""perfbench: the prefetcher's end-to-end benchmark.

    python3 perfbench/run.py --workload served-small --seed 1 --seconds 10 --trace 0

Builds the prefetcher and the pfbench client from this checkout into
.bench_build/, runs one workload and checks its outputs.  --trace 0
prints the end-to-end metrics; --trace 1 is the separate traced run that
prints the per-layer metrics and writes spans and the layer table.  The
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import report  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
SETUP_REPETITIONS = 5  # set-ups per run; setup_s is their median
# The per-layer self times of an ACCESS_MANY frame should add up to the
# untraced round trip within this fraction.  Both sides are timings from
# different passes, so a miss is reported, not counted as a failure.
ATTRIBUTION_TOLERANCE = 0.25

# Thread budget: client threads + server event loops + shard workers.
WORKLOADS = {
    "replay-cad": {"clients": 1, "loops": 0, "shards": 0},
    "served-small": {"clients": 2, "loops": 2, "shards": 0},
    "served-mixed": {"clients": 1, "loops": 1, "shards": 2},
}

SERVER_LAYER = ["server.transport_us_per_frame",
                "server.session_self_us_per_frame",
                "server.wire_decode_ns_per_frame",
                "server.wire_encode_ns_per_frame", "server.scrape_ms"]
SHARD_AND_OBS = ["engine.shard_queue_occupancy_max", "engine.metrics_flush_ms",
                 "obs.stats_read_us", "obs.render_metrics_ms"]

# What each workload bypasses, checked on every traced run.
PREDICTIONS = {
    "replay-cad": [
        ("no server layer work", lambda m: all(m[k] == 0 for k in SERVER_LAYER)),
        ("no shard or obs reads",
         lambda m: all(m[k] == 0 for k in SHARD_AND_OBS)),
    ],
    "served-small": [
        ("enumeration share ~0", lambda m: m["core.enumeration_share"] < 0.01),
        ("no shard or obs reads",
         lambda m: all(m[k] == 0 for k in SHARD_AND_OBS)),
    ],
    "served-mixed": [
        ("shard and obs metrics nonzero",
         lambda m: all(m[k] > 0 for k in SHARD_AND_OBS)),
    ],
}

PHASES = ["lookup", "predictor_update", "enumeration", "cost_benefit",
          "issue", "eviction"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no prefetcher sources next to {BENCH_DIR.name}/; run from a "
             "full checkout")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "pfbench", "pfp_server_bin"],
                   check=True, stdout=log, stderr=log)


def cache_value(key):
    cache = (BUILD / "CMakeCache.txt").read_text().splitlines()
    for line in cache:
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unset"


def run_context(workload, args):
    nproc = len(os.sched_getaffinity(0))
    mhz = [float(line.split(":")[1]) for line in
           Path("/proc/cpuinfo").read_text().splitlines()
           if line.startswith("cpu MHz")]
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none"
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "tools") for p in
                       (ROOT / d).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    budget = WORKLOADS[workload]
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "cpu_mhz": round(statistics.mean(mhz), 1) if mhz else 0.0,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "pfp_obs": cache_value("PFP_OBS"), "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "threads": dict(budget, total=sum(budget.values())),
    }


def client(args, *extra):
    """Runs pfbench and returns its JSON record (its last stdout line)."""
    out = subprocess.run([str(BUILD / "pfbench"), *extra,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--out", str(args.out)],
                         stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        fail(f"pfbench exited with {out.returncode}", 1)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Server:
    """One fresh pfp_server process; start() returns seconds to listening."""

    def __init__(self, loops, out):
        self.loops = loops
        self.port_file = out / "port"
        self.proc = None

    def start(self):
        self.port_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(BUILD / "pfp" / "tools" / "pfp_server"), "--port", "0",
             "--port-file", str(self.port_file), "--loops", str(self.loops)],
            stdout=subprocess.DEVNULL)
        while True:
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return time.perf_counter() - t0
            if self.proc.poll() is not None or time.perf_counter() - t0 > 10:
                fail("pfp_server did not start", 1)
            time.sleep(0.0005)

    def stop(self):
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


def run_served(workload, args):
    """SETUP_REPETITIONS fresh servers; the last one runs the workload."""
    setups = []
    raw = None
    for rep in range(SETUP_REPETITIONS):
        server = Server(WORKLOADS[workload]["loops"], args.out)
        try:
            start_s = server.start()
            flags = ["served", "--workload", workload, "--port",
                     str(server.port), "--server-pid", str(server.proc.pid)]
            last = rep == SETUP_REPETITIONS - 1
            rec = client(args, *flags) if last else \
                client(args, *flags, "--setup-only")
            setups.append(start_s + rec["trace.gen_s"] + rec["open_s"])
            if last:
                raw = rec
        finally:
            server.stop()
    raw["setup_s"] = statistics.median(setups)
    raw["setup_samples"] = setups
    return raw


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw, samples):
    p50, _, _ = report.repeated_percentile(samples, report.P50)
    p90, _, _ = report.repeated_percentile(samples, report.P90)
    # window_s and cpu_s are medians over the run's repetitions, each of
    # which does the same accesses_per_rep accesses.
    return {
        "ops_per_s": raw["accesses_per_rep"] / raw["window_s"],
        "batch_p50_ms": p50,
        "batch_p90_ms": p90,
        "miss_rate": ratio(raw["m.misses"], raw["m.accesses"]),
        "stall_ms_per_access": ratio(raw["m.stall_ms"], raw["m.accesses"]),
        "cpu_us_per_op": raw["cpu_s"] * 1e6 / raw["accesses_per_rep"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"],
    }


def per_layer(workload, raw, samples, table_path):
    """The traced run's per-layer metrics; writes the layer table."""
    m = {k: raw.get(k, 0.0) for k in (
        "engine.run_trace_s", "engine.metrics_flush_ms", "engine.snapshot_ms",
        "engine.restore_ms", "engine.snapshot_bytes",
        "engine.shard_queue_occupancy_max", "engine.shard_backpressure_waits",
        "obs.stats_read_us", "obs.render_metrics_ms", "obs.stats_inconsistent")}
    m["trace.gen_s"] = raw["trace.gen_s"]
    m["server.error_replies"] = raw["error_replies"]
    m["server.backpressure_flags"] = raw["backpressure_flags"]

    phase_total = sum(raw.get(f"phase.all.{p}.total_ns", 0) for p in PHASES)
    accesses = raw.get("phase.all.lookup.count", 0)
    for p in PHASES:
        layer = "cache" if p in ("lookup", "eviction") else "core"
        total = raw.get(f"phase.all.{p}.total_ns", 0)
        m[f"{layer}.{p}_ns"] = ratio(total, accesses)
        m[f"{layer}.{p}_p99_ns"] = raw.get(f"phase.all.{p}.p99_ns", 0.0)
        m[f"{layer}.{p}_share"] = ratio(total, phase_total)

    acc = raw["m.accesses"]
    m["core.prefetches_per_access"] = ratio(raw["m.prefetches_issued"], acc)
    m["core.prefetch_used_ratio"] = ratio(raw["m.prefetch_hits"],
                                          raw["m.prefetches_issued"])
    m["core.candidates_cached_ratio"] = ratio(
        raw["m.candidates_already_cached"], raw["m.candidates_chosen"])
    m["core.tree_nodes"] = raw["m.tree_nodes"]
    m["core.tree_bytes"] = raw["m.tree_bytes"]
    m["cache.demand_hit_rate"] = ratio(raw["m.demand_hits"], acc)
    m["cache.prefetch_hit_rate"] = ratio(raw["m.prefetch_hits"], acc)
    m["cache.prefetch_ejections"] = raw["m.prefetch_ejections"]

    spans = report.read_spans(Path(raw["out"]) / "spans.csv")
    table = report.layer_table(spans)
    frames = table.get(("client.frame", "access_many"), {"count": 0})["count"]

    def per_frame(layer, scale):
        return report.mean_self_ns(table, layer, "access_many", frames) / scale

    m["server.transport_us_per_frame"] = (per_frame("client.send", 1e3) +
                                          per_frame("client.recv", 1e3))
    m["server.session_self_us_per_frame"] = per_frame("server.session", 1e3)
    m["server.wire_decode_ns_per_frame"] = per_frame("server.wire_decode", 1)
    m["server.wire_encode_ns_per_frame"] = per_frame("server.wire_encode", 1)
    m["engine.tenant_access_many_us_per_frame"] = per_frame("engine.tenant",
                                                            1e3)
    m["bench.client_codec_us_per_frame"] = (per_frame("client.encode", 1e3) +
                                            per_frame("client.decode", 1e3))
    scrape = table.get(("server.scrape", "scrape"))
    m["server.scrape_ms"] = ratio(scrape["total_ns"], scrape["count"]) / 1e6 \
        if scrape else 0.0

    # Traced over untraced ops_per_s, minus one.
    m["obs.trace_overhead_frac"] = raw["window_s"] / raw["traced.window_s"] - 1
    if workload == "replay-cad":
        m["bench.attribution_error_frac"] = 0.0
    else:
        # Self times of every span under an ACCESS_MANY frame add up to
        # the frame; compare them with the untraced round trip.
        attributed = sum(per_frame(layer, 1e6) for layer in (
            "client.frame", "client.encode", "client.send", "client.recv",
            "client.decode", "server.session", "server.wire_decode",
            "engine.tenant", "server.wire_encode"))
        m["bench.attribution_error_frac"] = \
            attributed / statistics.mean(x for rep in samples for x in rep) - 1

    with open(table_path, "w") as f:
        f.write(f"{'layer':<22} {'op':<12} {'spans':>8} {'mean_us':>12} "
                f"{'self_us':>12}\n")
        for (layer, op), row in sorted(table.items()):
            f.write(f"{layer:<22} {op:<12} {row['count']:>8} "
                    f"{row['total_ns'] / row['count'] / 1e3:>12.3f} "
                    f"{row['self_ns'] / row['count'] / 1e3:>12.3f}\n")
        for key in sorted(k for k in raw if k.startswith("phase.")):
            f.write(f"{key} {raw[key]}\n")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the percentile/self-time self-test only")
    args = parser.parse_args()
    if args.self_test:
        return 0 if report.self_test() else 1
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    context = run_context(args.workload, args)
    if context["threads"]["total"] > context["nproc"]:
        fail(f"{args.workload} needs {context['threads']['total']} threads "
             f"but only {context['nproc']} CPUs are available", 3)
    args.out = BUILD / "out" / args.workload
    args.out.mkdir(parents=True, exist_ok=True)
    for stale in ("batch_ms.txt", "spans.csv"):
        (args.out / stale).unlink(missing_ok=True)

    if args.workload == "replay-cad":
        raw = client(args, "replay-cad")
    else:
        raw = run_served(args.workload, args)
    raw["out"] = str(args.out)
    # One list of batch round trips (ms) per repetition.
    samples = [[float(x) for x in line.split()] for line in
               (args.out / "batch_ms.txt").read_text().splitlines()]

    checks = [("every frame answered and verified", raw["failed"] == 0)]
    e2e = end_to_end(raw, samples)
    shown = dict(e2e)
    if args.trace:
        checks.append(("percentile and self-time self-test",
                       report.self_test(verbosity=0)))
        shown = per_layer(args.workload, raw, samples, args.out / "layers.txt")
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]

    print(f"perfbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("context: " + json.dumps(context))
    if "reps_run" in raw:
        print(f"repetitions: {len(samples)} counted of {int(raw['reps_run'])} "
              f"run; most CPU stolen by the hypervisor in a counted one: "
              f"{raw['steal_max']:.1%}")
    print(f"batch samples: {sum(map(len, samples))} in {len(samples)} "
          "repetition(s); each percentile is the median repetition's")
    for name, q in (("batch_p50_ms", report.P50), ("batch_p90_ms", report.P90),
                    ("batch_p99_ms", report.P99), ("batch_p999_ms", report.P999)):
        value, n, beyond = report.repeated_percentile(samples, q)
        note = "" if report.supported(beyond) else \
            f"  NOT SUPPORTED: fewer than {report.MIN_BEYOND} samples beyond"
        print(f"  {name:<22} {value:.6f} ms  (n={n}, {beyond} beyond){note}")
    print(f"  {'error_rate':<22} {ratio(raw['failed'], raw['attempted']):.6f} "
          f"fraction  ({raw['failed']} of {raw['attempted']} frames)")
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    for name, value in shown.items():
        print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    if args.trace:
        print(f"spans: {args.out / 'spans.csv'}")
        print((args.out / "layers.txt").read_text(), end="")
        if args.workload != "replay-cad":
            error = shown["bench.attribution_error_frac"]
            within = abs(error) <= ATTRIBUTION_TOLERANCE
            print(f"attribution: per-layer self times of an ACCESS_MANY frame "
                  f"are {error:+.1%} off the untraced round trip: "
                  f"{'within' if within else 'OUTSIDE'} the stated "
                  f"{ATTRIBUTION_TOLERANCE:.0%}")
        for what, holds in PREDICTIONS[args.workload]:
            print(f"prediction: {what}: "
                  f"{'confirmed' if holds(shown) else 'NOT confirmed'}")
    for what, ok in checks:
        print(f"check: {what}: {'ok' if ok else 'FAILED'}")

    correct = all(ok for _, ok in checks)
    missing = [d["name"] for d in declared if d["name"] not in shown]
    if missing:
        fail(f"metrics not produced: {missing}", 1)
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {d["name"]: {"value": shown[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    (args.out / f"result-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "raw": raw, "result": result},
                   indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
