#!/usr/bin/env python3
"""End-to-end benchmark of the trainer and the serving daemon.

    python3 perfbench/run.py --workload nyt_tree_ws1 --seed 1 --seconds 48 --trace 0

Run from the repository root. It builds the program from source into
.bench_build/ (or $CARGO_TARGET_DIR), generates the workload's inputs from
the seed, measures, checks the outputs, and prints one JSON line last:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))

# The daemon runs 2 pool workers plus its dispatcher, next to the one-thread
# load client: 4 busy threads, the host's CPU count, as in training. The
# settings every run shares are constants in perfbench.cpp; this file
# passes the tool only what differs between workloads or runs.
SERVE_WORKERS = 2
MIN_PHASE_REQUESTS = 1000 # open-loop phases never hold fewer
DAEMON_SETUPS = 9
# With --trace 1 the closed phase runs as this many pairs of half-length
# windows, one window of a pair on an untraced daemon, one on a traced one.
OVERHEAD_PAIRS = 4

# Shares of --seconds given to each part of a run.
TRAIN_FRAC, LOW_FRAC, HIGH_FRAC, CLOSED_FRAC = 0.40, 0.26, 0.23, 0.11

# Arrival rates in requests/s, frozen on the commit that introduced the
# benchmark, on a 4-CPU host. They are fractions of the closed phase's rate
# (128 requests outstanding) there: see README.md. Closer to capacity,
# queueing made the high-phase latency swing with the host's speed.
WORKLOADS = {
    "nyt_tree_ws1": {
        "profile": "nyt",
        "train": ["--sampler=tree", "--chunks-per-gpu=1"],
        "low_rate": 100.0,
        "high_rate": 240.0,
    },
    "pubmed_mh_ws2": {
        "profile": "pubmed",
        "train": ["--sampler=alias-mh", "--chunks-per-gpu=2"],
        "low_rate": 120.0,
        "high_rate": 300.0,
    },
}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "train_e2e_s": "s",
    "train_tokens_per_s": "tokens/s",
    "train_sim_tokens_per_s": "tokens/sim-s",
    "train_nll_per_token": "nats/token",
    "serve_setup_s": "s",
    "serve_peak_rss_mb": "MiB",
    "serve_p50_ms_low": "ms",
    "serve_reload_ms": "ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def percentile(sorted_values, q):
    """Nearest rank, the rule bench_lib.hpp's Percentile uses."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "culda_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "culda_serve"))


class Runner:
    """Runs the measuring processes inside one work directory and makes
    sure none outlives the run."""

    def __init__(self, work):
        self.work = work
        self.live = []

    def json(self, args, timeout=150):
        r = subprocess.run(args, cwd=self.work, capture_output=True,
                           text=True, timeout=timeout)
        if r.returncode != 0:
            raise BenchError(f"{os.path.basename(args[0])} {args[1]} failed "
                             f"(exit {r.returncode}): {r.stderr.strip()}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    def stop_all(self):
        for p in self.live:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.live = []


class Daemon:
    """One culda_serve process on its own AF_UNIX socket in the work
    directory."""

    def __init__(self, runner, serve_bin, tag, traced):
        self.tag = tag
        # Relative to the work directory: socket paths are limited to 108
        # bytes.
        self.socket = f"{tag}.sock"
        path = os.path.join(runner.work, self.socket)
        if os.path.exists(path):
            os.unlink(path)
        args = [serve_bin, "--model=model.bin", f"--socket={self.socket}",
                f"--workers={SERVE_WORKERS}", "--quiet"]
        if traced:
            args += [f"--metrics-out={tag}.metrics.jsonl",
                     f"--trace-out={tag}.trace.json"]
        self.err = open(os.path.join(runner.work, f"{tag}.daemon.err"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=runner.work,
                                     stdout=subprocess.DEVNULL, stderr=self.err)
        runner.live.append(self.proc)
        self.setup_s = self._first_ok(t0)

    def _first_ok(self, t0):
        """Seconds from spawn to the first ok response: model load plus
        engine build plus one request."""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon {self.tag} exited early "
                                 f"(exit {self.proc.returncode})")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.socket)
            except OSError:
                s.close()
                time.sleep(0.001)
                continue
            with s:
                s.sendall(b'{"id":"probe","words":[1,2,3],"seed":1}\n')
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = s.recv(65536)
                    if not chunk:
                        raise BenchError("daemon closed the probe connection")
                    buf += chunk
                elapsed = time.perf_counter() - t0
            if b'"ok":true' not in buf:
                raise BenchError(f"probe failed: {buf!r}")
            return elapsed
        raise BenchError(f"daemon {self.tag} never answered")

    def stop(self):
        """SIGTERM drains and exits 0; returns the daemon's VmHWM in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            hwm = next(line for line in f if line.startswith("VmHWM:"))
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=60)
        self.err.close()
        if rc != 0:
            raise BenchError(f"daemon {self.tag} exited {rc} after SIGTERM")
        return int(hwm.split()[1]) / 1024.0


def run_training(runner, perfbench, spec, seed, budget_s, trace):
    """Fresh training processes until the budget is spent (at least four).
    With --trace 1 they alternate untraced and traced."""
    args = [perfbench, "train", "--corpus=corpus.uci", "--out=model.bin",
            f"--seed={seed}"] + spec["train"]
    reps = []
    end = time.monotonic() + budget_s
    while len(reps) < 4 or (time.monotonic() < end and len(reps) < 40):
        traced = trace and len(reps) % 2 == 1
        r = runner.json(args + (["--trace"] if traced else []))
        r["traced"] = traced
        reps.append(r)
    return reps


def client(runner, perfbench, daemon, phase, closed_s, stats=False):
    args = [perfbench, "client", f"--socket={daemon.socket}",
            "--requests=requests.jsonl", f"--phase={phase}",
            f"--closed-s={closed_s}", f"--sample-out={phase}.samples.jsonl"]
    if stats:
        args.append(f"--stats-out={phase}.stats.json")
    r = runner.json(args)
    if r["failed"] or r["duplicates"]:
        log(f"phase {phase}: {r['failed']} failed, {r['duplicates']} "
            f"duplicate responses")
    if phase != "closed" and not r["lat_ms_p90_supported"]:
        raise BenchError(f"phase {phase} has too few samples for a p90")
    return r


def closed_pairs(runner, perfbench, serve_bin, window_s):
    """(traced, untraced) closed windows. Both daemons are up at once and
    the windows alternate between them, the order flipping every pair, so
    the two windows of a pair meet the host in about the same state. The
    traced daemon's last window asks for its stats."""
    traced = Daemon(runner, serve_bin, "closed", traced=True)
    plain = Daemon(runner, serve_bin, "untraced", traced=False)
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        res = {}
        for d in (plain, traced) if i % 2 == 0 else (traced, plain):
            res[d.tag] = client(runner, perfbench, d, "closed", window_s,
                                stats=d is traced and i + 1 == OVERHEAD_PAIRS)
        pairs.append((res["closed"], res["untraced"]))
    traced.stop()
    plain.stop()
    log("closed req/s, traced/untraced: " + ", ".join(
        f"{t['closed_rps']:.1f}/{u['closed_rps']:.1f}" for t, u in pairs))
    return pairs


def check_oneshot(runner, serve_bin, phases):
    """Sampled daemon responses must equal culda_serve --oneshot on the same
    model and seeds byte for byte, apart from the generation field."""
    strip = re.compile(r',"generation":\d+')
    requests, responses = [], {}
    for phase in phases:
        with open(os.path.join(runner.work, f"{phase}.samples.jsonl")) as f:
            for line in f:
                line = line.rstrip("\n")
                if line.startswith('{"request":'):
                    requests.append(line[len('{"request":'):-1])
                else:
                    raw = line[len('{"response":'):-1]
                    responses[json.loads(raw)["id"]] = strip.sub("", raw)
    r = subprocess.run([serve_bin, "--model=model.bin", "--oneshot",
                        f"--workers={SERVE_WORKERS}", "--quiet"],
                       cwd=runner.work, input="\n".join(requests) + "\n",
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise BenchError("oneshot reference failed: " + r.stderr.strip())
    reference = {json.loads(line)["id"]: strip.sub("", line)
                 for line in r.stdout.splitlines()}
    if not responses:
        raise BenchError("no sampled responses to check")
    mismatches = sum(reference.get(rid) != resp
                     for rid, resp in responses.items())
    log(f"oneshot check: {len(responses)} sampled responses, "
        f"{mismatches} mismatches")
    return mismatches == 0


def spans_ms(trace_path):
    """Chrome-trace span durations by name, in ms."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    out = {}
    for e in events:
        if e.get("ph") == "X":
            out.setdefault(e["name"], []).append(e["dur"] / 1e3)
    for v in out.values():
        v.sort()
    return out


def stats_metrics(stats_path):
    with open(stats_path) as f:
        return json.loads(f.readline())["payload"]["metrics"]


def train_metrics(reps):
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["rss_mb"] for r in reps]),
        "train_e2e_s": median([r["e2e_s"] for r in reps]),
        "train_tokens_per_s": median([r["tokens_per_s"] for r in reps]),
        "train_sim_tokens_per_s": reps[0]["sim_tokens_per_s"],
        "train_nll_per_token": reps[0]["nll"],
    }


def train_layers(untraced, traced):
    def med(key):
        return median([r[key] for r in traced])

    e2e = med("e2e_s")
    parts = {"corpus_read": med("read_s"), "trainer_init": med("init_s"),
             "trainer_steps": med("steps_s"), "trainer_gather": med("gather_s"),
             "model_io_save": med("save_s")}
    layers = {
        "corpus.read_s": (med("read_s"), "s"),
        "trainer.init_s": (med("init_s"), "s"),
        "trainer.step_s.p50": (med("step_p50_s"), "s"),
        "trainer.step_s.p90": (med("step_p90_s"), "s"),
        "trainer.step_cpu_util": (med("cpu_util"), "frac"),
        "trainer.gather_s": (med("gather_s"), "s"),
        "trainer.ll_s": (med("ll_s"), "s"),
        "theta.nnz_final": (med("theta_nnz"), "count"),
        "model_io.save_s": (med("save_s"), "s"),
        "io.fsync_s": (med("fsync_s"), "s"),
        "train.sync_wall_s": (med("sync_wall_s"), "s"),
        "train.schedule_wall_s": (med("schedule_wall_s"), "s"),
        "threadpool.tasks_run": (med("tasks_run"), "count"),
        "threadpool.steals": (med("steals"), "count"),
        "sampler.useful_frac": (med("useful_frac"), "frac"),
        "sim.sampling_s": (med("sim_sampling_s"), "sim-s"),
        "sim.update_phi_s": (med("sim_update_phi_s"), "sim-s"),
        "sim.update_theta_s": (med("sim_update_theta_s"), "sim-s"),
        "sim.compute_nk_s": (med("sim_compute_nk_s"), "sim-s"),
        "sim.sync_s": (med("sim_sync_s"), "sim-s"),
        "sim.transfer_s": (med("sim_transfer_s"), "sim-s"),
        "sim.sampling_bytes": (med("sim_sampling_bytes"), "bytes"),
        "sim.transfer_bytes": (med("sim_transfer_bytes"), "bytes"),
        "sim.peer_bytes": (med("sim_peer_bytes"), "bytes"),
        "trace.train_overhead_frac": (
            e2e / median([r["e2e_s"] for r in untraced]) - 1, "frac"),
    }
    for name, seconds in parts.items():
        layers[f"train.share.{name}"] = (seconds / e2e, "frac")
    layers["train.share.unaccounted"] = (1 - sum(parts.values()) / e2e, "frac")
    return layers


def serve_layers(work, phases, pairs, load):
    """`phases` holds the traced low and high results, `pairs` the
    (traced, untraced) closed windows."""
    traced_closed = [t for t, _ in pairs]
    layers = {
        "model_io.load_s": (load["load_s"], "s"),
        "snapshot.build_s": (load["build_s"], "s"),
        "client.conns": (traced_closed[0]["conns"], "count"),
    }
    builds = []
    for phase in ("low", "high", "closed"):
        spans = spans_ms(os.path.join(work, f"{phase}.trace.json"))
        stats = stats_metrics(os.path.join(work, f"{phase}.stats.json"))
        builds += spans.get("snapshot/build", [])
        wait = spans["serve/queue_wait"]
        size = stats["serve.batch.size"]
        layers[f"serve.queue_wait_ms.p50.{phase}"] = (percentile(wait, 0.5), "ms")
        layers[f"serve.queue_wait_ms.p99.{phase}"] = (percentile(wait, 0.99), "ms")
        layers[f"serve.batch_size.mean.{phase}"] = (
            size["sum"] / size["count"], "requests")
        if phase != "low":
            infer = spans["serve/infer_batch"]
            layers[f"serve.batch_infer_ms.p50.{phase}"] = (
                percentile(infer, 0.5), "ms")
            layers[f"serve.batch_infer_ms.p99.{phase}"] = (
                percentile(infer, 0.99), "ms")
        if phase != "closed":
            res = phases[phase]
            layers[f"client.send_lag_ms.p99.{phase}"] = (res["lag_ms_p99"], "ms")
            layers[f"client.latency_ms.p50.{phase}"] = (res["lat_ms_p50"], "ms")
            layers[f"client.latency_ms.p90.{phase}"] = (res["lat_ms_p90"], "ms")
            continue
        layers["infer.tokens_per_s"] = (
            stats["infer.tokens"]["value"] /
            stats["infer.batch_seconds"]["sum"], "tokens/s")
        layers["serve.threadpool.tasks_run"] = (
            stats["threadpool.tasks_run"]["value"], "count")
        layers["serve.parse_us.p50"] = (
            1e3 * percentile(spans["serve/parse"], 0.5), "us")
        layers["serve.respond_us.p50"] = (
            1e3 * percentile(spans["serve/respond"], 0.5), "us")
        # Where a closed-loop request's time goes, as shares of the
        # client-observed mean latency over the traced windows.
        total = statistics.fmean(r["lat_ms_mean"] for r in traced_closed)
        parts = {name: statistics.fmean(spans[f"serve/{name}"])
                 for name in ("parse", "queue_wait", "infer", "respond")}
        for name, ms in parts.items():
            layers[f"serve.share.{name}"] = (ms / total, "frac")
        layers["serve.share.unaccounted"] = (
            1 - sum(parts.values()) / total, "frac")
        layers["serve.closed_rps"] = (
            median([r["closed_rps"] for r in traced_closed]), "req/s")
        layers["trace.serve_overhead_frac"] = (
            median([1 - t["closed_rps"] / u["closed_rps"] for t, u in pairs]),
            "frac")
    layers["snapshot.build_span_s"] = (median(builds) / 1e3, "s")
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    trace = args.trace == 1

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    perfbench, serve_bin = build(build_dir)
    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)  # daemon sockets are addressed relative to it
    runner = Runner(work)
    try:
        result = measure(runner, perfbench, serve_bin, spec, args, trace)
    finally:
        runner.stop_all()
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(runner, perfbench, serve_bin, spec, args, trace):
    s = args.seconds
    n_low = max(MIN_PHASE_REQUESTS, round(spec["low_rate"] * s * LOW_FRAC))
    n_high = max(MIN_PHASE_REQUESTS,
                 round(spec["high_rate"] * s * HIGH_FRAC))
    closed_s = s * CLOSED_FRAC
    subprocess.run([perfbench, "gen", f"--profile={spec['profile']}",
                    f"--seed={args.seed}", "--out-dir=.",
                    f"--low-rate={spec['low_rate']}", f"--low-n={n_low}",
                    f"--high-rate={spec['high_rate']}", f"--high-n={n_high}"],
                   cwd=runner.work, check=True, timeout=60)
    with open(os.path.join(runner.work, "manifest.json")) as f:
        manifest = json.load(f)
    log(f"inputs: {manifest}")

    reps = run_training(runner, perfbench, spec, args.seed, s * TRAIN_FRAC,
                        trace)
    checks = {
        "train_nll_identical": len({r["nll"] for r in reps}) == 1,
        "train_sim_identical": len({r["sim_tokens_per_s"] for r in reps}) == 1,
    }
    untraced = [r for r in reps if not r["traced"]]
    attempted = sum(int(r["iters"]) for r in reps)

    if not trace:
        setups = []
        for i in range(DAEMON_SETUPS):
            d = Daemon(runner, serve_bin, f"setup{i}", traced=False)
            setups.append(d.setup_s)
            if i + 1 < DAEMON_SETUPS:
                d.stop()
        phases = {p: client(runner, perfbench, d, p, closed_s)
                  for p in ("low", "high", "closed")}
        serve_rss = d.stop()
        served = list(phases.values())
        log(f"closed req/s: {phases['closed']['closed_rps']:.1f}")
    else:
        phases = {}
        for p in ("low", "high"):
            d = Daemon(runner, serve_bin, p, traced=True)
            phases[p] = client(runner, perfbench, d, p, closed_s, stats=True)
            d.stop()
        pairs = closed_pairs(runner, perfbench, serve_bin, closed_s / 2)
        served = list(phases.values()) + [r for pair in pairs for r in pair]
        load = runner.json([perfbench, "load", "--model=model.bin",
                            f"--workers={SERVE_WORKERS}"])
    attempted += sum(int(r["attempted"]) for r in served)
    failed = sum(int(r["failed"]) for r in served)
    checks["serve_answered_once"] = all(
        r["missing"] == 0 and r["duplicates"] == 0 for r in served)
    checks["serve_matches_oneshot"] = check_oneshot(runner, serve_bin,
                                                    ("low", "high"))
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        log(f"correctness checks failed: {bad}")

    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = train_layers(untraced, traced)
        layers.update(serve_layers(runner.work, phases, pairs, load))
        print_table(layers)
    else:
        values = train_metrics(untraced)
        values.update({
            "serve_setup_s": median(setups),
            "serve_peak_rss_mb": serve_rss,
            "serve_p50_ms_low": phases["low"]["lat_ms_p50"],
            "serve_reload_ms": median(phases["high"]["reload_ms"]),
        })
        layers = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    return {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }


def print_table(layers):
    print(f"{'per-layer metric':44} {'value':>16}  unit")
    for name in sorted(layers):
        value, unit = layers[name]
        print(f"{name:44} {value:16.6g}  {unit}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # any failure: exit 1 without a result line
        log(f"error: {type(e).__name__}: {e}")
        sys.exit(1)
