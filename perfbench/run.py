#!/usr/bin/env python3
"""scandiag benchmark: CLI workloads on the surfaces users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the tree
with perfbench/CMakeLists.txt into .bench_build/perfbench; later runs rebuild
incrementally.

--trace 0 measures the end-to-end metrics with tracing off: `scandiag` CLI
commands run as subprocesses one at a time with a fixed --threads.
--trace 1 replays every workload, serve_mix included, in process through
pb_trace, records one span per layer call, writes a Chrome Trace Event file
(opens in Perfetto) and a per-layer self-time table, and reports the
per-layer metrics. serve_mix's untraced reference is the `scandiag serve`
daemon, driven over its unix socket by pb_loadgen.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
NOTES.md gives why each workload exists and what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
CLI = BUILD_DIR / "scandiag" / "tools" / "scandiag"
LOADGEN = BUILD_DIR / "pb_loadgen"
TRACER = BUILD_DIR / "pb_trace"

# The workloads of the end-to-end runs; the traced run also replays serve_mix.
WORKLOADS = ("dr_cold", "soc_adaptive", "defects_s13207")
TRACED = WORKLOADS + ("serve_mix",)
NPROC = os.cpu_count() or 1
THREADS = min(4, NPROC)  # --threads of every CLI run; fixed so runs compare
CHILD_TIMEOUT_S = 60
SETUP_RUNS = 7  # set-up invocations per run; setup_s is their median

TRUTH = json.loads((BENCH_DIR / "truth.json").read_text())

# serve_mix (traced run only): the daemon gets 2 handler threads and a 1-lane
# compute pool, the generator one thread, so daemon + generator stay within 4
# busy threads. Its admission queue is 256 deep (default 16): idle virtual
# CPUs can stall the daemon for several milliseconds, and a 16-deep queue sheds
# through such a stall even at low load.
SERVE_CIRCUIT = "s9234"
SERVE_POOL = BENCH_DIR / "serve_pool.json"
SERVE_FLAGS = ["--threads", "1", "--handlers", "2", "--queue", "256"]
SERVE_KINDS = ("inject", "log", "defect")
# The stream is the whole pool, shuffled anew in each pass. So the request mix
# is the pool's own (50% InjectFault, 25% TesterLog, 25% DefectScenario), which
# no recorded traffic backs; every handle figure is therefore per kind.
SERVE_PASSES = 4
SERVE_FIXED_RPS = 2000        # offered rate of the open-loop phase (generator lag)
SERVE_LAG_LIMIT_MS = 20.0     # a generator later than this at p99 invalidates the run

END_TO_END = {
    "setup_s": "s", "run_ms_p50": "ms", "run_ms_p90": "ms", "dr": "ratio",
    "sessions_per_fault": "sessions", "ok_ratio": "share", "peak_rss_mb": "MB",
}
# Per-layer metrics of the traced run, per workload: only the layers that
# workload runs, plus the tracing overhead and the unattributed share.
_COMMON_TAIL = {"trace.overhead_ratio": "ratio", "trace.unattributed_share": "share"}
LAYERS = {
    "dr_cold": {
        "netlist.generate_ms": "ms", "netlist.levelize_ms": "ms", "bist.patterns_ms": "ms",
        "sim.good_sim_ms": "ms", "sim.fault_list_ms": "ms", "sim.grade_ms": "ms",
        "sim.grade_yield": "share", "diagnosis.pipeline_build_ms": "ms",
        "diagnosis.evaluate_ms": "ms", "diagnosis.sessions_run": "count",
        "diagnosis.ns_per_session": "ns", "common.pool_busy_ratio": "share", **_COMMON_TAIL},
    "soc_adaptive": {
        "soc.build_ms": "ms", "soc.sweep_ms": "ms", "diagnosis.sessions_run": "count",
        "diagnosis.ns_per_session": "ns", "diagnosis.adaptive_sessions_saved": "count",
        "common.pool_busy_ratio": "share", **_COMMON_TAIL},
    "defects_s13207": {
        "netlist.generate_ms": "ms", "netlist.levelize_ms": "ms", "bist.patterns_ms": "ms",
        "sim.good_sim_ms": "ms", "inject.scenario_gen_ms": "ms",
        "diagnosis.pipeline_build_ms": "ms", "inject.ladder_ms": "ms",
        "inject.degraded_ratio": "share", "inject.union_splits": "count",
        "atpg.patterns_generated": "count", "diagnosis.sessions_run": "count",
        "common.pool_busy_ratio": "share", **_COMMON_TAIL},
    "serve_mix": {
        "netlist.generate_ms": "ms", "serve.service_build_ms": "ms",
        **{f"serve.{k}.handle_ms_{q}": "ms" for k in SERVE_KINDS for q in ("p50", "p99")},
        "serve.transport_share": "share", "serve.shed": "count", "serve.frames_rejected": "count",
        "loadgen.lag_ms_p99": "ms", "diagnosis.sessions_run": "count", **_COMMON_TAIL},
}
PER_LAYER = {f"{w}.{m}": u for w, ms in LAYERS.items() for m, u in ms.items()}


class BenchError(Exception):
    """The benchmark cannot run here (no tree, build failed, daemon died)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def mix64(*parts):
    """Deterministic 64-bit value from the benchmark seed and a salt."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


# --------------------------------------------------------------------------
# Build and stamp


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "scandiag_cli.cpp").is_file():
        raise BenchError(f"{ROOT} holds no scandiag source tree")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    with open(build_log, "ab") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            rc = subprocess.call(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                                  f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], stdout=out, stderr=out)
            if rc != 0:
                raise BenchError(f"cmake configure failed; see {build_log}")
        rc = subprocess.call(["cmake", "--build", str(BUILD_DIR), "-j", str(NPROC), "--target",
                              *targets], stdout=out, stderr=out)
    if rc != 0:
        raise BenchError(f"build of {' '.join(targets)} failed; see {build_log}")


def source_id():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    # Checkouts exported without .git: a digest of the sources stands in.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def stamp():
    return {"nproc": NPROC, "build_type": BUILD_TYPE, "threads": THREADS, "commit": source_id()}


# --------------------------------------------------------------------------
# Child processes


class Child:
    """One finished subprocess: wall time, exit code, output, peak RSS."""

    def __init__(self, wall_s, rc, out, err, rss_kb):
        self.wall_s, self.rc, self.out, self.err, self.rss_kb = wall_s, rc, out, err, rss_kb


def invoke(args, cwd):
    """Runs `args` to completion; timed from just before the fork to reaping."""
    out_path = Path(cwd) / ".stdout"
    err_path = Path(cwd) / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, out_path.read_text(), err_path.read_text(),
                 usage.ru_maxrss)


# --------------------------------------------------------------------------
# Output checks. Each returns a list of problems (empty = correct).


def check_dr(child, expect):
    """`scandiag dr --json` against the recorded fields of its input."""
    if child.rc != 0:
        return [f"exit {child.rc}, expected 0: {child.err.strip()[-200:]}"]
    try:
        rep = json.loads(child.out)
    except ValueError:
        return ["stdout is not JSON"]
    return [f"{key} {rep.get(key)} != recorded {expect[key]}"
            for key in ("faults", "sumActual", "sumCandidates", "dr") if rep.get(key) != expect[key]]


def check_defects(child, expect):
    """`scandiag dr --defects --json`: exit 8 iff degraded, no misdiagnosis."""
    try:
        rep = json.loads(child.out)
    except ValueError:
        return [f"stdout is not JSON (exit {child.rc})"]
    problems = []
    want_rc = 8 if rep.get("degraded", 0) > 0 else 0
    if child.rc != want_rc:
        problems.append(f"exit {child.rc}, expected {want_rc}")
    if rep.get("misdiagnosisRate") != 0:
        problems.append(f"misdiagnosisRate {rep.get('misdiagnosisRate')} != 0")
    for key in ("scenarios", "sumActual", "sumCandidates", "degraded", "dr"):
        if rep.get(key) != expect[key]:
            problems.append(f"{key} {rep.get(key)} != recorded {expect[key]}")
    return problems


def parse_soc_rows(text):
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 7 and parts[0] == "failing" and parts[2] == "DR":
            rows.append({"core": parts[1], "dr": float(parts[4]),
                         "faults": int(parts[5].lstrip("("))})
    return rows


def check_soc(child, expect):
    """`scandiag soc-dr`: one row per failing core, as recorded."""
    if child.rc != 0:
        return [f"exit {child.rc}, expected 0: {child.err.strip()[-200:]}"]
    rows = parse_soc_rows(child.out)
    if [r["core"] for r in rows] != [r["core"] for r in expect["rows"]]:
        return [f"cores {[r['core'] for r in rows]} != recorded"]
    return [f"{got['core']}: {got} != recorded {want}"
            for got, want in zip(rows, expect["rows"]) if got != want]


# --------------------------------------------------------------------------
# Batch workloads: CLI commands, one subprocess at a time


@dataclass
class BatchWorkload:
    """A CLI command run closed-loop. `reference` is the workload's command with
    the CLI's default seeds; `setup` is the same command cut to one fault (per
    core); `variants(seed)` are the measured loop's inputs. Every input has
    its output recorded in truth.json: `truth`, `truth["setup"]` and
    `truth["loop"][<fault seed>]`."""

    name: str
    reference: list
    setup: list
    variants: Callable
    check: Callable
    sessions: Callable
    dr_of: Callable

    @property
    def truth(self):
        return TRUTH[self.name]


def dr_sessions(metrics_file, rep):
    counters = json.loads(Path(metrics_file).read_text())["counters"]
    return counters["sessions_run"] / counters["faults_diagnosed"]


def defects_sessions(_metrics_file, rep):
    # --metrics is not written on exit 8, so charge the base schedule
    # (8 partitions x 16 groups) plus the extra sessions the JSON reports.
    return 8 * 16 + rep["extraSessions"] / rep["scenarios"]


def dr_of_json(child):
    return json.loads(child.out)


def dr_of_soc(child):
    return {"dr": statistics.fmean(r["dr"] for r in parse_soc_rows(child.out))}


def dr_cold_variants(seed):
    """Eight of the fault samples recorded in truth.json, chosen by the seed."""
    loop = TRUTH["dr_cold"]["loop"]
    picked = random.Random(mix64(seed, "dr_cold")).sample(sorted(loop, key=int), 8)
    return [(DR_COLD + ["--seed", s], loop[s]) for s in picked]


DR_COLD = ["dr", "s38584", "--json"]
SOC_ADAPTIVE = ["soc-dr", "soc1", "--scheme", "adaptive"]
DEFECTS = ["dr", "s13207", "--defects", "2", "--json"]
ONE_FAULT = ["--faults", "1"]

BATCH = {
    "dr_cold": BatchWorkload("dr_cold", DR_COLD, DR_COLD + ONE_FAULT, dr_cold_variants,
                             check_dr, dr_sessions, dr_of_json),
    # soc-dr has no fault-seed option: the SOC-1 preset fixes its sample.
    "soc_adaptive": BatchWorkload(
        "soc_adaptive", SOC_ADAPTIVE, SOC_ADAPTIVE + ONE_FAULT,
        lambda seed: [(SOC_ADAPTIVE, TRUTH["soc_adaptive"])], check_soc, dr_sessions, dr_of_soc),
    # Scenario cost is heavy-tailed: another scenario seed changes the work by
    # up to 2x, so every seed runs the fixed reference command.
    "defects_s13207": BatchWorkload(
        "defects_s13207", DEFECTS, DEFECTS + ONE_FAULT,
        lambda seed: [(DEFECTS, TRUTH["defects_s13207"])], check_defects, defects_sessions,
        dr_of_json),
}


def run_batch(w, seed, seconds, workdir, setup_runs=SETUP_RUNS):
    threads = ["--threads", str(THREADS)]
    attempted = failed = 0
    problems = []
    rss = []

    def record(child, probs, what):
        nonlocal attempted, failed
        attempted += 1
        rss.append(child.rss_kb)
        if probs:
            failed += 1
            problems.extend(f"{w.name} {what}: {p}" for p in probs)

    # The reference command once: the recorded-truth check, dr and sessions.
    ref_dir = tempfile.mkdtemp(prefix="ref-", dir=workdir)
    metrics_file = Path(ref_dir) / "metrics.json"
    ref = invoke([str(CLI), *w.reference, *threads, "--metrics", str(metrics_file)], ref_dir)
    record(ref, w.check(ref, w.truth), "reference")
    try:
        rep = w.dr_of(ref)
        dr = rep["dr"]
        sessions = w.sessions(metrics_file, rep)
    except (ValueError, KeyError, OSError, ZeroDivisionError, statistics.StatisticsError) as e:
        problems.append(f"{w.name}: reference output unreadable ({e})")
        dr = sessions = float("nan")

    # Set-up: the command cut to one fault, several times. What is left is
    # the fixed cost of an invocation: process start, circuit synthesis,
    # patterns, fault-free simulation and pipeline preparation.
    loop_dir = tempfile.mkdtemp(prefix="loop-", dir=workdir)
    setups = []
    for _ in range(setup_runs):
        child = invoke([str(CLI), *w.setup, *threads], loop_dir)
        record(child, w.check(child, w.truth["setup"]), "set-up")
        setups.append(child.wall_s)

    # Measured loop: the variants round-robin, closed loop.
    variants = w.variants(seed)
    first_out = {}
    walls = []
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or i < len(variants):
        key = i % len(variants)
        args, expect = variants[key]
        child = invoke([str(CLI), *args, *threads], loop_dir)
        probs = w.check(child, expect)
        if key in first_out and child.out != first_out[key]:
            probs.append("output differs from the first run of the same input")
        first_out.setdefault(key, child.out)
        record(child, probs, "loop")
        walls.append(child.wall_s * 1e3)
        i += 1

    # Determinism: one --threads 1 run of each variant must match byte for byte.
    for key, (args, _) in enumerate(variants):
        child = invoke([str(CLI), *args, "--threads", "1"], loop_dir)
        probs = [] if child.out == first_out.get(key) else [
            f"--threads 1 output differs from --threads {THREADS}"]
        record(child, probs, "determinism")

    metrics = {
        "setup_s": statistics.median(setups),
        "run_ms_p50": percentile(walls, 0.50),
        "run_ms_p90": percentile(walls, 0.90),
        "dr": dr,
        "sessions_per_fault": sessions,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    return metrics, attempted, failed, problems, {"invocations": len(walls)}


# --------------------------------------------------------------------------
# serve_mix: the daemon over its unix socket, for the traced run


def frame(msg_type, body=b""):
    payload = struct.pack("<H", msg_type) + body
    return struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def wire_str(text):
    raw = text.encode()
    return struct.pack("<I", len(raw)) + raw


def encode_request(entry):
    kind = {"inject": 0, "log": 1, "defect": 2}[entry["kind"]]
    body = struct.pack("<H", kind) + wire_str(entry.get("gate", ""))
    body += struct.pack("<H", 1 if entry.get("sa1", True) else 0) + wire_str(entry.get("log", ""))
    if kind == 2:
        body += wire_str(entry["spec"]) + struct.pack("<QI", entry["seed"], entry["index"])
    return frame(0x20, body)


def reply_candidates(message):
    """Candidate cells of an encoded DiagnoseReply message."""
    # status u16, id u64, detected u16, resolved u16, confidence f64,
    # partitions used/total u32 x2, message string, then the cells.
    (msg_len,) = struct.unpack_from("<I", message, 30)
    at = 34 + msg_len
    (count,) = struct.unpack_from("<I", message, at)
    return set(struct.unpack_from(f"<{count}I", message, at + 4))


class ServePool:
    """The recorded request pool and the oracle reply for each entry."""

    def __init__(self, path):
        entries = json.loads(Path(path).read_text())["entries"]
        self.entries = entries
        self.frames = [encode_request(e) for e in entries]
        self.expected = [bytes.fromhex(e["reply"]) for e in entries]

    def check_truth(self):
        """Every oracle reply is Ok and contains the injected truth."""
        problems = []
        for i, (e, exp) in enumerate(zip(self.entries, self.expected)):
            if struct.unpack_from("<H", exp)[0] != 0:
                problems.append(f"pool entry {i}: oracle reply is not Ok")
            elif not set(e["truth"]) <= reply_candidates(exp):
                problems.append(f"pool entry {i}: oracle candidates miss the injected cells")
        return problems

    def stream(self, seed):
        rng = random.Random(mix64(seed, "serve_mix"))
        stream = []
        for _ in range(SERVE_PASSES):
            one = list(range(len(self.entries)))
            rng.shuffle(one)
            stream += one
        return stream

    def kind(self, index):
        return self.entries[index]["kind"]


def rpc(sock_path, msg_type, body=b"", timeout=1.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(frame(msg_type, body))
        buf = b""
        while len(buf) < 8 or len(buf) < 8 + struct.unpack_from("<I", buf)[0]:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed")
            buf += chunk
    payload = buf[8:8 + struct.unpack_from("<I", buf)[0]]
    return struct.unpack_from("<H", payload)[0], payload[2:]


class Daemon:
    """`scandiag serve` under the benchmark; always stopped and reaped."""

    def __init__(self, workdir):
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        self.sock = str(self.dir / "s.sock")
        self.err = open(self.dir / "stderr", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([str(CLI), "serve", SERVE_CIRCUIT, "--socket", self.sock,
                                      *SERVE_FLAGS], cwd=self.dir, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        self.rc = None
        deadline = t0 + 30
        while True:
            try:
                if rpc(self.sock, 0x10)[0] == 0x11:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"daemon did not answer a ping; see {self.dir}/stderr")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    def stats(self):
        msg_type, body = rpc(self.sock, 0x30)
        if msg_type != 0x31:
            raise BenchError("bad stats reply")
        names = ("accepted", "ok", "shed", "degraded", "aborted", "frames_rejected")
        return dict(zip(names, struct.unpack("<6Q", body)))

    def stop(self):
        """SIGINT drains the daemon; exit 6 means the drain completed."""
        if self.rc is not None:
            return self.rc
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.rc = self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.rc = self.proc.wait()
        self.err.close()
        return self.rc


class Phase:
    """One pb_loadgen run: per-request due/sent/done times and replies."""

    def __init__(self, records):
        self.records = records

    @staticmethod
    def ok(record):
        payload = record[5]
        return (record[4] == 0 and len(payload) >= 4 and struct.unpack_from("<H", payload)[0] == 0x21
                and struct.unpack_from("<H", payload, 2)[0] == 0)

    def lag_ms(self):
        return [(sent - due) / 1e6 for _, due, sent, _, _, _ in self.records]


def load(daemon, pool_frames, indices_file, mode, seconds, rate=None):
    out = daemon.dir / f"phase-{mode}.bin"
    args = [str(LOADGEN), "--socket", daemon.sock, "--pool", str(pool_frames), "--indices",
            str(indices_file), "--out", str(out), "--mode", mode, "--seconds", f"{seconds:.3f}"]
    if rate:
        args += ["--rate", str(rate)]
    rc = subprocess.call(args, timeout=seconds + 30)
    if rc != 0:
        raise BenchError(f"pb_loadgen exited {rc}")
    raw = out.read_bytes()
    out.unlink()
    records, at = [], 0
    while at < len(raw):
        index, due, sent, done, outcome, n = struct.unpack_from("<IqqqBI", raw, at)
        at += 33
        records.append((index, due, sent, done, outcome, raw[at:at + n]))
        at += n
    return Phase(records)


def judge(phase, pool):
    """Returns (failed, wrong): requests without an Ok reply (Busy, Error,
    Deadline, client failures), and pool entries whose Ok reply differs from
    the in-process oracle reply."""
    failed, wrong = 0, []
    for record in phase.records:
        if not Phase.ok(record):
            failed += 1
            continue
        message = record[5][2:]
        if message[:2] + bytes(8) + message[10:] != pool.expected[record[0]]:
            failed += 1
            wrong.append(record[0])
    return failed, wrong


def serve_reference(seed, workdir, pool):
    """The untraced daemon: launch to first ping, closed-loop round trips of
    the stream, one open-loop phase at a fixed rate for the generator's lag,
    and the daemon's own stats. Every reply is checked against the oracle."""
    problems = pool.check_truth()
    frames_file = Path(workdir) / "pool.frames"
    frames_file.write_bytes(b"".join(pool.frames))
    stream = pool.stream(seed)
    indices_file = Path(workdir) / "stream.idx"
    indices_file.write_bytes(struct.pack(f"<{len(stream)}I", *stream))

    attempted = failed = 0
    daemon = Daemon(workdir)
    try:
        load(daemon, frames_file, indices_file, "closed", 0.25)  # warm-up
        closed = load(daemon, frames_file, indices_file, "closed", 1.0)
        fixed = load(daemon, frames_file, indices_file, "open", 1.0, SERVE_FIXED_RPS)
        stats = daemon.stats()
    finally:
        rc = daemon.stop()
    if rc != 6:
        problems.append(f"serve_mix: daemon exited {rc} after SIGINT, expected 6")
    for phase in (closed, fixed):
        f, wrong = judge(phase, pool)
        attempted += len(phase.records)
        failed += f
        problems.extend(f"serve_mix: reply for pool entry {w} differs from the oracle"
                        for w in sorted(set(wrong))[:5])

    roundtrip_ms = {}
    for kind in SERVE_KINDS:
        rts = [(r[3] - r[2]) / 1e6 for r in closed.records if pool.kind(r[0]) == kind]
        if not rts:
            raise BenchError(f"serve_mix: the closed loop sent no {kind} request")
        roundtrip_ms[kind] = statistics.fmean(rts)
    lag = percentile(fixed.lag_ms(), 0.99)
    if lag > SERVE_LAG_LIMIT_MS:
        problems.append(f"serve_mix: generator ran {lag:.3f} ms late at p99; run invalid")
    return {"setup_s": daemon.setup_s, "stream": stream, "roundtrip_ms": roundtrip_ms,
            "lag_ms_p99": lag, "shed": stats["shed"], "frames_rejected": stats["frames_rejected"],
            "attempted": attempted, "failed": failed, "problems": problems}


# --------------------------------------------------------------------------
# Traced run


def self_times(spans):
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    return [s["dur_ns"] - sum(spans[c]["dur_ns"] for c in children.get(i, ()))
            for i, s in enumerate(spans)]


def write_chrome_trace(path, spans, workload):
    events = [{"name": s["name"], "cat": s["name"].split(".")[0].replace("probe:", ""), "ph": "X",
               "ts": s["start_ns"] / 1e3, "dur": s["dur_ns"] / 1e3, "pid": 1, "tid": 1,
               "args": s["counters"]} for s in spans]
    Path(path).write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                      "otherData": {"workload": workload, **stamp()}}))


def replay(workload, workdir, extra_args, repeats=3):
    """Runs pb_trace `repeats` times; keeps the run with the median root span."""
    runs = []
    for i in range(repeats):
        out = Path(workdir) / f"spans-{i}.json"
        rc = subprocess.call([str(TRACER), "replay", "--workload", workload, "--threads",
                              str(THREADS), "--out", str(out), *extra_args], timeout=120)
        if rc != 0:
            raise BenchError(f"pb_trace replay exited {rc}")
        runs.append(json.loads(out.read_text()))
    runs.sort(key=lambda r: r["spans"][0]["dur_ns"])
    return runs[len(runs) // 2]


def layer_metrics(workload, rep, untraced_ms, extra):
    spans = rep["spans"]
    selfs = self_times(spans)
    root = spans[0]
    by_name = {}
    for s, own in zip(spans, selfs):
        agg = by_name.setdefault(s["name"], {"count": 0, "total_ns": 0, "self_ns": 0})
        agg["count"] += 1
        agg["total_ns"] += s["dur_ns"]
        agg["self_ns"] += own

    def ms(name):
        return by_name.get(name, {"self_ns": 0})["self_ns"] / 1e6

    def counter(name):
        return root["counters"].get(name, 0)

    probe_ns = sum(s["dur_ns"] for s in spans if s["name"].startswith("probe:"))
    traced_ms = (root["dur_ns"] - probe_ns) / 1e6
    attributed_ms = sum(s["dur_ns"] for s in spans
                        if s["parent"] == 0 and not s["name"].startswith("probe:")) / 1e6
    session_span = {"dr_cold": "diagnosis.evaluate", "soc_adaptive": "soc.sweep",
                    "defects_s13207": "inject.ladder", "serve_mix": "serve.handle"}[workload]
    sessions = counter("sessions_run")
    m = {
        "netlist.generate_ms": ms("netlist.generate"),
        "netlist.levelize_ms": ms("probe:netlist.levelize"),
        "bist.patterns_ms": ms("bist.patterns"),
        "sim.good_sim_ms": ms("sim.good_sim"),
        "sim.fault_list_ms": ms("sim.fault_list"),
        "sim.grade_ms": ms("sim.grade"),
        "diagnosis.pipeline_build_ms": ms("diagnosis.pipeline_build"),
        "diagnosis.evaluate_ms": ms("diagnosis.evaluate"),
        "diagnosis.sessions_run": float(sessions),
        "diagnosis.ns_per_session":
            by_name.get(session_span, {"total_ns": 0})["total_ns"] / sessions if sessions else 0.0,
        "diagnosis.adaptive_sessions_saved": float(counter("adaptive_sessions_saved")),
        "soc.build_ms": ms("soc.build"),
        "soc.sweep_ms": ms("soc.sweep"),
        "common.pool_busy_ratio": root["busy_ns"] / (rep["threads"] * root["dur_ns"]),
        "inject.scenario_gen_ms": ms("inject.scenario_gen"),
        "inject.ladder_ms": ms("inject.ladder"),
        "inject.union_splits": float(counter("union_splits")),
        "atpg.patterns_generated": float(counter("atpg_patterns_generated")),
        "serve.service_build_ms": ms("serve.service_build"),
        "trace.overhead_ratio": traced_ms / untraced_ms - 1.0,
        "trace.unattributed_share": (untraced_ms - attributed_ms) / untraced_ms,
    }
    grade = next((s for s in spans if s["name"] == "sim.grade"), None)
    if grade and grade["counters"].get("faults_simulated"):
        m["sim.grade_yield"] = rep["result"]["faults"] / grade["counters"]["faults_simulated"]
    if workload == "defects_s13207":
        m["inject.degraded_ratio"] = rep["result"]["degraded"] / rep["result"]["scenarios"]
    if workload == "serve_mix":
        # The handle spans follow the stream's order, so each has its kind.
        handles = {k: [] for k in SERVE_KINDS}
        for s, kind in zip((s for s in spans if s["name"] == "serve.handle"), extra["kinds"]):
            handles[kind].append(s["dur_ns"] / 1e6)
        for kind, ms_list in handles.items():
            m[f"serve.{kind}.handle_ms_p50"] = percentile(ms_list, 0.50)
            m[f"serve.{kind}.handle_ms_p99"] = percentile(ms_list, 0.99)
        # InjectFault only: the cheapest request, where transport weighs most.
        m["serve.transport_share"] = (
            1.0 - statistics.fmean(handles["inject"]) / extra["roundtrip_ms"]["inject"])
        m["serve.shed"] = float(extra["shed"])
        m["serve.frames_rejected"] = float(extra["frames_rejected"])
        m["loadgen.lag_ms_p99"] = extra["lag_ms_p99"]
    return {name: m[name] for name in LAYERS[workload]}, by_name, traced_ms


def print_layer_table(workload, by_name, traced_ms, untraced_ms):
    log(f"per-layer self time, {workload} (traced {traced_ms:.2f} ms, untraced {untraced_ms:.2f} ms)")
    log(f"  {'span':32} {'calls':>6} {'total ms':>10} {'self ms':>10} {'self %':>7}")
    for name, agg in sorted(by_name.items(), key=lambda kv: -kv[1]["self_ns"]):
        log(f"  {name:32} {agg['count']:6d} {agg['total_ns'] / 1e6:10.3f} "
            f"{agg['self_ns'] / 1e6:10.3f} {100 * agg['self_ns'] / 1e6 / traced_ms:6.1f}%")


def trace_workload(workload, seed, workdir, pool_path):
    """Untraced reference runs, then the traced in-process replay of one
    workload; returns (metrics, attempted, failed, problems)."""
    if workload == "serve_mix":
        pool = ServePool(pool_path)
        extra = serve_reference(seed, workdir, pool)
        attempted, failed, problems = extra["attempted"], extra["failed"], extra["problems"]
        stream = extra["stream"]
        extra["kinds"] = [pool.kind(i) for i in stream]
        # Untraced wall: the daemon's set-up plus one closed-loop round trip
        # per request of the stream, at the mean round trip of its kind.
        untraced_ms = extra["setup_s"] * 1e3 + sum(extra["roundtrip_ms"][k] for k in extra["kinds"])
        Path(workdir, "replay.idx").write_bytes(struct.pack(f"<{len(stream)}I", *stream))
        rep = replay(workload, workdir, ["--pool-frames", str(Path(workdir) / "pool.frames"),
                                         "--indices", str(Path(workdir) / "replay.idx")])
        for i in sorted(set(stream)):
            attempted += 1
            if bytes.fromhex(rep["replies"][i]) != pool.expected[i]:
                failed += 1
                problems.append(f"serve_mix: in-process reply for pool entry {i} differs from "
                                "the recorded oracle")
    else:
        problems = []
        attempted = failed = 0
        extra = {}
        w = BATCH[workload]
        walls = []
        for _ in range(3):
            child = invoke([str(CLI), *w.reference, "--threads", str(THREADS)], workdir)
            probs = w.check(child, w.truth)
            attempted += 1
            failed += bool(probs)
            problems.extend(f"{workload}: {p}" for p in probs)
            walls.append(child.wall_s * 1e3)
        untraced_ms = statistics.median(walls)
        rep = replay(workload, workdir, [])
        r = rep["result"]
        attempted += 1
        result_check = {
            "dr_cold": lambda: check_dr(Child(0, 0, json.dumps(r), "", 0), w.truth),
            "defects_s13207": lambda: check_defects(
                Child(0, 8 if r["degraded"] else 0, json.dumps(r), "", 0), w.truth),
            # The CLI prints each row's DR with three decimals.
            "soc_adaptive": lambda: [] if [dict(x, dr=round(x["dr"], 3)) for x in r["rows"]]
            == w.truth["rows"] else ["replayed rows differ from the recorded truth"],
        }[workload]()
        if result_check:
            failed += 1
            problems.extend(f"{workload} replay: {p}" for p in result_check)

    metrics, by_name, traced_ms = layer_metrics(workload, rep, untraced_ms, extra)
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{workload}.trace.json"
    write_chrome_trace(trace_file, rep["spans"], workload)
    print_layer_table(workload, by_name, traced_ms, untraced_ms)
    log(f"chrome trace: {trace_file}")
    return {f"{workload}.{k}": v for k, v in metrics.items()}, attempted, failed, problems


def run_trace(first, seed, workdir):
    """Traces every workload, `first` first: each per-layer metric is named
    after the workload it belongs to, so every traced run reports them all."""
    build(["pb_trace", "pb_loadgen"])
    metrics, attempted, failed, problems = {}, 0, 0, []
    for workload in sorted(TRACED, key=lambda w: w != first):
        m, a, f, p = trace_workload(workload, seed, workdir, SERVE_POOL)
        metrics.update(m)
        attempted += a
        failed += f
        problems += p
    return metrics, attempted, failed, problems


# --------------------------------------------------------------------------
# Entry points

def run(workload, seed, seconds, trace):
    build(["scandiag_cli"])
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        if trace:
            metrics, attempted, failed, problems = run_trace(workload, seed, workdir)
            units = PER_LAYER
        else:
            metrics, attempted, failed, problems, extra = run_batch(BATCH[workload], seed,
                                                                    seconds, workdir)
            units = END_TO_END
            log(f"{workload}: {json.dumps(extra)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in units:
        if not math.isfinite(metrics[name]):
            # JSON has no NaN; a metric that could not be measured fails the run.
            problems.append(f"{name} could not be measured")
            metrics[name] = 0.0
    for p in problems:
        log(f"CHECK FAILED: {p}")
    for name, unit in units.items():
        log(f"  {name:36} {metrics[name]:14.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def self_test():
    """A one-second smoke of every workload, one traced run (the only run of
    serve_mix), and proof that a wrong expected value makes the output checks
    fail."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        log(("PASS " if cond else "FAIL ") + what)
        ok = ok and cond

    for name in WORKLOADS:
        res = run(name, seed=1, seconds=1, trace=0)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"smoke {name}")
    res = run(WORKLOADS[0], seed=1, seconds=1, trace=1)  # traces every workload
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, "smoke --trace 1")

    # A wrong recorded value must be caught.
    saved = TRUTH["dr_cold"]
    TRUTH["dr_cold"] = dict(saved, sumActual=saved["sumActual"] + 1)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=BUILD_DIR)
    try:
        _, _, failed, problems, _ = run_batch(BATCH["dr_cold"], 1, 0.01, workdir, setup_runs=1)
        expect(failed > 0 and any("sumActual" in p for p in problems),
               "dr_cold: a wrong recorded sumActual fails the check")
    finally:
        TRUTH["dr_cold"] = saved
        shutil.rmtree(workdir, ignore_errors=True)

    first = ServePool(SERVE_POOL).stream(1)[0]  # the first request seed 1 sends
    pool = json.loads(SERVE_POOL.read_text())
    reply = bytearray.fromhex(pool["entries"][first]["reply"])
    reply[-1] ^= 1  # flip a bit of the last candidate cell
    pool["entries"][first]["reply"] = reply.hex()
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=BUILD_DIR)
    try:
        bad_pool = Path(workdir) / "bad_pool.json"
        bad_pool.write_text(json.dumps(pool))
        _, _, failed, problems = trace_workload("serve_mix", 1, workdir, bad_pool)
        expect(failed > 0 and any("differs from" in p for p in problems),
               "serve_mix: a wrong oracle reply fails the check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        log("stamp: " + json.dumps(stamp()))
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"benchmark error: {e}")
        return 1
    print("stamp: " + json.dumps(stamp()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
