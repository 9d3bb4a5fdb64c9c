#!/usr/bin/env python3
"""budgetbuf end-to-end benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `budgetbuf` CLI and the helper executables of perfbench/_ocaml
in a private dune workspace under .bench_build/perfbench, generates the
workload's inputs from the seed (perfbench/_ocaml/pb_gen.ml), and times
the CLI binary a user runs.  Every job's output is checked; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  See perfbench/README.md for the workloads, the metric
definitions and the per-layer prediction table.

--trace 0 prints the end-to-end metrics, with times normalised for the
machine's drifting speed by a calibration kernel timed between jobs
(see "Machine speed" below).  --trace 1 is the separate traced run: it
repeats a short end-to-end pass, then times each layer from outside by
calling its public library functions on the same inputs, and prints
the per-layer metrics.
"""

import argparse
import json
import math
import os
import queue
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WS = os.path.join(WORK, "ws")
BUILD = os.path.join(WS, "_build", "default")
CLI = os.path.join(BUILD, "bin", "budgetbuf_cli.exe")
OCAML = os.path.join(BUILD, "pbocaml")

# Batches per run.  The work of a run is fixed so that two commits are
# compared on identical job lists; the counts are sized so the timed
# batches last about --seconds on an idle 2-core machine at the commit
# that introduced the benchmark, and scale linearly with --seconds.
NOMINAL_SECONDS = 16.0
BATCHES = {"solve_ladder": 3, "sweep_small": 3, "tighten_medium": 8, "serve_mixed": 56}
# Serve rounds: 30 first-time instances and 20 repeats, so the median
# job is a miss and not the boundary between hits and misses.
SERVE_NEW_PER_ROUND = 30
SERVE_REPEATS_PER_ROUND = 20
SETUPS = 9
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "solve_small_s": "s", "solve_medium_s": "s", "solve_large_s": "s",
    "objective_sum": "model_units", "containers": "containers",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cli.startup_s": "s", "taskgraph.parse_s": "s",
    "socp_builder.build_s": "s", "socp_builder.rows": "count",
    "socp_builder.vars": "count", "conic.socp_s": "s",
    "conic.iterations": "count", "robust.extra_rungs": "count",
    "mapping.finish_s": "s", "certify.check_s": "s",
    "tdm_sim.run200_s": "s", "mapping.finish_other_s": "s",
    "tradeoff.sweep_s": "s", "pareto.frontier_s": "s", "dse.curve_s": "s",
    "sweep.candidates": "count", "conic.iterations_per_candidate": "count",
    "mapping.solve_s": "s", "tighten.run_s": "s", "tighten.probes": "count",
    "tdm_sim.run64_s": "s", "tighten.saved_ratio": "ratio",
    "tighten.repaired": "count", "serve.hit_p50_s": "s",
    "serve.miss_p50_s": "s", "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count", "serve.failed": "count",
    "protocol.encode_s": "s", "protocol.decode_s": "s",
    "serve.canonical_key_s": "s", "durable.record_s": "s",
    "trace.unattributed_s": "s", "failed_ratio": "ratio",
}


def log(msg):
    print(msg, flush=True)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else None


# ----------------------------------------------------------------------
# Machine speed
#
# The speed of a shared 2-core virtual machine drifts by up to 1.5x
# over tens of seconds, and user plus system time drifts with the wall
# clock, so no choice of clock removes it.  The end-to-end times are
# therefore reported normalised: every job's wall time is scaled by
# CAL_REF over the median duration of the calibration kernel
# (perfbench/_ocaml/pb_cal.ml, standard library only, a memory-fill
# kernel because that is what tracks the jobs) timed within CAL_WINDOW
# seconds of it, or of its two nearest runs.  The window is this narrow
# to follow the host's load spikes, which last a second or two and
# would otherwise make up the latency tail.  A normalised second is a
# wall-clock second on a machine that runs the kernel in CAL_REF
# seconds; the raw figures are printed beside them.

CAL_REF = 0.050
CAL_EVERY = 0.75
CAL_WINDOW = 1.0


class Excluded:
    """Time spent between a workload's jobs on calibration and reference
    solves, kept out of its batch wall times."""

    total = 0.0
    depth = 0

    def __enter__(self):
        Excluded.depth += 1
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        Excluded.depth -= 1
        if Excluded.depth == 0:
            Excluded.total += time.perf_counter() - self.t0


class Speed:
    def __init__(self):
        self.samples = []  # (mid time, kernel seconds)
        self.last = -math.inf

    def sample(self):
        with Excluded():
            out = os.path.join(WORK, "cal.out")
            t0 = time.perf_counter()
            rc, dt, _ = spawn([os.path.join(OCAML, "pb_cal.exe")], out)
            if rc == 0:
                self.samples.append((t0 + dt / 2, dt))
            self.last = time.perf_counter()

    def pace(self):
        if time.perf_counter() - self.last >= CAL_EVERY:
            self.sample()

    def factor(self, t0, t1):
        near = [d for t, d in self.samples if t0 - CAL_WINDOW <= t <= t1 + CAL_WINDOW]
        if len(near) < 2:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:2]]
        return CAL_REF / median(near)


SPEED = None  # set for the untraced run only


# ----------------------------------------------------------------------
# Build


def build(trace):
    """Build the CLI and helpers in a workspace of links to the checkout.

    The workspace holds a link to every top-level entry of the checkout
    plus one to perfbench/_ocaml, so the repository's own `dune build`
    never sees the helpers and the helpers never see a stale copy of
    the libraries.  Returns the set of probes that failed to build."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no budgetbuf sources here (missing %s); run from a checkout root" % need)
    os.makedirs(WS, exist_ok=True)
    wanted = {e: os.path.join(ROOT, e) for e in os.listdir(ROOT)
              if not e.startswith((".", "_")) and e != "perfbench"}
    wanted["pbocaml"] = os.path.join(BENCH_DIR, "_ocaml")
    for e in os.listdir(WS):
        p = os.path.join(WS, e)
        if os.path.islink(p) and (e not in wanted or os.readlink(p) != wanted[e]):
            os.unlink(p)
    for e, target in wanted.items():
        if not os.path.lexists(os.path.join(WS, e)):
            os.symlink(target, os.path.join(WS, e))
    env = dict(os.environ, DUNE_CACHE="disabled")

    def dune(*targets):
        r = subprocess.run(["dune", "build", "--root", WS, "-j", "2"] + list(targets),
                           cwd=WS, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        return r.returncode, r.stdout

    rc, out = dune("./bin/budgetbuf_cli.exe", "./pbocaml/pb_gen.exe", "./pbocaml/pb_check.exe",
                   "./pbocaml/pb_cal.exe")
    if rc != 0:
        sys.stderr.write(out)
        die("build failed")
    broken = set()
    if trace:
        for probe in ("probe_solve", "probe_sweep", "probe_tighten", "probe_serve"):
            rc, out = dune("./pbocaml/%s.exe" % probe)
            if rc != 0:
                log("probe %s does not build; its metrics are missing" % probe)
                broken.add(probe)
    return broken


# ----------------------------------------------------------------------
# Processes


def spawn(argv, out_path):
    """Run argv to completion with stdout in out_path.

    Returns (exit code, wall seconds from spawn to exit, peak RSS in KB)
    — the RSS of that child alone, from wait4."""
    with open(out_path, "wb") as fo, open(out_path + ".err", "wb") as fe, \
            open(os.devnull, "rb") as fi:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, fi.fileno(), 0),
            (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
        _, status, ru = os.wait4(pid, 0)
        dt = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), dt, ru.ru_maxrss


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def run_tool(exe, lines):
    """Feed request lines to a helper executable; return its stdout lines."""
    r = subprocess.run([exe], input="".join(l + "\n" for l in lines),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
    return r.stdout.splitlines()


# ----------------------------------------------------------------------
# Inputs and their objective


class Instance:
    """One generated configuration.  Its file is written on first use,
    so a serve stream of thousands of instances costs one input file."""

    def __init__(self, run_dir, name, cls, tasks, buffers, text):
        self.name, self.cls = name, cls
        self.tasks, self.buffers = int(tasks), int(buffers)
        self.path = os.path.join(run_dir, name + ".cfg")
        self.text = text
        self.weights = parse_weights(text)

    @property
    def cfg(self):
        if not os.path.exists(self.path):
            with open(self.path, "w") as f:
                f.write(self.text)
        return self.path


def parse_weights(text):
    """Objective (5) coefficients from the configuration text:
    task -> a(w); buffer -> (b(b), container size, initial tokens)."""
    tasks, buffers = {}, {}
    for line in text.splitlines():
        w = line.split()
        if not w:
            continue
        kv = dict(zip(w[2::2], w[3::2]))
        if w[0] == "task":
            tasks[w[1]] = float(kv.get("weight", 1))
        elif w[0] == "buffer":
            buffers[w[1]] = (float(kv.get("weight", 1)), int(kv.get("container", 1)),
                             int(kv.get("initial", 0)))
    return tasks, buffers


def parse_mapping(text):
    budget, capacity = {}, {}
    for line in text.splitlines():
        w = line.split()
        if len(w) == 3 and w[0] == "budget":
            budget[w[1]] = float(w[2])
        elif len(w) == 3 and w[0] == "capacity":
            capacity[w[1]] = int(w[2])
    return budget, capacity


def objective(inst, budget, capacity):
    """Rounded Objective (5): sum a(w) beta(w) + sum b(b) zeta(b) (gamma(b) - iota(b)),
    or None when the mapping does not assign every task and buffer."""
    tasks, buffers = inst.weights
    if set(budget) != set(tasks) or set(capacity) != set(buffers):
        return None
    return (sum(a * budget[t] for t, a in tasks.items())
            + sum(b * z * (capacity[n] - i) for n, (b, z, i) in buffers.items()))


def generate(workload, seed, run_dir, count):
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    argv = [os.path.join(OCAML, "pb_gen.exe"), workload, str(seed), run_dir]
    if count:
        argv.append(str(count))
    subprocess.run(argv, check=True)
    insts = []
    for chunk in read(os.path.join(run_dir, "inputs.cfgs")).split("#@ ")[1:]:
        header, _, text = chunk.partition("\n")
        insts.append(Instance(run_dir, *header.split(), text))
    return insts


# ----------------------------------------------------------------------
# Verdicts


class Verdicts:
    """Job accounting.  A job that does not fully succeed is counted in
    `failed` (non-zero exit, a refused or failed serve reply, a sweep
    with uncertified or skipped candidates, an output the independent
    check rejects).  `correct` turns false only when the program claims
    a result the benchmark's own check refutes: a mapping it certified
    that does not certify or simulate, an objective it misreports, a
    cache hit that differs from the solve it replays."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def job(self, ok, what="", lie=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            if lie:
                self.correct = False

    def refute(self, what, lie=True):
        """A check after the fact on a job already counted as successful."""
        self.failed += 1
        self.correct = self.correct and not lie
        self.notes.append(what)


ROUNDED_RE = re.compile(r"objective: continuous \S+, rounded (\S+)")
CERTIFIED_RE = re.compile(r"^certified: (\d+)/(\d+)", re.M)
METRIC_RES = {
    "socp": re.compile(r"phase socp: (\S+) s"),
    "finish": re.compile(r"phase finish: (\S+) s"),
    "solves": re.compile(r"solves: (\d+) \((\d+) iterations\)"),
    "rungs": re.compile(r"rungs: (.*)"),
}


def metrics_lines(out):
    """The job's own --metrics lines; absent ones are simply missing."""
    m = {}
    for key, rx in METRIC_RES.items():
        hit = rx.search(out)
        if not hit:
            continue
        if key == "solves":
            m["solves"], m["iterations"] = int(hit.group(1)), int(hit.group(2))
        elif key == "rungs":
            counts = {}
            for tok in hit.group(1).split():
                k, _, v = tok.partition("=")
                if v.isdigit():
                    counts[k] = int(v)
            if counts:
                m["extra_rungs"] = sum(counts.values()) - counts.get("base", 0)
        else:
            m[key] = float(hit.group(1))
    return m


# ----------------------------------------------------------------------
# CLI jobs


class Job:
    def __init__(self, inst, kind, argv, out):
        self.inst, self.kind, self.argv, self.out = inst, kind, argv, out
        self.rc = self.latency = self.rss_kb = None
        self.stdout = ""


def solve_job(inst, tag):
    out = os.path.join(os.path.dirname(inst.cfg), "%s.%s" % (inst.name, tag))
    return Job(inst, "solve", [CLI, "solve", inst.cfg, "-o", out + ".map", "--metrics"], out)


def sweep_job(inst, kind, tag, metrics):
    out = os.path.join(os.path.dirname(inst.cfg), "%s.%s.%s" % (inst.name, kind, tag))
    extra = {"tradeoff": ["--caps", "1:10"], "pareto": [], "dse": []}[kind]
    argv = [CLI, kind, inst.cfg] + extra + ["--certify", "--jobs", "1"]
    return Job(inst, kind, argv + (["--metrics"] if metrics else []), out)


def tighten_job(inst, tag, metrics):
    out = os.path.join(os.path.dirname(inst.cfg), "%s.%s" % (inst.name, tag))
    argv = [CLI, "tighten", inst.cfg, "-o", out + ".map", "--jobs", "1"]
    return Job(inst, "tighten", argv + (["--metrics"] if metrics else []), out)


def execute(job):
    mp = job.out + ".map"
    if os.path.exists(mp):
        os.unlink(mp)
    job.t0 = time.perf_counter()
    job.rc, job.latency, job.rss_kb = spawn(job.argv, job.out)
    job.stdout = read(job.out)
    if SPEED:
        SPEED.pace()
    return job


def check_solve_job(job, v, checks):
    """Claims of one `solve -o` job: exit 0, certificate ok, and a
    printed rounded objective equal to Objective (5) recomputed here
    from the mapping file.  The exact re-certification and simulation
    are queued on `checks` (run in one batch through pb_check).
    Returns the recomputed objective and the container count."""
    name = "%s solve" % job.inst.name
    if job.rc != 0 or "certificate: ok" not in job.stdout:
        v.job(False, "%s: exit %s, no certified mapping" % (name, job.rc))
        return None
    budget, capacity = parse_mapping(read(job.out + ".map"))
    obj = objective(job.inst, budget, capacity)
    printed = ROUNDED_RE.search(job.stdout)
    if obj is None or printed is None:
        v.job(False, "%s: mapping file incomplete" % name, lie=True)
        return None
    if abs(obj - float(printed.group(1))) > 5e-4 * max(1.0, abs(obj)):
        v.job(False, "%s: printed rounded objective %s, mapping gives %.6f"
              % (name, printed.group(1), obj), lie=True)
        return None
    v.job(True)
    checks.append("%s solve %s %s" % (job.inst.name, job.inst.cfg, job.out + ".map"))
    return obj, sum(capacity.values())


def run_checks(lines, v):
    if not lines:
        return
    answered = set()
    for line in run_tool(os.path.join(OCAML, "pb_check.exe"), lines):
        name, _, rest = line.partition(" ")
        answered.add(name)
        if rest != "ok":
            v.refute("%s: check %s" % (name, rest), lie=not rest.startswith("fail "))
    for line in lines:
        if line.split()[0] not in answered:
            v.refute("%s: check gave no verdict" % line.split()[0])


class Wall:
    """One batch's wall time, calibration and reference solves excluded."""

    def __init__(self, t0, excluded0):
        self.t0, self.t1 = t0, time.perf_counter()
        self.seconds = self.t1 - t0 - (Excluded.total - excluded0)

    def normalised(self):
        return self.seconds * (SPEED.factor(self.t0, self.t1) if SPEED else 1.0)


def normalised(j):
    """A job's latency (CLI spawn to exit, or Admit round trip) in
    normalised seconds when the run calibrates, else as measured."""
    raw = j.latency if isinstance(j, Job) else j.rtt
    return raw * (SPEED.factor(j.t0, j.t0 + raw) if SPEED else 1.0)


def run_solve_jobs(insts, batches, v):
    """Cold `solve -o MAP --metrics` on every instance, `batches` times.
    Mappings must be byte-identical across batches; the first batch's
    mappings are checked exactly.  Returns (jobs, batch walls,
    objective sum, container sum)."""
    jobs, walls, checks, first = [], [], [], {}
    obj_sum = cont_sum = 0.0
    for b in range(batches):
        t0, x0 = time.perf_counter(), Excluded.total
        batch = [execute(solve_job(i, "ladder%d" % b)) for i in insts]
        walls.append(Wall(t0, x0))
        for job in batch:
            res = check_solve_job(job, v, checks if b == 0 else [])
            mapping = read(job.out + ".map")
            if b == 0:
                first[job.inst.name] = mapping
                if res:
                    obj_sum += round(res[0], 4)
                    cont_sum += res[1]
            elif res and mapping != first[job.inst.name]:
                v.refute("%s solve: mapping differs between batches" % job.inst.name)
        jobs += batch
    run_checks(checks, v)
    return jobs, walls, obj_sum, cont_sum


def check_sweep_job(job, v):
    m = CERTIFIED_RE.search(job.stdout)
    ok = (job.rc == 0 and m is not None and m.group(1) == m.group(2)
          and "skipped:" not in job.stdout)
    if ok:
        v.job(True)
        return
    detail = [l for l in job.stdout.splitlines() if l.startswith(("certified:", "skipped:"))]
    v.job(False, "%s %s: exit %s, %s" % (job.inst.name, job.kind, job.rc,
                                       "; ".join(detail) or "no certified line"))


BUFFER_LINE_RE = re.compile(r"^buffer (\S+)\s+analytic (\d+), simulated (\d+)", re.M)


def check_tighten_job(job, v, checks):
    """Claims of one `tighten -o` job; the re-simulation at the
    tightener's target is queued on `checks`.  Returns the tightened
    mapping's objective and container count."""
    name = "%s tighten" % job.inst.name
    if job.rc != 0 or "certificate: ok" not in job.stdout:
        v.job(False, "%s: exit %s, no certified analytic mapping" % (name, job.rc))
        return None
    text = read(job.out + ".map")
    budget, capacity = parse_mapping(text)
    rows = {n: (int(a), int(s)) for n, a, s in BUFFER_LINE_RE.findall(job.stdout)}
    obj = objective(job.inst, budget, capacity)
    if (obj is None or set(rows) != set(capacity)
            or any(rows[n][1] != c for n, c in capacity.items())):
        v.job(False, "%s: mapping file disagrees with the printed table" % name, lie=True)
        return None
    v.job(True)
    analytic = job.out + ".analytic"
    with open(analytic, "w") as f:
        for line in text.splitlines():
            if line.startswith("budget "):
                f.write(line + "\n")
        for n, (a, _) in rows.items():
            f.write("capacity %s %d\n" % (n, a))
    checks.append("%s tighten %s %s %s 64" % (job.inst.name, job.inst.cfg, analytic,
                                             job.out + ".map"))
    return obj, sum(capacity.values())


# ----------------------------------------------------------------------
# Serve


class Server:
    def __init__(self, run_dir, tag):
        self.sock = os.path.join(run_dir, tag + ".sock")
        self.journal = os.path.join(run_dir, tag + ".journal")
        for p in (self.sock, self.journal):
            if os.path.exists(p):
                os.unlink(p)
        argv = [CLI, "serve", "--socket", self.sock, "--jobs", "1", "--cache", self.journal]
        self.out = os.path.join(run_dir, tag + ".serve.out")
        self.fo = open(self.out, "wb")
        self.proc = subprocess.Popen(argv, stdout=self.fo, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
        deadline = time.time() + 30
        while True:
            try:
                c = Conn(self.sock)
                ready = c.call({"op": "ping"})
                c.close()
                if ready.get("state") == "serving":
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.time() > deadline:
                self.stop()
                raise RuntimeError("server did not start")
            time.sleep(0.005)

    def peak_rss_kb(self):
        for line in read("/proc/%d/status" % self.proc.pid).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return None

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Conn(self.sock)
                c.call({"op": "shutdown"})
                c.close()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.fo.close()
        return read(self.out)


class Conn:
    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.connect(path)
        self.f = self.s.makefile("rwb")

    def send_line(self, line):
        self.f.write(line.encode() + b"\n")
        self.f.flush()
        reply = self.f.readline()
        if not reply:
            raise OSError("connection closed")
        return reply.decode().rstrip("\n")

    def call(self, obj):
        return json.loads(self.send_line(json.dumps(obj)))

    def close(self):
        self.f.close()
        self.s.close()


def serve_stream(insts, rounds, seed):
    """Seeded job stream: per round SERVE_NEW_PER_ROUND first-time
    instances interleaved with SERVE_REPEATS_PER_ROUND repeats of any
    instance already introduced (earlier in the round or before)."""
    rng = random.Random(seed)
    stream, seen, nxt = [], [], 0
    for r in range(rounds):
        new, rep, jobs = SERVE_NEW_PER_ROUND, SERVE_REPEATS_PER_ROUND, []
        while new or rep:
            if new and (not seen or not rep or rng.random() < 0.5):
                seen.append(insts[nxt])
                jobs.append(insts[nxt])
                nxt += 1
                new -= 1
            else:
                jobs.append(rng.choice(seen))
                rep -= 1
        stream.append(jobs)
    return stream


class ServeRecord:
    def __init__(self, inst, request, reply, t0, rtt):
        self.inst, self.request, self.reply, self.t0, self.rtt = inst, request, reply, t0, rtt
        try:
            self.obj = json.loads(reply)
        except ValueError:
            self.obj = {}


def drive(server, jobs, prefix, connections=2):
    """Closed loop: `connections` clients each take the next job, send
    its Admit, wait for the reply, then Release it.  A repeat waits
    until the first admit of its instance has been answered, so its
    cache verdict does not depend on thread timing."""
    q = queue.Queue()
    for k, inst in enumerate(jobs):
        q.put((k, inst))
    done = {}
    records = [None] * len(jobs)
    first = {}
    lock = threading.Lock()
    errors = []

    def client():
        try:
            c = Conn(server.sock)
        except OSError as e:
            errors.append(str(e))
            return
        while True:
            try:
                k, inst = q.get_nowait()
            except queue.Empty:
                break
            with lock:
                ev = done.get(inst.name)
                if ev is None:
                    done[inst.name] = ev = threading.Event()
                    first[inst.name] = k
            if first[inst.name] != k:
                ev.wait()
            jid = "%s%d" % (prefix, k)
            line = json.dumps({"op": "admit", "id": jid, "config": inst.text})
            t0 = time.perf_counter()
            try:
                reply = c.send_line(line)
            except OSError as e:
                reply = json.dumps({"status": "connection", "reason": str(e)})
            records[k] = ServeRecord(inst, line, reply, t0, time.perf_counter() - t0)
            if first[inst.name] == k:
                ev.set()
            try:
                c.send_line(json.dumps({"op": "release", "id": jid}))
            except OSError:
                pass
        c.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for r in records if r is not None], errors


def check_serve(records, v, firsts):
    """Every admit must be answered `admitted` (infeasible counts as an
    answer); a hit must replay its instance's first miss exactly."""
    obj_sum = cont = 0.0
    for r in records:
        st = r.obj.get("status")
        if st == "infeasible":
            v.job(True)
            continue
        if st != "admitted":
            v.job(False, "%s admit: %s %s" % (r.inst.name, st, r.obj.get("reason", "")))
            continue
        budget, capacity = parse_mapping(r.obj.get("mapping", ""))
        obj = objective(r.inst, budget, capacity)
        claimed = r.obj.get("rounded_objective")
        if (obj is None or not isinstance(claimed, (int, float))
                or abs(obj - claimed) > 1e-6 * max(1.0, abs(obj))
                or not r.obj.get("certificate", "").startswith("ok")):
            v.job(False, "%s admit: mapping, objective or certificate inconsistent"
                  % r.inst.name, lie=True)
            continue
        prev = firsts.get(r.inst.name)
        if prev is None:
            firsts[r.inst.name] = (r.obj["mapping"], claimed)
            obj_sum += round(obj, 4)
            cont += sum(capacity.values())
        elif (r.obj["mapping"], claimed) != prev:
            v.job(False, "%s admit: %s reply differs from the first answer"
                  % (r.inst.name, r.obj.get("cache")), lie=True)
            continue
        v.job(True)
    return obj_sum, cont


# ----------------------------------------------------------------------
# Shared summaries


def tail(latencies):
    """(percentile, value): the highest listed percentile with at least
    ten jobs beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            return p, xs[max(0, math.ceil(p / 100.0 * n) - 1)]
    return 50.0, xs[(n - 1) // 2]


def class_latency(jobs, cls):
    """Median over the class's instances of each instance's median
    latency, so no single sample of a mixed-shape class sets it."""
    per = {}
    for j in jobs:
        if j.inst.cls == cls:
            per.setdefault(j.inst.name, []).append(normalised(j))
    return median([median(xs) for xs in per.values()])


REFERENCE_REPS = (("ref_small", 40), ("ref_medium", 16), ("ref_large", 5))


class Reference:
    """Size-class solve latencies on workloads without the ladder: the
    fixed reference trio (paper T2, chain 30, a 300-task multi-job).
    Its solves are spread evenly between the workload's own jobs; the
    time they take is kept out of the workload's wall time."""

    def __init__(self, insts, slots):
        self.jobs, self.checks, self.obj, self.cont = {}, [], 0.0, 0.0
        self.todo = []
        for cls, reps in REFERENCE_REPS:
            inst = next(i for i in insts if i.cls == cls)
            self.todo += [(inst, r) for r in range(reps)]
        # Interleave the classes: small, medium, large, small, ...
        self.todo.sort(key=lambda t: t[1])
        self.every = max(1, slots // len(self.todo))
        self.ticks = 0

    def tick(self, v):
        """Called after each of the workload's jobs; runs the next
        reference solve when one is due."""
        self.ticks += 1
        if self.ticks % self.every or not self.todo:
            return
        with Excluded():
            inst, r = self.todo.pop(0)
            job = execute(solve_job(inst, "ref%d" % r))
            res = check_solve_job(job, v, self.checks if r == 0 else [])
            if res and r == 0:
                self.obj += round(res[0], 4)
                self.cont += res[1]
            self.jobs.setdefault(inst.cls, []).append(job)

    def metrics(self, v):
        while self.todo:
            self.tick(v)
        run_checks(self.checks, v)
        log("raw (not normalised): " + ", ".join(
            "solve_%s_s %.6g" % (cls[4:], median([j.latency for j in js]))
            for cls, js in self.jobs.items()))
        return {"solve_%s_s" % cls[4:]: median([normalised(j) for j in js])
                for cls, js in self.jobs.items()}


# ----------------------------------------------------------------------
# Workloads: set-up and end-to-end pass


class Workload:
    """One workload: `setup` (timed, repeated) and `measure` (the fixed
    batches); `layers` below adds the traced run's per-layer probes."""

    def __init__(self, name, seed, scale, traced):
        self.name, self.seed, self.traced = name, seed, traced
        self.run_dir = os.path.join(WORK, "run", name)
        self.server = None
        # The traced run repeats one batch (a few serve rounds) only.
        self.batches = (4 if name == "serve_mixed" else 1) if traced \
            else max(1, round(BATCHES[name] * scale))

    def count(self):
        return SERVE_NEW_PER_ROUND * self.batches if self.name == "serve_mixed" else 0

    def setup(self):
        """Generate and write the inputs, start the server (serve_mixed)
        and run one untimed warm-up job."""
        self.insts = generate(self.name, self.seed, self.run_dir, self.count())
        if self.name != "serve_mixed":
            for i in self.insts:
                i.cfg  # the CLI reads files: write them now, not in a timed job
        warm = next(i for i in self.insts if i.cls == "warmup")
        if self.name == "serve_mixed":
            self.server = Server(self.run_dir, "main")
            c = Conn(self.server.sock)
            c.call({"op": "admit", "id": "warmup", "config": warm.text})
            c.call({"op": "release", "id": "warmup"})
            c.close()
        else:
            execute(solve_job(warm, "warm"))

    def of(self, *classes):
        return [i for i in self.insts if i.cls in classes]

    def measure(self, v, metrics):
        """The timed batches.  wall_s is their summed wall time, the
        fixed job list of the run end to end.  Returns end-to-end
        metrics plus the jobs (for the traced run's attribution)."""
        m, jobs, rss = {}, [], []  # rss: the workload's own jobs only
        if self.name == "solve_ladder":
            ladder = self.of("small", "medium", "large")
            jobs, walls, obj, cont = run_solve_jobs(ladder, self.batches, v)
            for cls in ("small", "medium", "large"):
                m["solve_%s_s" % cls] = class_latency(jobs, cls)
        else:
            walls, obj, cont = [], 0.0, 0.0
            checks, first, firsts = [], {}, {}
            if self.name == "sweep_small":
                specs = [(i, k) for i in self.of("sweep") for k in ("tradeoff", "pareto", "dse")]
            elif self.name == "tighten_medium":
                specs = self.of("tighten")
            else:
                stream = serve_stream(self.of("serve"), self.batches, self.seed)
                specs = [None]
            ref = None if self.traced else Reference(self.insts, self.batches * len(specs))
            tick = (lambda: ref.tick(v)) if ref else (lambda: None)
            for b in range(self.batches):
                t0, x0 = time.perf_counter(), Excluded.total
                if self.name == "serve_mixed":
                    batch, errors = drive(self.server, stream[b], "r%d." % b)
                else:
                    batch = []
                    for spec in specs:
                        if self.name == "sweep_small":
                            job = sweep_job(spec[0], spec[1], "b%d" % b, metrics)
                        else:
                            job = tighten_job(spec, "b%d" % b, metrics)
                        batch.append(execute(job))
                        tick()
                walls.append(Wall(t0, x0))
                if self.name == "serve_mixed":
                    if SPEED:
                        SPEED.pace()
                    tick()
                if self.name == "sweep_small":
                    for job in batch:
                        check_sweep_job(job, v)
                elif self.name == "tighten_medium":
                    for job in batch:
                        res = check_tighten_job(job, v, checks if b == 0 else [])
                        mapping = read(job.out + ".map")
                        if b == 0:
                            first[job.inst.name] = mapping
                            if res:
                                obj += round(res[0], 4)
                                cont += res[1]
                        elif res and mapping != first[job.inst.name]:
                            v.refute("%s tighten: mapping differs between batches"
                                     % job.inst.name)
                else:
                    for e in errors:
                        v.job(False, "connection: %s" % e)
                    o, c = check_serve(batch, v, firsts)
                    obj, cont = obj + o, cont + c
                jobs += batch
            run_checks(checks, v)
            if ref:
                m.update(ref.metrics(v))
                if self.name == "sweep_small":
                    # Sweeps write no mapping: the reference trio stands in.
                    obj, cont = ref.obj, ref.cont
        lat = [normalised(j) for j in jobs]
        raw = [j.latency if isinstance(j, Job) else j.rtt for j in jobs]
        log("raw (not normalised): wall_s %.6g, job_p50_s %.6g, job_tail_s %.6g"
            % (sum(w.seconds for w in walls), median(raw), tail(raw)[1]))
        p, t = tail(lat)
        rss += [j.rss_kb for j in jobs if isinstance(j, Job)]
        if self.server:
            rss.append(self.server.peak_rss_kb() or 0)
        m.update({
            "wall_s": sum(w.normalised() for w in walls), "job_p50_s": median(lat),
            "job_tail_s": t,
            "objective_sum": obj, "containers": cont,
            "peak_rss_mb": max(rss) / 1024.0,
        })
        log("jobs: %d in %d batches; job_tail_s is p%g" % (len(lat), len(walls), p))
        return m, jobs

    def close(self):
        if self.server:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# Traced run: per-layer probes


def probe(broken, exe, lines):
    """{instance: {metric: value}} from one probe, {} if it is broken."""
    if exe in broken or not lines:
        return {}
    res = {}
    for line in run_tool(os.path.join(OCAML, exe + ".exe"), lines):
        w = line.split(" ", 2)
        if len(w) == 3 and w[1] == "error":
            log("probe %s on %s: %s" % (exe, w[0], w[2]))
            continue
        try:
            res.setdefault(w[0], {})[w[1]] = float(w[2])
        except (IndexError, ValueError):
            continue
    return res


def col(table, names, metric):
    return [table[n][metric] for n in names if metric in table.get(n, {})]


def layers(wl, v, broken):
    """Per-layer metrics for the traced run.  Layers the workload's jobs
    go through are measured on its own instances; layers it does not
    use are measured anyway, on its smallest instances, so every run
    reports every layer."""
    L = {}

    # cli: process start-up and argument parsing.
    startup = []
    for k in range(10):
        _, dt, _ = spawn([CLI, "--version"], os.path.join(wl.run_dir, "version.out"))
        startup.append(dt)
    L["cli.startup_s"] = median(startup)

    # End-to-end pass with --metrics on, for attribution.
    _, jobs = wl.measure(v, metrics=True)

    own = sorted((i for i in wl.insts if i.cls in ("small", "medium", "large", "sweep",
                                                    "tighten")),
                 key=lambda i: i.tasks + i.buffers)
    small = own[:6]
    if wl.name == "serve_mixed":
        # The first six instances of the stream: each was a miss, and
        # most were repeated as hits.
        own = small = list({j.inst.name: j.inst for j in jobs}.values())[:6]

    # Solve path: one cold CLI solve per instance gives the job's own
    # conic/finish lines; probe_solve times the library layers on the
    # mapping it wrote.
    if wl.name == "solve_ladder":
        solve_jobs = [j for j in jobs if j.out.endswith("ladder0")]
        focus = [i.name for i in wl.of("large")]
    else:
        solve_jobs = [execute(solve_job(i, "layer")) for i in own]
        focus = [i.name for i in own]
    reps = {"small": 5, "medium": 3, "large": 1}
    sp = probe(broken, "probe_solve", ["%s %s %s %d" % (j.inst.name, j.inst.cfg, j.out + ".map",
                                                          reps.get(j.inst.cls, 3))
                                        for j in solve_jobs if j.rc == 0])
    per = {}
    for j in solve_jobs:
        d = dict(sp.get(j.inst.name, {}))
        ml = metrics_lines(j.stdout)
        for k, name in (("socp", "conic.socp_s"), ("finish", "mapping.finish_s"),
                        ("iterations", "conic.iterations"), ("extra_rungs", "robust.extra_rungs")):
            if k in ml:
                d[name] = ml[k]
        if all(k in d for k in ("mapping.finish_s", "certify.check_s", "tdm_sim.run200_s")):
            d["mapping.finish_other_s"] = (d["mapping.finish_s"] - d["certify.check_s"]
                                           - d["tdm_sim.run200_s"])
        d["latency"] = j.latency
        per[j.inst.name] = d
    for metric in ("taskgraph.parse_s", "socp_builder.build_s", "socp_builder.rows",
                   "socp_builder.vars", "conic.socp_s", "conic.iterations",
                   "robust.extra_rungs", "mapping.finish_s", "certify.check_s",
                   "tdm_sim.run200_s", "mapping.finish_other_s"):
        vals = col(per, focus, metric)
        if vals:
            L[metric] = median(vals)
    if wl.name == "solve_ladder":
        log("per-class solve layers (median per instance):")
        keys = ("latency", "taskgraph.parse_s", "socp_builder.build_s", "conic.socp_s",
                "mapping.finish_s", "certify.check_s", "tdm_sim.run200_s",
                "mapping.finish_other_s")
        log("  %-8s " % "class" + " ".join("%12s" % k.split(".")[-1] for k in keys))
        for cls in ("small", "medium", "large"):
            names = [i.name for i in wl.of(cls)]
            row = [median(col(per, names, k)) for k in keys]
            log("  %-8s " % cls + " ".join("%12s" % ("-" if x is None else "%.6f" % x)
                                           for x in row))

    # Sweeps: library calls with default parameters, plus the sweep
    # jobs' own --metrics lines for candidate and iteration counts.
    sweep_insts = wl.of("sweep") or small[:2]
    sw = probe(broken, "probe_sweep", ["%s %s 1" % (i.name, i.cfg) for i in sweep_insts])
    for metric in ("tradeoff.sweep_s", "pareto.frontier_s", "dse.curve_s"):
        vals = col(sw, [i.name for i in sweep_insts], metric)
        if vals:
            L[metric] = median(vals)
    sweep_jobs = ([j for j in jobs if isinstance(j, Job) and j.kind in ("tradeoff", "pareto", "dse")]
                  or [execute(sweep_job(i, k, "layer", True)) for i in sweep_insts
                      for k in ("tradeoff", "pareto", "dse")])
    cand, ipc = [], []
    for j in sweep_jobs:
        ml = metrics_lines(j.stdout)
        if ml.get("solves"):
            cand.append(ml["solves"])
            ipc.append(ml["iterations"] / ml["solves"])
    if cand:
        L["sweep.candidates"] = median(cand)
        L["conic.iterations_per_candidate"] = median(ipc)

    # Tightening.
    tight_insts = wl.of("tighten") or small
    tp = probe(broken, "probe_tighten", ["%s %s 3" % (i.name, i.cfg) for i in tight_insts])
    names = [i.name for i in tight_insts]
    for metric in ("mapping.solve_s", "tighten.run_s", "tdm_sim.run64_s"):
        vals = col(tp, names, metric)
        if vals:
            L[metric] = median(vals)
    ratios = [1 - tp[n]["tighten.tightened"] / tp[n]["tighten.analytic"] for n in names
              if tp.get(n, {}).get("tighten.analytic")]
    if ratios:
        L["tighten.saved_ratio"] = median(ratios)
        L["tighten.probes"] = sum(col(tp, names, "tighten.probes"))
        L["tighten.repaired"] = sum(col(tp, names, "tighten.repaired"))

    # Serving: the run's own admits on serve_mixed; elsewhere a short
    # miss-then-hit session over the smallest instances.
    recs, stats = [], {}
    try:
        if wl.name == "serve_mixed":
            recs, srv = jobs, wl.server
        else:
            srv = Server(wl.run_dir, "layer")
            recs, _ = drive(srv, small + small, "layer.", connections=1)
            check_serve(recs, v, {})
        c = Conn(srv.sock)
        stats = c.call({"op": "stats"})
        c.close()
        if srv is not wl.server:
            srv.stop()
    except (OSError, ValueError, RuntimeError) as e:
        log("serve layers: %s" % e)
    hits = [r.rtt for r in recs if r.obj.get("cache") == "hit"]
    misses = [r.rtt for r in recs if r.obj.get("cache") == "miss"]
    if hits:
        L["serve.hit_p50_s"] = median(hits)
    if misses:
        L["serve.miss_p50_s"] = median(misses)
    if "cache_hits" in stats and stats.get("cache_hits", 0) + stats.get("cache_misses", 0):
        L["serve.cache_hit_ratio"] = stats["cache_hits"] / (stats["cache_hits"] + stats["cache_misses"])
    for k in ("shed", "failed"):
        if k in stats:
            L["serve." + k] = float(stats[k])
    firsts = {}
    for r in recs:
        if r.obj.get("cache") == "miss" and r.inst.name not in firsts:
            firsts[r.inst.name] = r
    serve_names = [i.name for i in small if i.name in firsts]
    lines = []
    for n in serve_names:
        r = firsts[n]
        req, rep = os.path.join(wl.run_dir, n + ".req"), os.path.join(wl.run_dir, n + ".rep")
        with open(req, "w") as f:
            f.write(r.request + "\n")
        with open(rep, "w") as f:
            f.write(r.reply + "\n")
        jp = os.path.join(wl.run_dir, n + ".probe.journal")
        if os.path.exists(jp):
            os.unlink(jp)
        lines.append("%s %s %s %s %s 20" % (n, r.inst.cfg, req, rep, jp))
    pv = probe(broken, "probe_serve", lines)
    for metric in ("protocol.encode_s", "protocol.decode_s", "serve.canonical_key_s",
                   "durable.record_s"):
        vals = col(pv, serve_names, metric)
        if vals:
            L[metric] = median(vals)

    # Blind spot: each job's latency minus the layers measured on its
    # own input, median over jobs.
    un = []
    startup = L["cli.startup_s"]
    for j in jobs:
        if isinstance(j, ServeRecord):
            d = pv.get(j.inst.name)
            if not d or j.obj.get("cache") not in ("hit", "miss"):
                continue
            parts = [d.get(k) for k in ("protocol.encode_s", "protocol.decode_s",
                                         "serve.canonical_key_s")]
            if j.obj["cache"] == "miss":
                parts += [tp.get(j.inst.name, {}).get("mapping.solve_s"), d.get("durable.record_s")]
            if None not in parts:
                un.append(j.rtt - sum(parts))
            continue
        parse = sp.get(j.inst.name, {}).get("taskgraph.parse_s")
        if j.kind == "solve" and j.inst.name in focus:
            d = per.get(j.inst.name, {})
            parts = [d.get(k) for k in ("taskgraph.parse_s", "socp_builder.build_s",
                                         "conic.socp_s", "mapping.finish_s")]
        elif j.kind in ("tradeoff", "pareto", "dse"):
            key = {"tradeoff": "tradeoff.sweep_s", "pareto": "pareto.frontier_s",
                   "dse": "dse.curve_s"}[j.kind]
            parts = [parse, sw.get(j.inst.name, {}).get(key)]
        elif j.kind == "tighten":
            d = tp.get(j.inst.name, {})
            parts = [parse, d.get("mapping.solve_s"), d.get("tighten.run_s")]
        else:
            continue
        if None not in parts:
            un.append(j.latency - startup - sum(parts))
    if un:
        L["trace.unattributed_s"] = median(un)
    L["failed_ratio"] = v.failed / max(1, v.attempted)
    return L


# ----------------------------------------------------------------------


def main():
    global SPEED
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BATCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    broken = build(args.trace == 1)
    wl = Workload(args.workload, args.seed, args.seconds / NOMINAL_SECONDS, args.trace == 1)
    v = Verdicts()
    try:
        if args.trace == 0:
            SPEED = Speed()
            setups = []
            SPEED.sample()
            for _ in range(SETUPS):
                wl.close()  # the previous set-up's server; its shutdown is not set-up
                t0 = time.perf_counter()
                wl.setup()
                setups.append((t0, time.perf_counter()))
                SPEED.sample()
            m, _ = wl.measure(v, metrics=False)
            ks = sorted(d for _, d in SPEED.samples)
            log("calibration: %d kernel runs, median %.6g s, quartiles %.6g %.6g s"
                % (len(ks), median(ks), ks[len(ks) // 4], ks[3 * len(ks) // 4]))
            log("raw (not normalised): setup_s %.6g"
                % median([t1 - t0 for t0, t1 in setups]))
            m["setup_s"] = median([(t1 - t0) * SPEED.factor(t0, t1) for t0, t1 in setups])
            units = E2E_UNITS
        else:
            wl.setup()
            m = layers(wl, v, broken)
            units = LAYER_UNITS
    finally:
        wl.close()
    for note in v.notes:
        log("FAILED %s" % note)
    log("correctness: %s; %d of %d jobs failed (failed_ratio %.4f)"
        % ("ok" if v.correct else "WRONG OUTPUT", v.failed, v.attempted,
           v.failed / max(1, v.attempted)))
    metrics = {}
    for name, unit in units.items():
        val = m.get(name)
        if val is None or not math.isfinite(val):
            log("%-34s missing" % name)
            continue
        log("%-34s %.6g %s" % (name, val, unit))
        metrics[name] = {"value": val, "unit": unit}
    print(json.dumps({"correct": v.correct, "attempted": v.attempted,
                      "failed": v.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
