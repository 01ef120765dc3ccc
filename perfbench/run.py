#!/usr/bin/env python3
"""perfbench: the repository benchmark for the FlexFlow simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

It builds `flexsim` and the in-process probe (`perfbench/probe`) with
cargo, sets up the workload, then runs it as a closed loop (one client,
one iteration at a time, every `flexsim` step at `--jobs 1`) for
`--seconds`, checks every output against its committed reference, and
prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of
a traced run (`--trace 1`). The last line of standard output is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`. See
`perfbench/README.md` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(BENCH, "data")
NET_FILE = "resnet18.ffnet"
EXPECT_FILE = os.path.join(DATA, "resnet18.expect.json")
EXAMPLES = ["examples/dilated.ffnet", "examples/mobilenet_block.ffnet", "examples/resnet_block.ffnet"]
TABLE1 = ["PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"]
ARCHES = [("Systolic", "baselines.systolic"), ("2D-Mapping", "baselines.mapping2d"),
          ("Tiling", "baselines.tiling"), ("FlexFlow", "core.flexflow")]
STEP_TIMEOUT_S = 60
# CPU seconds one unit of the calibration kernel (`perfcal`) takes on the
# 2-vCPU Xeon host the benchmark was written on, at its typical speed.
CAL_REF_S = 1.7e-3
# Calibration units run before and after each timed step: about a
# quarter of a step for `paper_sweep` and `functional_exec`, a tenth of
# one of `resnet_explore`'s four steps.
CAL_UNITS = {"paper_sweep": 8, "resnet_explore": 40, "functional_exec": 26}
T0 = time.perf_counter()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# Spans: one per timed call, kept in memory, written out at the end.

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name):
        sp = {"id": len(self.spans), "name": name, "subject": "",
              "parent": self.stack[-1]["id"] if self.stack else None,
              "start": time.perf_counter() - T0, "dur": 0.0}
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def end(self, sp):
        sp["dur"] = time.perf_counter() - T0 - sp["start"]
        self.stack.pop()

    def adopt(self, parent, child_spans):
        """Files the probe's spans (offsets in µs from its receipt of the
        request) under `parent`."""
        for c in child_spans:
            self.spans.append({"id": len(self.spans), "name": c["name"], "subject": c["subject"],
                               "parent": parent["id"], "start": parent["start"] + c["start_us"] / 1e6,
                               "dur": c["dur_us"] / 1e6})

    def self_times(self):
        """Each span's duration minus the part its children cover."""
        kids = {}
        for sp in self.spans:
            if sp["parent"] is not None:
                kids.setdefault(sp["parent"], []).append((sp["start"], sp["start"] + sp["dur"]))
        out = {}
        for sp in self.spans:
            covered, edge = 0.0, sp["start"]
            for a, b in sorted(kids.get(sp["id"], [])):
                a, b = max(a, edge), min(b, sp["start"] + sp["dur"])
                if b > a:
                    covered += b - a
                    edge = b
            out[sp["id"]] = max(sp["dur"] - covered, 0.0)
        return out

    def write(self, path):
        selfs = self.self_times()
        events = [{"name": sp["name"], "cat": "perfbench", "ph": "X", "pid": 1, "tid": 1,
                   "ts": round(sp["start"] * 1e6, 3), "dur": round(sp["dur"] * 1e6, 3),
                   "args": {"subject": sp["subject"], "parent": sp["parent"],
                            "self_us": round(selfs[sp["id"]] * 1e6, 3)}} for sp in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)

    def report(self):
        selfs = self.self_times()
        rows = {}
        for sp in self.spans:
            r = rows.setdefault(sp["name"], [0, 0.0, 0.0])
            r[0] += 1
            r[1] += sp["dur"]
            r[2] += selfs[sp["id"]]
        lines = ["  %-44s %6s %12s %12s" % ("span", "calls", "total ms", "self ms")]
        for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append("  %-44s %6d %12.3f %12.3f" % (name, n, tot * 1e3, slf * 1e3))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Processes.

class Proc:
    """One finished child process: exit code, stdout, wall and CPU
    seconds, peak RSS in KiB."""

    def __init__(self, rc, out, wall, cpu, rss_kb):
        self.rc, self.out, self.wall, self.cpu, self.rss_kb = rc, out, wall, cpu, rss_kb


def run_proc(argv, cwd, tracer=None, step=""):
    """Runs argv to completion with stdout and stderr in files, taking
    its CPU time and peak RSS from wait4. A step that outlives
    STEP_TIMEOUT_S is killed and reads as exit -9."""
    out_path = os.path.join(cwd, ".stdout")
    with open(out_path, "wb") as fo, open(os.path.join(cwd, ".stderr"), "wb") as fe:
        sp = tracer.begin("flexsim " + step) if tracer else None
        t = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=fo, stderr=fe)
        timer = threading.Timer(STEP_TIMEOUT_S, p.kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t
        p.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        if tracer:
            tracer.end(sp)
    with open(out_path, "rb") as fo:
        return Proc(p.returncode, fo.read(), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def pin_to_current_cpu():
    """Binds this process, and so every process it starts later, to the
    CPU it is running on. The two vCPUs of a shared host can be slowed by
    different neighbours, so a step and the calibration kernel beside it
    must run on the same one."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def sched_cpu(pid):
    """CPU seconds a live child has run so far. Read while the child
    waits for its next command, so the figure is exact."""
    with open("/proc/%d/schedstat" % pid) as f:
        return int(f.read().split()[0]) / 1e9


def flexsim_argv(*args):
    return [FLEXSIM, "--jobs", "1", *args]


class ProbeProc:
    """The in-process probe (`perfbench/probe`), driven line by line."""

    def __init__(self, seed, work):
        argv = [PROBE, "--seed", str(seed), "--ffnet", os.path.join(work, NET_FILE)]
        for ex in EXAMPLES:
            argv += ["--example", os.path.join(ROOT, ex)]
        self.err = open(os.path.join(work, ".probe.stderr"), "wb")
        self.p = subprocess.Popen(argv, cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err, text=True, bufsize=1)
        if not self.p.stdout.readline():
            self.close()
            raise RuntimeError("perfprobe exited during set-up")

    def cpu(self):
        """CPU seconds the probe has run so far."""
        return sched_cpu(self.p.pid)

    def ask(self, cmd):
        self.p.stdin.write(cmd + "\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            raise RuntimeError("perfprobe died on %r" % cmd)
        return json.loads(line)

    def close(self):
        """Ends the probe; returns its peak RSS in KiB."""
        self.p.stdin.close()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        self.err.close()
        return ru.ru_maxrss


class Calibrator:
    """The calibration kernel (`perfcal`), driven line by line. The host
    is shared and its speed drifts, so each timed step's CPU time is
    scaled by how fast the kernel ran just before and just after it."""

    def __init__(self, units):
        self.units = units
        self.p = subprocess.Popen([CAL], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, bufsize=1)
        if not self.p.stdout.readline():
            self.close()
            raise RuntimeError("perfcal exited during set-up")
        self.last = self.sample()

    def sample(self):
        """CPU seconds per unit of one calibration run."""
        c = sched_cpu(self.p.pid)
        self.p.stdin.write("%d\n" % self.units)
        self.p.stdin.flush()
        if not self.p.stdout.readline():
            raise RuntimeError("perfcal died")
        return (sched_cpu(self.p.pid) - c) / self.units

    def scale(self, cpu):
        """`cpu`, just measured, at the reference host's speed."""
        before, self.last = self.last, self.sample()
        return cpu * CAL_REF_S / ((before + self.last) / 2)

    def close(self):
        self.p.stdin.close()
        self.p.wait()
        self.p.stdout.close()


# --------------------------------------------------------------------------
# Workloads. Each iteration returns an Iter; ops are (step, architecture)
# or (layer, executor) units.

class Iter:
    def __init__(self):
        self.wall = 0.0      # wall seconds inside the timed steps
        self.raw = 0.0       # CPU seconds of the processes that simulate
        self.cpu = 0.0       # the same at the reference host's speed
        self.ops = 0         # operations attempted
        self.failed = 0      # outputs that differ from their reference
        self.clean = 0       # operations that ended clean (exit 0, output as expected)
        self.rss_kb = 0
        self.notes = []

    def step(self, proc):
        self.wall += proc.wall
        self.raw += proc.cpu
        self.cpu += CLOCK.scale(proc.cpu)
        self.rss_kb = max(self.rss_kb, proc.rss_kb)

    def tally(self, ok, clean=None):
        self.ops += 1
        self.failed += not ok
        self.clean += ok if clean is None else (ok and clean)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    def warm_up(self):
        return self.iterate()


def committed_results():
    """The committed `results/` files by name, and the experiment ids."""
    ref_dir = os.path.join(ROOT, "results")
    ref = {}
    for f in sorted(os.listdir(ref_dir)):
        with open(os.path.join(ref_dir, f), "rb") as fh:
            ref[f] = fh.read()
    return ref, sorted({os.path.splitext(f)[0] for f in ref})


class PaperSweep(Workload):
    """`flexsim --jobs 1 --out DIR all`, checked byte for byte against
    the committed `results/`."""

    def __init__(self, work, seed):
        self.work = work
        self.out = fresh_dir(os.path.join(work, "out"))
        self.ref, self.ids = committed_results()
        proc = run_proc(flexsim_argv("workloads", "--json"), work)
        rows = {w["name"]: w["conv_macs"] for w in json.loads(proc.out)["workloads"]}
        self.macs = 4 * sum(rows[n] for n in TABLE1)

    def iterate(self, tracer=None):
        """Empties the output files in place rather than deleting them:
        creating and deleting 34 files per iteration made the file
        system's share of each step grow run after run, from about 3 to
        over 10 ms. An output the step fails to write stays empty and
        differs from its reference."""
        it = Iter()
        for name in self.ref:
            open(os.path.join(self.out, name), "wb").close()
        proc = run_proc(flexsim_argv("--out", "out", "all"), self.work, tracer, "all")
        it.step(proc)
        for eid in self.ids:
            ok = proc.rc == 0
            for ext in (".txt", ".json"):
                with open(os.path.join(self.out, eid + ext), "rb") as f:
                    ok = ok and f.read() == self.ref[eid + ext]
            it.tally(ok)
            if not ok:
                it.notes.append("%s differs from results/ (exit %s)" % (eid, proc.rc))
        return it


class ResnetExplore(Workload):
    """The committed ResNet-18-class `.ffnet` through run, heatmap,
    prove and tune, each checked against committed digests. Its warm-up
    is the `run` whose digest the constructor checks."""

    def __init__(self, work, seed):
        self.work = work
        with open(EXPECT_FILE) as f:
            self.expect = json.load(f)
        self.warm = run_proc(flexsim_argv("run", NET_FILE, "--json"), work)
        self.macs = 12 * json.loads(self.warm.out)["conv_macs"]

    def warm_up(self):
        it = Iter()
        self.check_doc(it, self.warm, "run", "run")
        return it

    def check_doc(self, it, proc, key, label):
        """Per architecture: exit 0 and the section's digest as expected."""
        want = self.expect[key]
        try:
            doc = json.loads(proc.out)
            archs = doc.pop("architectures")
        except (ValueError, KeyError):
            doc, archs = None, []
        head_ok = proc.rc == 0 and doc is not None and sha(canon(doc)) == want["header"]
        got = {a.get("arch"): sha(canon(a)) for a in archs}
        for arch, _ in ARCHES:
            ok = head_ok and got.get(arch) == want["arch"][arch]
            it.tally(ok)
            if not ok:
                it.notes.append("%s %s differs from its digest (exit %s)" % (label, arch, proc.rc))

    def check_prove(self, it, proc):
        """Per pair: the engine-recorded side as expected. A pair that
        fails to prove is not clean; it is a failure only if it was
        expected to prove."""
        want = self.expect["prove"]
        try:
            pairs = {p["architecture"]: p for p in json.loads(proc.out)["pairs"]}
        except (ValueError, KeyError, TypeError):
            pairs = {}
        for arch, _ in ARCHES:
            p = pairs.get(arch)
            ok = proc.rc in (0, 1) and p is not None and sha(canon(prove_dynamic(p))) == want[arch]["dynamic"]
            proved = ok and p["proved"] == "yes"
            ok = ok and (proved or want[arch]["proved"] == "no")
            it.tally(ok, proved)
            if not ok:
                it.notes.append("prove %s differs from its digest (exit %s)" % (arch, proc.rc))

    def iterate(self, tracer=None):
        it = Iter()
        trace_file = os.path.join(self.work, "trace.json")
        if os.path.exists(trace_file):
            os.remove(trace_file)
        sp = tracer.begin("resnet_explore.iteration") if tracer else None
        proc = run_proc(flexsim_argv("--trace", "trace.json", "run", NET_FILE, "--json"), self.work,
                        tracer, "--trace run")
        it.step(proc)
        self.check_doc(it, proc, "run", "run")
        proc = run_proc(flexsim_argv("heatmap", NET_FILE, "--json"), self.work, tracer, "heatmap")
        it.step(proc)
        self.check_doc(it, proc, "heatmap", "heatmap")
        proc = run_proc(flexsim_argv("prove", NET_FILE, "--json"), self.work, tracer, "prove")
        it.step(proc)
        self.check_prove(it, proc)
        proc = run_proc(flexsim_argv("tune", NET_FILE), self.work, tracer, "tune")
        it.step(proc)
        ok = proc.rc == 0 and sha(proc.out) == self.expect["tune"]["sha256"]
        it.tally(ok)
        if not ok:
            it.notes.append("tune differs from its digest (exit %s)" % proc.rc)
        if tracer:
            tracer.end(sp)
        return it


def prove_dynamic(pair):
    """The engine-recorded side of one prove pair."""
    return {"architecture": pair["architecture"], "dynamic_cycles": pair["dynamic_cycles"],
            "layers": [[l["layer"], l["dynamic_cycles"]] for l in pair["layers"]]}


class FunctionalExec(Workload):
    """Bit-exact functional execution in-process, through the probe."""

    def __init__(self, work, seed):
        self.work = work
        self.probe = ProbeProc(seed, work)

    def iterate(self, tracer=None):
        it = Iter()
        sp = tracer.begin("functional_exec.iteration") if tracer else None
        c, t = self.probe.cpu(), time.perf_counter()
        r = self.probe.ask("trace functional" if tracer else "iter")
        it.wall = time.perf_counter() - t
        it.raw = self.probe.cpu() - c
        it.cpu = CLOCK.scale(it.raw)
        if tracer:
            tracer.adopt(sp, r["spans"])
            tracer.end(sp)
        it.ops, it.failed, self.macs = r["ops"], r["failed"], r["macs"]
        it.clean = it.ops - it.failed
        if it.failed:
            it.notes.append("%d functional outputs differ from the reference" % it.failed)
        return it

    def close(self):
        return self.probe.close()


WORKLOADS = {"paper_sweep": PaperSweep, "resnet_explore": ResnetExplore, "functional_exec": FunctionalExec}


# --------------------------------------------------------------------------
# Set-up, timed loop, metrics.

def cpu_now():
    """CPU seconds of this process and of its reaped children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def set_up(name, seed, reps):
    """Sets the workload up `reps` times from scratch and keeps the last;
    returns it with the median set-up CPU time, at the reference host's
    speed, and the warm-ups' failures. A set-up writes the inputs into a
    fresh working directory, derives the per-iteration MACs, starts the
    probe where there is one, and runs an untimed, checked warm-up."""
    times, wl, notes = [], None, []
    for _ in range(reps):
        if wl is not None and hasattr(wl, "close"):
            wl.close()
        c = cpu_now()
        work = fresh_dir(os.path.join(WORK_ROOT, name))
        shutil.copyfile(os.path.join(DATA, NET_FILE), os.path.join(work, NET_FILE))
        wl = WORKLOADS[name](work, seed)
        notes += ["warm-up: " + n for n in wl.warm_up().notes]
        times.append(CLOCK.scale(cpu_now() - c + (wl.probe.cpu() if hasattr(wl, "probe") else 0.0)))
    return wl, median(times), notes


def tail(samples):
    """The highest percentile up to p95 with at least ten samples beyond
    it, as (value, percentile). Above p95 the figure follows single
    host hiccups. With 20 samples or fewer that percentile lies below
    the median, which is then reported instead: so few samples hold no
    tail."""
    xs, n = sorted(samples), len(samples)
    i = max(min(n - 11, math.ceil(0.95 * n) - 1), n // 2)
    return xs[i], 100.0 * (i + 1) / n


def timed_loop(wl, seconds):
    iters = []
    deadline = time.perf_counter() + seconds
    while not iters or time.perf_counter() < deadline:
        iters.append(wl.iterate())
    return iters


def end_to_end(wl, setup_s, iters, rss_kb):
    cpus, walls = [it.cpu for it in iters], [it.wall for it in iters]
    ops = sum(it.ops for it in iters)
    val, pct = tail(cpus)
    raws = [it.raw for it in iters]
    print("  %d iterations; iter_tail_ms is p%.1f of %d samples" % (len(cpus), pct, len(cpus)))
    print("  unscaled CPU time: p50 %.3f ms, p%.1f %.3f ms" % (median(raws) * 1e3, pct, tail(raws)[0] * 1e3))
    print("  wall time: p50 %.3f ms, p%.1f %.3f ms" % (median(walls) * 1e3, pct, tail(walls)[0] * 1e3))
    return {
        "setup_s": (setup_s, "s"),
        "iter_p50_ms": (median(cpus) * 1e3, "ms"),
        "iter_tail_ms": (val * 1e3, "ms"),
        "sim_macs_per_s": (wl.macs * len(iters) / sum(cpus), "MAC/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
        "ok_rate": (sum(it.clean for it in iters) / ops, "ratio"),
    }


# --------------------------------------------------------------------------
# The traced run: per-layer probes, then traced vs untraced iterations.

def tune_counts(text):
    """Σ scored and Σ enumerated over the `cands scored/enum` column."""
    scored = enum = 0
    col = None
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if col is None:
            if "cands scored/enum" in cells:
                col = cells.index("cands scored/enum")
            continue
        if len(cells) > col and "/" in cells[col]:
            a, b = cells[col].split("/")
            if a.isdigit() and b.isdigit():
                scored += int(a)
                enum += int(b)
    return scored, enum


def repeat(n, fn):
    return median([fn() for _ in range(n)])


def traced_ask(probe, tracer, cmd):
    """Sends a `trace ...` command and files the reply's spans."""
    sp = tracer.begin("probe." + cmd.split()[-1])
    r = probe.ask(cmd)
    tracer.adopt(sp, r["spans"])
    tracer.end(sp)
    return r


LAYER_EXECS = ["model.reference_conv", "core.pe_array", "baselines.systolic_forward",
               "baselines.mapping2d_forward", "baselines.tiling_forward"]
NET_EXECS = ["core.execute_network", "model.reference_network"]


def per_layer(probe, work, tracer, failures):
    m = {}

    def cli(args, subject, expect_rc=(0,)):
        proc = run_proc(flexsim_argv(*args), work, tracer, subject)
        if proc.rc not in expect_rc:
            failures.append("%s exited %s" % (subject, proc.rc))
        return proc

    # Experiments, one process each.
    for eid in committed_results()[1]:
        m["experiments.%s_ms" % eid] = (repeat(3, lambda: cli([eid], eid).cpu * 1e3), "ms")

    # Below the CLI: planner, lint, cost models, resolver.
    runs = [traced_ask(probe, tracer, "trace layers") for _ in range(5)]
    for r in runs:
        if r["failed"]:
            failures.append("probe layers: %d failed" % r["failed"])
    with open(EXPECT_FILE) as f:
        cycles = json.load(f)["run"]["cycles"]
    want = [cycles[a] for a, _ in ARCHES]
    for r in runs:
        if r["rn_cycles"] != want:
            failures.append("untraced cost model cycles %s != run --json %s" % (r["rn_cycles"], want))

    def summed(r, span):
        return sum(s["dur_us"] for s in r["spans"] if s["name"] == span)

    for key, span in [("dataflow.plan_network_us", "dataflow.plan_network"),
                      ("flexcheck.check_network_us", "flexcheck.check_network"),
                      ("model.ffnet_resolve_us", "model.ffnet_resolve")]:
        m[key] = (median([summed(r, span) for r in runs]), "us")
    for _, mod in ARCHES:
        m[mod + "_cost_us"] = (median([summed(r, mod + "_cost") for r in runs]), "us")
        m[mod + "_cost_rn_us"] = (median([summed(r, mod + "_cost_rn") for r in runs]), "us")

    # Recorded emission: one architecture per heatmap process.
    for arch, mod in ARCHES:
        ms = repeat(3, lambda: cli(["heatmap", NET_FILE, "--arch", arch, "--json"], "heatmap --arch " + arch).cpu * 1e3)
        m[mod + "_record_ms"] = (ms, "ms")
        m[mod + "_record_over_cost_x"] = (ms * 1e3 / m[mod + "_cost_rn_us"][0], "x")

    # Chrome export: `--trace` on run (R) and on the sweep.
    def export(args, subject):
        plain, traced, events, size = [], [], 0, 0
        trace_file = os.path.join(work, "export.json")
        for _ in range(2):
            plain.append(cli(args, subject).cpu * 1e3)
            if os.path.exists(trace_file):
                os.remove(trace_file)
            traced.append(cli(["--trace", "export.json", *args], "--trace " + subject).cpu * 1e3)
            if os.path.exists(trace_file):
                size = os.path.getsize(trace_file)
                with open(trace_file) as f:
                    events = len(json.load(f)["traceEvents"])
        return median(traced) - median(plain), events, size

    d, ev, size = export(["run", NET_FILE, "--json"], "run")
    m["obs.trace_export_ms"], m["obs.trace_events"], m["obs.trace_bytes"] = (d, "ms"), (ev, "count"), (size, "B")
    d, ev, size = export(["all"], "all")
    m["obs.trace_all_export_ms"], m["obs.trace_all_events"], m["obs.trace_all_bytes"] = (d, "ms"), (ev, "count"), (size, "B")

    # Prover and tuner on R.
    proves = [cli(["prove", NET_FILE, "--json"], "prove", (0, 1)) for _ in range(2)]
    doc = json.loads(proves[-1].out)
    m["experiments.prove_ms"] = (median([p.cpu for p in proves]) * 1e3, "ms")
    m["flexcheck.prove_pairs"] = (doc["pairs_total"], "count")
    m["flexcheck.prove_pairs_failed"] = (doc["pairs_total"] - doc["pairs_proved"], "count")
    tunes = [cli(["tune", NET_FILE], "tune") for _ in range(2)]
    scored, enum = tune_counts(tunes[-1].out.decode())
    m["experiments.tune_ms"] = (median([p.cpu for p in tunes]) * 1e3, "ms")
    m["dataflow.tune_enumerated"] = (enum, "count")
    m["experiments.tune_scored"] = (scored, "count")
    m["experiments.tune_scored_frac"] = (scored / enum if enum else 0.0, "ratio")

    # Functional executors, one span per (layer, executor) call.
    runs = [traced_ask(probe, tracer, "trace functional") for _ in range(5)]
    for key in LAYER_EXECS + NET_EXECS:
        m[key + "_us"] = (median([summed(r, key) for r in runs]), "us")
        m[key + "_macs"] = (sum(s["macs"] for s in runs[0]["spans"] if s["name"] == key), "count")
        if not key.startswith("model."):
            m[key + "_mismatches"] = (sum(r["mismatches"].get(key, 0) for r in runs), "count")
    m["core.pe_array_over_reference_x"] = (m["core.pe_array_us"][0] / m["model.reference_conv_us"][0], "x")
    for r in runs:
        if r["failed"]:
            failures.append("probe functional: %d outputs differ" % r["failed"])
    return m


def overhead(wl, seconds, tracer):
    """Alternates untraced and traced iterations; the traced ones record
    spans. Tracing costs the harness too, so this compares wall time,
    pair by pair. Returns (median overhead %, its IQR %, iterations)."""
    ratios, iters = [], []
    deadline = time.perf_counter() + seconds
    while len(ratios) < 3 or time.perf_counter() < deadline:
        a = wl.iterate()
        b = wl.iterate(tracer)
        ratios.append(100.0 * (b.wall - a.wall) / a.wall)
        iters += [a, b]
    q = statistics.quantiles(ratios, n=4)
    return median(ratios), q[2] - q[0], iters


# --------------------------------------------------------------------------

def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for argv in (["cargo", "build", "--release", "--offline", "--bin", "flexsim"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path",
                  os.path.join("perfbench", "probe", "Cargo.toml")]):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: %s" % " ".join(argv))
            sys.exit(1)


def write_expect(work):
    """Regenerates the committed digests from the current build."""
    doc = {}
    run = run_proc(flexsim_argv("run", NET_FILE, "--json"), work)
    heat = run_proc(flexsim_argv("heatmap", NET_FILE, "--json"), work)
    for key, proc in (("run", run), ("heatmap", heat)):
        d = json.loads(proc.out)
        archs = d.pop("architectures")
        doc[key] = {"sha256": sha(proc.out), "header": sha(canon(d)),
                    "arch": {a["arch"]: sha(canon(a)) for a in archs}}
    doc["run"]["cycles"] = {a["arch"]: a["cycles"] for a in json.loads(run.out)["architectures"]}
    prove = json.loads(run_proc(flexsim_argv("prove", NET_FILE, "--json"), work).out)
    doc["prove"] = {p["architecture"]: {"proved": p["proved"], "dynamic": sha(canon(prove_dynamic(p)))}
                    for p in prove["pairs"]}
    doc["tune"] = {"sha256": sha(run_proc(flexsim_argv("tune", NET_FILE), work).out)}
    with open(EXPECT_FILE, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECT_FILE)


def main():
    global FLEXSIM, PROBE, CAL, CLOCK, TARGET, WORK_ROOT, T0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expect", action="store_true",
                    help="regenerate perfbench/data/resnet18.expect.json from this build and exit")
    args = ap.parse_args()

    TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    WORK_ROOT = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    FLEXSIM = os.path.join(TARGET, "release", "flexsim")
    PROBE = os.path.join(TARGET, "release", "perfprobe")
    CAL = os.path.join(TARGET, "release", "perfcal")
    build()
    pin_to_current_cpu()
    T0 = time.perf_counter()
    CLOCK = Calibrator(CAL_UNITS[args.workload])
    try:
        return measure(args)
    finally:
        CLOCK.close()
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK_ROOT))
        except OSError:
            pass


def measure(args):
    if args.write_expect:
        work = fresh_dir(os.path.join(WORK_ROOT, "expect"))
        shutil.copyfile(os.path.join(DATA, NET_FILE), os.path.join(work, NET_FILE))
        write_expect(work)
        return 0
    name = args.workload
    print("perfbench %s seed=%d seconds=%g trace=%d" % (name, args.seed, args.seconds, args.trace))
    reps = 5 if name == "resnet_explore" else 9
    wl, setup_s, failures = set_up(name, args.seed, 1 if args.trace else reps)
    if args.trace:
        tracer = Tracer()
        own_probe = name != "functional_exec"
        probe = ProbeProc(args.seed, wl.work) if own_probe else wl.probe
        sp = tracer.begin("probe")
        metrics = per_layer(probe, wl.work, tracer, failures)
        tracer.end(sp)
        heat = [metrics[mod + "_record_ms"][0] for _, mod in ARCHES]
        print("  recorded emission: heatmap --arch takes %.0f ms on FlexFlow, %.0f/%.0f/%.0f ms on the baselines"
              % (heat[3], heat[0], heat[1], heat[2]))
        print("  functional pass: core.pe_array is %.0f%% of per-layer executor time"
              % (100.0 * metrics["core.pe_array_us"][0] / sum(metrics[k + "_us"][0] for k in LAYER_EXECS)))
        pct, noise, iters = overhead(wl, args.seconds, tracer)
        metrics["bench.trace_overhead_pct"] = (pct, "%")
        metrics["bench.trace_noise_pct"] = (noise, "%")
        verdict = "within" if abs(pct) <= noise else "beyond"
        print("  trace overhead %+.2f%% (wall, median of pairs) is %s its spread (IQR %.2f%%)" % (pct, verdict, noise))
        if own_probe:
            probe.close()
        if hasattr(wl, "close"):
            wl.close()
        path = os.path.join(ROOT, ".bench_out", "spans-%s-seed%d.json" % (name, args.seed))
        tracer.write(path)
        print("  %d spans written to %s; self time by span:" % (len(tracer.spans), os.path.relpath(path, ROOT)))
        print(tracer.report())
    else:
        iters = timed_loop(wl, args.seconds)
        rss_kb = wl.close() if hasattr(wl, "close") else max(it.rss_kb for it in iters)
        metrics = end_to_end(wl, setup_s, iters, rss_kb)
    attempted = sum(it.ops for it in iters)
    failed = sum(it.failed for it in iters) + len(failures)
    for note in sorted({n for it in iters for n in it.notes} | set(failures)):
        print("  FAILED: " + note)
    for key, (value, unit) in metrics.items():
        print("  %-42s %16.6g %s" % (key, value, unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
