#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dq pipeline.

    python3 perfbench/run.py --workload tdg-train --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py repeat --workload quis-monitor --runs 10 --save a.json
    python3 perfbench/run.py compare a.json b.json

A run builds `dq` and the in-process half (`perfbench/src`) from source,
runs one workload for `--seconds` of measured work, checks every output
against the in-process reference and prints its metrics, one per line
with its unit, then one JSON line:
{"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, measured
on the `dq` subcommands in child processes, with CPU times scaled by a
fixed reference kernel run around each stage; `--trace 1` repeats the
workload in-process with spans and reports the per-layer metrics.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tdg-train", "quis-monitor", "serve-closed-loop")

# Sizes per scale. `*_datasets` is how many seed-derived datasets a run
# cycles through, `setups` how often set-up is repeated for its median.
SCALES = {
    "full": dict(tdg_rows=100_000, tdg_datasets=5, quis_train=200_000, quis_audit=1_000_000,
                 quis_datasets=2, serve_train=200_000, serve_pool=50_000, setups=40,
                 min_requests=1000, batch_rows=256, serve_passes=12),
    "smoke": dict(tdg_rows=3_000, tdg_datasets=2, quis_train=3_000, quis_audit=5_000,
                  quis_datasets=2, serve_train=3_000, serve_pool=2_000, setups=4,
                  min_requests=40, batch_rows=64, serve_passes=2),
}
# How often a stage runs per dataset visit, where one run of it is too
# short to time alone: one `dq detect` over 10^5 tdg rows (0.25 s), the
# serve workload's single training set (run this often both before and
# after the load, so its samples span the run; one generate takes 0.4 s).
REPEATS = {("tdg", "generate"): 3, ("tdg", "detect"): 3, ("quis", "detect"): 2, ("serve", "generate"): 4,
           ("serve", "induce"): 2}
# Set-up spawns after each dataset visit; a run tops them up to its
# scale's `setups` at the end. Spread over the run, their median is not
# taken from one moment of it.
SETUPS_PER_VISIT = 4
# tdg-train generates and detects on one thread. With two, these
# 0.1-0.5 s phases split their work statically across both CPUs, and
# their wall time swung by 20-35% between runs as the shared host's
# load moved; induction (balanced per attribute) and quis-monitor's
# multi-second parallel detect swung by about 10%.
TDG_SERIAL = ["--threads", "1"]
CHUNK_ROWS = 4096
# CPU seconds the reference kernel (`perfbench ref`, src/reference.rs)
# takes on the hardware of BASELINE.md when the host is quiet. Gated CPU
# figures are scaled to this speed: CPU time x REF_NOMINAL_S / the
# kernel's CPU time measured right before and after the stage.
REF_NOMINAL_S = 0.075
SERVE_WORKERS = 2
# Training sets are a fixed family: dataset d of a workload is generated
# with seed TRAIN_SEED + d in every run (serve-closed-loop serves the
# model of dataset 0). The seed of a run sets what is audited (QUIS
# rows, request mix) and the order the datasets are visited in. Seeded
# training sets made the per-row costs a property of the seed: one tdg
# rule set took twice another's CPU time per generated row (0.30-0.63 s
# per 10^5 rows over ten seeds), and the induced QUIS model ranged from
# 620 to 1654 rules over five, and the per-row audit cost, the server's
# start-up and its memory with it.
TRAIN_SEED = 0
CONNECTIONS = 2

# Per-layer metrics of BENCHMARK.json: name -> (unit, how to compute it
# from the summed span self times `s` and counts `c`).
LAYER_METRICS = {
    "gen.s": ("s", lambda s, c: s("tdg.rules") + s("tdg.rows") + s("quis.generate")),
    "pollute.s": ("s", lambda s, c: s("pollute")),
    "pollute.cells": ("count", lambda s, c: c("pollute.cells")),
    "table.csv_encode_s": ("s", lambda s, c: s("table.csv_encode")),
    "table.bytes_written": ("bytes", lambda s, c: c("table.bytes_written")),
    "table.csv_decode_s": ("s", lambda s, c: s("table.csv_decode")),
    "table.bytes_read": ("bytes", lambda s, c: c("table.bytes_read")),
    "table.batches": ("count", lambda s, c: c("table.batches")),
    "mining.presort_s": ("s", lambda s, c: s("mining.presort")),
    "mining.grow_s": ("s", lambda s, c: s("mining.grow")),
    "mining.leaf_filter_s": ("s", lambda s, c: s("mining.leaf_filter")),
    "mining.lower_s": ("s", lambda s, c: s("mining.lower")),
    "mining.nodes": ("count", lambda s, c: c("mining.nodes")),
    "mining.rules": ("count", lambda s, c: c("mining.rules")),
    "mining.enabled_leaf_ratio": ("ratio", lambda s, c: ratio(c("mining.enabled_leaves"), c("mining.leaves"))),
    "exec.induce_busy_ratio": ("ratio", lambda s, c: ratio(c("exec.grow_s"), c("exec.induce_wall_s") * c("exec.workers_per_run"))),
    "exec.induce_straggler_share": ("ratio", lambda s, c: ratio(c("exec.grow_max_s"), c("exec.induce_wall_s"))),
    "core.model_save_s": ("s", lambda s, c: s("core.model_save")),
    "core.model_load_s": ("s", lambda s, c: s("core.model_load")),
    "core.compile_s": ("s", lambda s, c: s("core.compile")),
    "core.scan_s": ("s", lambda s, c: s("core.scan")),
    "core.merge_s": ("s", lambda s, c: s("core.merge")),
    "core.render_s": ("s", lambda s, c: s("core.render")),
    "core.findings": ("count", lambda s, c: c("core.findings")),
    "core.suspicious_rows": ("count", lambda s, c: c("core.suspicious_rows")),
}

# Layer metrics only some workloads exercise: printed, not in the JSON.
WORKLOAD_LAYER_METRICS = {
    "tdg.rules_s": ("s", lambda s, c: s("tdg.rules")),
    "tdg.rows_s": ("s", lambda s, c: s("tdg.rows")),
    "quis.generate_s": ("s", lambda s, c: s("quis.generate")),
    "job.commit_s": ("s", lambda s, c: s("job.commit")),
    "job.commits": ("count", lambda s, c: c("job.commits")),
    "eval.score_s": ("s", lambda s, c: s("eval.score")),
    "serve.parse_s": ("s", lambda s, c: s("serve.parse")),
    # Total, not self: the audit span's children are the decode, scan,
    # merge and render spans counted under `table.` and `core.`.
    "serve.audit_s": ("s", lambda s, c: s("serve.audit", total=True)),
    "serve.write_s": ("s", lambda s, c: s("serve.write")),
}


def ratio(a, b):
    return a / b if b else 0.0


def say(line):
    print(line, flush=True)


def median(values):
    return statistics.median(values)


class BuildError(Exception):
    pass


def build():
    """Build `dq` and `perfbench` from the checkout; return their paths."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dq_cli", "--bin", "dq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if not (ROOT / "Cargo.toml").is_file():
            raise BuildError("no Cargo.toml at the checkout root")
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BuildError(" ".join(cmd) + " failed")
    return target / "release" / "dq", target / "release" / "perfbench"


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """One workload run: counts operations and failures, runs children."""

    def __init__(self, args, dq, helper):
        self.workload, self.seed, self.trace = args.workload, args.seed, args.trace
        self.seconds = float(args.seconds)
        self.scale = SCALES[args.scale]
        self.dq, self.helper = str(dq), str(helper)
        self.work = WORK / self.workload
        self.attempted = 0
        self.failed = 0
        self.lines = []  # (name, value, unit, note)
        self.metrics = {}
        self.children = []
        self.fresh_ref = None  # the last reference time, if nothing ran since
        self.refs = []
        self.samples = []  # every timed stage run, written to .bench_out
        self.ref_check = None

    def fail(self, what, count=1):
        self.failed += count
        say(f"FAILED: {what}")

    def reference(self):
        """CPU seconds of the reference kernel, run once on each CPU this
        process may use, all at once, each pinned to its CPU: {cpu: s}.
        Each CPU's speed changes on its own. It is also the `before` of
        whatever runs next, unless something else runs first."""
        procs = [subprocess.Popen([self.helper, "ref"], stdout=subprocess.PIPE, text=True,
                                  preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
                 for cpu in sorted(os.sched_getaffinity(0))]
        times = {}
        for cpu, p in zip(sorted(os.sched_getaffinity(0)), procs):
            out, _ = p.communicate()
            if p.returncode != 0:
                raise RuntimeError(f"perfbench ref exited with {p.returncode}")
            result = json.loads(out.strip().splitlines()[-1])
            if self.ref_check is None:
                self.ref_check = result["check"]
            elif result["check"] != self.ref_check:
                raise RuntimeError("the reference kernel computed another checksum")
            times[cpu] = result["cpu_s"]
        self.fresh_ref = times
        self.refs.append(statistics.mean(times.values()))
        return times

    def bracket(self, work, pin=False):
        """(work(cpu), reference time around it). With `pin`, `cpu` is the
        CPU the kernel ran fastest on just before, for `work` to pin its
        process to, and the reference time is that CPU's mean of the
        kernel's time right before and right after `work`; otherwise
        `cpu` is None and the mean over all CPUs is taken."""
        before = self.fresh_ref if self.fresh_ref is not None else self.reference()
        self.fresh_ref = None
        cpu = min(before, key=before.get) if pin else None
        result = work(cpu)
        after = self.reference()
        if pin:
            return result, (before[cpu] + after[cpu]) / 2
        return result, (statistics.mean(before.values()) + statistics.mean(after.values())) / 2

    def stage(self, name, args, timed=True, pin=False):
        """Run one `dq` subcommand as a child of `perfbench exec` (see
        src/child.rs): (wall s, peak RSS MB, CPU s, reference s) or None.
        Unless `timed` is false, the reference kernel brackets it; `pin`
        pins a single-threaded stage to one CPU (see bracket)."""
        self.attempted += 1

        def child(cpu):
            pinned = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
            return subprocess.run([self.helper, "exec", "--", self.dq] + [str(a) for a in args],
                                  stdout=subprocess.PIPE, text=True, preexec_fn=pinned)

        r, ref = self.bracket(child, pin) if timed else (child(None), None)
        result = json.loads(r.stdout.strip().splitlines()[-1]) if r.returncode == 0 else {}
        if result.get("code") != 0:
            self.fail(f"dq {name} exited with {result.get('code', 'an error')}")
            return None
        return result["wall_s"], result["maxrss_kib"] / 1024.0, result["cpu_s"], ref

    def inproc(self, args):
        """Run the in-process half; its JSON result or None."""
        self.attempted += 1
        self.fresh_ref = None
        r = subprocess.run([self.helper] + [str(a) for a in args], stdout=subprocess.PIPE, text=True)
        if r.returncode != 0 or not r.stdout.strip():
            self.fail(f"perfbench {args[0]} exited with {r.returncode}")
            return None
        return json.loads(r.stdout.strip().splitlines()[-1])

    def report(self, name, value, unit, note=""):
        self.lines.append((name, value, unit, note))

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.report(name, value, unit, note)


def mutate_first_byte(path):
    data = bytearray(path.read_bytes())
    if data:
        data[0] ^= 1
        path.write_bytes(bytes(data))


def check_verified(run, result, label):
    """Count the in-process comparison: every file must match."""
    if result is None:
        return False
    if not result["ok"]:
        run.fail(f"{label}: differs from the in-process reference: {', '.join(result['mismatches'])}")
        return False
    return True


def setup_detect(run, D, count, walls):
    """Set-up of the audit tier for the CLI workloads, `count` times with
    dataset directory `D`'s model: `dq detect` over a header-only CSV
    (process start, schema and model load, empty report).
    Appends each (wall time, reference time around the block) to `walls`."""
    header = run.work / "header.csv"
    with open(D / "train" / "dirty.csv", "rb") as f:
        header.write_bytes(f.readline())

    def block(_cpu):
        done = []
        for _ in range(count):
            r = run.stage("detect (set-up)", ["detect", "--schema", D / "train" / "schema.dqs",
                                              "--model", D / "model.dqm", "--input", header,
                                              "--report", run.work / "setup.csv", "--top", "0"],
                          timed=False)
            if r is None:
                continue
            done.append(r[0])
            if (run.work / "setup.csv").read_text() != "row,attribute,observed,proposed,confidence,support\n":
                run.fail("set-up report is not an empty report")
        return done

    if count:
        done, ref = run.bracket(block)
        walls.extend((w, ref) for w in done)


class Cycle:
    """Cycles through a run's datasets, starting at the one the seed
    picks, until `seconds` of measured stage time have passed (each
    dataset at least once), keeping every stage's wall and CPU time per
    dataset. A gated figure is the median over datasets of each
    dataset's median run, so no one dataset's rule set sets it."""

    def __init__(self, run, count):
        self.run, self.count = run, count
        self.measured = 0.0
        self.visits = 0
        self.walls = {}  # (stage, dataset) -> [wall]
        self.cpu = {}  # (stage, dataset) -> [CPU s]
        self.norm = {}  # (stage, dataset) -> [CPU s at the reference speed]
        self.rss = {}  # stage -> [MB]
        self.hashes = {}

    def datasets(self):
        while self.visits < self.count or self.measured < self.run.seconds:
            yield (self.visits + self.run.seed) % self.count
            self.visits += 1

    def stage(self, name, d, args, pin=False):
        r = self.run.stage(name, args, pin=pin)
        if r is None:
            return False
        self.measured += r[0]
        self.walls.setdefault((name, d), []).append(r[0])
        self.cpu.setdefault((name, d), []).append(r[2])
        self.norm.setdefault((name, d), []).append(r[2] * REF_NOMINAL_S / r[3])
        self.run.samples.append({"stage": name, "dataset": d, "wall_s": r[0], "cpu_s": r[2],
                                 "ref_s": r[3], "rss_mb": r[1]})
        self.rss.setdefault(name, []).append(r[1])
        return True

    def repeat(self, kind, name, d, args, fresh=None, pin=False):
        """`stage` REPEATS[(kind, name)] times; `fresh` is emptied before
        each (a finished checkpoint would make a rerun a no-op)."""
        for _ in range(REPEATS.get((kind, name), 1)):
            if fresh is not None and fresh.exists():
                shutil.rmtree(fresh)
            if not self.stage(name, d, args, pin):
                return False
        return True

    def check_repeat(self, d, files):
        """Outputs of a dataset's repeat visits must equal its first's."""
        now = [digest(f) for f in files]
        first = self.hashes.setdefault(d, now)
        if now != first:
            self.run.fail(f"dataset {d}: outputs differ between visits")

    def med(self, name, d):
        return median(self.walls[(name, d)])

    def total(self, name, datasets):
        return sum(self.med(name, d) for d in datasets)

    def samples(self, names, rows, table):
        """Per dataset d, one (rows, seconds) sample per run of the stages
        `names` together: rows[name][d] rows, seconds from `table`
        (self.walls or self.cpu)."""
        return {d: [(sum(rows[n][d] for n in names), sum(secs))
                    for secs in zip(*(table.get((n, d), []) for n in names))]
                for d in rows[names[0]]}

    def rates(self, names, rows):
        """Rows per wall second, one per sample."""
        return [r / s for runs in self.samples(names, rows, self.walls).values() for r, s in runs]

    def us_per_row(self, names, denom, table):
        """CPU microseconds per row from `table` (self.cpu or self.norm),
        one per dataset d: the sum over the stages `names` of the median
        of the dataset's runs of each, over denom[d] rows."""
        return [sum(median(table[(n, d)]) for n in names) * 1e6 / rows
                for d, rows in denom.items() if all((n, d) in table for n in names)]


def layer_summary(results):
    """Sum spans (self and total seconds) and counts over in-process
    results."""
    spans, totals, counts = {}, {}, {}
    for r in results:
        for name, (_, total, own) in r["spans"].items():
            spans[name] = spans.get(name, 0.0) + own
            totals[name] = totals.get(name, 0.0) + total
        for name, v in r["counts"].items():
            counts[name] = counts.get(name, 0.0) + v
        if "exec.workers" in r["counts"]:
            counts["exec.workers_per_run"] = r["counts"]["exec.workers"]
    def seconds(name, total=False):
        return (totals if total else spans).get(name, 0.0)

    return seconds, (lambda n: counts.get(n, 0.0)), spans


def report_layers(run, results, cli_s, traced_s, extra=()):
    s, c, spans = layer_summary(results)
    for name, (unit, f) in LAYER_METRICS.items():
        run.metric(name, f(s, c), unit)
    run.metric("trace.overhead", traced_s / cli_s - 1.0, "ratio",
               f"in-process {traced_s:.3f} s vs dq {cli_s:.3f} s over the same stages")
    for name, (unit, f) in WORKLOAD_LAYER_METRICS.items():
        if f(s, c):
            run.report(name, f(s, c), unit, "workload-specific")
    for name, value, unit in extra:
        run.report(name, value, unit, "workload-specific")
    say("self time by span (s), all datasets:")
    for name, own in sorted(spans.items(), key=lambda kv: -kv[1]):
        say(f"  {name:<24} {own:10.4f}")


def cli_workload(run, kind):
    """tdg-train and quis-monitor: generate -> induce -> [generate] ->
    detect over each dataset, then the in-process check and score."""
    sc = run.scale
    cycle = Cycle(run, sc[f"{kind}_datasets"])
    seeds = {}
    setup = []
    for d in cycle.datasets():
        base = run.seed * 16 + d
        train_seed = TRAIN_SEED + d
        D = run.work / f"d{d}"
        if D.exists():
            shutil.rmtree(D)
        train, audit = D / "train", D / "audit"
        if kind == "tdg":
            gen = ["generate", "tdg", "--out", train, "--rows", sc["tdg_rows"], "--seed", train_seed,
                   "--stream-chunk-rows", CHUNK_ROWS, "--checkpoint", train / "ck"] + TDG_SERIAL
            audit_input = train / "dirty.csv"
        else:
            gen = ["generate", "quis", "--out", train, "--rows", sc["quis_train"], "--seed", train_seed]
            audit_input = audit / "dirty.csv"
        # Generation runs on one thread (QUIS always, tdg by TDG_SERIAL).
        ok = cycle.repeat(kind, "generate", d, gen, train, pin=True)
        ok = ok and cycle.stage("induce", d, ["induce", "--schema", train / "schema.dqs", "--input",
                                              train / "dirty.csv", "--model", D / "model.dqm"])
        if ok and kind == "quis":
            ok = cycle.stage("generate_audit", d, ["generate", "quis", "--out", audit, "--rows",
                                                   sc["quis_audit"], "--seed", base + 1_000_003], pin=True)
        detect = ["detect", "--schema", train / "schema.dqs", "--model", D / "model.dqm", "--input",
                  audit_input, "--report", D / "report.csv", "--top", "0"]
        ok = ok and cycle.repeat(kind, "detect", d, detect + (TDG_SERIAL if kind == "tdg" else []),
                                 pin=kind == "tdg")
        if not ok:
            return
        cycle.check_repeat(d, [train / "dirty.csv", D / "model.dqm", D / "report.csv"])
        seeds[d] = (train_seed, base + 1_000_003)
        setup_detect(run, D, SETUPS_PER_VISIT, setup)
    datasets = sorted(seeds)

    d0 = run.work / "d0"
    setup_detect(run, d0, max(0, sc["setups"] - len(setup)), setup)
    if os.environ.get("PERFBENCH_MUTATE") == "report":
        mutate_first_byte(d0 / "report.csv")

    results = []
    for d in datasets:
        train_seed, audit_seed = seeds[d]
        args = ["inproc", "--kind", kind, "--dir", run.work / f"d{d}", "--chunk-rows", CHUNK_ROWS]
        if kind == "tdg":
            args += ["--train-rows", sc["tdg_rows"], "--train-seed", train_seed] + TDG_SERIAL
        else:
            args += ["--train-rows", sc["quis_train"], "--train-seed", train_seed,
                     "--audit-rows", sc["quis_audit"], "--audit-seed", audit_seed]
        # The model is induced in-process for the first dataset always,
        # and for every dataset when tracing.
        if run.trace or d == datasets[0]:
            args.append("--induce")
        if run.trace:
            OUT.mkdir(exist_ok=True)
            args += ["--trace-out", OUT / f"trace-{run.workload}-seed{run.seed}-d{d}.jsonl"]
        r = run.inproc(args)
        if check_verified(run, r, f"dataset {d}"):
            results.append(r)
    if len(results) != len(datasets):
        return

    train_rows = [r["train_rows"] for r in results]
    audit_rows = [r["audit_rows"] for r in results]
    gen_stages = ["generate"] + (["generate_audit"] if kind == "quis" else [])
    gen_s = sum(cycle.total(s, datasets) for s in gen_stages)
    induce_s = cycle.total("induce", datasets)
    detect_s = cycle.total("detect", datasets)
    score_s = sum(float(r["stage_s"]["score"]) for r in results)
    if run.trace:
        cli_s = gen_s + induce_s + detect_s
        traced_s = sum(float(v) for r in results for k, v in r["stage_s"].items()
                       if k in ("generate_train", "generate_audit", "induce", "detect"))
        report_layers(run, results, cli_s, traced_s)
    else:
        report_setup(run, setup, "set-ups")
        train = dict(zip(datasets, train_rows))
        audit = dict(zip(datasets, audit_rows))
        rows = {"generate": train, "generate_audit": audit, "induce": train, "detect": audit}
        generated = {d: train[d] + (audit[d] if kind == "quis" else 0) for d in datasets}
        # name -> (stages, rows per dataset)
        figures = {"generate": (gen_stages, generated), "induce": (["induce"], train),
                   "audit": (["detect"], audit)}
        report_cpu(run, cycle, figures, datasets)
        gen, induce = cycle.rates(gen_stages, rows), cycle.rates(["induce"], rows)
        detect = cycle.rates(["detect"], rows)
        run.report("generate_rows_per_s", median(gen), "rows/s", f"median of {len(gen)}")
        run.report("induce_rows_per_s", median(induce), "rows/s", f"median of {len(induce)}")
        run.metric("induce_peak_rss_mb", median(cycle.rss["induce"]), "MB")
        run.metric("audit_peak_rss_mb", median(cycle.rss["detect"]), "MB", "dq detect")
        run.report("detect_rows_per_s", median(detect), "rows/s", f"median of {len(detect)}")
        run.report("pipeline_rows_per_s", sum(audit_rows) / (gen_s + induce_s + detect_s + score_s),
                   "rows/s", "generate -> induce -> detect -> score")
    run.report("sensitivity", statistics.mean(r["sensitivity"] for r in results), "fraction")
    run.report("specificity", statistics.mean(r["specificity"] for r in results), "fraction")
    run.report("datasets", len(datasets), "count", f"{cycle.visits} visits")


def report_cpu(run, cycle, figures, datasets):
    """The CPU figures: `<name>_ref_us_per_row` (at the reference speed,
    a metric) and `<name>_cpu_us_per_row` (as measured), each the median
    over datasets."""
    for name, (stages, denom) in figures.items():
        norm = cycle.us_per_row(stages, denom, cycle.norm)
        runs = "+".join(str(sum(len(cycle.norm.get((s, d), [])) for d in datasets)) for s in stages)
        note = f"dq {' + '.join(stages)} at the reference speed; {len(norm)} datasets, {runs} runs"
        run.metric(f"{name}_ref_us_per_row", median(norm), "us/row", note)
        run.report(f"{name}_cpu_us_per_row", median(cycle.us_per_row(stages, denom, cycle.cpu)),
                   "us/row", "as measured")


def http_get(addr, path):
    """GET `path`: (status line, perf_counter time of the response's
    first byte). The server has routed the request and chosen its status
    when it sends that byte; the rest of the head follows in small
    writes that can wait out the client's delayed ACK (see README.md),
    which is no part of the server's readiness."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n".encode())
        data = s.recv(65536)
        first = time.perf_counter()
        while chunk := s.recv(65536):
            data += chunk
    return data.split(b"\r\n", 1)[0], first


def spawn_serve(run, models, measured):
    """Spawn `dq serve`; (process, address, seconds until the first 200
    from /health). The address comes from the line `dq serve` prints
    once bound; no sleep or poll sits in between. A `measured` server
    runs under `perfbench exec`, which reports its peak RSS when its
    standard input closes."""
    run.attempted += 1
    cmd = [run.dq, "serve", "--models", str(models), "--addr", "127.0.0.1:0",
           "--workers", str(SERVE_WORKERS)]
    if measured:
        cmd = [run.helper, "exec", "--until-stdin-eof", "--"] + cmd
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    run.children.append(p)
    line = p.stdout.readline()
    if "http://" not in line:
        run.fail("dq serve did not start")
        return p, None, None
    addr = line.split("http://", 1)[1].strip()
    status, answered = http_get(addr, "/health")
    ready = answered - t0
    if b" 200 " not in status + b" ":
        run.fail(f"/health answered {status!r}")
        return p, addr, None
    return p, addr, ready


def stop_serve(run, p, measured):
    """Stop `dq serve` and reap it. A `measured` server gets SIGTERM (a
    graceful drain, which must exit 0) and (peak RSS MB, CPU s) is
    returned. A set-up server is killed: `dq serve` prints its address
    before it installs its SIGTERM handler, so a drain request right
    after the first /health could land before the handler exists."""
    if measured:
        out, _ = p.communicate()
        result = json.loads(out.strip().splitlines()[-1]) if p.returncode == 0 else {}
        code = result.get("code")
        usage = (result.get("maxrss_kib", 0) / 1024.0, result.get("cpu_s", 0.0))
    else:
        p.kill()
        p.communicate()
        code, usage = 0, (0.0, 0.0)
    run.children.remove(p)
    if code != 0:
        run.fail(f"dq serve exited with {code}")
        return None
    return usage


def serve_setups(run, models, count, walls):
    """Spawn and stop `count` set-up servers; append each (readiness
    time, reference time around the block)."""
    def block(_cpu):
        done = []
        for _ in range(count):
            p, _, ready = spawn_serve(run, models, measured=False)
            stop_serve(run, p, measured=False)
            if ready is not None:
                done.append(ready)
        return done

    done, ref = run.bracket(block)
    walls.extend((w, ref) for w in done)


def report_setup(run, setup, what):
    """setup_s from (wall, reference) pairs: the median wall time at the
    reference speed; setup_wall_s as measured."""
    run.metric("setup_s", median(w * REF_NOMINAL_S / r for w, r in setup), "s",
               f"median of {len(setup)} {what}, at the reference speed")
    run.report("setup_wall_s", median(w for w, _ in setup), "s", "as measured")


def serve_workload(run):
    sc = run.scale
    base = run.seed * 16
    D = run.work / "d0"
    train, pool, models = D / "train", D / "audit", D / "models"
    cycle = Cycle(run, 1)
    generate = ["generate", "quis", "--out", train, "--rows", sc["serve_train"], "--seed", TRAIN_SEED]
    induce = ["induce", "--schema", train / "schema.dqs", "--input", train / "dirty.csv", "--model",
              D / "model.dqm"]

    def train_model():
        return (cycle.repeat("serve", "generate", 0, generate, train, pin=True)
                and cycle.repeat("serve", "induce", 0, induce))

    ok = train_model() and cycle.stage("generate_pool", 0, ["generate", "quis", "--out", pool, "--rows",
                                                            sc["serve_pool"], "--seed", base + 1_000_003])
    if not ok:
        return
    models.mkdir()
    shutil.copy(D / "model.dqm", models / "quis.dqm")
    shutil.copy(train / "schema.dqs", models / "quis.dqs")

    def load_args(addr):
        args = ["load", "--addr", addr, "--model-name", "quis", "--schema", train / "schema.dqs",
                "--model", D / "model.dqm", "--pool", pool / "dirty.csv", "--seed", run.seed,
                "--conns", CONNECTIONS, "--seconds", run.seconds, "--min-requests", sc["min_requests"],
                "--batch-rows", sc["batch_rows"]]
        if os.environ.get("PERFBENCH_MUTATE") == "response":
            args.append("--mutate-response")
        if run.trace:
            OUT.mkdir(exist_ok=True)
            args += ["--replay", "--trace-out", OUT / f"trace-{run.workload}-seed{run.seed}-load.jsonl"]
        else:
            args += ["--passes", sc["serve_passes"]]
        return args

    setup = []
    serve_setups(run, models, sc["setups"] // 2, setup)

    def session():
        """The measured server under load: (load result, usage) or Nones."""
        p, addr, ready = spawn_serve(run, models, measured=True)
        if ready is None:
            stop_serve(run, p, measured=True)
            return None, None
        load = run.inproc(load_args(addr))
        return load, stop_serve(run, p, measured=True)

    load, usage = session()
    if load is None or usage is None:
        return
    requests, failed = int(load["requests"]), int(load["failed"])
    run.attempted += requests
    for kind in ("shed_503", "other_status", "timeouts", "io_errors", "mismatches"):
        if int(load[kind]):
            run.fail(f"{load[kind]} requests: {kind}", int(load[kind]))

    # The second half of the set-up and training samples, after the load.
    # Training again must rebuild the model the server ran.
    serve_setups(run, models, sc["setups"] - len(setup), setup)
    if not train_model():
        return
    if digest(D / "model.dqm") != digest(models / "quis.dqm"):
        run.fail("training again built another model")

    args = ["inproc", "--kind", "quis", "--dir", D, "--train-rows", sc["serve_train"],
            "--train-seed", TRAIN_SEED, "--audit-rows", sc["serve_pool"], "--audit-seed", base + 1_000_003,
            "--induce", "--no-detect"]
    if run.trace:
        args += ["--trace-out", OUT / f"trace-{run.workload}-seed{run.seed}-d0.jsonl"]
    train_check = run.inproc(args)
    if not check_verified(run, train_check, "training data and model"):
        return

    gen_s = cycle.med("generate", 0) + cycle.med("generate_pool", 0)
    if run.trace:
        cli_s = gen_s + cycle.med("induce", 0)
        traced_s = sum(float(v) for k, v in train_check["stage_s"].items()
                       if k in ("generate_train", "generate_audit", "induce"))
        p50 = float(load["p50_ms"])
        extra = [("serve.wire_wait_ms", float(load["wire_wait_ms"]), "ms"),
                 ("serve.p50_ms", p50, "ms"),
                 ("serve.requests", requests, "count"),
                 ("serve.failed", failed, "count"),
                 ("serve.shed_503", int(load["shed_503"]), "count")]
        report_layers(run, [train_check, load], cli_s, traced_s, extra)
        own = p50 - float(load["wire_wait_ms"])
        say(f"serve p50 {p50:.3f} ms = wire wait {float(load['wire_wait_ms']):.3f} ms"
            f" + parse/audit/write {own:.3f} ms (median per request, in-process)")
    else:
        rss, cpu = usage
        rows = int(load["rows"])
        report_setup(run, setup, "spawns to /health 200")
        train_rows = {0: int(train_check["train_rows"])}
        per_stage = {"generate": train_rows, "induce": train_rows}
        report_cpu(run, cycle, {"generate": (["generate"], train_rows),
                                "induce": (["induce"], train_rows)}, [0])
        passes = list(zip(load["pass_cpu_s"], load["pass_ref_s"]))
        pass_rows = int(load["pass_rows"])
        run.samples += [{"stage": "serve_pass", "dataset": 0, "cpu_s": c, "ref_s": r} for c, r in passes]
        run.metric("audit_ref_us_per_row", median(c * REF_NOMINAL_S / r for c, r in passes) * 1e6 / pass_rows,
                   "us/row", f"the server's request path in-process, at the reference speed; "
                   f"median of {len(passes)} passes over the {pass_rows} rows answered")
        run.report("audit_cpu_us_per_row", median(c for c, _ in passes) * 1e6 / pass_rows, "us/row",
                   "as measured")
        run.report("serve_cpu_us_per_row", cpu * 1e6 / rows, "us/row",
                   f"dq serve's own CPU, spawn to drain: {cpu:.3f} s over {rows} rows")
        gen, induce = cycle.rates(["generate"], per_stage), cycle.rates(["induce"], per_stage)
        run.report("generate_rows_per_s", median(gen), "rows/s", f"median of {len(gen)}")
        run.report("induce_rows_per_s", median(induce), "rows/s", f"median of {len(induce)}")
        run.metric("induce_peak_rss_mb", median(cycle.rss["induce"]), "MB")
        run.metric("audit_peak_rss_mb", rss, "MB", "dq serve")
        run.report("serve_p50_ms", float(load["p50_ms"]), "ms", f"n={requests}")
        beyond = int(load["beyond_p99"])
        if beyond >= 10:
            run.report("serve_p99_ms", float(load["p99_ms"]), "ms", f"n={requests}, {beyond} beyond")
        else:
            say(f"serve_p99_ms not reported: only {beyond} of {requests} samples beyond it")
        run.report("serve_rows_per_s", rows / float(load["wall_s"]), "rows/s",
                   f"{CONNECTIONS} keep-alive connections; set by the response stall")
        for path, size in (("record", "1 row"), ("batch", f"{sc['batch_rows']} rows")):
            n = int(load[f"{path}_requests"])
            if n:
                run.report(f"serve_{path}_p50_ms", float(load[f"{path}_p50_ms"]), "ms", f"{size}; n={n}")
                run.report(f"serve_{path}_rows_per_s", float(load[f"{path}_rows_per_s"]), "rows/s",
                           f"{size}; as if every request took this path")
        run.report("serve_batch_share", float(load["batch_share"]), "fraction",
                   f"{sc['batch_rows']}-row batches; the rest single records (an assumed mix)")


def run_workload(args):
    try:
        dq, helper = build()
    except BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    run = Run(args, dq, helper)
    if run.work.exists():
        shutil.rmtree(run.work)
    run.work.mkdir(parents=True)
    try:
        if args.workload == "serve-closed-loop":
            serve_workload(run)
        else:
            cli_workload(run, "tdg" if args.workload == "tdg-train" else "quis")
    finally:
        for p in list(run.children):
            p.kill()
            p.wait()
        shutil.rmtree(run.work, ignore_errors=True)
    wanted = set(LAYER_METRICS) | {"trace.overhead"} if args.trace else set(END_TO_END)
    if not run.failed and set(run.metrics) != wanted:
        run.fail("missing metrics: " + ", ".join(sorted(wanted - set(run.metrics))))
    if run.samples:
        OUT.mkdir(exist_ok=True)
        (OUT / f"samples-{run.workload}-seed{run.seed}-trace{run.trace}.json").write_text(
            json.dumps(run.samples))
    if run.refs:
        run.report("reference_s", median(run.refs), "s", f"median of {len(run.refs)} reference kernel runs")
    failed = run.failed
    run.report("failed_fraction", failed / max(run.attempted, 1), "fraction",
               f"{failed} of {run.attempted} operations")
    for name, value, unit, note in run.lines:
        say(f"{args.workload}  {name:<28} {value:>16.6g} {unit:<8} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1), "failed": failed,
                      "metrics": run.metrics}), flush=True)
    return 0


END_TO_END = ("setup_s", "generate_ref_us_per_row", "induce_ref_us_per_row", "audit_ref_us_per_row",
              "induce_peak_rss_mb", "audit_peak_rss_mb")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_value(result, name):
    """A metric's value in a saved run, or the value it printed."""
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    return result.get("printed", {}).get(name)


def printed_values(workload, lines):
    """name -> value of the `<workload> <name> <value> <unit>` lines."""
    values = {}
    for line in lines:
        f = line.split()
        if len(f) >= 4 and f[0] == workload:
            try:
                values[f[1]] = float(f[2])
            except ValueError:
                pass
    return values


def repeat(args):
    """Run each workload `--runs` times with seeds first-seed.. and print
    median, quartiles and spread (IQR / median) per metric."""
    results = {}
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            took = time.perf_counter() - t0
            lines = r.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if r.returncode == 0 else None
            if last:
                last["printed"] = printed_values(workload, lines[:-1])
            runs.append(last)
            say(f"{workload} seed {seed} ({took:.1f} s): "
                + (json.dumps({k: v for k, v in last.items() if k != "printed"}) if last
                   else f"exit {r.returncode}"))
        results[workload] = runs
    bounds = {m["name"]: m.get("bound") for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    say(f"{'workload':<18} {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        good = [r for r in runs if r and r["correct"]]
        say(f"{workload:<18} correct runs {len(good)} of {len(runs)}")
        names = list(good[0]["metrics"]) if good else []
        names += [n for n in (good[0]["printed"] if good else {}) if n not in names]
        for name in names:
            values = [run_value(r, name) for r in good]
            if None in values:
                continue
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(name)
            spread = (q3 - q1) / q2 if q2 else 0.0
            # Steady: the spread is within a third of the bound (setup_s is
            # compared by its median only).
            flag = "" if bound is None or name == "setup_s" else (
                "  OVER BOUND" if spread > bound else "  over a third" if spread > bound / 3 else "")
            say(f"{workload:<18} {name:<24} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                f"{spread:>8.3f} {bound if bound is not None else '':>6}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    return 0


def compare(args):
    """Median of each metric in run set B against run set A: the share by
    which they differ, either way, and the share by which B is worse,
    next to the metric's bound. Two sets of the same code agree when
    every difference is within its bound."""
    a, b = json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text())
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    verdict = 0
    for workload in a:
        for name, m in spec.items():
            va = [run_value(r, name) for r in a[workload] if r and r["correct"]]
            vb = [run_value(r, name) for r in b.get(workload, []) if r and r["correct"]]
            va, vb = [v for v in va if v is not None], [v for v in vb if v is not None]
            if not va or not vb:
                continue
            ma, mb = median(va), median(vb)
            differ = abs(mb - ma) / ma
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = differ <= m["bound"]
            verdict |= not ok
            say(f"{workload:<18} {name:<24} A {ma:>12.6g}  B {mb:>12.6g}  differ {differ:.3f}"
                f"  B worse by {worse:+.3f}  bound {m['bound']}  {'agree' if ok else 'DISAGREE'}")
    return verdict


def main(argv):
    if argv and argv[0] == "repeat":
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=22)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--save")
        args = p.parse_args(argv[1:])
        args.workload = args.workload or list(WORKLOADS)
        return repeat(args)
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=22)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full", help=argparse.SUPPRESS)
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
