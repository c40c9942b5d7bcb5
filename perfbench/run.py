#!/usr/bin/env python3
"""The repository benchmark: one command, four fixed-work workloads.

    python3 perfbench/run.py --workload detail|sampled|serve|opt \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the workload runner
(perfbench/bench.exe) and `bor` from source with dune, runs one
workload, keeps the runner's raw per-job records in
perfbench/_runs/<workload>-seed<N>-trace<T>-<time>-<pid>.jsonl (with the
host fingerprint and the seed in its first line; the path goes to
stderr), computes the metrics from them, and prints one JSON object as
its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload prints the same metrics: with --trace 0 the end-to-end
ones, with --trace 1 the per-layer ones, measured by layer probes that
end every traced run (perfbench/NOTES.md maps each to the end-to-end
metric it should move). The figures only one workload can give, such
as simulated instructions per second or cpi_err_pct, go to stderr as
one "perfbench: figures {...}" line.

Other modes:
  --smoke              one small job per workload (the benchmark's tests)
  --write-reference    fold a detail run's cycles and instructions, or a
                       sampled run's warmed instruction counts, into the
                       reference
  --recompute RAW      print the metrics of a kept raw file; runs nothing
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join("perfbench", "_runs")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BOR_EXE = os.path.join("_build", "default", "bin", "bor.exe")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("detail", "sampled", "serve", "opt")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- running


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", BENCH_EXE, BOR_EXE],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        raise BenchError(f"cannot run dune: {e}")
    if r.returncode != 0:
        raise BenchError("build failed")


def ocaml_fingerprint():
    """OCaml version and whether the compiler has flambda."""
    try:
        out = subprocess.run(
            ["ocamlfind", "ocamlopt", "-config"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"ocaml": "unknown", "flambda": None}
    conf = dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line
    )
    return {
        "ocaml": conf.get("version", "unknown"),
        "flambda": conf.get("flambda") == "true",
    }


def host_record(args):
    return {
        "type": "host",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **ocaml_fingerprint(),
    }


def run_workload(args, raw):
    os.makedirs(RUNS, exist_ok=True)
    with open(raw, "w") as f:
        f.write(json.dumps(host_record(args)) + "\n")
    cmd = [
        BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", raw, "--bor", BOR_EXE,
    ] + (["--smoke"] if args.smoke else [])
    # Own process group, so a timeout also stops the servers the serve
    # workload started.
    p = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise BenchError(f"workload did not finish in {RUN_TIMEOUT_S} s")
    if code != 0:
        raise BenchError(f"workload runner exited with code {code}")


# ---------------------------------------------------------------- metrics


def load(raw):
    with open(raw) as f:
        return [json.loads(line) for line in f if line.strip()]


def of_type(records, t):
    return [r for r in records if r["type"] == t]


def stats_of(records):
    """Layer counters; repeated names (one per serve round) are summed."""
    out = {}
    for r in of_type(records, "stat"):
        out[r["name"]] = out.get(r["name"], 0) + r["value"]
    return out


def dur(r):
    return r["t1"] - r["t0"]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def job_failures(jobs, reference):
    """The jobs whose checks failed: the runner's own verdict (run
    errors, interpreter answer, payload identity, verified winner) plus
    the reference checks on detail and sampled jobs."""
    failed = []
    for j in jobs:
        ok = j["ok"]
        ref = reference.get(j["name"])
        if j["kind"] == "detail":
            ok = ok and ref is not None and (
                j["cycles"] == ref["cycles"]
                and j["instructions"] == ref["instructions"]
            )
        elif j["kind"] == "sampled":
            ok = ok and ref is not None and (
                j["instructions"] == ref["warmed_instructions"])
        if not ok:
            failed.append(j)
    return failed


def request_class(j):
    if j["disposition"] == "hit" or j["source"] == "cached":
        return "hit"
    return "cold"


# Set-up repetitions fall into this many groups: repetition r into
# group (r - 1) mod SETUP_GROUPS.
SETUP_GROUPS = 7


def setup_seconds(setups):
    """Median over the groups of the mean set-up time within a group.

    The repetitions are spread evenly over the run, so the repetitions
    of one group come from its start, middle and end. A set-up of a few
    milliseconds runs at one of the host's two speeds, and a plain
    median of such times sits between the two clusters and jumps from
    run to run (NOTES.md, "Set-up")."""
    groups = {}
    for r in setups:
        groups.setdefault((r["rep"] - 1) % SETUP_GROUPS, []).append(r["s"])
    return median([statistics.fmean(g) for g in groups.values()])


# The kind of a workload's own jobs, and a field every completed one
# records. A job that errored has no counts to time; it is already
# counted as failed.
JOB_KIND = {"detail": "detail", "sampled": "sampled", "serve": "request",
            "opt": "opt"}
COMPLETED = {"detail": "cycles", "sampled": "cycles_estimate",
             "serve": "disposition", "opt": "proposals"}


def workload_jobs(records, workload):
    return [j for j in of_type(records, "job")
            if j["kind"] == JOB_KIND[workload] and COMPLETED[workload] in j]


def busy_seconds(jobs, workload):
    """The time the workload's jobs ran. On serve, two clients overlap,
    so it is the time its request phases ran; elsewhere jobs run one
    after another and it is the sum of their times."""
    if workload != "serve":
        return sum(dur(j) for j in jobs)
    phases = {}
    for j in jobs:
        k = (j["round"], j["phase"])
        t0, t1 = phases.get(k, (j["t0"], j["t1"]))
        phases[k] = (min(t0, j["t0"]), max(t1, j["t1"]))
    return sum(t1 - t0 for t0, t1 in phases.values())


def peak_rss_mb(records, workload):
    """The runner's VmHWM. On serve, the median over the rounds of a
    round's largest server VmHWM: a server's peak depends on when its
    domains collect, and it ranged from 176 to 229 MB between the
    rounds of the same work (NOTES.md, "End-to-end metrics")."""
    if workload == "serve":
        return median([r["value"] for r in of_type(records, "stat")
                       if r["name"] == "serve.vm_hwm_mb"])
    return of_type(records, "run")[0]["vm_hwm_mb"]


def end_to_end(records, workload):
    """The end-to-end metrics, the same on every workload."""
    jobs = workload_jobs(records, workload)
    return {
        "setup_s": (setup_seconds(of_type(records, "setup")), "s"),
        "jobs_per_s": (len(jobs) / busy_seconds(jobs, workload), "1/s"),
        "peak_rss_mb": (peak_rss_mb(records, workload), "MB"),
    }


def figures(records, workload, reference):
    """A workload's own figures: the ones only it can give, such as
    simulated instructions per second, request latencies, and the
    deterministic accuracy and search quality. They go to standard
    error and are recomputable from the raw records (NOTES.md,
    "Workload figures")."""
    jobs = workload_jobs(records, workload)
    f = {}
    if workload in ("detail", "sampled"):
        f["sim_mips"] = (sum(j["instructions"] for j in jobs)
                         / sum(dur(j) for j in jobs) / 1e6)
    if workload == "sampled":
        f["cpi_err_pct"] = 100 * statistics.fmean(
            abs(j["cycles_estimate"] - reference[j["name"]]["cycles"])
            / reference[j["name"]]["cycles"]
            for j in jobs)
        f["exec.windows"] = sum(j["windows"] for j in jobs)
    if workload == "serve":
        ms = [1000 * dur(j) for j in jobs]
        f["job_p50_ms"] = median(ms)
        f["job_p90_ms"] = percentile(ms, 90)
        for cls in ("cold", "hit"):
            f[f"{cls}_p50_ms"] = median(
                [1000 * dur(j) for j in jobs if request_class(j) == cls])
        f["serve.submit_ms"] = 1000 * statistics.fmean(j["submit_s"] for j in jobs)
        f["serve.wait_ms"] = 1000 * statistics.fmean(j["wait_s"] for j in jobs)
        st = stats_of(records)
        f["serve.shared_shard_hits"] = st.get("serve.windows_shared_shard_hits", 0)
        f["serve.dedup_joins"] = st.get("serve.dedup_joins", 0)
        f["serve.memory_hits"] = sum(1 for j in jobs if j["disposition"] == "hit")
        hits = st.get("restart.store_hits", 0)
        misses = st.get("restart.store_misses", 0)
        f["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        f["store.bytes"] = st.get("store.bytes", 0)
        cold = [j for j in jobs if j["phase"] == "cold"]
        fixed = {j["name"].split("/")[0]: j["windows"]
                 for j in cold if j["name"].endswith("/fixed")}
        ci = [j for j in cold if j["name"].endswith("/ci5")]
        planned = sum(fixed.get(j["name"].split("/")[0], 0) for j in ci)
        f["sampling.stop_share"] = (
            sum(j["windows"] for j in ci) / planned if planned else 1.0)
    if workload == "opt":
        f["job_p50_ms"] = median([1000 * dur(j) for j in jobs])
        f["proposals_per_s"] = (sum(j["proposals"] for j in jobs)
                                / sum(j["search_s"] for j in jobs))
        f["best_cost_ratio"] = (sum(j["best_cost"] for j in jobs)
                                / sum(j["target_cost"] for j in jobs))
        props = sum(j["proposals"] for j in jobs)
        f["opt.search_s"] = statistics.fmean(j["search_s"] for j in jobs)
        f["opt.verify_s"] = statistics.fmean(j["verify_s"] for j in jobs)
        f["opt.proposals"] = props
        f["opt.oracle_evals"] = sum(j["oracle_evals"] for j in jobs)
        f["opt.filter_reject_share"] = sum(j["filter_rejects"] for j in jobs) / props
        f["opt.accept_share"] = sum(j["acceptances"] for j in jobs) / props
    # Traced runs: each layer's self time in the workload's own spans
    # (the probes left out), and the time none of them covers.
    spans = [s for s in of_type(records, "span") if s["job"] != "probe"]
    if spans:
        selfs = self_times(spans)
        for s in spans:
            k = s["name"].split(".")[0] + ".self_s"
            f[k] = f.get(k, 0) + selfs[s["id"]]
    return f


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            [(c["t0"], c["t1"]) for c in children.get(s["id"], [])])
        out[s["id"]] = dur(s) - covered
    return out


def union_length(intervals):
    total, end = 0.0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def per_layer(records):
    """The per-layer metrics, from the layer probes every traced run
    ends with (bench.ml, "layer probes"), and the trace's own cost."""
    spans = of_type(records, "span")
    probe_jobs = {j["name"]: j for j in of_type(records, "job")
                  if j["kind"] == "probe"}
    run = of_type(records, "run")[0]
    st = stats_of(records)
    by_name = {}
    for s in spans:
        if s["job"] == "probe":
            by_name.setdefault(s["name"], []).append(dur(s))

    def mean_span(name, scale):
        return scale * statistics.fmean(by_name[name])

    detail, warm = probe_jobs["detail"], probe_jobs["warm"]
    fb = warm["block_fallback_steps"]
    m = {
        "minic.compile_ms": (mean_span("minic.compile", 1e3), "ms"),
        "isa.assemble_ms": (mean_span("isa.assemble", 1e3), "ms"),
        "uarch.create_us": (mean_span("uarch.create", 1e6), "us"),
        "uarch.detail_ns_per_instr": (
            1e9 * sum(by_name["uarch.run"]) / detail["instructions"], "ns"),
        "uarch.detail_alloc_words_per_instr": (
            detail["alloc_words"] / detail["instructions"], "words"),
        "uarch.warm_ns_per_instr": (
            1e9 * sum(by_name["uarch.warm"]) / warm["instructions"], "ns"),
        "uarch.warm_alloc_words_per_instr": (
            warm["alloc_words"] / warm["instructions"], "words"),
        "uarch.block_fallback_share": (
            fb / (fb + warm["block_instructions"]), "share"),
        "exec.window_ms": (mean_span("exec.window", 1e3), "ms"),
        "exec.restore_ms": (mean_span("exec.restore", 1e3), "ms"),
        "exec.checkpoint_bytes": (statistics.fmean(
            p["bytes"] for p in of_type(records, "probe")
            if p["name"] == "checkpoint"), "bytes"),
        "wqueue.dispatch_ms": (mean_span("wqueue.dispatch", 1e3), "ms"),
        "wqueue.drain_ms": (mean_span("wqueue.drain", 1e3), "ms"),
        "store.put_ms": (mean_span("store.put", 1e3), "ms"),
        "store.find_ms": (mean_span("store.find", 1e3), "ms"),
        "serve.rtt_ms": (mean_span("serve.rtt", 1e3), "ms"),
        "cost.evaluate_us": (mean_span("cost.evaluate", 1e6), "us"),
    }
    wall = dur(run)
    roots = [(s["t0"], s["t1"]) for s in spans if s["parent"] == 0]
    m["trace.uncovered_s"] = (wall - union_length(roots), "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_pct"] = (
        100 * len(spans) * st["trace.span_cost_s"] / wall, "%")
    return m


def metrics_of(records, reference):
    host = of_type(records, "host")[0]
    workload = host["workload"]
    jobs = of_type(records, "job")
    failed = job_failures(jobs, reference)
    for j in failed:
        print(f"perfbench: failed {j['id']} ({j['name']}): {j['note'] or 'reference mismatch'}",
              file=sys.stderr)
    m = per_layer(records) if host["trace"] else end_to_end(records, workload)
    try:
        print("perfbench: figures " + json.dumps(figures(records, workload, reference)),
              file=sys.stderr)
    except (KeyError, ValueError, ZeroDivisionError, statistics.StatisticsError) as e:
        print(f"perfbench: no figures: {e!r}", file=sys.stderr)
    return {
        "correct": not failed and len(jobs) > 0,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }


# -------------------------------------------------------------- reference


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["kernels"]


def write_reference(records):
    """Fold a detail run's cycles and instructions, or a sampled run's
    warmed instruction counts, into the reference file."""
    try:
        kernels = load_reference()
    except (OSError, ValueError, KeyError):
        kernels = {}
    seen = {}
    for j in of_type(records, "job"):
        if j["kind"] not in ("detail", "sampled") or not j["ok"]:
            raise BenchError(f"cannot write a reference from job {j['id']}")
        if j["kind"] == "detail":
            row = {"cycles": j["cycles"], "instructions": j["instructions"]}
        else:
            row = {"warmed_instructions": j["instructions"]}
        if seen.setdefault(j["name"], row) != row:
            raise BenchError(f"{j['name']}: passes disagree")
        kernels.setdefault(j["name"], {}).update(row)
    with open(REFERENCE, "w") as f:
        json.dump({"schema": "perfbench-reference-v1", "kernels": kernels},
                  f, indent=2, sort_keys=True)
        f.write("\n")


# ------------------------------------------------------------------- main


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--recompute", metavar="RAW")
    args = ap.parse_args(argv)
    try:
        if args.recompute:
            records = load(args.recompute)
        else:
            if args.workload is None:
                ap.error("--workload is required")
            build()
            # A name of its own per run, so no capture overwrites another.
            stamp = time.strftime("%Y%m%dT%H%M%S")
            raw = os.path.join(
                RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                f"-{stamp}-{os.getpid()}.jsonl")
            print(f"perfbench: raw records: {raw}", file=sys.stderr)
            run_workload(args, raw)
            records = load(raw)
        if args.write_reference:
            if of_type(records, "host")[0]["workload"] not in ("detail", "sampled"):
                raise BenchError("--write-reference needs a detail or sampled run")
            write_reference(records)
        result = metrics_of(records, load_reference())
    except (BenchError, OSError, ValueError, KeyError, IndexError,
            ZeroDivisionError, statistics.StatisticsError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
