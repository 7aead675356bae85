#!/usr/bin/env python3
"""minorforge benchmark: seeded workloads, timed from outside the library.

One workload, end-to-end numbers (untraced) or per-layer numbers (traced):

    python3 perfbench/run.py --workload pipeline_gnp --seed 1 --seconds 20 --trace 0

Every workload, untraced for each seed and traced for the first, with the
spread of each metric across seeds; ``--save`` keeps the summary:

    python3 perfbench/run.py --workload all --seeds 1-10 --seconds 20 [--save FILE]

Check (or rewrite) the golden digests of the seeded outputs:

    python3 perfbench/run.py --golden check [--seeds 0-15]

A run is a closed loop with one caller and no threads.  Set-up (library
import plus seeded input generation) happens before timing and is repeated
three times; ``setup_s`` is its median.  Each op's output is re-checked and
digested after its timer stops.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it give the environment, sample counts and digest status;
the full result and, for traced runs, the spans go to ``.perfbench_out/``.

Reported times are scaled by machine speed (see ``speed.py``): on a shared
machine the interpreter's speed drifts by tens of percent within seconds,
so a small fixed kernel is timed every 20 ms while the run measures, and
each time is converted to a machine where that kernel takes a fixed
nominal time.  Raw times are kept in the result file.  Ops start from a
collected heap with the inputs frozen out of the collector, so neither the
previous op's garbage nor the size of the input set is charged to an op.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPS = 3

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "minorforge", "__init__.py")):
    if __name__ == "__main__":
        fail(f"no minorforge sources under {SRC}")
    raise ImportError("perfbench needs the minorforge sources under src/")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import WORKLOADS, encode  # noqa: E402


# -- environment -----------------------------------------------------------------


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "minorforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "source_sha256": src.hexdigest()[:16]}


# -- set-up ----------------------------------------------------------------------


def import_seconds(clock) -> float:
    """Median scaled time to import the library in a fresh interpreter
    (measured inside the child, so interpreter start-up is left out)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import minorforge; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter_ns()
        done = subprocess.run([sys.executable, "-I", "-c", code, SRC], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout) * clock.scale(start, time.perf_counter_ns()))
    return statistics.median(times)


def make_inputs(wl, seed: int, tracer=None) -> list:
    if tracer is None:
        return wl.make(seed, wl.pass_size)
    with tracer.active(-1):
        return wl.make(seed, wl.pass_size)


def set_up(wl, seed: int, clock, tracer=None):
    """Make the inputs SETUP_REPS times, insisting that they repeat; returns
    the inputs, the median scaled generation time and the median scale."""
    times, factors, first, inputs = [], [], None, None
    for _ in range(SETUP_REPS):
        inputs = None  # let the previous pass go before making the next
        inputs, error, start, end, busy = clock.timed(make_inputs, wl, seed, tracer)
        if error is not None:
            raise error
        factors.append(clock.scale(start, end))
        times.append(busy / 1e9 * factors[-1])
        enc = encode(inputs)
        if first is not None and enc != first:
            fail(f"{wl.name}: set-up for seed {seed} does not repeat")
        first = enc
    return inputs, statistics.median(times), statistics.median(factors)


# -- the measured loop -------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def measure(wl, inputs, seconds: float, clock, tracer=None) -> dict:
    """Run ops until ``seconds`` have passed (and at least the digest
    window).  With a tracer each op runs once plain and once traced, in
    alternating order, and both outputs must agree.  Each call starts from
    a collected heap, so one op's garbage is not charged to the next."""
    plain, traced_runs, problems = [], [], []
    failed = 0
    slot_digest: dict[int, str] = {}
    window = hashlib.sha256()
    root = tracer.root(wl.op) if tracer else None
    start = time.perf_counter()
    i = 0
    while i < wl.window or time.perf_counter() - start < seconds:
        slot = i % len(inputs)
        inp = inputs[slot]
        outs, bad = [], []
        for traced in ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,):
            gc.collect()
            if traced:
                with tracer.active(i):
                    out, error, t0, t1, busy = clock.timed(root, inp)
            else:
                out, error, t0, t1, busy = clock.timed(wl.op, inp)
            (traced_runs if traced else plain).append((t0, t1, busy))
            if error is not None:
                bad.append(f"raised {type(error).__name__}: {error}")
            else:
                outs.append(out)
        texts = {wl.canon(inp, out) for out in outs}
        if not bad and len(texts) > 1:
            bad.append("traced and plain runs gave different outputs")
        if not bad:
            (text,) = texts
            d = digest(text)
            if slot not in slot_digest:
                bad += wl.recheck(inp, outs[0])
                slot_digest[slot] = d
            elif slot_digest[slot] != d:
                bad.append("a repeated input gave a different output")
            if i < wl.window:
                window.update(d.encode())
        if bad:
            failed += 1
            problems.append({"op": i, "problems": bad[:5]})
        i += 1
    scales = [clock.scale(t0, t1) for t0, t1, _ in plain]
    traced_scales = [clock.scale(t0, t1) for t0, t1, _ in traced_runs]
    return {"ops": i, "failed": failed, "problems": problems[:20],
            "plain_ns": [busy * f for (_, _, busy), f in zip(plain, scales)],
            "traced_ns": [busy * f for (_, _, busy), f in zip(traced_runs, traced_scales)],
            "raw_ns": [busy for _, _, busy in plain], "scales": scales,
            "traced_scales": traced_scales,
            "window_digest": window.hexdigest(), "wall_s": time.perf_counter() - start}


def stored_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def digest_status(wl, seed: int, got: str) -> str:
    """Stored digests cover the standard window of each workload."""
    if wl.window != WORKLOADS[wl.name].window:
        return "not stored"
    want = stored_digests().get(wl.name, {}).get(str(seed))
    if want is None:
        return "not stored"
    return "match" if want == got else "mismatch"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def run_one(wl, seed: int, seconds: float, trace: bool, out_dir: str | None = None) -> dict:
    """One run; with ``out_dir`` a traced run writes its spans there."""
    name = wl.name
    tracer = tracing.Tracer() if trace else None
    setup_tracer = tracing.Tracer() if trace else None
    with SpeedClock() as clock:
        imp_s = import_seconds(clock)
        inputs, gen_s, gen_scale = set_up(wl, seed, clock, setup_tracer)
        gc.collect()
        gc.freeze()
        try:
            res = measure(wl, inputs, seconds, clock, tracer)
        finally:
            gc.unfreeze()
    ok_ops = res["ops"] - res["failed"]
    plain = sorted(res["plain_ns"])
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed, one caller, no threads", "ops": res["ops"], "failed": res["failed"],
        "failed_share": res["failed"] / res["ops"], "latency_samples": len(plain),
        "window_ops": wl.window, "window_digest": res["window_digest"],
        "digest": digest_status(wl, seed, res["window_digest"]),
        "problems": res["problems"], "environment": environment(),
    }
    info["raw_latency_p50_ms"] = statistics.median(res["raw_ns"]) / 1e6
    info["median_scale"] = statistics.median(res["scales"])
    if len(plain) >= 100:
        info["latency_p90_ms"] = percentile(plain, 0.9) / 1e6
    if not trace:
        metrics = {
            "throughput_ops_s": ok_ops / (sum(plain) / 1e9),
            "latency_p50_ms": statistics.median(plain) / 1e6,
            "setup_s": imp_s + gen_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = tracing.per_layer(tracer.spans, res["traced_scales"], set(range(wl.window)))
        metrics["graph.gen_s"] = (tracing.generator_seconds(setup_tracer.spans)
                                  * gen_scale / SETUP_REPS)
        metrics["trace.overhead_ratio"] = statistics.median(
            t / p for t, p in zip(res["traced_ns"], res["plain_ns"]))
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl"))
    info["correct"] = res["failed"] == 0 and info["digest"] != "mismatch"
    info["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return info


def write_result(info: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json")
    with open(path, "w") as fh:
        json.dump(info, fh, indent=1)


# -- every workload at once ----------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_all(seeds: list[int], seconds: float, save: str | None) -> int:
    summary = {"environment": environment(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        runs = [child_run(name, s, seconds, 0) for s in seeds]
        traced = child_run(name, seeds[0], seconds, 1)
        all_correct &= all(r["correct"] for r in runs + [traced])
        entry = {"correct": all(r["correct"] for r in runs + [traced]),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}, "per_layer": {}}
        for metric, unit in END_TO_END.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": unit, "median": statistics.median(vals),
                                           "spread": spread(vals), "values": vals}
        entry["per_layer"] = {k: v for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
        print(f"\n{name}  ({len(seeds)} seeds untraced, seed {seeds[0]} traced; "
              f"attempted {entry['attempted']}, failed {entry['failed']})")
        for metric, m in entry["end_to_end"].items():
            print(f"  {metric:34s} {m['median']:12.4f} {m['unit']:6s} spread {m['spread']:.3f}")
        for metric, m in entry["per_layer"].items():
            print(f"  {metric:34s} {m['value']:12.6g} {m['unit']}")
    if save:
        with open(save, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": all_correct, "workloads": list(WORKLOADS)}))
    return 0 if all_correct else 1


# -- golden digests --------------------------------------------------------------------


def window_digest(name: str, seed: int) -> tuple[str, list]:
    wl = WORKLOADS[name]
    h = hashlib.sha256()
    problems = []
    for i, inp in enumerate(wl.make(seed, wl.window)):
        try:
            out = wl.op(inp)
        except Exception as exc:  # reported with the seed, like a failed re-check
            problems.append(f"op {i} raised {type(exc).__name__}: {exc}")
            continue
        problems += wl.recheck(inp, out)
        h.update(digest(wl.canon(inp, out)).encode())
    return h.hexdigest(), problems


def golden(mode: str, seeds: list[int]) -> int:
    table = stored_digests()
    bad = 0
    for name in WORKLOADS:
        for seed in seeds:
            got, problems = window_digest(name, seed)
            want = table.get(name, {}).get(str(seed))
            state = "written" if mode == "write" else (
                "match" if got == want else "not stored" if want is None else "MISMATCH")
            if problems or state == "MISMATCH":
                bad += 1
            print(f"{name:18s} seed {seed:3d}  {got[:16]}  {state}"
                  + (f"  problems: {problems[:3]}" if problems else ""))
            if mode == "write" and not problems:
                table.setdefault(name, {})[str(seed)] = got
    if mode == "write":
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="seed range A-B for --workload all and --golden")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="with --workload all: write the summary JSON here")
    ap.add_argument("--golden", choices=("check", "write"))
    args = ap.parse_args(argv)
    if args.golden:
        return golden(args.golden, parse_seeds(args.seeds or "0-15"))
    if args.workload is None:
        ap.error("--workload or --golden is required")
    if args.workload == "all":
        return run_all(parse_seeds(args.seeds or str(args.seed)), args.seconds, args.save)
    info = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    write_result(info)
    env = info["environment"]
    print(f"# {info['workload']} seed {info['seed']} trace {info['trace']}: {info['ops']} ops "
          f"({info['latency_samples']} latency samples), failed_share {info['failed_share']:.4f}, "
          f"digest {info['digest']}")
    if "latency_p90_ms" in info:
        print(f"# latency_p90_ms {info['latency_p90_ms']:.4f} over {info['latency_samples']} samples")
    print(f"# python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['git_commit']}, source {env['source_sha256']}")
    for p in info["problems"]:
        print(f"# op {p['op']}: {'; '.join(p['problems'])}")
    print(json.dumps({"correct": info["correct"], "attempted": info["ops"],
                      "failed": info["failed"], "metrics": info["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
