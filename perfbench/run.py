"""Benchmark of the semisobolev command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 1      # every workload

Run from the root of a checkout; the package is imported from its `src/`.
Each invocation runs one CLI command in a fresh interpreter (probe.py), so
caches start cold as a CLI user pays for them, with the OpenBLAS, OpenMP
and SEMISOBOLEV thread counts pinned to 1.  A run makes a fixed number of
invocations, enough to fill --seconds at the reference speed (at least
one; Workload.cost_s), adds import-only interpreters until SETUP_SAMPLES
set-up times exist, checks every output (workloads.py) and reports
medians.  With --trace 1 one traced invocation follows and the per-layer
metrics are reported instead; its spans, self-time table and run record
are written to perfbench_out/.  --seed is passed to the CLI; the four
subcommands fix their solver seeds internally, so it changes no input.

Shared machines change speed by up to half for minutes at a time, so each
invocation is pinned to one CPU and times a small fixed pure-Python kernel
every 0.1 s on it (probe.SpeedMeter).  Times are reported at the reference
speed: measured seconds x METER_REF_S / the invocation's median kernel
time.  The kernel does not use the package, so a change to the package
moves these times as it moves the measured ones; the measured values are
printed and kept in the run record too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Outcome, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
OUT_DIR = os.path.join(ROOT, "perfbench_out")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "SEMISOBOLEV_THREADS": "1"}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 175.0         # every invocation of a run ends before this
YIELD_TOL = 1e-6            # a restart "yields" within this of the best value
# Median time of probe.SpeedMeter's kernel on the reference machine (2-core
# Intel Xeon, Python 3.11) when it is not contended.  Timings are reported
# at that speed: seconds measured x METER_REF_S / the invocation's median.
METER_REF_S = 1.25e-3


def _metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def invoke(w: Workload | None, seed: int, work: str, trace: bool,
           deadline: float) -> dict:
    """One fresh interpreter; w=None only imports (a set-up sample)."""
    os.makedirs(work)
    src = os.path.join(ROOT, "src")
    argv = ["--seed", str(seed)] + [a.replace("{work}", work)
                                    for a in (w.argv if w else ())]
    result_path = os.path.join(work, "result.json")
    env = {**os.environ, **PINNED, "PYTHONPATH": src, "TMPDIR": work,
           "PYTHONHASHSEED": "0"}
    spec = {"src": src, "argv": argv, "trace": trace, "setup_only": w is None,
            "result": result_path, "cpu": min(os.sched_getaffinity(0))}
    with open(os.path.join(work, "stdout.txt"), "w") as out, \
            open(os.path.join(work, "stderr.txt"), "w") as err:
        spec["t0"] = time.monotonic()
        try:
            rc = subprocess.run([sys.executable, PROBE, json.dumps(spec)],
                                cwd=ROOT, env=env, stdout=out, stderr=err,
                                timeout=max(1.0, deadline - time.monotonic())
                                ).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0 or not os.path.exists(result_path):
        with open(os.path.join(work, "stderr.txt")) as f:
            tail = f.read()[-2000:]
        return {"error": f"probe exit {rc}: {tail}"}
    with open(result_path) as f:
        return json.load(f)


def _speed(res: dict) -> float:
    """Factor that rescales this invocation's timings to the reference speed."""
    return METER_REF_S / res["meter_s"] if res.get("meter_s") else 1.0


def self_times(spans: list) -> dict:
    """Per span: its duration minus the part its children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_table(spans: list, wall: float) -> list:
    own = self_times(spans)
    rows: dict = {}
    for s in spans:
        r = rows.setdefault(s[1], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s[3] - s[2]
        r[2] += own[s[0]]
    return sorted(((name, n, tot, slf, slf / wall) for name, (n, tot, slf)
                   in rows.items()), key=lambda r: -r[3])


def layer_metrics(out: Outcome, traced_wall: float, speed: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics of a traced invocation; times rescaled by `speed`."""
    def dur(name):
        return speed * sum(s[3] - s[2] for s in out.named(name))

    def infos(name):
        return [s[5] for s in out.named(name) if s[5]]

    own = self_times(out.spans)
    mins = [s for s in out.named("minimize.minimize_quotient") if s[5]]
    iters = sum(s[5]["iterations"] for s in mins)
    yields = [abs(r - min(s[5]["restart_values"]))
              <= YIELD_TOL * max(1.0, abs(min(s[5]["restart_values"])))
              for s in mins for r in s[5]["restart_values"]]
    constants = (out.named("models.interior_constant")
                 + out.named("models.boundary_constant"))
    solved = {a[0] for s in mins for a in out.ancestor_spans(s)}
    avoided = sum(1 for s in constants if s[0] not in solved)
    forms = infos("discretize.assemble") + infos("waveguide.assemble")
    lu = infos("discretize.precond_setup")
    return {
        "discretize.build_grid.calls": len(out.named("discretize.build_grid")),
        "discretize.build_grid.s": dur("discretize.build_grid"),
        "discretize.assemble.calls": len(out.named("discretize.assemble")),
        "discretize.assemble.s": dur("discretize.assemble"),
        "discretize.free_nodes.max": max((f["free_nodes"] for f in forms), default=0),
        "discretize.precond_setup.calls": len(lu),
        "discretize.precond_setup.s": dur("discretize.precond_setup"),
        "discretize.precond_lu_nnz.max": max((i["lu_nnz"] for i in lu), default=0),
        "discretize.precond_solve.calls": len(out.named("discretize.precond_solve")),
        "discretize.precond_solve.s": dur("discretize.precond_solve"),
        "discretize.precond_solve.bytes": sum(i["bytes"] for i in
                                              infos("discretize.precond_solve")),
        "minimize.calls": len(mins),
        "minimize.self_s": speed * sum(own[s[0]] for s in mins),
        "minimize.iterations": iters,
        "minimize.restarts": len(yields),
        "minimize.unconverged": sum(1 for s in mins if not s[5]["converged"]),
        "minimize.ms_per_iter": 1e3 * dur("minimize.minimize_quotient") / iters
        if iters else 0.0,
        "minimize.restart_yield": sum(yields) / len(yields) if yields else 0.0,
        "models.interior_constant.calls": len(out.named("models.interior_constant")),
        "models.interior_constant.s": dur("models.interior_constant"),
        "models.boundary_constant.calls": len(out.named("models.boundary_constant")),
        "models.boundary_constant.s": dur("models.boundary_constant"),
        "models.grid_solves": len(out.solves("models.interior_constant"))
        + len(out.solves("models.boundary_constant")),
        "models.solve_avoided_ratio": avoided / len(constants) if constants else 0.0,
        "asymptotics.large_domain.s": dur("asymptotics.large_domain"),
        "asymptotics.rung_iterations": sum(
            i["iterations"] for i in out.solves(
                "asymptotics.large_domain", not_under=("models.boundary_constant",))),
        "waveguide.assemble.s": dur("waveguide.assemble"),
        "waveguide.straight_reference.s": dur("waveguide.straight_reference"),
        "waveguide.straight_reference.solves": len(
            out.solves("waveguide.straight_reference")),
        "waveguide.rung_iterations": sum(
            i["iterations"] for i in out.solves(
                "waveguide.waveguide_sweep",
                not_under=("waveguide.straight_reference",))),
        "model1d.integrate_trajectory.calls": len(
            out.named("model1d.integrate_trajectory")),
        "model1d.integrate_trajectory.s": dur("model1d.integrate_trajectory"),
        "model1d.nfev": sum(i["nfev"] for i in infos("model1d.solve_ivp")),
        "model1d.escape_time.s": dur("model1d.escape_time"),
        "cli.write.s": dur("cli.write"),
        "cli.write.bytes": sum(i["bytes"] for i in infos("cli.write")),
        "trace.wall_s": speed * traced_wall,
        "trace.overhead_s": speed * traced_wall - untraced_wall,
        "trace.layer_share": sum(own.values()) / traced_wall,
    }


def _git_head() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next(ln.split()[0] for ln in f if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "none (not a git checkout)"


def environment(seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "semisobolev")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "commit": _git_head(),
            "src_sha256": digest.hexdigest()[:16], "threads": PINNED,
            "cli_seed": seed}


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            deadline: float, metric_spec: dict) -> dict:
    scratch = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        return _measure(w, seed, seconds, trace, deadline, metric_spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(w, seed, seconds, trace, deadline, metric_spec, scratch) -> dict:
    runs, verdicts, errors, setups = [], [], [], []
    # a fixed count, so that attempted and failed repeat from run to run
    for k in range(max(1, math.ceil(seconds / w.cost_s))):
        work = os.path.join(scratch, f"inv{k}")
        res = invoke(w, seed, work, False, deadline)
        if "error" in res:
            errors.append(res["error"])
            verdicts.append(w.check(w, Outcome(None, work, [])))
            break
        runs.append(res)
        setups.append(res["setup_s"] * _speed(res))
        verdicts.append(w.check(w, Outcome(res["rc"], work, res["spans"])))
    while runs and len(setups) < SETUP_SAMPLES:
        res = invoke(None, seed, os.path.join(scratch, f"setup{len(setups)}"),
                     False, deadline)
        if "error" in res:
            errors.append(res["error"])
            break
        setups.append(res["setup_s"] * _speed(res))
    traced = layers = traced_verdict = None
    if trace and runs and not errors:
        work = os.path.join(scratch, "traced")
        traced = invoke(w, seed, work, True, deadline)
        if "error" in traced:
            errors.append(traced["error"])
        else:
            out = Outcome(traced["rc"], work, traced["spans"])
            traced_verdict = w.check(w, out)
            layers = layer_metrics(
                out, traced["wall_s"], _speed(traced),
                statistics.median(r["wall_s"] * _speed(r) for r in runs))

    e2e = raw = {}
    if runs:
        e2e = {"wall_s": statistics.median(r["wall_s"] * _speed(r) for r in runs),
               "setup_s": statistics.median(setups),
               "cpu_s": statistics.median(r["cpu_s"] * _speed(r) for r in runs),
               "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024}
        raw = {"wall_s": statistics.median(r["wall_s"] for r in runs),
               "cpu_s": statistics.median(r["cpu_s"] for r in runs),
               "meter_s": statistics.median(r["meter_s"] for r in runs)}
    attempted = sum(v.ops for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    # the traced invocation's outputs are checked too, but counted only in
    # `correct`, so that attempted and failed compare across --trace 0 and 1
    correct = bool(runs) and not errors and not any(
        v.wrong for v in verdicts + ([traced_verdict] if traced_verdict else []))
    wanted = metric_spec["per_layer" if trace else "end_to_end"]
    source = layers if trace else e2e
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items() if source and name in source}
    if len(metrics) != len(wanted):
        correct = False
    return {
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "e2e": e2e, "raw": raw, "layers": layers, "invocations": len(runs),
        "setup_samples": len(setups), "verdicts": verdicts, "errors": errors,
        "rcs": [r["rc"] for r in runs],
        "versions": (runs[0]["versions"] if runs else {}),
        "traced": traced if layers else None,
    }


def report(w: Workload, m: dict, metric_spec: dict, env: dict) -> None:
    """Human-readable block; trace files go to perfbench_out/."""
    print(f"== {w.name}   (semisobolev {' '.join(w.argv)})")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   {m['invocations']} invocation(s), exit codes {m['rcs']}, "
          f"{m['setup_samples']} set-up samples; values are medians, times "
          f"at the reference CPU speed")
    units = metric_spec["end_to_end"]
    for name, value in m["e2e"].items():
        print(f"   {name:<14} {value:12.4f} {units.get(name, '')}")
    if m["raw"]:
        print(f"   as measured: wall_s {m['raw']['wall_s']:.4f} s, cpu_s "
              f"{m['raw']['cpu_s']:.4f} s, speed-meter kernel "
              f"{m['raw']['meter_s'] * 1e3:.4f} ms (reference {METER_REF_S * 1e3} ms)")
    res = m["result"]
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"   {'failed_frac':<14} {frac:12.4f} ratio   "
          f"(ops={res['attempted']}, failed={res['failed']})")
    seen = set()
    for v in m["verdicts"]:
        for note in v.notes:
            if note not in seen:
                seen.add(note)
                print(f"   check: {note}")
        for i, reasons in enumerate(v.reasons):
            for reason in sorted(reasons):
                if (i, reason) not in seen:
                    seen.add((i, reason))
                    print(f"   failed output {i}: {reason}")
    for e in m["errors"]:
        print(f"   ERROR: {e}")
    if m["layers"] is None:
        return
    units = metric_spec["per_layer"]
    print("   per-layer metrics (traced invocation):")
    for name, value in m["layers"].items():
        print(f"   {name:<40} {value:16.6g} {units.get(name, '')}")
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = m["traced"]
    table = layer_table(traced["spans"], traced["wall_s"])
    lines = [f"{'span (times as measured)':<34} {'calls':>7} {'total_s':>10} "
             f"{'self_s':>10} {'self/wall':>9}"]
    lines += [f"{n:<34} {c:>7d} {t:>10.4f} {s:>10.4f} {f:>9.1%}"
              for n, c, t, s, f in table]
    lay = m["layers"]
    lines.append(f"at reference speed: traced wall_s {lay['trace.wall_s']:.4f}; "
                 f"untraced median {m['e2e']['wall_s']:.4f}; tracing overhead "
                 f"{lay['trace.overhead_s']:+.4f} s; listed layers cover "
                 f"{lay['trace.layer_share']:.1%} of traced wall_s")
    base = os.path.join(OUT_DIR, w.name)
    with open(base + ".layers.txt", "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(base + ".spans.jsonl", "w") as f:
        for s in traced["spans"]:
            f.write(json.dumps(dict(zip(("id", "name", "start", "end",
                                         "parent", "info"), s))) + "\n")
    with open(base + ".run.json", "w") as f:
        json.dump({"workload": w.name, "argv": list(w.argv), "env": env,
                   "end_to_end": m["e2e"], "as_measured": m["raw"],
                   "per_layer": lay,
                   "result": m["result"]}, f, indent=2)
    print("   self time by span:")
    for ln in lines:
        print(f"   {ln}")
    print(f"   wrote {base}.layers.txt, .spans.jsonl, .run.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semisobolev", "cli.py")):
        print(f"no semisobolev source under {ROOT}/src", file=sys.stderr)
        return 2
    metric_spec = _metric_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    for name in names:
        w = WORKLOADS[name]
        m = measure(w, args.seed, args.seconds, bool(args.trace), deadline,
                    metric_spec)
        if not m["invocations"]:
            print(f"{name}: no invocation completed:", *m["errors"],
                  sep="\n", file=sys.stderr)
            return 1
        report(w, m, metric_spec, environment(args.seed, m["versions"]))
        results[name] = m["result"]
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
