"""qcluster benchmark: end-to-end timings and per-layer counters of three
``qcluster`` workloads, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every sample is a fresh interpreter
(``child.py``): qcluster keeps process-global caches (``catalog._STORES``,
the ``lru_cache`` of ``homogeneous_points``, ``ClusterModel._tori`` and the
never-reset ``DEFAULT_BUDGET``), so a repeat inside one process would time
warm caches and slowly use up the default budget.

With ``--trace 0`` it reports the ``end_to_end`` metrics of BENCHMARK.json;
with ``--trace 1`` the ``per_layer`` ones, from traced samples, each paired
with an untraced one to measure the tracing overhead.  Every command's
stdout is checked against the golden SHA-256 in ``golden.json``.  The last
line of stdout is the JSON result; a record with every sample and the
machine's state goes to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_BATCH = 3         # set-up-only processes before each workload sample
SETUP_SAMPLES = 9       # and at least this many per run, after one warm-up
DEADLINE_S = 170        # the whole run, children included


class BenchError(RuntimeError):
    pass


def spawn(mode, workload, seed, timeout, spans=None):
    """Start one child, wait for it, and return its parsed result."""
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "child.py"),
           mode, workload, str(seed)]
    t0 = time.perf_counter()
    cmd.append(repr(t0))
    if spans:
        cmd.append(spans)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s sample of %s exceeded %.0f s" % (mode, workload, timeout)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s sample of %s exited with %d:\n%s"
                         % (mode, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def score(samples, golden):
    """(attempted, failed) checks over the samples' commands.

    Each report of a ``--json`` command is one check, and a command without
    reports is one.  A report with verdict ``fail`` fails; every check of a
    command fails when its exit code is not 0 (a failed check, or 3 for an
    aborting budget) or its stdout digest is not the golden one.
    """
    attempted = failed = 0
    for sample in samples:
        for step in sample["steps"]:
            attempted += step["reports"]
            if step["code"] != 0 or golden.get(step["cmd"]) != step["sha256"]:
                failed += step["reports"]
            else:
                failed += step["failed_reports"]
    return attempted, failed


def environment():
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": loadavg}


def measure(workload, seed, seconds, trace, deadline):
    """Run the samples of one benchmark run; return (untraced, traced, setups).

    Set-up samples come in batches between the workload samples, so that
    they spread over the run like the workload samples do.
    """
    def sample(mode, spans=None):
        return spawn(mode, workload, seed, deadline - time.perf_counter(), spans)

    sample("setup")    # warm-up: writes the bytecode caches
    setups, untraced, traced = [], [], []
    spans = os.path.join(OUT, "spans-%s.bin" % workload)
    count = None
    while count is None or len(untraced) < count:
        setups += [sample("setup")["setup_s"] for _ in range(SETUP_BATCH)]
        t = time.perf_counter()
        untraced.append(sample("run"))
        if trace:
            traced.append(sample("trace", spans))
        now = time.perf_counter()
        if count is None:
            # as many samples as come closest to the requested time
            count = max(1, round(seconds / (now - t)))
        if now + (now - t) > deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample("setup")["setup_s"])
    return untraced, traced, setups


def end_to_end(untraced, setups, attempted, failed):
    return {
        "setup_s": statistics.median(setups + [s["setup_s"] for s in untraced]),
        "verdict_s": statistics.median(s["verdict_s"] for s in untraced),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        "failed_frac": failed / attempted,
    }


def per_layer(untraced, traced):
    first = traced[0]["layers"]
    for other in traced[1:]:
        moved = [k for k, v in first.items()
                 if not k.endswith("_s") and other["layers"][k] != v]
        if moved:
            raise BenchError("traced counts differ between samples: %s" % ", ".join(moved))
    out = {k: statistics.median(s["layers"][k] for s in traced) if k.endswith("_s") else v
           for k, v in first.items()}
    out["trace.overhead_frac"] = (statistics.median(s["verdict_s"] for s in traced)
                                  / statistics.median(s["verdict_s"] for s in untraced) - 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.QUIVERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "qcluster", "cli.py")):
        raise BenchError("no qcluster sources under %s" % os.path.join(ROOT, "src"))
    with open(spec_path) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    env = environment()
    os.makedirs(OUT, exist_ok=True)

    untraced, traced, setups = measure(args.workload, args.seed, args.seconds,
                                       args.trace, deadline)
    attempted, failed = score(untraced + traced, golden)
    values = end_to_end(untraced, setups, attempted, failed)
    declared = spec["end_to_end"]
    if args.trace:
        values.update(per_layer(untraced, traced))
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples": setups,
              "untraced": untraced, "traced": traced, "values": values}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print("# %s seed=%d trace=%d python=%s nproc=%s loadavg=%s"
          % (args.workload, args.seed, args.trace, env["python"], env["nproc"], env["loadavg"]))
    print("# %d untraced and %d traced samples, %d set-up samples"
          % (len(untraced), len(traced), len(setups) + len(untraced)))
    shown = spec["end_to_end"] + [{"name": "failed_frac", "unit": "1"}]
    if args.trace:
        shown += declared
    for m in shown:
        print("%-44s %14.6f %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        sys.exit(1)
