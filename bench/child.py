"""One measured process of the benchmark; ``run.py`` starts a fresh one per
sample, so no process-global cache of qcluster carries over between samples.

    python3 bench/child.py MODE WORKLOAD SEED T0 [SPANS_PATH]

MODE is ``setup`` (import and build the models, then stop), ``run`` (also
execute the workload untraced) or ``trace`` (execute it with every traced
call wrapped, then save the spans to SPANS_PATH).  T0 is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is system-wide, so ``setup_s`` counts interpreter start-up too.
The last line on stdout is a JSON object with the measurements and, for
each command, its exit code, the SHA-256 of its stdout and its report
verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    mode, workload, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    quivers = workloads.QUIVERS[workload]
    cmds = workloads.steps(workload, seed)

    import qcluster
    import qcluster.cli
    if not qcluster.__file__.startswith(SRC + os.sep):
        raise SystemExit("imported qcluster from %s, not from %s" % (qcluster.__file__, SRC))
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(qcluster)
    for name in quivers:
        qcluster.catalog.get(name).model
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    main_fn = qcluster.cli.main
    outputs = []
    start = time.perf_counter()
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main_fn(cmd)
        outputs.append((cmd, code, buf.getvalue()))
    out["verdict_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["steps"] = [describe(cmd, code, text) for cmd, code, text in outputs]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(argv[4])
    return out


def describe(cmd, code, text):
    """Exit code, digest and report verdicts of one command's stdout."""
    reports = 1
    failed = 0
    if "--json" in cmd:
        try:
            listed = json.loads(text)
        except ValueError:
            listed = None
        if isinstance(listed, list):
            reports = max(1, len(listed))
            failed = sum(1 for r in listed if r.get("verdict") == "fail")
    return {"cmd": " ".join(cmd), "code": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "reports": reports, "failed_reports": failed}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    print(json.dumps(result))
