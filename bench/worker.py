"""One cold run of a workload in a fresh interpreter.

``run.py`` starts this script once per sample and writes the request
(workload, generated inputs, whether to trace) to its stdin as JSON.  It
imports the package, runs the workload once with every cache empty, checks
the outputs and prints one JSON line with the timings, the check results
and, when traced, the per-layer metrics.
"""

import json
import platform
import resource
import sys
import time


def main() -> int:
    request = json.load(sys.stdin)
    import numpy

    import aeaqecc
    import aeaqecc.cli  # noqa: F401  (the tables workload enters here)

    import tracer as tracing
    import workloads

    workload, inputs, traced = request["workload"], request["inputs"], request["trace"]
    tracer = patches = None
    if traced:
        originals = [(o, a, o.__dict__[a]) for o, a in tracing.wrapped_attributes(aeaqecc)]
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, aeaqecc)
    t_ready = time.monotonic()
    try:
        t0 = time.perf_counter()
        raw = workloads.run(workload, inputs, aeaqecc)
        wall = time.perf_counter() - t0
    finally:
        if patches is not None:
            tracing.restore(patches)
    result = workloads.check(workload, inputs, raw, aeaqecc)
    result.update(
        t_ready=t_ready,
        wall_s=wall,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    if traced:
        result["layers"] = tracing.layer_metrics(tracer, wall)
        result["restored"] = all(o.__dict__[a] is f for o, a, f in originals)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
