"""One benchmark child: a fresh interpreter that imports ``blamebox.cli``,
says so on stdout, runs the workload's command lines in-process through
``blamebox.cli.main`` and writes what it measured to a JSON file.

    python3 perfbench/child.py '<spec json>'

The spec holds ``argvs`` (command lines, possibly none), ``trace`` (wrap the
layers listed in layers.py), ``facts`` (report library versions) and
``result`` (where to write the outcome). run.py times the interval from
starting this interpreter to the ``ready`` line, which is the start-up cost
every CLI command pays.
"""
import json
import os
import resource
import sys
import time
import traceback


def _library_facts() -> dict:
    import ctypes

    import numpy
    import scipy

    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = None
    # Thread count of the BLAS numpy loaded, through its own entry point.
    facts["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                facts["blas_library"] = os.path.basename(path)
                break
        if facts["blas_threads"] is not None:
            break
    return facts


def _reference_s() -> float:
    """Wall time of a fixed piece of work that runs no blamebox code: an
    interpreter loop and small numpy products, the two kinds of work the
    workloads are made of. It tells run.py how fast the machine is
    running at the moment."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    a = np.full((30, 8), 0.5)
    w = np.full((8, 8), 0.1)
    for _ in range(12_000):
        a = np.tanh(a @ w + 0.5)  # stays near 0.6, clear of subnormal slow paths
    return time.perf_counter() - start


def main() -> None:
    import blamebox.cli as cli  # the first real work: set-up ends here
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout = sys.stderr  # the pipe to run.py carries the ready line only

    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from layers import TARGETS
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(TARGETS)
    codes, error = [], None
    reference = [_reference_s()]
    start = time.perf_counter()
    try:
        for argv in spec["argvs"]:
            codes.append(cli.main(argv))
    except Exception:  # reported as a failed operation, never re-raised
        error = traceback.format_exc()
    solve_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
    reference.append(_reference_s())
    out = {
        "codes": codes,
        "error": error,
        "solve_s": solve_s,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "blamebox_file": cli.__file__,
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counters"] = tracer.counters
        out["span_records"] = [[s.id, s.name, s.start, s.end, s.parent, s.thread]
                               for s in tracer.spans]
    if spec.get("facts"):
        out["facts"] = _library_facts()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
