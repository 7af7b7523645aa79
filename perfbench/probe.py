"""One benchmark invocation of the semisobolev CLI in a fresh interpreter.

    python3 probe.py SPEC_JSON

SPEC_JSON names the source tree, the CLI argv, the CPU to pin to, the
parent's monotonic clock reading taken just before this process was
spawned (`t0`), whether to trace, and where to write the result.  The
result records

- setup_s: interpreter start to entering `cli.main` (the numpy, scipy and
  semisobolev imports),
- wall_s: entering `cli.main` to its return,
- cpu_s and maxrss_kb of this process, taken right after `cli.main` returns,
- meter_s: the median SpeedMeter kernel time over the process's life,
- spans around the package's public functions, wrapped from outside.

A few coarse functions are always wrapped, because the correctness checks
need to know which minimizer calls stood behind which output row (a few
dozen calls per run).  With tracing on, the per-iteration and per-grid
layers are wrapped as well; the package itself is not edited.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback


class Tracer:
    """Spans kept in memory: [id, name, start, end, parent id, info]."""

    def __init__(self, t_ref: float):
        self.t_ref = t_ref
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            span = [len(self.spans), name, time.perf_counter() - self.t_ref,
                    None, stack[-1][0] if stack else None, None]
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter() - self.t_ref
        self._stack().pop()

    def wrap(self, func, name: str, info=None):
        """Wrapper that records a span per call; `info(args, result)` adds data."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind every semisobolev module global that refers to `original`.

    Modules import functions by name (`from .minimize import
    minimize_quotient`), so each importing module holds its own reference.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("semisobolev"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _minimize_info(args, kwargs, res):
    return {"iterations": int(res.iterations), "converged": bool(res.converged),
            "restart_values": [float(v) for v in res.restart_values],
            "lam": float(res.lam)}


def _interior_info(args, kwargs, value):     # interior_constant(B0, V0, p)
    return {"p": float(kwargs.get("p", args[2])), "value": float(value)}


def _boundary_info(args, kwargs, value):     # boundary_constant(B0, V0, gamma0, p)
    return {"p": float(kwargs.get("p", args[3])), "value": float(value)}


class _TracedLU:
    """Factorization proxy whose `solve` records a span and computed bytes."""

    def __init__(self, lu, tracer: Tracer, solve_bytes: int):
        self._lu = lu
        self._tracer = tracer
        self._solve_bytes = solve_bytes

    def solve(self, *args, **kwargs):
        span = self._tracer.open("discretize.precond_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(span)
            span[5] = {"bytes": self._solve_bytes}

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer, trace: bool) -> None:
    from semisobolev import (_util, asymptotics, discretize, minimize, model1d,
                             models, waveguide)

    hooks = [
        (minimize, "minimize_quotient", "minimize.minimize_quotient", _minimize_info),
        (models, "interior_constant", "models.interior_constant", _interior_info),
        (models, "boundary_constant", "models.boundary_constant", _boundary_info),
        (asymptotics, "large_domain", "asymptotics.large_domain", None),
        (waveguide, "waveguide_sweep", "waveguide.waveguide_sweep", None),
        (waveguide, "straight_reference", "waveguide.straight_reference",
         lambda a, k, v: {"value": float(v)}),
    ]
    if trace:
        hooks += [
            (discretize, "build_grid", "discretize.build_grid", None),
            (discretize, "assemble", "discretize.assemble",
             lambda a, k, form: {"free_nodes": int(form.n)}),
            (waveguide, "assemble_waveguide_form", "waveguide.assemble",
             lambda a, k, form: {"free_nodes": int(form.n)}),
            (model1d, "integrate_trajectory", "model1d.integrate_trajectory", None),
            (model1d, "solve_ivp", "model1d.solve_ivp",
             lambda a, k, sol: {"nfev": int(sol.nfev)}),
            (model1d, "escape_time", "model1d.escape_time", None),
            (_util, "atomic_write", "cli.write",
             lambda a, k, _: {"bytes": len(k.get("text", a[1]).encode())}),
        ]
    for mod, attr, name, info in hooks:
        original = getattr(mod, attr)
        _replace_everywhere(original, tracer.wrap(original, name, info))
    if trace:
        _trace_preconditioner(discretize.AssembledForm, tracer)


def _trace_preconditioner(cls, tracer: Tracer) -> None:
    original = cls.preconditioner

    @functools.wraps(original)
    def preconditioner(self):
        if self._prec is not None:
            return original(self)
        span = tracer.open("discretize.precond_setup")
        try:
            lu = original(self)
        finally:
            tracer.close(span)
        L, U = lu.L, lu.U
        nnz = int(L.nnz + U.nnz)
        per_entry = L.data.dtype.itemsize + L.indices.dtype.itemsize
        span[5] = {"lu_nnz": nnz}
        self._prec = _TracedLU(lu, tracer, nnz * per_entry)
        return self._prec

    cls.preconditioner = preconditioner


class SpeedMeter(threading.Thread):
    """Times a fixed pure-Python kernel every PERIOD_S for the process's life.

    The process is pinned to one CPU, so the kernel runs interleaved with
    the workload on the CPU the workload runs on; the median kernel time
    says how fast that CPU was during this invocation.  It costs about 1%
    of the CPU, the same in every run.
    """

    PERIOD_S = 0.1

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list = []
        self._done = threading.Event()

    @staticmethod
    def kernel() -> int:
        s = 0
        for i in range(20000):
            s += i * i
        return s

    def run(self) -> None:
        while not self._done.wait(self.PERIOD_S):
            t = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - t)

    def median(self) -> float | None:
        self._done.set()
        self.join()
        return statistics.median(self.samples) if self.samples else None


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    meter = SpeedMeter()
    meter.start()
    from semisobolev import cli      # numpy, scipy and the package: set-up

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"semisobolev imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if not spec["setup_only"]:
        tracer = Tracer(time.perf_counter())
        install(tracer, spec["trace"])
    t_enter = time.monotonic()
    result: dict = {"setup_s": t_enter - spec["t0"]}
    if not spec["setup_only"]:
        start = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except Exception:           # a crash is a failed invocation, not a lost run
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rc=rc, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_kb=usage.ru_maxrss, spans=tracer.spans)
    result["meter_s"] = meter.median()
    result["versions"] = _versions()
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
