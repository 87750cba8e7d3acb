"""One traced `morilab run`, spans kept in memory and written at the end.

    python3 benchmarks/trace_run.py SPANS.json <morilab run arguments>

Wraps the public functions of each layer at every name the package looks
them up under (a `from` import binds a second name, so `propagate` is
wrapped in `morilab.chain`, `morilab.experiment` and `morilab.cli`).  Run it
with `--workers 1`: spans of worker processes would not be seen.  A span
is [name, layer, start, end, parent index, measure]; the measure is the
propagated site-steps, the fit restarts or the least-squares evaluations.
"""

import functools
import importlib
import json
import sys
import time

# layer -> functions it owns, looked up by name in its own module
TARGETS = {
    "chain": ("propagate",),
    "design": ("gaussian_chain", "exponential_chain", "edo_chain",
               "linear_continuation"),
    "reverse": ("fourier_of_correlation", "lanczos_from_spectrum"),
    "perturb": ("draw_noise", "apply_draw"),
    "fitting": ("fit", "detect_equilibration", "epsilon", "sigma"),
    "experiment": ("run_scenario", "build_families"),
    "cli": ("emit_run_outputs",),
}
MODULES = tuple(TARGETS)
MEASURES = {
    "chain.propagate": lambda args, result: args[0].d * (len(result) - 1),
    "fitting.fit": lambda args, result: result.restarts_used,
    "fitting.least_squares": lambda args, result: int(result.nfev),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name: str, layer: str):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result
        return traced


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every module-level name bound to a target function."""
    replace = {}
    for layer, names in TARGETS.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            replace[id(fn)] = tracer.wrap(fn, f"{layer}.{fname}", layer)
    render_all = modules["cli"].render_all
    replace[id(render_all)] = tracer.wrap(render_all, "svgplot.render_all", "svgplot")
    lsq = modules["fitting"].least_squares
    replace[id(lsq)] = tracer.wrap(lsq, "fitting.least_squares", "fitting")
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    modules = {name: importlib.import_module(f"morilab.{name}") for name in MODULES}
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer, modules)
    run = tracer.wrap(modules["cli"].main, "cli.main", "cli")
    code = run(argv)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
