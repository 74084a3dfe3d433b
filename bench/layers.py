"""Per-layer tracing of the burstgic CLI, installed from outside `src/`.

Run as a script, this wraps the public functions listed in LAYERS, runs the
CLI on the remaining arguments, and writes every layer's spans and work
counters to a JSON file:

    python3 bench/layers.py TRACE.json <command> --config CFG --seed SEED

A wrapper is installed wherever the caller looks the name up: every
`burstgic.*` module that binds the same function object gets it (so
`cli.optimize_N`, `design.admissible_alpha` and `design.rate_bound` are all
covered), unless the layer is scoped to one module. Modules are resolved
through `importlib`, because `burstgic.region` on the package is the
function `region`, not the submodule. A name that no longer exists is
reported under "missing", never as zero calls.
"""

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter


def _draw(counts, args, result):
    counts["normals"] += args["M"] * args["n"] + args["nprime"]


def _scan(counts, args, result):
    trace = args["trace"]
    starts = {start for _, start, _ in trace.truth}
    counts["samples"] += trace.y.size
    counts["extra_estimates"] += sum(1 for slot, _ in result
                                     if slot not in starts)


def _decode(counts, args, result):
    from burstgic.detection import DECODE_AMBIGUOUS, DECODE_NONE
    cb = args["codebook"]
    counts["symbols"] += cb.M * cb.n
    counts["none"] += result == DECODE_NONE
    counts["ambiguous"] += result == DECODE_AMBIGUOUS


def _pieces(counts, args, result):
    counts["alpha_pieces"] += len(result) + 1


def _cells(counts, args, result):
    counts["cells"] += result.size


#: (layer, module, attribute, counter, scoped). The attribute may be
#: "Class.method". A scoped layer is wrapped only in its own module.
LAYERS = (
    ("cli.main", "burstgic.cli", "main", None, False),
    ("detection.experiment", "burstgic.detection", "detection_experiment",
     None, False),
    ("detection.draw", "burstgic.detection", "GaussianCodebook.draw", _draw,
     False),
    ("detection.channel", "burstgic.detection", "channel_run", None, False),
    ("detection.scan", "burstgic.detection", "estimate_arrivals", _scan,
     False),
    ("detection.decode", "burstgic.detection", "decode_codeword", _decode,
     False),
    ("design.please1_holds", "burstgic.design", "please1_holds", None, False),
    ("design.outage_curve", "burstgic.design", "outage_curve", None, False),
    ("design.optimize_N", "burstgic.design", "optimize_N", None, False),
    ("design.admissible_alpha", "burstgic.design", "admissible_alpha", None,
     False),
    ("design.inadmissible_alpha", "burstgic.design", "inadmissible_alpha",
     None, False),
    ("design.d_max", "burstgic.design", "d_max", None, False),
    ("design.outage", "burstgic.design", "outage", None, False),
    ("design.active_set", "burstgic.design", "active_set", None, False),
    ("design.rbar_target", "burstgic.design", "rbar_target", None, False),
    ("reliability.rate_bound", "burstgic.reliability", "rate_bound", None,
     False),
    ("geometry.alpha_breakpoints", "burstgic.geometry", "alpha_breakpoints",
     _pieces, False),
    ("model.derive_scheme_v", "burstgic.model", "derive_scheme_v", None,
     False),
    ("region.region", "burstgic.region", "region", None, False),
    ("region.region_members", "burstgic.region", "region_members", _cells,
     False),
    ("region.rate_pair", "burstgic.region", "rate_pair", None, True),
    ("arrivals.delay_gap_experiment", "burstgic.arrivals",
     "delay_gap_experiment", None, False),
    ("arrivals.immediacy_violation_freq", "burstgic.arrivals",
     "immediacy_violation_freq", None, False),
    ("arrivals.run_async_scheduler", "burstgic.arrivals",
     "run_async_scheduler", None, False),
    ("arrivals.run_sync_scheduler", "burstgic.arrivals",
     "run_sync_scheduler", None, False),
)


STATS = (("calls", "count"), ("busy_s", "s"), ("p50_ms", "ms"),
         ("self_s", "s"))


def _all(layer):
    return [(f"{layer}.{stat}", unit, (layer,), lambda L, s=stat: L[0][s])
            for stat, unit in STATS]


def _calls(layer):
    return [(f"{layer}.calls", "count", (layer,), lambda L: L[0]["calls"])]


def _counter(name, layer, key):
    return [(name, "count", (layer,), lambda L: L[0]["counts"].get(key, 0))]


def _retries(L):
    attempts = sum(s["calls"] for s in L)
    raised = sum(s["raised"].get("HorizonTooShortError", 0) for s in L)
    return raised / attempts if attempts else 0.0


#: (metric, unit, layers it reads, value from those layers' trace entries)
REPORTED = (
    ("cli.main.self_s", "s", ("cli.main",), lambda L: L[0]["self_s"]),
    *_all("detection.draw"),
    *_counter("detection.draw.normals", "detection.draw", "normals"),
    *_all("detection.channel"),
    *_all("detection.scan"),
    *_counter("detection.scan.samples", "detection.scan", "samples"),
    *_counter("detection.scan.extra_estimates", "detection.scan",
              "extra_estimates"),
    *_all("detection.decode"),
    *_counter("detection.decode.symbols", "detection.decode", "symbols"),
    *_counter("detection.decode.none", "detection.decode", "none"),
    *_counter("detection.decode.ambiguous", "detection.decode", "ambiguous"),
    *_all("design.optimize_N"),
    *_all("design.admissible_alpha"),
    *_calls("design.inadmissible_alpha"),
    *_calls("design.d_max"),
    *_calls("design.outage"),
    *_all("design.active_set"),
    *_all("design.rbar_target"),
    *_all("reliability.rate_bound"),
    *_calls("geometry.alpha_breakpoints"),
    *_counter("geometry.alpha_pieces", "geometry.alpha_breakpoints",
              "alpha_pieces"),
    *_calls("model.derive_scheme_v"),
    *_all("region.region_members"),
    *_counter("region.cells", "region.region_members", "cells"),
    ("region.power_pairs", "count", ("region.rate_pair",),
     lambda L: L[0]["calls"] / 2),
    *_all("arrivals.run_async_scheduler"),
    *_all("arrivals.run_sync_scheduler"),
    ("arrivals.draw_self_s", "s",
     ("arrivals.delay_gap_experiment", "arrivals.immediacy_violation_freq"),
     lambda L: sum(s["self_s"] for s in L)),
    ("arrivals.horizon_retries", "ratio",
     ("arrivals.run_async_scheduler", "arrivals.run_sync_scheduler"),
     _retries),
)


def work_counts(trace: dict) -> dict:
    """The parts of a trace that must repeat exactly for a fixed seed."""
    return {layer: (s["calls"], s["counts"], s["raised"])
            for layer, s in trace["layers"].items()}


def report(traces) -> tuple:
    """({metric: (unit, value per trace)}, missing layers) from the
    traces of one run's traced children."""
    missing = sorted({layer for t in traces for layer in t["missing"]})
    out = {}
    for name, unit, needs, value in REPORTED:
        if any(layer in missing for layer in needs):
            continue
        out[name] = (unit, [value([t["layers"][layer] for layer in needs])
                            for t in traces])
    return out, missing


class Tracer:
    """Spans and counters per layer, kept in memory until dump()."""

    def __init__(self):
        self.durations = {}
        self.self_s = {}
        self.counts = {}
        self.raised = {}
        self.missing = []
        self._open = []  # child time accumulated by each open span

    def _wrap(self, layer, fn, counter):
        durations = self.durations.setdefault(layer, [])
        counts = self.counts.setdefault(layer, Counter())
        raised = self.raised.setdefault(layer, Counter())
        self.self_s.setdefault(layer, 0.0)
        sig = inspect.signature(fn) if counter else None
        spans = self._open
        perf = time.perf_counter

        def traced(*args, **kwargs):
            spans.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                raised[type(e).__name__] += 1
                raise
            finally:
                dur = perf() - t0
                child = spans.pop()
                if spans:
                    spans[-1] += dur
                durations.append(dur)
                self.self_s[layer] += dur - child
            if counter:
                counter(counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every listed layer; names that cannot be found go to
        self.missing."""
        for layer, modname, attr, counter, scoped in LAYERS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.missing.append(layer)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.append(layer)
                    continue
                setattr(cls, meth,
                        classmethod(self._wrap(layer, raw.__func__, counter)))
                continue
            fn = vars(owner).get(attr)
            if not callable(fn):
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, fn, counter)
            sites = [owner] if scoped else [
                m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "burstgic" and m is not None]
            for mod in sites:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, name, wrapper)

    def dump(self) -> dict:
        layers = {}
        for layer, durs in self.durations.items():
            layers[layer] = {
                "calls": len(durs),
                "busy_s": sum(durs),
                "p50_ms": statistics.median(durs) * 1e3 if durs else 0.0,
                "self_s": self.self_s[layer],
                "counts": dict(self.counts[layer]),
                "raised": dict(self.raised[layer]),
            }
        return {"layers": layers, "missing": self.missing}


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    import burstgic.cli
    tracer = Tracer()
    tracer.install()
    try:
        return burstgic.cli.main(cli_argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
