"""Bursty two-user Gaussian interference channel toolkit.

Schedulers for stochastic arrivals, burst-overlap geometry, codeword
reliability bounds, outage-optimal design and achievable rate regions,
plus a Monte Carlo detection/decoding simulator.

Public names load on first use: `import burstgic` runs no submodule, and
the first read of `burstgic.optimize_N` imports `burstgic.design`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_SOURCE = {
    "UserParams": "model",
    "SchemeV": "model",
    "SchemeVI": "model",
    "RatePair": "model",
    "capacity_c": "model",
    "rate_pair": "model",
    "derive_scheme_v": "model",
    "limit_power_rate": "model",
    "stability_ok": "model",
    "BurstLayout": "geometry",
    "ChannelStateS": "geometry",
    "OverlapTriple": "geometry",
    "enumerate_states": "geometry",
    "overlap_profile": "geometry",
    "state_of": "geometry",
    "rate_bound": "reliability",
    "rate_decomp": "reliability",
    "IntervalUnion": "design",
    "OutageCurve": "design",
    "InfeasibleDesignError": "design",
    "active_set": "design",
    "admissible_alpha": "design",
    "d_max": "design",
    "optimize_N": "design",
    "outage": "design",
    "outage_curve": "design",
    "Region2D": "region",
    "rbar_c": "region",
    "region": "region",
    "region_members": "region",
    "sym_curves": "region",
    "sym_region": "region",
    "DetectionConfig": "detection",
    "DetectionRow": "detection",
    "GaussianCodebook": "detection",
    "RxTrace": "detection",
    "TypicalityParams": "detection",
    "channel_run": "detection",
    "decode_codeword": "detection",
    "detection_experiment": "detection",
    "estimate_arrivals": "detection",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package's module type. Importing a submodule binds it on the
    package; a public name never takes such a binding, so
    `burstgic.region` is the function in any import order."""

    def __setattr__(self, name, value):
        if name in _SOURCE and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
