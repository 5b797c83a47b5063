"""Tent-map pseudo-random bit generator in polarized fixed point.

The word model (`core`) is the reference implementation; `netlist`
models the same machine at gate level; `analysis` provides randomness
and chaos diagnostics; `cli` wraps everything for reproducible runs.
The package exports the names the demos and the README use; import
anything else from its module.

`import tentbits` loads `core` (and through it `gf2`) only.  The
`netlist` and `analysis` exports, and those two submodules as
attributes, are imported on first access (PEP 562), so a program that
only generates never compiles them.  `from tentbits import cycle_census`
works as before and returns `analysis.cycle_census` itself.
"""

import importlib

from .core import (
    BitWidth,
    MapConfig,
    decode,
    decode_exact,
    decode_series,
    encode,
    iterate,
    output_array,
    output_stream,
    step,
    tent_exact,
)

# the deferred submodules, each with the exports it defines
_DEFERRED = {
    "netlist": ("StructuralError", "build_tent_netlist", "element_stats", "export_text",
                "parse_text", "run"),
    "analysis": ("EstimationError", "autocorrelation", "cycle_census", "cycle_detect",
                 "cycle_table", "first_return_pairs", "histogram", "lyapunov_rosenstein",
                 "shannon_entropy"),
}

__version__ = "0.1.0"


def __getattr__(name: str):
    for module, exports in _DEFERRED.items():
        if name == module:
            return importlib.import_module(f".{module}", __name__)
        if name in exports:
            # read from the submodule on every access, not cached here, so
            # the export is always the submodule's current function
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED, *(n for names in _DEFERRED.values() for n in names)})
