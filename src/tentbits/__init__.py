"""Tent-map pseudo-random bit generator in polarized fixed point.

The word model (`core`) is the reference implementation; `netlist`
models the same machine at gate level; `analysis` provides randomness
and chaos diagnostics; `cli` wraps everything for reproducible runs.
The package exports the names the demos and the README use; import
anything else from its module.
"""

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
from .netlist import (
    StructuralError,
    build_tent_netlist,
    element_stats,
    export_text,
    parse_text,
    run,
)
from .analysis import (
    EstimationError,
    autocorrelation,
    cycle_census,
    cycle_detect,
    cycle_table,
    first_return_pairs,
    histogram,
    lyapunov_rosenstein,
    shannon_entropy,
)

__version__ = "0.1.0"
