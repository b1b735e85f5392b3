"""The hot-kernel call point.

Multi-step kernels (the fused RNN/GRU/LSTM scans, the log-softmax
cores, the sparse mask step and the packed decode step) run through
:func:`call_kernel` under a stable kernel name.  It adds nothing
to the call; it gives tracers and profilers one named place to wrap.
Each kernel module binds it at module level
(``from .kernels import call_kernel``), so wrap it there.
"""

from __future__ import annotations

__all__ = ["call_kernel"]


def call_kernel(name: str, kernel, *args):
    """Run hot kernel ``kernel(*args)``; ``name`` labels the call."""
    return kernel(*args)
