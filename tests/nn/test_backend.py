"""The hot-kernel call point :func:`repro.nn.call_kernel`.

It is a named pass-through: tracers wrap it by name, and it must neither
change a kernel's arguments or result nor hide a kernel's failure.
"""

from __future__ import annotations

import pytest

from repro import nn


class TestCallKernel:
    def test_forwards_arguments_and_returns_the_result(self):
        calls = []

        def kernel(*args):
            calls.append(args)
            return ("result", args)

        marker = object()
        assert nn.call_kernel("k", kernel, 1, marker) == ("result",
                                                           (1, marker))
        assert calls == [(1, marker)]

    def test_kernel_errors_propagate(self):
        def broken():
            raise RuntimeError("kernel exploded")

        with pytest.raises(RuntimeError, match="kernel exploded"):
            nn.call_kernel("k", broken)
