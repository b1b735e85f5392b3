"""Equivalence of the fused sequence kernels with the per-step tape path.

The fused RNN/GRU/LSTM scans register one tape node with a hand-written
BPTT backward; these tests pin them to the per-step reference
implementation of ``reference_paths`` (outputs, input/initial-state
gradients, and every parameter gradient to atol 1e-10) and check the
fused backward against central finite differences directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import Linear
from repro.nn.recurrent import _SequenceRNN
from repro.nn.tensor import Tensor
from reference_paths import reference_kernels

LAYERS = [("rnn", nn.RNN), ("gru", nn.GRU), ("lstm", nn.LSTM)]


def _run_layer(layer, x_data, mask, h0_data, fused):
    """One forward + seeded backward; returns outputs and all grads."""
    with reference_kernels(not fused):
        x = Tensor(x_data, requires_grad=True)
        h0 = Tensor(h0_data, requires_grad=True) if h0_data is not None else None
        layer.zero_grad()
        outputs, last = layer(x, h0=h0, mask=mask)
        seed = np.linspace(-1.0, 1.0, outputs.size).reshape(outputs.shape)
        (outputs * Tensor(seed)).sum().backward()
    return {
        "outputs": outputs.data.copy(),
        "last": last.data.copy(),
        "x_grad": x.grad.copy(),
        "h0_grad": h0.grad.copy() if h0 is not None else None,
        "param_grads": {name: p.grad.copy()
                        for name, p in layer.named_parameters()},
    }


@pytest.mark.parametrize("name,cls", LAYERS)
@pytest.mark.parametrize("with_mask", [False, True])
@pytest.mark.parametrize("with_h0", [False, True])
def test_fused_matches_stepwise(name, cls, with_mask, with_h0, fresh_rng,
                                float_tol):
    layer = cls(3, 5, np.random.default_rng(11))
    x_data = fresh_rng.standard_normal((4, 7, 3))
    mask = fresh_rng.random((4, 7)) > 0.3 if with_mask else None
    if with_h0:
        width = 10 if name == "lstm" else 5
        h0_data = fresh_rng.standard_normal((4, width))
    else:
        h0_data = None

    fused = _run_layer(layer, x_data, mask, h0_data, fused=True)
    stepwise = _run_layer(layer, x_data, mask, h0_data, fused=False)

    # float64 keeps the historical 1e-12/1e-10 contract; at float32
    # both paths run float32 kernels but round in different op orders
    # (the fused scan accumulates bias grads in float64, the tape per
    # step), so values agree to the audited float32 tolerance instead.
    out_tol = max(float_tol, 1e-12)
    grad_tol = max(float_tol, 1e-10)
    np.testing.assert_allclose(fused["outputs"], stepwise["outputs"],
                               atol=out_tol)
    np.testing.assert_allclose(fused["last"], stepwise["last"], atol=out_tol)
    np.testing.assert_allclose(fused["x_grad"], stepwise["x_grad"],
                               atol=grad_tol)
    if with_h0:
        np.testing.assert_allclose(fused["h0_grad"], stepwise["h0_grad"],
                                   atol=grad_tol)
    for key, grad in fused["param_grads"].items():
        np.testing.assert_allclose(grad, stepwise["param_grads"][key],
                                   atol=grad_tol, err_msg=f"{name}.{key}")


@pytest.mark.parametrize("name,cls", LAYERS)
@pytest.mark.float64_only  # eps=1e-6 central differences round away
def test_fused_backward_matches_finite_differences(name, cls, fresh_rng):
    """Central finite differences over every parameter of a small scan."""
    layer = cls(2, 3, np.random.default_rng(5))
    x_data = fresh_rng.standard_normal((2, 4, 2))
    seed = np.linspace(0.5, 1.5, 2 * 4 * layer.hidden_size).reshape(
        2, 4, layer.hidden_size)

    def loss_value():
        with nn.no_grad():
            outputs, _ = layer(Tensor(x_data))
        return float((outputs.data * seed).sum())

    x = Tensor(x_data, requires_grad=True)
    layer.zero_grad()
    outputs, _ = layer(x)
    (outputs * Tensor(seed)).sum().backward()

    eps = 1e-6
    for pname, param in layer.named_parameters():
        flat = param.data.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            original = flat[idx]
            flat[idx] = original + eps
            up = loss_value()
            flat[idx] = original - eps
            down = loss_value()
            flat[idx] = original
            numeric = (up - down) / (2 * eps)
            analytic = param.grad.reshape(-1)[idx]
            assert abs(numeric - analytic) < 1e-4, (
                f"{name}.{pname}[{idx}]: fd {numeric} vs grad {analytic}"
            )


def test_reference_kernels_scope_restores_fused_paths():
    fused = (_SequenceRNN.forward, Linear.forward)
    with pytest.raises(RuntimeError):
        with reference_kernels():
            assert (_SequenceRNN.forward, Linear.forward) != fused
            raise RuntimeError("leave the block early")
    assert (_SequenceRNN.forward, Linear.forward) == fused


def test_fused_scan_without_grad_records_no_tape(fresh_rng):
    gru = nn.GRU(2, 3, fresh_rng)
    with nn.no_grad():
        outputs, _ = gru(Tensor(fresh_rng.standard_normal((2, 5, 2))))
    assert not outputs.requires_grad
    assert outputs._parents == ()
