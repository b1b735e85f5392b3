"""Recurrent layers: vanilla RNN cell, GRU cell, and sequence wrappers.

The LightTR embedding model is a GRU over the observed trajectory
(paper Eq. 5-6); the lightweight ST-operator uses a single RNN layer
(paper Eq. 7).  Both are implemented here on the autograd substrate.

The sequence wrappers run **fused kernels**: the whole ``(B, T)`` scan
runs forward in NumPy and registers a *single* tape node whose backward
is a hand-written BPTT — input/weight gradients collapse into a few
large matmuls over the ``(B*T, ·)`` flattened sequence.  The cells'
tape ``forward`` (one cell call, ~10 tape nodes, per timestep) drives
the per-step tape decoders (the ST-operator's and the baselines');
unrolled over a sequence it is the test oracle the fused scans are
pinned to
(``tests/nn/test_fused_recurrent.py``).
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .kernels import call_kernel
from .functional import concat
from .module import Module, Parameter
from .tensor import (
    Tensor,
    _node,
    sigmoid_forward,
    tanh_backward,
    zeros,
)

__all__ = [
    "RNNCell", "GRUCell", "LSTMCell", "RNN", "GRU", "LSTM",
    "fused_rnn_scan", "fused_gru_scan", "fused_lstm_scan",
]


def _mask_keep(mask: np.ndarray | None, batch: int, steps: int,
               dtype=np.float64) -> np.ndarray | None:
    """Validity mask as float ``(B, T, 1)`` for broadcasting, or None.

    ``dtype`` follows the scan's compute dtype so the carry mix never
    upcasts the hidden-state arithmetic.
    """
    if mask is None:
        return None
    return np.asarray(mask, dtype=dtype).reshape(batch, steps, 1)


# ----------------------------------------------------------------------
# fused sequence kernels
#
# Each scan's sequential loop is factored into a forward/backward pair
# run through :func:`repro.nn.kernels.call_kernel` under a stable kernel
# name.  Loops write through preallocated buffers to avoid per-step
# temporaries.
# ----------------------------------------------------------------------
def _rnn_forward_ref(xw, h0, w_h_data, keep):
    """Kernel ``"rnn_scan_forward"``: the Elman recurrence; returns
    ``(raw, hs)`` (tanh pre-carry outputs and carried states)."""
    batch, steps, hidden = xw.shape
    dtype = xw.dtype
    raw = np.empty((batch, steps, hidden), dtype)
    hs = raw if keep is None else np.empty((batch, steps, hidden), dtype)
    pre = np.empty((batch, hidden), dtype)
    h = h0
    for t in range(steps):
        np.matmul(h, w_h_data, out=pre)
        pre += xw[:, t]
        ht = np.tanh(pre, out=raw[:, t])
        if keep is None:
            h = ht
        else:
            kt = keep[:, t]
            h = ht * kt + h * (1.0 - kt)
            hs[:, t] = h
    return raw, hs


def _rnn_backward_ref(grad, raw, keep, w_h_t):
    """Kernel ``"rnn_scan_backward"``: returns ``(dpre, dh)``."""
    batch, steps, hidden = raw.shape
    dtype = raw.dtype
    dtanh = np.empty((batch, steps, hidden), dtype)
    dpre = np.empty((batch, steps, hidden), dtype)
    dcarry = np.empty((batch, hidden), dtype)
    np.multiply(raw, raw, out=dtanh)
    np.subtract(1.0, dtanh, out=dtanh)
    dh = np.zeros((batch, hidden), dtype)
    for t in range(steps - 1, -1, -1):
        np.add(grad[:, t], dh, out=dcarry)
        if keep is not None:
            kt = keep[:, t]
            d_raw = dcarry * kt
            carry_through = dcarry * (1.0 - kt)
        else:
            d_raw = dcarry
            carry_through = None
        dp = np.multiply(d_raw, dtanh[:, t], out=dpre[:, t])
        np.matmul(dp, w_h_t, out=dh)
        if carry_through is not None:
            dh += carry_through
    return dpre, dh


def fused_rnn_scan(x: Tensor, h0: Tensor, w_x: Tensor, w_h: Tensor,
                   bias: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Whole-sequence Elman RNN scan as one tape node.

    ``x`` is ``(B, T, D)``, ``h0`` is ``(B, H)``; returns the carried
    hidden states ``(B, T, H)``.  Where ``mask`` is false the state is
    carried through unchanged (padding), matching the per-step driver.
    """
    batch, steps, in_dim = x.shape
    hidden = w_h.shape[0]
    dtype = x.data.dtype
    keep = _mask_keep(mask, batch, steps, dtype)

    # Input projection (+ bias) for every timestep in one matmul; only
    # the (B, H) @ (H, H) recurrence stays inside the time loop, written
    # through preallocated buffers to avoid per-step temporaries.
    xw = (x.data.reshape(batch * steps, in_dim) @ w_x.data).reshape(
        batch, steps, hidden)
    xw += bias.data
    w_h_data = w_h.data
    raw, hs = call_kernel("rnn_scan_forward", _rnn_forward_ref,
                          xw, h0.data, w_h_data, keep)

    def backward(grad, stage):
        grad = np.asarray(grad)
        # tanh derivative for every step at once (one full-array pass);
        # only the sequential dh propagation stays in the loop.
        dpre, dh = call_kernel("rnn_scan_backward", _rnn_backward_ref,
                               grad, raw, keep, w_h_data.T)
        flat_dpre = dpre.reshape(batch * steps, hidden)
        stage(x, (flat_dpre @ w_x.data.T).reshape(batch, steps, in_dim))
        stage(h0, dh)
        stage(w_x, x.data.reshape(batch * steps, in_dim).T @ flat_dpre)
        h_prev = np.concatenate([h0.data[:, None, :], hs[:, :-1]], axis=1)
        stage(w_h, h_prev.reshape(batch * steps, hidden).T @ flat_dpre)
        # Bias grads reduce over B*T terms: accumulate in float64 (the
        # stage hand-off rounds once back to the compute dtype).
        stage(bias, dpre.sum(axis=(0, 1), dtype=np.float64))

    return _node(hs, (x, h0, w_x, w_h, bias), backward)


def _gru_forward_ref(xg, xh, h0, w_gh, w_hh, keep):
    """Kernel ``"gru_scan_forward"``: the GRU recurrence; returns
    ``(gates, cand_seq, hs)``."""
    batch, steps, hidden = xh.shape
    dtype = xh.dtype
    gates = np.empty((batch, steps, 2 * hidden), dtype)  # [r, z] per step
    cand_seq = np.empty((batch, steps, hidden), dtype)  # h~ candidates
    hs = np.empty((batch, steps, hidden), dtype)
    pre_g = np.empty((batch, 2 * hidden), dtype)
    pre_c = np.empty((batch, hidden), dtype)
    rh = np.empty((batch, hidden), dtype)
    mix_a = np.empty((batch, hidden), dtype)
    mix_b = np.empty((batch, hidden), dtype)
    h = h0
    for t in range(steps):
        # r and z in one (B, H) @ (H, 2H) matmul + in-place sigmoid.
        np.matmul(h, w_gh, out=pre_g)
        pre_g += xg[:, t]
        rz = sigmoid_forward(pre_g, out=gates[:, t])
        r, z = rz[:, :hidden], rz[:, hidden:]
        np.multiply(r, h, out=rh)
        np.matmul(rh, w_hh, out=pre_c)
        pre_c += xh[:, t]
        cand = np.tanh(pre_c, out=cand_seq[:, t])
        # h' = (1 - z) * h + z * cand, buffered.
        np.subtract(1.0, z, out=mix_a)
        mix_a *= h
        np.multiply(z, cand, out=mix_b)
        if keep is None:
            h = np.add(mix_a, mix_b, out=hs[:, t])
        else:
            h_new = mix_a + mix_b
            kt = keep[:, t]
            h = h_new * kt + h * (1.0 - kt)
            hs[:, t] = h
    return gates, cand_seq, hs


def _gru_backward_ref(grad, gates, cand_seq, hs, h0, w_gh_t, w_hh_t, keep):
    """Kernel ``"gru_scan_backward"``: returns ``(dpre_g, dpre_h, dh)``."""
    batch, steps, hidden = cand_seq.shape
    dtype = cand_seq.dtype
    dsig = np.empty((batch, steps, 2 * hidden), dtype)
    dtanh = np.empty((batch, steps, hidden), dtype)
    dpre_g = np.empty((batch, steps, 2 * hidden), dtype)
    dpre_h = np.empty((batch, steps, hidden), dtype)
    # Activation derivatives for every step in two full-array passes
    # (sigmoid: s*(1-s); tanh: 1-c^2); the loop keeps only the
    # sequential dh propagation.
    np.subtract(1.0, gates, out=dsig)
    np.multiply(gates, dsig, out=dsig)
    np.multiply(cand_seq, cand_seq, out=dtanh)
    np.subtract(1.0, dtanh, out=dtanh)
    dh = np.zeros((batch, hidden), dtype)
    for t in range(steps - 1, -1, -1):
        h_prev = hs[:, t - 1] if t > 0 else h0
        rz, cand = gates[:, t], cand_seq[:, t]
        r, z = rz[:, :hidden], rz[:, hidden:]
        dcarry = grad[:, t] + dh
        if keep is not None:
            kt = keep[:, t]
            dnew = dcarry * kt
            dh = dcarry * (1.0 - kt)
        else:
            dnew = dcarry
            dh = 0.0
        dz = dnew * (cand - h_prev)
        dcand = dnew * z
        dh = dh + dnew * (1.0 - z)
        dph = np.multiply(dcand, dtanh[:, t], out=dpre_h[:, t])
        d_rh = dph @ w_hh_t
        dh = dh + d_rh * r
        dpg = dpre_g[:, t]
        np.multiply(d_rh, h_prev, out=dpg[:, :hidden])
        dpg[:, hidden:] = dz
        dpg *= dsig[:, t]
        dh = dh + dpg @ w_gh_t
    return dpre_g, dpre_h, dh


def fused_gru_scan(x: Tensor, h0: Tensor, w_r: Tensor, w_z: Tensor,
                   w_h: Tensor, b_r: Tensor, b_z: Tensor, b_h: Tensor,
                   mask: np.ndarray | None = None) -> Tensor:
    """Whole-sequence GRU scan (paper Eq. 5) as one tape node.

    The joint weights ``w_* (H+D, H)`` act on ``[h, x]``; the input
    halves are projected for all timesteps up front, leaving only the
    ``(B, H) @ (H, H)`` recurrent matmuls inside the time loop.
    """
    batch, steps, in_dim = x.shape
    hidden = b_r.shape[0]
    dtype = x.data.dtype
    keep = _mask_keep(mask, batch, steps, dtype)

    w_rh, w_rx = w_r.data[:hidden], w_r.data[hidden:]
    w_zh, w_zx = w_z.data[:hidden], w_z.data[hidden:]
    w_hh, w_hx = w_h.data[:hidden], w_h.data[hidden:]
    # One input projection for all timesteps and both sigmoid gates
    # (+ bias folded in); the candidate projection is separate because
    # its recurrent input is r*h.
    x_flat = x.data.reshape(batch * steps, in_dim)
    xg = (x_flat @ np.concatenate([w_rx, w_zx], axis=1)).reshape(
        batch, steps, 2 * hidden)
    xg += np.concatenate([b_r.data, b_z.data])
    xh = (x_flat @ w_hx).reshape(batch, steps, hidden)
    xh += b_h.data
    w_gh = np.concatenate([w_rh, w_zh], axis=1)  # (H, 2H) recurrent gates

    gates, cand_seq, hs = call_kernel("gru_scan_forward", _gru_forward_ref,
                                      xg, xh, h0.data, w_gh, w_hh, keep)

    def backward(grad, stage):
        grad = np.asarray(grad)
        dpre_g, dpre_h, dh = call_kernel(
            "gru_scan_backward", _gru_backward_ref,
            grad, gates, cand_seq, hs, h0.data, w_gh.T, w_hh.T, keep)
        flat = batch * steps
        fg = dpre_g.reshape(flat, 2 * hidden)
        fr, fz = fg[:, :hidden], fg[:, hidden:]
        fh = dpre_h.reshape(flat, hidden)
        stage(x, (fg @ np.concatenate([w_rx, w_zx], axis=1).T
                  + fh @ w_hx.T).reshape(batch, steps, in_dim))
        stage(h0, dh)
        h_prev_seq = np.concatenate([h0.data[:, None, :], hs[:, :-1]], axis=1)
        hp = h_prev_seq.reshape(flat, hidden)
        rh_seq = (gates[:, :, :hidden] * h_prev_seq).reshape(flat, hidden)
        xf = x.data.reshape(flat, in_dim)
        stage(w_r, np.concatenate([hp.T @ fr, xf.T @ fr], axis=0))
        stage(w_z, np.concatenate([hp.T @ fz, xf.T @ fz], axis=0))
        stage(w_h, np.concatenate([rh_seq.T @ fh, xf.T @ fh], axis=0))
        # Bias grads: float64 accumulation, rounded once at the stage.
        stage(b_r, fr.sum(axis=0, dtype=np.float64))
        stage(b_z, fz.sum(axis=0, dtype=np.float64))
        stage(b_h, dpre_h.sum(axis=(0, 1), dtype=np.float64))

    return _node(hs, (x, h0, w_r, w_z, w_h, b_r, b_z, b_h), backward)


def _lstm_forward_ref(xi, xf, xo, xg, state0, w_ih, w_fh, w_oh, w_gh,
                      b_i, b_f, b_o, b_g, keep):
    """Kernel ``"lstm_scan_forward"``: returns ``(gates, tc_seq, states)``
    (all escape into the backward closure)."""
    batch, steps, hidden = xi.shape
    dtype = xi.dtype
    gates = np.empty((batch, steps, 4, hidden), dtype)  # i, f, o, g
    tc_seq = np.empty((batch, steps, hidden), dtype)  # tanh(c_next)
    states = np.empty((batch, steps, 2 * hidden), dtype)  # carried [h, c]
    st = state0
    for t in range(steps):
        h, c = st[:, :hidden], st[:, hidden:]
        i = sigmoid_forward(h @ w_ih + xi[:, t] + b_i)
        f = sigmoid_forward(h @ w_fh + xf[:, t] + b_f)
        o = sigmoid_forward(h @ w_oh + xo[:, t] + b_o)
        g = np.tanh(h @ w_gh + xg[:, t] + b_g)
        c_next = f * c + i * g
        tc = np.tanh(c_next)
        h_next = o * tc
        gates[:, t, 0], gates[:, t, 1] = i, f
        gates[:, t, 2], gates[:, t, 3] = o, g
        tc_seq[:, t] = tc
        st_new = np.concatenate([h_next, c_next], axis=-1)
        if keep is not None:
            kt = keep[:, t]
            st = st_new * kt + st * (1.0 - kt)
        else:
            st = st_new
        states[:, t] = st
    return gates, tc_seq, states


def _lstm_backward_ref(grad, gates, tc_seq, states, state0,
                       w_ih, w_fh, w_oh, w_gh, keep):
    """Kernel ``"lstm_scan_backward"``: returns ``(dpre, dst)``."""
    batch, steps, _, hidden = gates.shape
    dtype = tc_seq.dtype
    dpre = np.empty((batch, steps, 4, hidden), dtype)  # i, f, o, g pre-acts
    dst = np.zeros((batch, 2 * hidden), dtype)
    for t in range(steps - 1, -1, -1):
        st_prev = states[:, t - 1] if t > 0 else state0
        h_prev, c_prev = st_prev[:, :hidden], st_prev[:, hidden:]
        i, f = gates[:, t, 0], gates[:, t, 1]
        o, g = gates[:, t, 2], gates[:, t, 3]
        tc = tc_seq[:, t]
        dcarry = grad[:, t] + dst
        if keep is not None:
            kt = keep[:, t]
            dnew = dcarry * kt
            dst = dcarry * (1.0 - kt)
        else:
            dnew = dcarry
            dst = 0.0
        dh_next = dnew[:, :hidden]
        dc = dnew[:, hidden:] + tanh_backward(dh_next * o, tc)
        do = dh_next * tc
        di, dg = dc * g, dc * i
        df, dc_prev = dc * c_prev, dc * f
        dpi = di * i * (1.0 - i)
        dpf = df * f * (1.0 - f)
        dpo = do * o * (1.0 - o)
        dpg = tanh_backward(dg, g)
        dpre[:, t, 0], dpre[:, t, 1] = dpi, dpf
        dpre[:, t, 2], dpre[:, t, 3] = dpo, dpg
        dh_prev = dpi @ w_ih.T + dpf @ w_fh.T + dpo @ w_oh.T + dpg @ w_gh.T
        dst = dst + np.concatenate([dh_prev, dc_prev], axis=-1)
    return dpre, dst


def fused_lstm_scan(x: Tensor, state0: Tensor, w_i: Tensor, w_f: Tensor,
                    w_o: Tensor, w_g: Tensor, b_i: Tensor, b_f: Tensor,
                    b_o: Tensor, b_g: Tensor,
                    mask: np.ndarray | None = None) -> Tensor:
    """Whole-sequence LSTM scan as one tape node.

    The state is the ``[h, c]`` concatenation (matching
    :class:`LSTMCell`), so ``state0`` is ``(B, 2H)`` and the output is
    ``(B, T, 2H)`` of carried states.
    """
    batch, steps, in_dim = x.shape
    hidden = b_i.shape[0]
    dtype = x.data.dtype
    keep = _mask_keep(mask, batch, steps, dtype)

    w_ih, w_ix = w_i.data[:hidden], w_i.data[hidden:]
    w_fh, w_fx = w_f.data[:hidden], w_f.data[hidden:]
    w_oh, w_ox = w_o.data[:hidden], w_o.data[hidden:]
    w_gh, w_gx = w_g.data[:hidden], w_g.data[hidden:]
    x_flat = x.data.reshape(batch * steps, in_dim)
    xi = (x_flat @ w_ix).reshape(batch, steps, hidden)
    xf = (x_flat @ w_fx).reshape(batch, steps, hidden)
    xo = (x_flat @ w_ox).reshape(batch, steps, hidden)
    xg = (x_flat @ w_gx).reshape(batch, steps, hidden)

    gates, tc_seq, states = call_kernel(
        "lstm_scan_forward", _lstm_forward_ref,
        xi, xf, xo, xg, state0.data, w_ih, w_fh, w_oh, w_gh,
        b_i.data, b_f.data, b_o.data, b_g.data, keep)

    def backward(grad, stage):
        grad = np.asarray(grad)
        dpre, dst = call_kernel(
            "lstm_scan_backward", _lstm_backward_ref,
            grad, gates, tc_seq, states, state0.data,
            w_ih, w_fh, w_oh, w_gh, keep)
        flat = batch * steps
        fi = dpre[:, :, 0].reshape(flat, hidden)
        ff = dpre[:, :, 1].reshape(flat, hidden)
        fo = dpre[:, :, 2].reshape(flat, hidden)
        fg = dpre[:, :, 3].reshape(flat, hidden)
        stage(x, (fi @ w_ix.T + ff @ w_fx.T + fo @ w_ox.T + fg @ w_gx.T)
              .reshape(batch, steps, in_dim))
        stage(state0, dst)
        st_prev_seq = np.concatenate([state0.data[:, None, :], states[:, :-1]],
                                      axis=1)
        hp = st_prev_seq[:, :, :hidden].reshape(flat, hidden)
        xfm = x.data.reshape(flat, in_dim)
        stage(w_i, np.concatenate([hp.T @ fi, xfm.T @ fi], axis=0))
        stage(w_f, np.concatenate([hp.T @ ff, xfm.T @ ff], axis=0))
        stage(w_o, np.concatenate([hp.T @ fo, xfm.T @ fo], axis=0))
        stage(w_g, np.concatenate([hp.T @ fg, xfm.T @ fg], axis=0))
        # Bias grads: float64 accumulation, rounded once at the stage.
        stage(b_i, dpre[:, :, 0].sum(axis=(0, 1), dtype=np.float64))
        stage(b_f, dpre[:, :, 1].sum(axis=(0, 1), dtype=np.float64))
        stage(b_o, dpre[:, :, 2].sum(axis=(0, 1), dtype=np.float64))
        stage(b_g, dpre[:, :, 3].sum(axis=(0, 1), dtype=np.float64))

    return _node(states, (x, state0, w_i, w_f, w_o, w_g, b_i, b_f, b_o, b_g),
                 backward)


class RNNCell(Module):
    """Elman RNN cell: ``h' = tanh(x @ W_x + h @ W_h + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(initializers.xavier_uniform((input_size, hidden_size), rng))
        self.w_h = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng))
        self.bias = Parameter(initializers.zeros_init((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return (x @ self.w_x + h @ self.w_h + self.bias).tanh()

    def step_array(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One tape-free cell step on raw arrays (decode-engine kernel).

        Mirrors :meth:`forward` operation by operation — same expression,
        same association — so packed decode sessions stepping a
        *compacted* subset of batch rows reproduce the per-row values of
        the full-batch tape path.
        """
        return np.tanh(x @ self.w_x.data + h @ self.w_h.data + self.bias.data)

    def scan(self, x: Tensor, h0: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Fused whole-sequence scan (see :func:`fused_rnn_scan`)."""
        return fused_rnn_scan(x, h0, self.w_x, self.w_h, self.bias, mask=mask)

    def initial_state(self, batch: int) -> Tensor:
        """Zero hidden state of shape ``(batch, hidden)``."""
        return zeros(batch, self.hidden_size)


class GRUCell(Module):
    """Gated recurrent unit cell (paper Eq. 5).

    ``r = sigma(W_r [h, x] + b_r)``; ``z = sigma(W_z [h, x] + b_z)``;
    ``h~ = tanh(W_h [r*h, x] + b_h)``; ``h' = (1-z)*h + z*h~``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        joint = input_size + hidden_size
        self.w_r = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.w_z = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.w_h = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.b_r = Parameter(initializers.zeros_init((hidden_size,)))
        self.b_z = Parameter(initializers.zeros_init((hidden_size,)))
        self.b_h = Parameter(initializers.zeros_init((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hx = concat([h, x], axis=-1)
        r = (hx @ self.w_r + self.b_r).sigmoid()
        z = (hx @ self.w_z + self.b_z).sigmoid()
        rhx = concat([r * h, x], axis=-1)
        h_tilde = (rhx @ self.w_h + self.b_h).tanh()
        return (1.0 - z) * h + z * h_tilde

    def step_array(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One tape-free cell step on raw arrays (decode-engine kernel).

        Mirrors :meth:`forward` operation by operation (including the
        clipped :func:`~repro.nn.tensor.sigmoid_forward`) so packed
        decode sessions stepping a compacted subset of batch rows
        reproduce the per-row values of the full-batch tape path.
        """
        hx = np.concatenate([h, x], axis=-1)
        r = sigmoid_forward(hx @ self.w_r.data + self.b_r.data)
        z = sigmoid_forward(hx @ self.w_z.data + self.b_z.data)
        rhx = np.concatenate([r * h, x], axis=-1)
        h_tilde = np.tanh(rhx @ self.w_h.data + self.b_h.data)
        return (1.0 - z) * h + z * h_tilde

    def scan(self, x: Tensor, h0: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Fused whole-sequence scan (see :func:`fused_gru_scan`)."""
        return fused_gru_scan(x, h0, self.w_r, self.w_z, self.w_h,
                              self.b_r, self.b_z, self.b_h, mask=mask)

    def initial_state(self, batch: int) -> Tensor:
        """Zero hidden state of shape ``(batch, hidden)``."""
        return zeros(batch, self.hidden_size)


class LSTMCell(Module):
    """Long short-term memory cell (encoder-ablation alternative to GRU).

    The hidden state is carried as the concatenation ``[h, c]`` of the
    output and cell states so LSTM plugs into the same sequence driver
    as the other cells; ``initial_state`` returns ``(batch, 2H)``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        joint = input_size + hidden_size
        self.w_i = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.w_f = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.w_o = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.w_g = Parameter(initializers.xavier_uniform((joint, hidden_size), rng))
        self.b_i = Parameter(initializers.zeros_init((hidden_size,)))
        # Forget-gate bias starts at 1: the standard trick for gradient flow.
        self.b_f = Parameter(np.ones(hidden_size))
        self.b_o = Parameter(initializers.zeros_init((hidden_size,)))
        self.b_g = Parameter(initializers.zeros_init((hidden_size,)))

    def forward(self, x: Tensor, state: Tensor) -> Tensor:
        h = state[:, : self.hidden_size]
        c = state[:, self.hidden_size :]
        hx = concat([h, x], axis=-1)
        i = (hx @ self.w_i + self.b_i).sigmoid()
        f = (hx @ self.w_f + self.b_f).sigmoid()
        o = (hx @ self.w_o + self.b_o).sigmoid()
        g = (hx @ self.w_g + self.b_g).tanh()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return concat([h_next, c_next], axis=-1)

    def step_array(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """One tape-free cell step on raw ``[h, c]`` arrays (decode-engine
        kernel); the exact operation-order mirror of :meth:`forward`."""
        h = state[:, : self.hidden_size]
        c = state[:, self.hidden_size:]
        hx = np.concatenate([h, x], axis=-1)
        i = sigmoid_forward(hx @ self.w_i.data + self.b_i.data)
        f = sigmoid_forward(hx @ self.w_f.data + self.b_f.data)
        o = sigmoid_forward(hx @ self.w_o.data + self.b_o.data)
        g = np.tanh(hx @ self.w_g.data + self.b_g.data)
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        return np.concatenate([h_next, c_next], axis=-1)

    def scan(self, x: Tensor, state0: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Fused whole-sequence scan (see :func:`fused_lstm_scan`)."""
        return fused_lstm_scan(x, state0, self.w_i, self.w_f, self.w_o,
                               self.w_g, self.b_i, self.b_f, self.b_o,
                               self.b_g, mask=mask)

    def initial_state(self, batch: int) -> Tensor:
        """Zero ``[h, c]`` state of shape ``(batch, 2 * hidden)``."""
        return zeros(batch, 2 * self.hidden_size)


class _SequenceRNN(Module):
    """Shared driver that unrolls a cell over a ``(B, T, D)`` input."""

    cell: Module

    def forward(self, x: Tensor, h0: Tensor | None = None,
                mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Run the cell over time.

        Parameters
        ----------
        x:
            Input of shape ``(B, T, D)``.
        h0:
            Optional initial state ``(B, H)``.
        mask:
            Optional boolean validity mask ``(B, T)``; where false, the
            hidden state is carried through unchanged (padding steps).

        Returns
        -------
        (outputs, last_state):
            ``outputs`` is ``(B, T, H)`` of per-step hidden states and
            ``last_state`` is the final ``(B, H)`` state.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, D) input, got shape {x.shape}")
        h0 = h0 if h0 is not None else self.cell.initial_state(x.shape[0])
        outputs = self.cell.scan(x, h0, mask=mask)
        return outputs, outputs[:, -1, :]


class RNN(_SequenceRNN):
    """Unrolled Elman RNN over a batch of sequences."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = RNNCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size


class GRU(_SequenceRNN):
    """Unrolled GRU over a batch of sequences (the LTE embedding model)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size


class LSTM(_SequenceRNN):
    """Unrolled LSTM; exposes only the ``h`` part of the state.

    Outputs and the final state have width ``hidden_size`` like the
    other wrappers (the internal cell state stays private), so LSTM is
    a drop-in encoder replacement for the GRU ablation.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, h0: Tensor | None = None,
                mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        outputs, last = super().forward(x, h0=h0, mask=mask)
        return outputs[:, :, : self.hidden_size], last[:, : self.hidden_size]
