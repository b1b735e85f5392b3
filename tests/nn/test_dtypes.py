"""Flat parameter vectors are float64, and the float32 wire is a codec.

Gathers allocate float64 whatever the parameters' compute dtype, so the
optimisers' master precision and the federated exchange's exact form
never depend on a process-global knob.  Reduced wire precision is the
``"float32"`` exchange codec; its federated-level effect (ledger bytes,
serial == parallel) is covered in ``tests/federated``.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.federated import codec_by_name
from repro.nn.flatten import FlatLayout, FlatParameterSpace
from repro.nn.module import Parameter


def make_space():
    params = [Parameter(np.arange(6, dtype=np.float64).reshape(2, 3), name="w"),
              Parameter(np.ones(4), name="b")]
    return FlatParameterSpace(params)


class TestFlatVectors:
    def test_get_flat_allocates_float64_for_any_compute_dtype(self):
        for compute in ("float64", "float32"):
            with nn.use_compute_dtype(compute):
                space = make_space()
                flat = space.get_flat()
            assert flat.dtype == np.float64
            assert flat.nbytes == space.total_size * 8
            np.testing.assert_array_equal(flat, np.r_[np.arange(6), np.ones(4)])

    def test_out_buffer_is_filled_in_place(self):
        space = make_space()
        out = np.empty(space.total_size)
        assert space.get_flat(out=out) is out

    def test_flatten_state_allocates_float64(self):
        state = {"w": np.zeros((2, 3), dtype=np.float32), "b": np.ones(4)}
        layout = FlatLayout.from_state(state)
        assert layout.flatten_state(state).dtype == np.float64
        # unflatten always restores float64 state arrays.
        assert layout.unflatten(np.zeros(10, dtype=np.float32))["w"].dtype == np.float64

    def test_float32_codec_roundtrip_restores_parameters_within_eps(self):
        # The contract under test is float64 *storage* with a float32
        # wire, so pin the compute dtype rather than inherit a forced
        # float32 substrate.
        codec = codec_by_name("float32")
        with nn.use_compute_dtype("float64"):
            space = make_space()
            original = space.get_flat()
            payload = codec.encode(original)
            assert payload.values.dtype == np.float32
            space.set_flat(codec.decode(payload))
            # Parameters remain float64 storage; values rounded to float32.
            assert space.parameters[0].data.dtype == np.float64
            np.testing.assert_allclose(space.get_flat(), original, rtol=1e-7)

    def test_set_flat_rounds_into_each_parameter_storage_dtype(self):
        # set_flat is where float64 master values meet the storage
        # dtype: a float32 parameter rounds, a float64 one stays exact,
        # and the gather upcasts the float32 slice exactly.
        with nn.use_compute_dtype("float32"):
            narrow = Parameter(np.zeros(3), name="narrow")
        with nn.use_compute_dtype("float64"):
            wide = Parameter(np.zeros(2), name="wide")
        space = FlatParameterSpace([narrow, wide])
        vec = np.full(5, 1.0 / 3.0)
        space.set_flat(vec)
        assert narrow.data.dtype == np.float32
        assert wide.data.dtype == np.float64
        np.testing.assert_array_equal(narrow.data, np.float32(1.0 / 3.0))
        np.testing.assert_array_equal(wide.data, vec[3:])
        flat = space.get_flat()
        assert flat.dtype == np.float64
        np.testing.assert_array_equal(flat[:3], np.float64(np.float32(1.0 / 3.0)))
        np.testing.assert_array_equal(flat[3:], vec[3:])

    def test_optimizer_math_stays_float64_under_float32_codec(self):
        # Float64-storage contract: pin the compute dtype (the float32
        # substrate's master-weight contract is covered in
        # tests/nn/test_compute_dtype.py).  A float32-rounded global
        # from the wire must not narrow the optimiser's state.
        codec = codec_by_name("float32")
        with nn.use_compute_dtype("float64"):
            params = [Parameter(np.full(8, 1.0 / 3.0), name="w")]
            space = FlatParameterSpace(params)
            space.set_flat(codec.decode(codec.encode(space.get_flat())))
            optimizer = nn.Adam(params, lr=1e-2)
            params[0].grad = np.full(8, 0.5)
            optimizer.step()
            assert params[0].data.dtype == np.float64
            assert optimizer._m_flat.dtype == np.float64
