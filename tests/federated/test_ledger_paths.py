"""Byte accounting consistency across the two federated paths.

Both the main Algorithm-3 rounds and the isolated "w/o FL" ablation now
meter flat ``(P,)`` vectors, so their per-payload byte counts agree with
each other and with ``P * itemsize`` — and both halve their value bytes
under the ``"float32"`` exchange codec, which adds its fixed header per
payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConstraintMaskBuilder, LTEModel, TrainingConfig
from repro.federated import (
    PAYLOAD_HEADER_BYTES,
    FederatedConfig,
    FederatedTrainer,
    build_federation,
    train_isolated_then_average,
)
from repro.nn import FlatParameterSpace


@pytest.fixture(scope="module")
def federation(tiny_world):
    return build_federation(tiny_world, num_clients=3, keep_ratio=0.25)


@pytest.fixture(scope="module")
def mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, radius=400.0)


def lte_factory(config):
    def factory():
        return LTEModel(config, np.random.default_rng(33))
    return factory


def one_round_config(**kwargs):
    return FederatedConfig(
        rounds=1, client_fraction=1.0, local_epochs=1,
        training=TrainingConfig(epochs=1, batch_size=8, lr=3e-3),
        use_meta=False, **kwargs,
    )


def assert_float32_halves(full, half):
    """Every float64 payload of ``full`` is a float32 codec payload of
    ``half``: half the value bytes plus the codec header."""
    num_params = FlatParameterSpace.from_module(full.global_model).total_size
    payloads = full.ledger.total_bytes // (8 * num_params)
    assert full.ledger.total_bytes == payloads * 8 * num_params
    assert half.ledger.total_bytes == payloads * (4 * num_params
                                                  + PAYLOAD_HEADER_BYTES)


class TestLedgerUnification:
    @pytest.mark.identity_exchange  # P*8 wire math is the raw-float64 codec
    def test_isolated_path_accounts_flat_bytes(self, federation, mask,
                                               tiny_config):
        clients, global_test = federation
        trainer = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                   one_round_config(), global_test, seed=0)
        num_params = trainer.server.num_parameters
        result = train_isolated_then_average(
            lte_factory(tiny_config), clients, mask, one_round_config(),
            global_test, seed=0,
        )
        cost = result.ledger.rounds[0]
        payload = num_params * 8  # float64 exchange
        assert cost.bytes_up == payload * len(clients)
        assert cost.bytes_down == payload * len(clients)

    @pytest.mark.fault_free  # per-upload byte math assumes every client uploads
    def test_both_paths_meter_identical_payload_sizes(self, federation, mask,
                                                      tiny_config):
        clients, global_test = federation
        fed = FederatedTrainer(lte_factory(tiny_config), clients, mask,
                               one_round_config(), global_test, seed=0).run()
        isolated = train_isolated_then_average(
            lte_factory(tiny_config), clients, mask, one_round_config(),
            global_test, seed=0,
        )
        per_upload_fed = fed.ledger.rounds[0].bytes_up / len(clients)
        per_upload_iso = isolated.ledger.rounds[0].bytes_up / len(clients)
        assert per_upload_fed == per_upload_iso


class TestFloat32Communication:
    @pytest.mark.identity_exchange  # the float64 baseline is the raw-vector wire
    def test_float32_exchange_halves_round_traffic(self, federation, mask,
                                                   tiny_config):
        clients, global_test = federation

        def run(**kwargs):
            return FederatedTrainer(lte_factory(tiny_config), clients, mask,
                                    one_round_config(**kwargs), global_test,
                                    seed=0).run()

        full = run()
        half = run(exchange_codec="float32")
        assert_float32_halves(full, half)
        # Reduced wire precision barely perturbs one round of training:
        # the history stays numerically close to the float64 run.
        assert half.history[0].mean_loss == pytest.approx(
            full.history[0].mean_loss, rel=1e-4)
        assert half.history[0].global_accuracy == pytest.approx(
            full.history[0].global_accuracy, abs=0.05)

    @pytest.mark.identity_exchange  # the float64 baseline is the raw-vector wire
    def test_float32_isolated_path_halves_too(self, federation, mask,
                                              tiny_config):
        clients, global_test = federation

        def run(**kwargs):
            return train_isolated_then_average(
                lte_factory(tiny_config), clients, mask,
                one_round_config(**kwargs), global_test, seed=0,
            )

        assert_float32_halves(run(), run(exchange_codec="float32"))
