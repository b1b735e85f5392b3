"""``repro.federated`` - client/server FedAvg orchestration for LightTR."""

from .aggregation import average_flat, average_states, fedavg
from .arena import ClientShard, LazyClientList, ModelArena
from .asynchrony import (
    AsyncAggregatorState,
    LatencyModel,
    LatencySpec,
    PendingUpload,
    resolve_latency_model,
    staleness_weights,
)
from .checkpoint import FederatedCheckpoint, checkpoint_path, latest_checkpoint
from .client import ClientData, ClientSessionState, FederatedClient
from .communication import (
    Codec,
    CommunicationLedger,
    EncodedPayload,
    Float32Codec,
    IdentityCodec,
    Int8Codec,
    PAYLOAD_HEADER_BYTES,
    RoundCost,
    available_codecs,
    codec_by_name,
    decode_payload,
    encode_with_feedback,
    forced_codec_from_env,
    get_exchange_codec,
    payload_num_bytes,
    resolve_exchange_codec,
    set_exchange_codec,
    use_exchange_codec,
)
from .faults import (
    ClientFaultError,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    forced_plan_from_env,
    resolve_fault_plan,
)
from .privacy import GaussianMechanism
from .runner import (
    ArenaRunner,
    ClientFailure,
    ProcessPoolRunner,
    RetryPolicy,
    RoundExecution,
    RoundExecutionError,
    RoundResult,
    RoundRunner,
    RoundTask,
    TaskExecutor,
    WorkerSetup,
)
from .server import AggregationSlab, FederatedServer
from .trainer import (
    FederatedConfig,
    FederatedResult,
    FederatedTrainer,
    RoundRecord,
    build_federation,
    train_isolated_then_average,
)

__all__ = [
    "average_flat", "average_states", "fedavg",
    "AsyncAggregatorState", "LatencyModel", "LatencySpec", "PendingUpload",
    "resolve_latency_model", "staleness_weights",
    "ClientData", "ClientSessionState", "FederatedClient",
    "CommunicationLedger", "RoundCost", "payload_num_bytes",
    "Codec", "EncodedPayload", "IdentityCodec", "Float32Codec", "Int8Codec",
    "PAYLOAD_HEADER_BYTES", "available_codecs", "codec_by_name",
    "decode_payload", "encode_with_feedback", "forced_codec_from_env",
    "get_exchange_codec", "resolve_exchange_codec", "set_exchange_codec",
    "use_exchange_codec",
    "ClientFaultError", "FaultEvent", "FaultPlan", "FaultSpec",
    "forced_plan_from_env", "resolve_fault_plan",
    "FederatedCheckpoint", "checkpoint_path", "latest_checkpoint",
    "GaussianMechanism",
    "ClientShard", "LazyClientList", "ModelArena",
    "RoundRunner", "ArenaRunner", "ProcessPoolRunner",
    "TaskExecutor",
    "RoundTask", "RoundResult", "RoundExecutionError", "WorkerSetup",
    "RetryPolicy", "ClientFailure", "RoundExecution",
    "FederatedServer", "AggregationSlab",
    "FederatedConfig", "FederatedTrainer", "FederatedResult", "RoundRecord",
    "build_federation", "train_isolated_then_average",
]
