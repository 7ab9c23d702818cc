"""Deterministic peer-to-peer deep federated learning simulator."""

from .data import Dataset, PartitionPlan, generate_linesteer, load_external, partition_noniid, train_test_split
from .model import Batch, FADNetConfig, ModelParams, accumulation, aggregation, init_params, loss_and_grad, param_count, predict, rmse
from .protocol import MetricsLog, Silos, TrainConfig, dpasgd_update, evaluate, federated_average, run_cll, run_dfl, run_sfl
from .simnet import Clock, simulate_round
from .tensor import LayerSpec, backward, forward
from .topology import (
    ConnectivityGraph,
    ConsensusMatrix,
    DelayParams,
    Overlay,
    brute_force_tsp,
    build_overlay_christofides,
    consensus_matrix,
    cycle_time,
    link_delay,
    load_topology,
)

__version__ = "0.1.0"
