"""Learning strategies over simulated silos.

dfl, sfl and cll are one algorithm, the DPASGD iteration of Marfoq et al.,
"Throughput-Optimal Topology Design for Cross-Silo Federated Learning"
(NeurIPS 2020), run over the stacked silo parameters: an (n, P) array whose
row i is silo i.  Iteration k mixes the rows with a matrix when
k % (s+1) == 0 and otherwise takes one local mini-batch step on every row;
a round is s+1 iterations and advances the simulated clock once.  The
strategies differ in three values only:

    strategy  first k  mix                                evaluated / final model
    dfl       0        Metropolis-Hastings ring matrix    masked mean of the rows
    cll       0        A = [[1]] (one silo, merged data)  mean of the one row
    sfl       1        broadcast of the mean of the rows  row 0

Starting sfl at k=1 puts its s local steps before the server average.

Everything is deterministic given the config seed: silo batch samplers use
per-silo seeded generators, all silos start from one broadcast seeded init,
and silo steps and cross-silo reductions run serially in fixed silo-id
order.  The ``workers`` setting is accepted and validated but has no effect.
Simulated round times are closed forms (``simnet.simulate_round``).

Precision is mixed (Micikevicius et al., ICLR 2018): the parameters, Adam,
the mix, the checkpoint and the transfer size are float64; every step and
evaluation runs the model on a float32 copy of one silo's row.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import simnet
from .data import Dataset
from .topology import ConnectivityGraph, ConsensusMatrix, DelayParams, Overlay

_SAMPLER_TAG = 0x51105A17

STRATEGIES = ("dfl", "sfl", "cll")

METRICS_HEADER = ("round", "sim_time_s", "train_loss", "test_rmse", "strategy")

# evaluate() predicts the test set this many samples at a time.  The test
# RMSE bits depend on it and on the numpy/OpenBLAS build: a product over
# few samples may take a small-matrix kernel that rounds differently.
EVAL_BATCH = 256

# Most rounds, and most local steps per round, a run may ask for: above
# 2**53 a count is no longer exact as a float64, and neither is the
# simulated clock's total, rounds times the round duration.
MAX_COUNT = 2 ** 53

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NanGradientError(RuntimeError):
    """Raised when training produces a non-finite loss, silo parameters or
    test RMSE."""


class ClockOverflowError(ValueError):
    """Raised before round 1 when ``rounds`` times the round duration is
    not a finite number of simulated seconds."""


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, each one config key of ``dflsim run`` with
    the default given here; the defaults follow the reference setup.  Adam's
    beta1, beta2 and epsilon are the fixed ``ADAM_*`` constants."""

    strategy: str = "dfl"
    rounds: int = 3000
    local_steps: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    eval_interval: int = 10
    eval_mask: tuple[int, ...] | None = None
    workers: int = 1  # accepted and validated; silo steps always run serially
    server_latency_s: float = 0.05
    server_bandwidth_Bps: float = 2.5e7
    server_compute_s: float = 0.05
    cll_compute_s: float = 0.1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.rounds > MAX_COUNT:
            raise ValueError(f"rounds must be at most 2**53, got {self.rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.local_steps > MAX_COUNT:
            raise ValueError(f"local_steps must be at most 2**53, got {self.local_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.eval_mask is not None and sum(self.eval_mask) < 1:
            raise ValueError("eval_mask must select at least one silo")
        if self.server_bandwidth_Bps <= 0:
            raise ValueError(f"server_bandwidth_Bps must be > 0, got {self.server_bandwidth_Bps}")
        for name in ("server_latency_s", "server_compute_s", "cll_compute_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Silos:
    """n silos stepping in lockstep.  Row i of ``theta`` and of the Adam
    moments is silo i, which samples ``shards[i]`` with ``rngs[i]``; ``k`` is
    the iteration counter and ``t`` the Adam step, shared by all silos.
    ``adam_work`` is two rows of scratch for the Adam update, shared by the
    silos, which step one after another.  So is ``work``, the float32 step
    workspace of ``model`` (kind and config; None for a stand-in loss), made
    by the first step after each evaluation, which drops it."""

    theta: np.ndarray
    shards: list[Dataset]
    rngs: list[np.random.Generator]
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_work: np.ndarray | None = None
    k: int = 0
    t: int = 0
    model: tuple[str, M.FADNetConfig] | None = None
    work: M.Workspace | None = None

    @classmethod
    def start(cls, theta0: np.ndarray, shards: list[Dataset], cfg: TrainConfig,
              k: int = 0, model: tuple[str, M.FADNetConfig] | None = None) -> "Silos":
        """Every silo at the broadcast initial parameters, each with its own
        seeded sampler."""
        theta = np.tile(theta0, (len(shards), 1))
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, _SAMPLER_TAG, i]))
                for i in range(len(shards))]
        silos = cls(theta, list(shards), rngs, k=k, model=model)
        if cfg.optimizer == "adam":
            silos.adam_m = np.zeros_like(theta)
            silos.adam_v = np.zeros_like(theta)
            silos.adam_work = np.empty((2, theta.shape[1]))
        return silos


@dataclass(frozen=True)
class MetricsRow:
    round: int
    sim_time_s: float
    train_loss: float
    test_rmse: float
    strategy: str


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)
    # final aggregated parameter vector of the run; not part of the CSV
    final_params: np.ndarray | None = None

    def append(self, row: MetricsRow) -> None:
        if self.rows:
            if row.round <= self.rows[-1].round:
                raise ValueError("metrics rounds must be strictly increasing")
            if row.sim_time_s < self.rows[-1].sim_time_s:
                raise ValueError("simulated time must be nondecreasing")
        self.rows.append(row)

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in self.rows:
            writer.writerow([r.round, repr(r.sim_time_s), repr(r.train_loss),
                             repr(r.test_rmse), r.strategy])
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.to_csv_string())


def is_consensus_step(k: int, local_steps: int) -> bool:
    """The update schedule: consensus when k % (s+1) == 0, gradient otherwise."""
    return k % (local_steps + 1) == 0


def federated_average(theta, mask=None) -> np.ndarray:
    """Equal-weight mean of the participating rows of the (n, P) silo
    parameters (a sequence of equal-length vectors is stacked first)."""
    theta = np.asarray(theta)
    if theta.ndim != 2:
        raise ValueError(f"need (n, P) silo parameters, got shape {theta.shape}")
    if mask is not None:
        if len(mask) != len(theta):
            raise ValueError(f"mask length {len(mask)} != {len(theta)} silos")
        theta = theta[np.flatnonzero(mask)]
    if len(theta) == 0:
        raise ValueError("participation mask selects no silos")
    return theta.mean(axis=0)


def matrix_mix(a: ConsensusMatrix):
    """The mix theta <- A theta, summed row by row in a fixed order: silo i's
    own term first, then its in-neighbours in ascending id.  (``A @ theta``
    would leave the order of the sums to BLAS.)"""
    neighbors = [[j for j in range(a.order) if j != i and a.a[i, j] > 0.0]
                 for i in range(a.order)]

    def mix_with_matrix(theta: np.ndarray) -> np.ndarray:
        out = np.empty_like(theta)
        for i, row in enumerate(out):
            np.multiply(a.a[i, i], theta[i], out=row)
            for j in neighbors[i]:
                row += a.a[i, j] * theta[j]
        return out
    return mix_with_matrix


def broadcast_mean(theta: np.ndarray) -> np.ndarray:
    """The server step of sfl: every silo gets the mean of all rows."""
    theta[:] = federated_average(theta)
    return theta


def evaluate(model_kind: str, model_cfg: M.FADNetConfig, theta: np.ndarray,
             test: Dataset) -> float:
    """Test RMSE of one parameter vector, predicted at float32 EVAL_BATCH
    samples at a time in fixed index order; the bits depend on that batch
    and on the numpy/OpenBLAS build."""
    theta = np.asarray(theta, np.float32)
    preds = np.empty(test.count)
    for start in range(0, test.count, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, test.count)
        preds[start:stop] = M.predict(model_kind, model_cfg, theta,
                                      test.inputs[start:stop])
    return M.rmse(preds, test.targets)


def adam_update(theta: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
                t: int, lr: float, work: np.ndarray) -> None:
    """Adam step ``t`` in place on ``theta`` and its moments ``m`` and ``v``,
    with the bits of

        m = B1 * m + (1 - B1) * grad
        v = B2 * v + (1 - B2) * grad ** 2
        theta -= lr * (m / (1 - B1 ** t)) / (sqrt(v / (1 - B2 ** t)) + EPS)

    evaluated in that order.  ``work`` is two rows of scratch as long as
    ``theta``; ``grad`` is only read."""
    a, b = work
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grad, 1 - ADAM_BETA1, out=a)
    m += a
    np.multiply(v, ADAM_BETA2, out=v)
    np.square(grad, out=a)
    a *= 1 - ADAM_BETA2
    v += a
    np.divide(m, 1 - ADAM_BETA1 ** t, out=a)
    a *= lr
    np.divide(v, 1 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    theta -= a


def _gradient_step(silos: Silos, i: int, cfg: TrainConfig, loss_grad_fn) -> float:
    """One float32 mini-batch step of silo i on its own float64 row, cast
    and gathered into the silos' workspace when they train a model."""
    shard, theta = silos.shards[i], silos.theta[i]
    idx = silos.rngs[i].integers(0, shard.count, size=cfg.batch_size)
    if silos.model is None:  # a stand-in loss
        loss, grad = loss_grad_fn(theta.astype(np.float32), shard.subset(idx))
    else:
        if silos.work is None:
            silos.work = M.Workspace(*silos.model, cfg.batch_size)
        work = silos.work
        np.copyto(work.params, theta)
        loss, grad = loss_grad_fn(work.params, shard.subset(idx, out=work.inputs),
                                  workspace=work)
    grad = np.asarray(grad, np.float64)  # the update runs in float64 whatever the grad's dtype
    if cfg.optimizer == "sgd":
        theta -= cfg.learning_rate * grad
    else:
        adam_update(theta, silos.adam_m[i], silos.adam_v[i], grad, silos.t,
                    cfg.learning_rate, silos.adam_work)
    if not math.isfinite(loss) or not np.all(np.isfinite(theta)):
        raise NanGradientError(
            f"non-finite loss or parameters at silo {i}, iteration k={silos.k} "
            f"(loss={loss!r}); aborting run")
    return loss


def dpasgd_update(silos: Silos, mix, loss_grad_fn, cfg: TrainConfig) -> list | None:
    """One iteration of the schedule for all silos at once.

    A consensus iteration replaces the parameters with ``mix`` of them;
    any other takes one mini-batch step per silo, in silo-id order, and
    returns the losses in that order.  ``k`` always advances by one.
    """
    if is_consensus_step(silos.k, cfg.local_steps):
        silos.theta = mix(silos.theta)
        if not np.all(np.isfinite(silos.theta)):
            raise NanGradientError(
                f"non-finite parameters after the mix {mix.__name__} "
                f"at iteration k={silos.k}; aborting run")
        losses = None
    else:
        silos.t += 1
        losses = [_gradient_step(silos, i, cfg, loss_grad_fn)
                  for i in range(len(silos.shards))]
    silos.k += 1
    return losses


def _loss_grad_fn(model_kind: str, model_cfg: M.FADNetConfig):
    def fn(theta, batch, workspace=None):
        return M.loss_and_grad(model_kind, model_cfg, theta, batch, workspace=workspace)
    return fn


def _probe_loss(silos: Silos, cfg: TrainConfig, loss_grad_fn) -> float:
    """Mean initial-model loss over per-silo probe batches (first samples of
    each shard) at float32; used for the round-0 metrics row."""
    losses = []
    for shard, theta in zip(silos.shards, silos.theta):
        n = min(cfg.batch_size, shard.count)
        loss, _ = loss_grad_fn(theta.astype(np.float32), shard.subset(range(n)))
        losses.append(loss)
    return float(np.mean(losses))


def is_eval_round(rnd: int, cfg: TrainConfig) -> bool:
    """Whether round ``rnd`` writes a metrics row: every ``eval_interval``-th
    round from 0, and the last."""
    return rnd % cfg.eval_interval == 0 or rnd == cfg.rounds


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(strategy: str, shards: list[Dataset], layout, first_k: int,
           mix, evaluated, model_kind: str, model_cfg: M.FADNetConfig,
           test: Dataset, cfg: TrainConfig) -> MetricsLog:
    """The one training loop: each round runs s+1 iterations of
    ``dpasgd_update`` and advances the clock by ``simulate_round`` of
    ``layout``; evaluated rounds test ``evaluated(theta)``.  A run whose
    simulated time, rounds x round duration, is not finite raises
    ``ClockOverflowError`` before it starts.  numpy's floating-point warnings
    are off: a non-finite loss, row or test RMSE aborts the run with
    ``NanGradientError`` instead."""
    loss_grad_fn = _loss_grad_fn(model_kind, model_cfg)
    theta0 = M.init_params(model_kind, model_cfg, cfg.seed)
    delay = DelayParams(model_size_bytes=8.0 * theta0.size, local_steps=cfg.local_steps)
    round_duration = simnet.simulate_round(layout, delay)
    if not math.isfinite(cfg.rounds * round_duration):
        raise ClockOverflowError(
            f"config field 'rounds': {cfg.rounds} rounds of {round_duration!r} s each "
            f"overflow the simulated clock; fewer rounds or shorter compute, latency "
            f"or transfer times are needed")
    silos = Silos.start(theta0, shards, cfg, k=first_k, model=(model_kind, model_cfg))
    clock = simnet.Clock()
    log = MetricsLog()

    def record(rnd: int, train_loss: float) -> None:
        silos.work = None  # its block is free for the evaluation's arrays
        test_rmse = evaluate(model_kind, model_cfg, evaluated(silos.theta), test)
        if not math.isfinite(test_rmse):
            raise NanGradientError(f"non-finite test RMSE at round {rnd}: the evaluated "
                                   f"parameters overflow the model; aborting run")
        log.append(MetricsRow(rnd, clock.now, train_loss, test_rmse, strategy))

    record(0, _probe_loss(silos, cfg, loss_grad_fn))
    for rnd in range(1, cfg.rounds + 1):
        losses = [dpasgd_update(silos, mix, loss_grad_fn, cfg)
                  for _ in range(cfg.local_steps + 1)]
        clock.advance(round_duration)
        if is_eval_round(rnd, cfg):
            record(rnd, float(np.mean([l for l in losses if l is not None])))
    log.final_params = evaluated(silos.theta)
    return log


def run_dfl(overlay: Overlay, a: ConsensusMatrix, model_kind: str,
            model_cfg: M.FADNetConfig, shards: list[Dataset], test: Dataset,
            cfg: TrainConfig) -> MetricsLog:
    """Peer-to-peer training over the overlay; returns the metrics log.

    Each round mixes the silos through the consensus matrix, then takes
    ``local_steps`` gradient steps per silo; the simulated clock advances by
    the overlay's worst edge delay.
    """
    n = a.order
    if len(shards) != n:
        raise ValueError(f"need {n} shards for {n} silos, got {len(shards)}")
    if overlay.n != n:
        raise ValueError(f"overlay order {overlay.n} != consensus matrix order {n}")
    return _train("dfl", shards, overlay, 0, matrix_mix(a),
                  lambda theta: federated_average(theta, cfg.eval_mask),
                  model_kind, model_cfg, test, cfg)


def run_cll(model_kind: str, model_cfg: M.FADNetConfig, dataset: Dataset,
            test: Dataset, cfg: TrainConfig) -> MetricsLog:
    """Centralized training on the merged dataset: one silo mixed with
    A = [[1]], so dfl with one silo matches it exactly.  ``eval_mask`` does
    not apply."""
    return _train("cll", [dataset], simnet.SingleSpec(compute_time_s=cfg.cll_compute_s),
                  0, matrix_mix(ConsensusMatrix(a=np.ones((1, 1)))),
                  federated_average, model_kind, model_cfg, test, cfg)


def run_sfl(graph: ConnectivityGraph | None, model_kind: str, model_cfg: M.FADNetConfig,
            shards: list[Dataset], test: Dataset, cfg: TrainConfig) -> MetricsLog:
    """Server-based training: local steps, equal-weight server average,
    broadcast.  The virtual server links to every silo with the configured
    latency/bandwidth; round duration is the worst silo round trip plus one
    server aggregation.  ``graph`` may be None only in the one-silo
    degenerate case (compute time then falls back to ``cll_compute_s``)."""
    if graph is None:
        if len(shards) != 1:
            raise ValueError("run_sfl needs a connectivity graph for more than one silo")
        compute_times = (cfg.cll_compute_s,)
    else:
        compute_times = tuple(graph.compute_time(i) for i in range(graph.n))
    n = len(compute_times)
    if len(shards) != n:
        raise ValueError(f"need {n} shards for {n} silos, got {len(shards)}")
    star = simnet.StarSpec(
        silo_compute_s=compute_times,
        server_latency_s=cfg.server_latency_s,
        server_bandwidth_Bps=cfg.server_bandwidth_Bps,
        server_compute_s=cfg.server_compute_s,
    )
    return _train("sfl", shards, star, 1, broadcast_mean,
                  lambda theta: theta[0], model_kind, model_cfg, test, cfg)
