"""The federated round loop: client sampling, local training, aggregation.

Each round samples 10% of the clients, trains the global model locally for
5 epochs of SGD with momentum, then applies the sample-size-weighted mean
of the client deltas through a server-side momentum buffer. The server step is
the clients' momentum step, `sgd_momentum_step`, taken on that mean delta as a
pseudo-gradient (FedAvgM). Client optimizer state never survives a round;
server momentum persists for the whole trial.

Determinism contract: every random decision comes from a substream keyed by
(seed, round, client), and aggregation always runs in client-id order, so
parallel client execution is bit-identical to serial.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import ClientPartition, Dataset
from .errors import ConfigurationError, InternalError
from .metrics import RoundRecord, TrialSummary, evaluate
from .models import ModelConfig, ModelState, backward, forward, init_params
from .numerics import RngStream, sgd_momentum_step, softmax_cross_entropy


@dataclass
class FederationConfig:
    n_rounds: int = 100
    clients_per_round_fraction: float = 0.10
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.1
    client_momentum: float = 0.9
    server_momentum: float = 0.9
    server_lr: float = 1.0
    parallel_clients: int = 1

    def __post_init__(self):
        if not 0.0 < self.clients_per_round_fraction <= 1.0:
            raise ConfigurationError("clients_per_round_fraction must be in (0, 1]")
        for name in ("n_rounds", "local_epochs", "batch_size", "parallel_clients"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        # the negated comparisons also reject NaN
        for name, high, rule in (("lr", np.inf, "finite and >= 0"),
                                 ("server_lr", np.inf, "finite and >= 0"),
                                 ("client_momentum", 1.0, "in [0, 1)"),
                                 ("server_momentum", 1.0, "in [0, 1)")):
            value = getattr(self, name)
            if not 0.0 <= value < high:
                raise ConfigurationError(f"{name} must be {rule}, got {value}")


@dataclass
class ClientUpdate:
    client_id: int
    delta: np.ndarray
    n_samples: int
    train_loss: float
    train_acc: float


@dataclass
class ServerState:
    global_model: ModelState
    momentum_buf: np.ndarray


def sample_clients(
    n_clients: int, n_sampled: int, round_index: int, rng: RngStream
) -> list[int]:
    """Distinct client ids, uniform without replacement, keyed by round."""
    gen = rng.child("sample", str(round_index)).gen
    ids = gen.choice(n_clients, size=n_sampled, replace=False)
    return sorted(int(c) for c in ids)


def local_train(
    global_model: ModelState,
    part: ClientPartition,
    train: Dataset,
    cfg: FederationConfig,
    rng: RngStream,
) -> ClientUpdate:
    """5 epochs of minibatch SGD from the global params; returns the delta."""
    if len(part) == 0:
        raise InternalError(f"client {part.client_id} has no data")
    local = global_model.clone()
    velocity = np.zeros(len(local.params))
    grads = np.empty(len(local.params))  # every backward overwrites it
    gen = rng.gen
    indices = part.indices
    inputs = train.model_inputs
    last_losses: list[tuple[float, float, int]] = []
    for epoch in range(cfg.local_epochs):
        order = gen.permutation(len(indices))
        for start in range(0, len(order), cfg.batch_size):
            sel = indices[order[start : start + cfg.batch_size]]
            imgs = inputs[sel]
            labs = train.labels[sel]
            logits, cache = forward(local, imgs)
            loss, grad_logits = softmax_cross_entropy(logits, labs)
            backward(local, cache, grad_logits, out=grads)
            if epoch == cfg.local_epochs - 1:
                acc = float((np.argmax(logits, axis=1) == labs).mean())
                last_losses.append((loss, acc, len(sel)))
            sgd_momentum_step(local.params, grads, velocity, cfg.lr, cfg.client_momentum)
            del logits, cache, grad_logits  # else alive while the next forward runs
    n = sum(c for _, _, c in last_losses)
    train_loss = sum(l * c for l, _, c in last_losses) / n
    train_acc = sum(a * c for _, a, c in last_losses) / n
    return ClientUpdate(
        client_id=part.client_id,
        delta=local.params - global_model.params,
        n_samples=len(part),
        train_loss=train_loss,
        train_acc=train_acc,
    )


def aggregate(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-size-weighted mean of client deltas (the pseudo-gradient)."""
    if not updates:
        raise InternalError("aggregate needs at least one update")
    length = len(updates[0].delta)
    if any(len(u.delta) != length for u in updates):
        raise InternalError("client deltas have inconsistent lengths")
    total = sum(u.n_samples for u in updates)
    out = np.zeros(length, dtype=np.float64)
    for u in sorted(updates, key=lambda u: u.client_id):
        out += (u.n_samples / total) * u.delta
    return out


def server_step(
    state: ServerState, pseudo_gradient: np.ndarray, server_momentum: float,
    server_lr: float = 1.0,
) -> ServerState:
    """m <- beta*m + avg_delta; global <- global + lr*m (in place)."""
    # the mean delta points downhill, unlike a gradient, hence the negated lr
    sgd_momentum_step(state.global_model.params, pseudo_gradient, state.momentum_buf,
                      -server_lr, server_momentum)
    return state


def run_trial(
    model_config: ModelConfig,
    fed_cfg: FederationConfig,
    train: Dataset,
    test: Dataset,
    partitions: list[ClientPartition],
    trial_seed: int,
    trial_id: str = "trial",
) -> TrialSummary:
    """One complete federated run; metrics fully determined by the seeds."""
    t0 = time.perf_counter()
    rng = RngStream(trial_seed)
    global_model = init_params(model_config, rng)
    server = ServerState(
        global_model=global_model,
        momentum_buf=np.zeros(len(global_model.params)),
    )
    n_clients = len(partitions)
    n_sampled = max(1, round(n_clients * fed_cfg.clients_per_round_fraction))
    records = []
    for rnd in range(1, fed_cfg.n_rounds + 1):
        r0 = time.perf_counter()
        sampled = sample_clients(n_clients, n_sampled, rnd, rng)

        def train_one(cid: int) -> ClientUpdate:
            return local_train(
                server.global_model,
                partitions[cid],
                train,
                fed_cfg,
                rng.child("local", str(rnd), str(cid)),
            )

        if fed_cfg.parallel_clients > 1:
            with ThreadPoolExecutor(max_workers=fed_cfg.parallel_clients) as pool:
                updates = list(pool.map(train_one, sampled))
        else:
            updates = [train_one(cid) for cid in sampled]

        pseudo_gradient = aggregate(updates)
        server_step(server, pseudo_gradient, fed_cfg.server_momentum, fed_cfg.server_lr)

        total_n = sum(u.n_samples for u in updates)
        train_loss = sum(u.train_loss * u.n_samples for u in updates) / total_n
        train_acc = sum(u.train_acc * u.n_samples for u in updates) / total_n
        del updates, pseudo_gradient  # evaluation holds no client delta
        test_acc, test_loss = evaluate(server.global_model, test)
        records.append(
            RoundRecord(
                round=rnd,
                test_acc=test_acc,
                test_loss=test_loss,
                train_acc=train_acc,
                train_loss=train_loss,
                elapsed_s=time.perf_counter() - r0,
                sampled_clients=sampled,
            )
        )
    return TrialSummary(
        trial_id=trial_id,
        model=model_config.kind,
        seed=trial_seed,
        records=records,
        total_time_s=time.perf_counter() - t0,
    )
