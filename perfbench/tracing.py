"""In-memory span recording around dflsim's public functions.

A ``Tracer`` replaces module attributes (``dflsim.model.loss_and_grad`` and
so on) with wrappers that record one span per call: name, start, end, parent
span id, thread id and a few call attributes.  dflsim's modules call each
other through module attributes (``M.loss_and_grad``, ``T.forward``), so the
wrappers see every call without any change to the program.  Spans stay in
memory until ``dump`` writes them once, at the end of the run.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: that is the run
function blocked in ``pool.map`` waiting for it.
"""
from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time

# layer kind -> role reported in the tensor.* metrics; conv2d is split below
_KIND_ROLES = {
    "input_norm": "norm",
    "maxpool2d": "stem_pool",
    "fc": "fc",
    "relu": "elementwise",
    "gap": "elementwise",
    "residual_add": "elementwise",
}

ROLES = ("norm", "stem_conv", "stem_pool", "conv3x3", "conv1x1", "fc", "elementwise")


def tensor_role(spec, input_channels: int) -> str:
    """Role of one layer: the stem conv is the 3x3 conv reading the image's
    channels; every other conv is named by its kernel size."""
    if spec.kind == "conv2d":
        if spec.kernel == 1:
            return "conv1x1"
        return "stem_conv" if spec.in_channels == input_channels else "conv3x3"
    return _KIND_ROLES[spec.kind]


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class Tracer:
    """Records spans from wrapped module functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, attrs=None, faults: bool = False):
        """Replace ``module.attr`` with a recording wrapper.  ``attrs(args,
        kwargs)`` returns extra fields for the span; ``faults`` adds the
        calling thread's minor page faults during the call."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = {"id": next(self._ids), "name": name, "parent": parent,
                    "thread": threading.get_ident()}
            if attrs is not None:
                span.update(attrs(args, kwargs))
            stack.append(span["id"])
            f0 = _minflt() if faults else 0
            span["start"] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if faults:
                    span["minflt"] = _minflt() - f0
                stack.pop()
                self.spans.append(span)

        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(sorted(self.spans, key=lambda s: s["id"]), f)


def install(tracer: Tracer, input_channels: int) -> None:
    """Wrap every public dflsim function the per-layer metrics read."""
    from dflsim import cli, data, model, protocol, simnet, tensor, topology

    def role(args, kwargs):
        return {"role": tensor_role(args[0], input_channels)}

    def samples(args, kwargs):
        return {"samples": int(args[3].shape[0])}

    def consensus(args, kwargs):
        state, cfg = args[0], args[3]
        return {"consensus": protocol.is_consensus_step(state.k, cfg.local_steps)}

    tracer.wrap(tensor, "forward", "tensor.forward", attrs=role)
    tracer.wrap(tensor, "backward", "tensor.backward", attrs=role)
    tracer.wrap(model, "loss_and_grad", "model.loss_and_grad", faults=True)
    tracer.wrap(model, "predict", "model.predict", attrs=samples, faults=True)
    tracer.wrap(model, "save_checkpoint", "model.save_checkpoint")
    for run in ("run_dfl", "run_sfl", "run_cll"):
        tracer.wrap(protocol, run, "protocol.run")
    tracer.wrap(protocol, "dpasgd_update", "protocol.dpasgd_update", attrs=consensus)
    tracer.wrap(protocol, "federated_average", "protocol.federated_average")
    tracer.wrap(protocol, "evaluate", "protocol.evaluate")
    tracer.wrap(topology, "load_topology", "topology.load_topology")
    tracer.wrap(topology, "build_overlay_christofides", "topology.build_overlay_christofides")
    tracer.wrap(topology, "consensus_matrix", "topology.consensus_matrix")
    tracer.wrap(simnet, "simulate_round", "simnet.simulate_round")
    tracer.wrap(data, "generate_linesteer", "data.generate_linesteer")
    tracer.wrap(data, "train_test_split", "data.train_test_split")
    tracer.wrap(data, "partition_noniid", "data.partition_noniid")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "main", "cli.main")
