"""Differential fuzz of the model over drawn geometries.

Each example draws a model (input 8-40 by 8-40 with 1-3 channels, block
widths 1-8, feature width 1-8), a kind, a dtype and a batch that runs the
stem conv's inference pass as one block, as several equal blocks or with a
last block that overlaps the one before it, and checks that the two
workspace plans agree with each other and with a call without one:

- ``predict`` gives the training forward's predictions bit for bit;
- the loss is the mean squared error of ``predict``'s predictions, bit for bit;
- steps through one held workspace, whose block starts dirty, between steps
  of another batch size and a ``predict``, give the loss and gradient of
  steps through throwaway workspaces, bit for bit;
- in both plans, arrays whose lives overlap never share memory.

Hypothesis is derandomized, so every run draws the same examples.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflsim import model as M
from dflsim.data import Dataset
from test_model import assert_no_overlap, stem_block, training_forward

BLOCKS = ("one", "several", "overlap")


def batch_of(cfg, n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        inputs=rng.standard_normal((n, cfg.input_height, cfg.input_width, cfg.input_channels)),
        targets=rng.uniform(-1, 1, n))


# about 40 ms an example
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hw=st.tuples(st.integers(8, 40), st.integers(8, 40)), channels=st.integers(1, 3),
       widths=st.tuples(*[st.integers(1, 8)] * 3), feature_dim=st.integers(1, 8),
       kind=st.sampled_from(M.MODEL_KINDS), dtype=st.sampled_from(["float32", "float64"]),
       blocks=st.sampled_from(BLOCKS), step_batch=st.integers(1, 5),
       garbage=st.sampled_from([0, 255]), seed=st.integers(0, 2 ** 16))
# the narrowest model on the smallest input, whose stem block is largest,
# and the widest on the largest, whose block is a few samples
@example(hw=(8, 8), channels=1, widths=(1, 1, 1), feature_dim=1, kind="fadnet",
         dtype="float32", blocks="overlap", step_batch=1, garbage=255, seed=0)
@example(hw=(40, 40), channels=3, widths=(8, 8, 8), feature_dim=8, kind="backbone_only",
         dtype="float64", blocks="overlap", step_batch=5, garbage=255, seed=1)
@example(hw=(9, 11), channels=1, widths=(8, 2, 3), feature_dim=4, kind="fadnet",
         dtype="float64", blocks="several", step_batch=3, garbage=0, seed=2)
def test_plans_agree(hw, channels, widths, feature_dim, kind, dtype, blocks, step_batch,
                     garbage, seed):
    cfg = M.FADNetConfig(input_height=hw[0], input_width=hw[1], input_channels=channels,
                         widths=widths, feature_dim=feature_dim)
    theta = M.init_params(kind, cfg, seed).astype(dtype)
    block = stem_block(cfg, dtype)
    n = {"one": min(block, 1 + seed % 8), "several": 2 * block, "overlap": 2 * block + 1}[blocks]
    batch = batch_of(cfg, n, seed)

    preds = M.predict(kind, cfg, theta, batch.inputs)
    assert preds.tobytes() == training_forward(kind, cfg, theta, batch.inputs).tobytes()
    loss, _ = M.loss_and_grad(kind, cfg, theta, batch)
    assert loss == float(np.add.reduce((preds - batch.targets) ** 2) / n)
    assert_no_overlap(M._work_plan(kind, cfg, n, np.dtype(dtype), False))

    held = M.Workspace(kind, cfg, step_batch, dtype)
    assert_no_overlap(M._work_plan(*held.key))
    held.block[M._work_plan(*held.key).kept:] = garbage
    steps = [batch_of(cfg, step_batch, seed + 1), batch_of(cfg, step_batch + 1, seed + 2),
             "predict", batch_of(cfg, step_batch, seed + 3)]
    for step in steps:
        if isinstance(step, str):
            M.predict(kind, cfg, theta, batch.inputs[:step_batch + 2])
            continue
        ws = held if step.count == step_batch else None
        loss, grads = M.loss_and_grad(kind, cfg, theta, step, workspace=ws)
        ref_loss, ref_grads = M.loss_and_grad(kind, cfg, theta, step)
        assert loss == ref_loss and grads.tobytes() == ref_grads.tobytes()
