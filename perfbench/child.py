"""One measured ``dflsim run`` in a fresh process.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [SPANS_JSON]

numpy is imported before the clock starts.  ``setup_s`` runs from
``import dflsim`` to the start of the first ``model.loss_and_grad`` call,
found by a one-shot hook that puts the original function back on its first
call; ``run_s`` runs from there until ``dflsim run`` returns.  With
SPANS_JSON the run is traced (see tracing.py) and the spans are written there
when it ends.  The exit status is that of ``dflsim run``.
"""
import json
import sys
import time

import numpy  # noqa: F401  (imported outside the timed region)


def main(argv) -> int:
    config, out_dir, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None

    t_import = time.perf_counter()
    import dflsim  # noqa: F401
    from dflsim import cli, model

    if spans_path is not None:
        import tracing
        with open(config) as f:
            input_channels = json.load(f).get("input_channels", 1)
        tracer = tracing.Tracer()
        tracing.install(tracer, input_channels)

    first_step = []
    timed = model.loss_and_grad

    def first_call(*args, **kwargs):
        first_step.append(time.perf_counter())
        model.loss_and_grad = timed
        return timed(*args, **kwargs)

    model.loss_and_grad = first_call
    rc = cli.main(["run", config, "--out", out_dir, "--quiet"])
    t_end = time.perf_counter()

    if spans_path is not None:
        tracer.dump(spans_path)
    result = {"rc": rc, "dflsim_file": dflsim.__file__}
    if first_step:
        result["setup_s"] = first_step[0] - t_import
        result["run_s"] = t_end - first_step[0]
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
