import os
from pathlib import Path

import numpy as np
import pytest

from dflsim import topology as tp

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(**extra) -> dict:
    """The environment of a child process that runs this checkout: ``src/``
    first on PYTHONPATH, BLAS, OpenMP and MKL at one thread, no ``MALLOC_*``
    variable, and ``extra``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    path = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **extra,
               PYTHONPATH=os.pathsep.join(path))
    return env


def random_metric_graph(n: int, seed: int, sparse: bool = False) -> tp.ConnectivityGraph:
    """Random delay-annotated graph; sparse variants rely on the
    shortest-path closure to become metric-complete.  A sparse graph has n+3
    links, so it needs n >= 5 silos."""
    if sparse and n * (n - 1) // 2 < n + 3:
        raise ValueError(f"a sparse graph has n+3 = {n + 3} links; {n} silos have "
                         f"only {n * (n - 1) // 2} pairs")
    rng = np.random.default_rng(seed)
    silos = tuple(tp.SiloRecord(i, float(rng.uniform(0.0, 0.3))) for i in range(n))
    if sparse:
        pairs = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
        while len(pairs) < n + 3:
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            pairs.add((a, b))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = []
    for a, b in sorted(pairs):
        links.append(tp.LinkRecord(a, b, float(rng.uniform(0.01, 0.5)),
                                   float(rng.uniform(1e6, 1e8))))
        links.append(tp.LinkRecord(b, a, float(rng.uniform(0.01, 0.5)),
                                   float(rng.uniform(1e6, 1e8))))
    return tp.ConnectivityGraph(silos=silos, links=tuple(links))


def uniform_complete_graph(n: int, latency: float = 1.0) -> tp.ConnectivityGraph:
    """Complete graph whose symmetrized delays all equal ``latency`` exactly
    (compute 0, transfer time below float64 resolution)."""
    silos = tuple(tp.SiloRecord(i, 0.0) for i in range(n))
    links = []
    for i in range(n):
        for j in range(n):
            if i != j:
                links.append(tp.LinkRecord(i, j, latency, 1e30))
    return tp.ConnectivityGraph(silos=silos, links=tuple(links))


TINY_DELAY = tp.DelayParams(model_size_bytes=1.0, local_steps=1)


@pytest.fixture(scope="session")
def gaia11() -> tp.ConnectivityGraph:
    return tp.load_topology(tp.fixture_path("gaia11"))


@pytest.fixture(scope="session")
def nws22() -> tp.ConnectivityGraph:
    return tp.load_topology(tp.fixture_path("nws22"))
