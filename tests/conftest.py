import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from causalboot import ObservationTable
from causalboot import rng as cbrng
from causalboot.simulation import generate_dgm


@pytest.fixture
def small_table():
    """Eight rows, both arms, two covariates; fully deterministic."""
    y = np.array([1.0, 3.0, 2.0, 4.0, 0.5, 2.5, 1.5, 3.5])
    w = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    x = np.array(
        [
            [0.1, -1.0],
            [0.2, 0.5],
            [-0.3, 1.0],
            [0.4, -0.5],
            [-0.1, 0.8],
            [0.3, -0.2],
            [-0.2, 0.4],
            [0.0, -0.6],
        ]
    )
    return ObservationTable(y=y, w=w, x=x, covariate_names=("x1", "x2"))


@pytest.fixture(scope="session")
def dgm_table():
    """One medium synthetic dataset shared across tests (n=4000)."""
    return generate_dgm(4000, cbrng.substream(2024, cbrng.DOMAIN_DATASET, 0))


@pytest.fixture
def write_csv(tmp_path):
    def _write(name, header, rows):
        path = tmp_path / name
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write


def _traced(call):
    """``call()``'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _table_bytes(table):
    """The bytes of a table's three arrays."""
    return table.y.nbytes + table.w.nbytes + table.x.nbytes


@pytest.fixture
def traced():
    return _traced


@pytest.fixture
def table_bytes():
    return _table_bytes
