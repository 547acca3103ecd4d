"""The numpy float and integer text of ddwave._floattext against repr and str.

Each case formats a column through Rows, one value per row, and compares the
text with the built-in formatting of the same values as Python objects.
"""

import numpy as np
import pytest

from ddwave._floattext import Rows


def kernel_text(values, block=4096):
    """The values as Rows writes them, one per line."""
    rows = Rows([values], min(block, len(values)), "\n", [""])
    return b"".join(rows.text(i, min(i + block, len(values))) for i in range(0, len(values), block)).decode()


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = kernel_text(values), "\n" + "\n".join(map(repr, values.tolist()))
    if got != want:  # name the first values that differ
        bad = [(w, g) for w, g in zip(want.split("\n"), got.split("\n")) if w != g]
        assert got == want, bad[:5]


def families():
    """Seeded bulk families, a little over 10^6 values."""
    rng = np.random.default_rng(20181)
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return {
        "random bit patterns": rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64),
        "subnormals": rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64),
        "every power of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "integers near 2^53": 2.0**53 + np.arange(-50_000, 50_000, dtype=np.float64),
        "integers 1e16 to 1e17": rng.integers(10**16, 10**17, 100_000).astype(np.float64),
        "decimals k / 10^j": (np.arange(1, 10_001)[:, None] / 10.0 ** np.arange(0, 21)).ravel(),
        "neighbours of powers of ten": np.concatenate([pow10, np.nextafter(pow10, 0), np.nextafter(pow10, np.inf)]),
    }


def test_bulk_families_match_repr():
    cases = families()
    assert sum(map(len, cases.values())) >= 1_000_000
    for values in cases.values():
        assert_repr(values)


EDGES = {
    "1e-05": 1e-05,  # the largest decpt in scientific notation below 1
    "1e-04": 1e-04,  # the smallest in fixed notation
    "below 1e-04": 9.999999999999999e-05,
    "1e16": 1e16,  # the smallest in scientific notation above 1
    "below 1e16": 9999999999999998.0,
    "0.0": 0.0,
    "-0.0": -0.0,
    "nan": float("nan"),
    "-nan": -float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "5e-324": 5e-324,
    "2^-1074": 2.0**-1074,
    "largest": np.finfo(np.float64).max,
    "smallest normal": np.finfo(np.float64).tiny,
    "round half even": 1442674038297645.25,  # prints ...45.2: the tie's even neighbour
    "round half up": 1442674038297645.75,
    "1.0": 1.0,
    "0.1": 0.1,
    "2^63": 2.0**63,
}


@pytest.mark.parametrize("value", list(EDGES.values()), ids=list(EDGES))
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+", "-"])
def test_edge_values_match_repr(value, sign):
    assert_repr([sign * value, 0.5, sign * value])  # alone, and among ordinary values


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_integers_match_str(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(7)
    edges = np.array([0, 1, 9, 10, info.min, info.max, info.max - 1], dtype=dtype)
    values = np.concatenate([edges, rng.integers(info.min, info.max, 5000, dtype=dtype, endpoint=True)])
    assert kernel_text(values, block=1000).split("\n")[1:] == list(map(str, values.tolist()))


def test_rows_lays_out_cells_after_their_prefixes():
    columns = [np.array([-3, 12]), np.array([0.5, -1e-07]), np.array([7, 8], dtype=np.uint16)]
    rows = Rows(columns, 2, "\r\n", ["", ",", ","])
    assert rows.text(0, 2) == b"\r\n-3,0.5,7\r\n12,-1e-07,8"
    assert rows.text(1, 2) == b"\r\n12,-1e-07,8"
