"""Golden digests of the random layer: every uniform and every max-AR
path, bit for bit.

Each digest is the SHA-256 of the float64 bytes a fixed sequence of draws
returns, followed after every draw by the next uniforms of the stream, so
the stream position is pinned too.  A change to how uniforms are built,
buffered or consumed, or to how the stationary scan evaluates a path,
fails here even when every statistical test still passes.

The digests are regenerated only by a change that means to move bits, and
that change says so in CHANGES.md.
"""

import hashlib
import warnings

import numpy as np
import pytest

from maxstab import (
    Direction,
    MaxARParams,
    RngState,
    simulate_forward,
    simulate_reversed,
)
from maxstab.distributions import _uniforms
from maxstab.maxar import _stationary_windows

KEYS = [(0, 0), (1, 0), (7, 3), (2**63, 1), (2**64 - 1, 2**64 - 1)]
UNIFORM_SIZES = [None, 511, None, 513, 5000, 1, 512]
EDGE_RAW = [0, 2**64 - 1, 2**63, 4095, 4096]
PATH_AS = [0.0, 0.05, 0.5, 0.95, 1.0]
PATH_NS = [1, 511, 512, 513, 100_000]
PROBE = 4  # uniforms read after each draw to pin the stream position
# the battery's window shapes, (width, count), and the long draws' a
WINDOW_SHAPES = [(2, 5000), (3, 5000), (600, 7)]
LONG_AS = [0.05, 0.5, 0.95]
LONG_N = 1_000_000

UNIFORM_DIGESTS = {
    (0, 0):
        "45775a1e065fb0423194cd2892ba9ef242efd055acdc97e9d97975030fffa091",
    (1, 0):
        "713dbb0ddd47de1a99710df6bf88b2afcbcb0f287e4a99e7585111d496cd8efb",
    (7, 3):
        "bd51b72b7781bd9ebbb2ca3b3e87063f86c349b2417fe6a682b397125775335e",
    (2**63, 1):
        "2bbacd05dd8d1d5813f7eb98b69a8f14d56da24f6020f0bb5f9b48e7981d9ffc",
    (2**64 - 1, 2**64 - 1):
        "d77d1eb95b8041f4f4cd79a7d890450deee9b5bb8f1cf387e3a0de33de2a24ff",
}
EDGE_DIGEST = (
    "3920b6c89a141f555e26f3277de10e770fabb5e278666de6927f5356a20461f4")
PATH_DIGESTS = {
    ("forward", 0.0):
        "d6c240644ee04c83652775daa21eb8e1faf3666545fee867b080ced71b7bbb8d",
    ("forward", 0.05):
        "e751c58cb393dc919390e1ea15389793af1ee7db81e6dd6adf7da192181e5c34",
    ("forward", 0.5):
        "aea0f62aec1378a014fbd13c842b8889664bb44aaf838f1519140dd304eb5231",
    ("forward", 0.95):
        "96209ffdf5ecc5b03c307dda947ec72d0e80082abf9c92ea89fdb9bdca1cc056",
    ("forward", 1.0):
        "a08bd8e35c7429c6e9ddadbfa78aa3b905eacced2cf28028f707dcc9143a0695",
    ("reversed", 0.0):
        "d6c240644ee04c83652775daa21eb8e1faf3666545fee867b080ced71b7bbb8d",
    ("reversed", 0.05):
        "faa7574c4ac7b8018790b191e8021c25ea54ca0e98ea20a5dec2ccda3cb538f9",
    ("reversed", 0.5):
        "503131c3d5fef64231f88f2b3882101f35d5569ef382ba73d9804156dbeec932",
    ("reversed", 0.95):
        "9068b075ef1968e983c24b3405b0ed4531ac5e33e1e085b46c1f023abb74a4c1",
    ("reversed", 1.0):
        "a08bd8e35c7429c6e9ddadbfa78aa3b905eacced2cf28028f707dcc9143a0695",
}

WINDOW_DIGESTS = {
    (2, 5000):
        "2a928d70b24c1c6e14354e2765a75a209dafe1d6ac5827847915633b2e56a41f",
    (3, 5000):
        "c426f278802915d32e2510c69cb8798f64d397ab4dd2ad2a7fbaa7988deefae2",
    (600, 7):
        "0b7e75ccc5480d355053b194e6b7033465a176b4eed6882576a46bf958ee8a8d",
}
LONG_DIGESTS = {
    0.05: "546d8e35a8da612fac1d1fd918b67379119957f094d90814bb989618cceab077",
    0.5: "c501f40f5672373ff70950a4a071cca770dcf59f43f147f0b03e8ff9db16014c",
    0.95: "6e35f5813300c5ed30c71e4ee9b1dd9a7ecd828ecd21c986530bfab3ba9ce866",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def uniform_digest(seed: int, stream: int) -> str:
    rng = RngState(seed, stream)
    arrays = []
    for size in UNIFORM_SIZES:
        arrays += [np.atleast_1d(rng.uniform(size)), rng.uniform(size=PROBE)]
    return _digest(arrays)


def edge_digest() -> str:
    return _digest([_uniforms(np.array(EDGE_RAW, dtype=np.uint64))])


def path_digest(direction: str, a: float) -> str:
    simulate = simulate_forward if direction == "forward" else simulate_reversed
    rng = RngState(31, PATH_AS.index(a))
    arrays = []
    with warnings.catch_warnings():
        # a reversed chain with a in {0, 1} is canonicalized with a warning
        warnings.simplefilter("ignore", UserWarning)
        params = MaxARParams(a, Direction(direction))
    for n in PATH_NS:
        arrays += [simulate(params, n, rng).values, rng.uniform(size=PROBE)]
    return _digest(arrays)


@pytest.mark.parametrize("key", KEYS)
def test_uniform_blocks(key):
    assert uniform_digest(*key) == UNIFORM_DIGESTS[key]


def test_raw_edge_values():
    u = _uniforms(np.array(EDGE_RAW, dtype=np.uint64))
    half = 2.0**-53
    assert u.tolist() == [half, 1.0 - half, 0.5 + half, half, 3 * half]
    assert edge_digest() == EDGE_DIGEST


@pytest.mark.parametrize("direction, a", list(PATH_DIGESTS))
def test_paths(direction, a):
    assert path_digest(direction, a) == PATH_DIGESTS[direction, a]


def window_digest(width: int, count: int) -> str:
    rng = RngState(37, width)
    arrays = []
    for a in PATH_AS:
        arrays += [_stationary_windows(a, width, count, rng),
                   rng.uniform(size=PROBE)]
    return _digest(arrays)


def long_digest(a: float) -> str:
    rng = RngState(41, LONG_AS.index(a))
    arrays = []
    for direction in Direction:
        params = MaxARParams(a, direction)
        simulate = (simulate_forward if direction is Direction.FORWARD
                    else simulate_reversed)
        arrays += [simulate(params, LONG_N, rng).values,
                   rng.uniform(size=PROBE)]
    return _digest(arrays)


@pytest.mark.parametrize("width, count", WINDOW_SHAPES)
def test_windows(width, count):
    assert window_digest(width, count) == WINDOW_DIGESTS[width, count]


@pytest.mark.parametrize("a", LONG_AS)
def test_long_paths(a):
    """A forward and a reversed 1e6 draw: many scan blocks per pass."""
    assert long_digest(a) == LONG_DIGESTS[a]
