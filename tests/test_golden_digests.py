"""Golden digests of the random layer: every uniform, every max-AR path
and every continuous jump chain, bit for bit, the bytes of the discrete
and continuous paths' CSV and JSON texts, every de Haan window, and every
field of the conditional Monte Carlo estimate.

Each digest is the SHA-256 of the float64 bytes a fixed sequence of draws
returns, followed after every draw by the next uniforms of the stream, so
the stream position is pinned too.  A change to how uniforms are built,
buffered or consumed, to how the stationary scan evaluates a path, or
to how the jump chain draws its knots, fails here even when every statistical test still passes.

The digests are regenerated only by a change that means to move bits, and
that change says so in CHANGES.md.
"""

import hashlib
import warnings

import numpy as np
import pytest

from maxstab import (
    ConditionalQuery,
    Direction,
    FiniteMixing,
    GeometricMixing,
    MaxARParams,
    RngState,
    SpectralSampler,
    conditional_cdf_mc,
    continuous_csv_text,
    continuous_json_text,
    dehaan_max_stable,
    discrete_csv_text,
    discrete_json_text,
    simulate_forward,
    simulate_moving_max,
    simulate_moving_max_reversed,
    simulate_reversed,
    spectral_bound,
)
from maxstab.conditional import _MC_BLOCK
from maxstab.continuous import _jump_chain, _reversed_knots
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
# the jump chain's a, and its draws in turn, (count, length): single
# windows from 0.1 to 600 long and batches of 1000
CHAIN_AS = [0.1, 0.5, 0.9, 1.0]
CHAIN_DRAWS = [(1, 0.1), (1000, 0.1), (1, 1.0), (1000, 5.0), (1, 20.0),
               (1000, 20.0), (1, 300.0), (1, 600.0)]
# the continuous texts' window lengths, drawn in turn for each a of the
# jump chain and each direction
TEXT_LENGTHS = [0.1, 1.0, 20.0, 300.0]
# the discrete texts' a, start indices and sizes, drawn in turn for each
# a and direction
DISCRETE_TEXT_AS = [0.0, 0.5, 0.95]
DISCRETE_TEXT_STARTS = [0, -7, 2**62]
DISCRETE_TEXT_NS = [1, 2, 1000]
# the de Haan draws' windows, under decay 0.3 and the default geometric
# mixing, and the draws made of each
DEHAAN_WINDOWS = [(0, 0), (0, 5), (0, 10)]
DEHAAN_DRAWS = 60
# the conditional Monte Carlo's a and mixings, and its queries of 3 and 5
# times; each query runs n = 1000, its block of _MC_BLOCK // times
# onsets minus one, the block, plus one, and 100,000
MC_AS = [0.0, 0.4, 0.9, 1.0]
MC_MIXINGS = {"default": None,
              "finite": FiniteMixing(((-3, 1.0), (0, 2.0), (1, 1.0),
                                      (4, 0.5)))}
MC_QUERIES = [ConditionalQuery((0, 1.2), ((1, 0.9), (-2, 1.5))),
              ConditionalQuery((3, 0.7), ((5, 1.1), (-1, 2.0), (0, 0.8),
                                          (9, 1.4)))]

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

CHAIN_DIGESTS = {
    0.1: "e1d01616ee68e8e603e71ec8cc100b93f4bca204a986e2d79dae9537a95980fc",
    0.5: "739b7058351e174e605ed91ffce850ef05317176fab3d061b7202917e5a5da11",
    0.9: "52c77a46640b1e2cfdc517c19e948666080b22f50665ffc8d7177843abe9d843",
    1.0: "ef294c2c8181d0a92bbc107905b7ea18d23b5a1289d4c9662f738f7bed1ddb96",
}
TEXT_DIGESTS = {
    ("forward", 0.1):
        "6b6a06cc682c36e691ab0d897bec43ec077c5c10fd779c9c340381996ef8e12a",
    ("forward", 0.5):
        "61bee2d1550cc985c443edbfdaed7d7458de1300ef582a48629eb6350b575043",
    ("forward", 0.9):
        "4e3b4f4428b256bd2254fbb6bab613f34fa6fdd0d377a4be98272e182e22822d",
    ("forward", 1.0):
        "ae633bc90087464483f9893203c3c39b3714d6fcb79c02561197ae5b4f6fb288",
    ("reversed", 0.1):
        "a2b873172824547aac2b9f888b6963a6dd634db4dc6a3466ff0298fc8d59b678",
    ("reversed", 0.5):
        "cc34096fafaba504c8b0335d266e5b49b6a349e6aa01387b4142fc6151b19eec",
    ("reversed", 0.9):
        "ee5c117c6cfac3f9022f1f51070976da9d5e459f2fdf19c78000ec813e5d5891",
    ("reversed", 1.0):
        "68d7839a9042bb42048aca487a8f994e1520d42454137ad4f7d7a88bad9a1843",
}
DISCRETE_TEXT_DIGESTS = {
    ("forward", 0.0):
        "abb515cdb93a998d8ed830450746a55a774480505e28da76bd7ac5f0e30dd2d2",
    ("forward", 0.5):
        "ba5578061c3608c3415cf6101dde8882d6d321cb4ec0ddb44075b91ea0e6b290",
    ("forward", 0.95):
        "20e200fd3e8daafd3f8eb2eef350a3c6576c295d5a662c679e941d1197281c90",
    ("reversed", 0.0):
        "210484295cacbf30d8e7caf79e2b59dc93ed4e9863e909b3902d29441f6fb78f",
    ("reversed", 0.5):
        "f4a10ac7f7d175bbabec43a34000c9e80969059a3e072ca5514bc83c6b9042a5",
    ("reversed", 0.95):
        "7165aeebd966ff1a5923fa221c35201fb85b87522fcd7c726ffea3a95f499613",
}
DEHAAN_DIGESTS = {
    (0, 0): "cd2d0f4197a6c0858522933b4b005a20d48522e6d3b2df8be550cc45a5cd5581",
    (0, 5): "415e544b630d979363c86836c91eb88c6894374fb8cb40b311838ea036731e6f",
    (0, 10):
        "8d6f7ae5f2442a6c3179af44b242d3783718b087f9236d4e305e26b28d2553d9",
}

MC_DIGESTS = {
    ("default", 0.0):
        "cbcaf7c593ecaf2159ec920b3b2ce997fa810755a4a331f65efc90e8f9300d62",
    ("default", 0.4):
        "852447cc8e04f1dd55b391448a98fd5b1d90807402949c0a17a7b479c3221512",
    ("default", 0.9):
        "b3230d001c5fb604443c62f852cc2851bd31a66d690865a0be9602f3c88a216d",
    ("default", 1.0):
        "c19a43eea8e62b9ad7cbf3ad1566df73a1d3032794a433136c7ed0c389d926fa",
    ("finite", 0.0):
        "e690b2316af5481e5f5a159639f6baca8d90c917b0173fd95ab2c4e4d21e7edb",
    ("finite", 0.4):
        "d38a0bca85ef1757799c2a5dbed41f8d65da82db1e524d402416fbb055729195",
    ("finite", 0.9):
        "c83c459827b416265964009bbfbac984758469f9cbcce0ce689b1e2a0501c7d4",
    ("finite", 1.0):
        "45ea9fe7778293abf77db273ce5e38b0c931404bd822e6100e27331d0bb85014",
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


def chain_digest(a: float) -> str:
    rng = RngState(43, CHAIN_AS.index(a))
    arrays = []
    for count, length in CHAIN_DRAWS:
        knots = _jump_chain(a, length, count, rng)
        arrays += [*knots, *_reversed_knots(a, length, knots)[1:],
                   rng.uniform(size=PROBE)]
    return _digest(arrays)


@pytest.mark.parametrize("a", CHAIN_AS)
def test_jump_chains(a):
    """Forward knots and their time reversal, one window and batches."""
    assert chain_digest(a) == CHAIN_DIGESTS[a]


def text_digest(direction: str, a: float) -> str:
    simulate = simulate_moving_max if direction == "forward" \
        else simulate_moving_max_reversed
    rng = RngState(47, 2 * CHAIN_AS.index(a) + (direction == "reversed"))
    h = hashlib.sha256()
    with warnings.catch_warnings():
        # the reversed a = 1 path is the forward one, with a warning
        warnings.simplefilter("ignore", UserWarning)
        for length in TEXT_LENGTHS:
            path = simulate(a, length, rng)
            for text in (continuous_json_text(path),
                         continuous_csv_text(path)):
                h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("direction, a", list(TEXT_DIGESTS))
def test_continuous_texts(direction, a):
    """The JSON and CSV texts of forward and reversed windows, byte for
    byte: the event table's rounding and order reach the files intact."""
    assert text_digest(direction, a) == TEXT_DIGESTS[direction, a]


def discrete_text_digest(direction: str, a: float) -> str:
    simulate = simulate_forward if direction == "forward" else simulate_reversed
    rng = RngState(59, 2 * DISCRETE_TEXT_AS.index(a)
                   + (direction == "reversed"))
    params = MaxARParams(a)  # each simulator reads only a
    h = hashlib.sha256()
    for start in DISCRETE_TEXT_STARTS:
        for n in DISCRETE_TEXT_NS:
            path = simulate(params, n, rng, start)
            for text in (discrete_csv_text(path), discrete_json_text(path)):
                h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("direction, a", list(DISCRETE_TEXT_DIGESTS))
def test_discrete_texts(direction, a):
    """The CSV and JSON texts of forward and reversed paths, byte for
    byte, from negative and large start indices, one value up."""
    assert discrete_text_digest(direction, a) \
        == DISCRETE_TEXT_DIGESTS[direction, a]


def dehaan_digest(window: tuple[int, int]) -> str:
    sampler = SpectralSampler.decay(0.3, window, GeometricMixing())
    bound = spectral_bound(sampler)
    rng = RngState(61, DEHAAN_WINDOWS.index(window))
    arrays = []
    for _ in range(DEHAAN_DRAWS):
        arrays += [dehaan_max_stable(sampler, bound, rng).values,
                   rng.uniform(size=PROBE)]
    return _digest(arrays)


@pytest.mark.parametrize("window", DEHAAN_WINDOWS)
def test_dehaan_draws(window):
    """De Haan windows and the stream position after each: the block
    sizes the draw is made in move no bit."""
    assert dehaan_digest(window) == DEHAAN_DIGESTS[window]


def _mc_sizes(query: ConditionalQuery) -> list[int]:
    block = _MC_BLOCK // (1 + len(query.targets))
    return [1000, block - 1, block, block + 1, 100_000]


def mc_digest(mixing: str, a: float) -> str:
    rng = RngState(53, 2 * MC_AS.index(a) + (mixing == "finite"))
    h = hashlib.sha256()
    for query in MC_QUERIES:
        for n in _mc_sizes(query):
            est = conditional_cdf_mc(query, a, n, rng, MC_MIXINGS[mixing])
            fields = [est.value, est.stderr, est.indicator_moment,
                      est.excess_moment, est.indicator_stderr,
                      est.excess_stderr, rng.uniform()]
            h.update((" ".join(map(float.hex, fields))
                      + f" {est.n}\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("mixing, a", list(MC_DIGESTS))
def test_conditional_mc(mixing, a):
    """Every field of the Monte Carlo estimate as float.hex, and the next
    uniform after each run, around the onset block's size and far past
    it: the stream position does not depend on the blocks, and the
    estimate's bits are those of the fixed block _MC_BLOCK."""
    assert mc_digest(mixing, a) == MC_DIGESTS[mixing, a]
