"""``cli._write_rows``: the exact ``%.Ng`` conversion against ``%`` itself."""

import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfgm import cli


def _written(precisions, values, chunk=None):
    """``_write_rows`` output, with chunks of ``chunk`` values when given."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(cli, "_WRITE_CHUNK_VALUES", chunk)
        cli._write_rows(buf, precisions, values)
    return buf.getvalue()


def _percent(precisions, values):
    """The reference: one ``%`` over all rows."""
    fmt = ",".join(f"%.{n}g" for n in precisions) + "\n"
    return fmt * values.shape[0] % tuple(values.ravel().tolist())


_POWERS_OF_TEN = [10.0**q for q in range(-7, 19)]
_EDGES = [
    99999.99999999999,  # rounds to 100000 at N=16 only through the exact y < 10^N test
    0.6369616873214543,  # last digit lost if the rounding carry is added in float64
    2.0**-25,  # an exact tie at N=17
    2.0**-13,  # an exact tie at N=9, in fixed notation
    0.125,
    2.5,
    0.15,  # decimal ties that the double falls just below: near-ties at N=1, 3, 3
    2.675,
    1.005,
    1 - 2.0**-53,
    9.99999999999999e-05,
    1e-5,
    1e16,
    1e17,
    5e-324,
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    np.nan,
    *_POWERS_OF_TEN,
    *np.nextafter(_POWERS_OF_TEN, 0.0),
    *np.nextafter(_POWERS_OF_TEN, np.inf),
]


def _floats(draw, size):
    kind = draw(st.sampled_from(["bits", "uniform", "power_of_ten"]))
    if kind == "bits":
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
        return np.array(bits, dtype=np.uint64).view(np.float64)
    if kind == "uniform":
        return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    powers = draw(st.lists(st.integers(-7, 18), min_size=size, max_size=size))
    steps = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    ten = np.array([10.0**q for q in powers])
    return (ten.view(np.int64) + np.array(steps)).view(np.float64)


@st.composite
def _tables(draw):
    precisions = draw(
        st.one_of(st.lists(st.integers(1, 17), min_size=1, max_size=4), st.just([10, 10, 12]))
    )
    rows = draw(st.integers(1, 40))
    values = _floats(draw, rows * len(precisions)).reshape(rows, len(precisions))
    return precisions, values, draw(st.integers(1, 50))


class TestWriteRows:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_tables())
    def test_matches_percent(self, case):
        precisions, values, chunk = case
        assert _written(precisions, values, chunk) == _percent(precisions, values)

    def test_transient_memory_is_one_chunk(self):
        # 4000 x 30 values make 30 chunks of 2^12; one chunk peaks near 1.4 MB,
        # while formatting the whole block at once would take about 40 MB
        values = np.random.default_rng(0).uniform(size=(4000, 30))
        with open(os.devnull, "w") as sink:
            cli._write_rows(sink, [17] * 30, values[:1])
            tracemalloc.start()
            try:
                cli._write_rows(sink, [17] * 30, values)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2_000_000

    @pytest.mark.parametrize("n", range(1, 18))
    def test_edges(self, n):
        values = np.array(_EDGES).reshape(-1, 1)
        assert _written([n], values) == _percent([n], values)
        values = np.array(_EDGES[: len(_EDGES) // 3 * 3]).reshape(-1, 3)
        assert _written([10, 10, 12], values) == _percent([10, 10, 12], values)

    @pytest.mark.parametrize(
        "values, chunks",
        [
            (np.full((40000, 1), 0.0), 10),  # all out of range: every value by %
            (np.full((40000, 1), 1e-30), 10),
            (np.random.default_rng(1).uniform(size=(500, 1)), 1),
            (np.where(np.arange(4096) % 5 == 0, 0.0, 0.5).reshape(-1, 1), 1),  # 80% in range
            (np.random.default_rng(2).uniform(size=(9000, 1)), 3),  # 4096 + 4096 + a short 808
            (np.full((1, 1), 0.25), 1),
            (np.empty((0, 1)), 0),
        ],
    )
    def test_one_format_g_call_per_chunk(self, monkeypatch, values, chunks):
        calls = []
        format_g = cli._format_g
        monkeypatch.setattr(cli, "_format_g", lambda *a: calls.append(a[0].size) or format_g(*a))
        buf = io.StringIO()
        cli._write_rows(buf, [12], values)
        assert buf.getvalue() == _percent([12], values)
        assert len(calls) == chunks
