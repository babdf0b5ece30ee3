"""su2qfi.emit.csv_rows against "%.17g" %, byte for byte."""

import numpy as np
import pytest

from su2qfi import emit


def percent_rows(columns):
    """The reference text: one "%" per row."""
    rows = zip(*(column.tolist() for column in columns))
    return "\n".join(",".join(["%.17g"] * len(columns)) % row for row in rows) + "\n"


def neighbours(values, ulps):
    """Each value and the doubles up to ``ulps`` steps below and above it."""
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def hard_corpus():
    """About 200k seeded doubles where a shortcut to %.17g would go wrong."""
    rng = np.random.default_rng(20240611)
    powers = neighbours([float(f"1e{k}") for k in range(-323, 309)], 3)
    # 17 digits of these round up to the next power of ten: "1e+k" or, below it, 9.9999999999999999e(k-1)
    carries = neighbours([float(f"9.99999999999999995e{k}") for k in range(-324, 308)], 3)
    odd = 2 * rng.integers(0, 2**20, 40000) + 1
    ties = np.ldexp(odd.astype(float), rng.integers(-80, 20, odd.size))   # exact decimals, some of 18 digits ending in 5
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = np.concatenate([np.arange(1, 2000) * 5e-324,
                                 rng.integers(1, 2**52, 10000, dtype=np.uint64).view(np.float64)])
    integers = np.concatenate([np.arange(0, 20000), rng.integers(0, 2**60, 20000),
                               2.0**53 + np.arange(-50, 50)]).astype(float)
    switches = neighbours([1e-4, 1e-5, 9.99999999999999995e-5, 1e16, 1e17, 9.99999999999999995e16], 200)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 1e-304, 0.0001, 1e17])
    bits = rng.integers(0, 2**64, 100000, dtype=np.uint64).view(np.float64)
    corpus = np.concatenate([powers, carries, ties, twos, subnormals, integers, switches, special])
    signs = np.where(rng.random(corpus.size) < 0.5, -1.0, 1.0)
    return np.concatenate([corpus * signs, bits])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_rows_equals_percent_formatting_on_hard_values(monkeypatch):
    monkeypatch.setattr(emit, "MIN_CELLS", 0)
    x = hard_corpus()
    assert x.size <= 210000
    for m in (4, 6, 1):
        cells = x[: x.size - x.size % m].reshape(-1, m)
        for lo in range(0, len(cells), 1024):
            columns = list(cells[lo:lo + 1024].T)
            assert emit.csv_rows(columns) == percent_rows(columns)


def test_the_corpus_reaches_the_tie_fallback_and_the_power_of_ten_trap():
    x = hard_corpus()
    _, k, use = emit._digits(x)
    assert (np.isfinite(x) & ~use).any()   # cells within the window of a rounding tie
    # the double nearest 1e-304 lies below it, so its 17 digits are 9.9999999999999997e-305
    assert emit.csv_rows([np.full(emit.MIN_CELLS, 1e-304)]).split("\n")[0] == "9.9999999999999997e-305"


@pytest.mark.parametrize("rows", [1, emit.MIN_CELLS - 1, emit.MIN_CELLS, 2 * emit.MIN_CELLS])
def test_csv_rows_equals_percent_formatting_below_and_above_the_threshold(rows):
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)]
    assert emit.csv_rows(columns) == percent_rows(columns)
