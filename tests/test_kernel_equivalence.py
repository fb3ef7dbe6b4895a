"""The bucketed rounding kernel against the binary-search reference.

Every format is at most 16 bits wide, so the check is exhaustive: every grid
point and every midpoint, each with its one-ulp neighbours, on the raw grid
and on the x_max-normalized grid the quantizer uses, in both rounding modes.
"""

import numpy as np
import pytest

from emastall.formats import PRESETS, FpFormat, _normalized_grid, _raw_grid, _table

from kernel_oracle import OracleGrid, oracle_grid

CUSTOM = [
    FpFormat("e3m0", 1, 3, 0, 3),
    FpFormat("e3m2_nosub", 1, 3, 2, 3, has_subnormals=False),
    FpFormat("e3m2u_nozero", 0, 3, 2, 3, exclude_zero=True),
    FpFormat("e5m10", 1, 5, 10, 15),
    FpFormat("single_point", 0, 1, 0, 0, has_subnormals=False, exclude_zero=True),
]
FORMATS = list(PRESETS.values()) + CUSTOM
GRIDS = {"raw": _raw_grid, "normalized": _normalized_grid}


def probe_magnitudes(values: np.ndarray) -> np.ndarray:
    """Grid points, midpoints, their one-ulp neighbours, and tiny values."""
    points = np.concatenate([values, (values[:-1] + values[1:]) / 2.0])
    probes = np.concatenate([
        points,
        np.nextafter(points, np.inf),
        np.nextafter(points, -np.inf),
        [0.0, -0.0, 5e-324],
    ])
    # the kernel takes magnitudes; -0.0 is one, -5e-324 is not
    return probes[~(probes < 0)]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_grid_table_bit_identical_to_enumeration(fmt):
    values, codes = oracle_grid(fmt)
    t = _table(fmt)
    assert t.mag_values.dtype == values.dtype and t.mag_codes.dtype == codes.dtype
    assert np.array_equal(t.mag_values.view(np.int64), values.view(np.int64))
    assert np.array_equal(t.mag_codes, codes)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_nearest_idx_matches_searchsorted(fmt, grid_name):
    grid = GRIDS[grid_name](fmt)
    oracle = OracleGrid(grid.values, grid.codes, grid.even)
    mag = probe_magnitudes(grid.values)
    assert np.array_equal(grid.nearest_idx(mag), oracle.nearest_idx(mag))


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_stochastic_idx_matches_searchsorted(fmt, grid_name):
    grid = GRIDS[grid_name](fmt)
    oracle = OracleGrid(grid.values, grid.codes, grid.even)
    mag = probe_magnitudes(grid.values)
    rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        assert np.array_equal(
            grid.stochastic_idx(mag, rng), oracle.stochastic_idx(mag, oracle_rng)
        )
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
