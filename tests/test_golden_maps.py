"""Golden polynomial maps: the state-transition and flow maps of fixed
problems, rebuilt and compared with their recorded ``dump`` output.

The files under ``tests/data/golden_*.txt`` pin the maps a refactor of the
algebra, the models, the flow or the integrator must keep.  Regenerate only
the maps a change moves on purpose, by name, with

    PYTHONPATH=src python3 tests/test_golden_maps.py NAME...

Without a name the script lists the names and exits with status 1, so the
maps a change keeps are never rewritten with last-digit noise.

``tests/data/attitude_scaled_rmse.csv`` pins the end-to-end output of the
scaled attitude Monte Carlo the same way; see
:func:`test_scaled_attitude_rmse_matches_pinned_csv`.
"""

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from daflow import algebra, harness, models
from daflow.filter import DYNAMICS_SPEC, build_stpm
from daflow.flow import GaussianBelief, build_flow_map
from daflow.harness import (
    TOY_MEASUREMENT,
    TOY_NOISE_SIGMA,
    TOY_PRIOR_COV,
    TOY_PRIOR_MEAN,
    ScenarioConfig,
)

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
REL_TOL = 1e-9
RMSE_RTOL = 1e-8


@functools.cache
def _attitude_maps():
    """STPM over one measurement period from the default initial state, and
    the flow map at its constant part, at the configs/attitude.json
    setting."""
    cfg = ScenarioConfig.from_json(CONFIGS / "attitude.json")
    x0 = models.DEFAULT_INITIAL_STATE.as_vector()
    stpm = build_stpm(x0, models.attitude_dynamics(), 0.0, cfg.meas_period,
                      cfg.order, DYNAMICS_SPEC)
    model = models.stacked_measurement()
    prior = GaussianBelief(stpm.components.constant, models.INITIAL_STATE_COV)
    # a measurement off the predicted one by about one noise sigma per component
    sigma = np.sqrt(np.diag(model.noise_cov))
    y = model.h(stpm.components.constant) + sigma * np.linspace(-1.0, 1.0, model.dim)
    fmap = build_flow_map(prior, model, y, cfg.schedule(), cfg.order, cfg.flow_spec())
    return stpm, fmap


def _toy_map(order):
    cfg = ScenarioConfig.from_json(CONFIGS / "toy.json")
    prior = GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV)
    return build_flow_map(prior, models.range_model(TOY_NOISE_SIGMA), [TOY_MEASUREMENT],
                          cfg.schedule(), order, cfg.flow_spec())


BUILDERS = {
    "attitude_stpm": lambda: _attitude_maps()[0],
    "attitude_flow_mean": lambda: _attitude_maps()[1],
    "toy_flow_order8": lambda: _toy_map(8),
}


def _path(name: str) -> Path:
    return DATA / f"golden_{name}.txt"


def parse_dump(text: str, ctx: algebra.AlgebraContext, n_components: int) -> np.ndarray:
    """Dense (n_components, basis size) coefficients of a ``dump`` text."""
    out = np.zeros((n_components, ctx.size))
    for line in text.splitlines():
        ci, coeff, exps = line.split(", ")
        out[int(ci), ctx.index_of(exps.split())] = float(coeff)
    return out


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_map_matches_golden_dump(name):
    fmap = BUILDERS[name]()
    got = fmap.components.coeffs
    want = parse_dump(_path(name).read_text(), fmap.components.ctx,
                      fmap.components.shape[0])
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= REL_TOL * scale), (
        f"{name}: largest relative deviation "
        f"{float((np.abs(got - want) / scale).max()):.3g}")


def test_scaled_attitude_rmse_matches_pinned_csv(attitude_mc_scaled):
    """``rmse.csv`` of ``daflow attitude --config configs/attitude_scaled.json``:
    the epoch times exactly, and both methods' per-epoch block RMSE to
    ``RMSE_RTOL``.

    The filter's feedback grows a round-off change in h or the flow about
    1e5-fold, so the CSV cannot be pinned byte for byte.  1e-8 is 150 times
    the largest move a round-off or integrator change has caused (6.5e-11)
    and 1e4 times below the move of a new flow law (1.4e-4).  Regenerate the
    file, with BLAS on one thread, only for a change that moves the filter on
    purpose::

        OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \
            python3 -m daflow.cli attitude --config configs/attitude_scaled.json --out OUT
        cp OUT/rmse.csv tests/data/attitude_scaled_rmse.csv
    """
    summary, _ = attitude_mc_scaled
    lines = (DATA / "attitude_scaled_rmse.csv").read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    columns = dict(zip(lines[0].split(","), table.T))
    np.testing.assert_array_equal(summary.times, columns["time"])
    for method in ("da", "ode"):
        want = np.stack([columns[f"xi_{block}_{method}"] for block in harness.BLOCKS], axis=1)
        np.testing.assert_allclose(summary.rmse[method], want, rtol=RMSE_RTOL, atol=0.0)


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or not set(names) <= set(BUILDERS):
        sys.exit(f"usage: {sys.argv[0]} NAME...  (names: {', '.join(sorted(BUILDERS))})")
    for name in names:
        _path(name).write_text(algebra.dump(BUILDERS[name]()))
        print(f"wrote {_path(name)}")
