"""Golden polynomial maps: the state-transition and flow maps of fixed
problems, rebuilt and compared with their recorded ``dump`` output.

The files under ``tests/data/golden_*.txt`` pin the maps a refactor of the
algebra, the models, the flow or the integrator must keep.  Regenerate only
the maps a change moves on purpose, by name, with

    PYTHONPATH=src python3 tests/test_golden_maps.py NAME...

Without a name the script lists the names and exits with status 1, so the
maps a change keeps are never rewritten with last-digit noise.

``tests/data/attitude_scaled_rmse.csv`` and ``tests/data/toy_particles.csv``
pin the end-to-end outputs of the scaled attitude Monte Carlo and of the toy
the same way; see :func:`test_scaled_attitude_rmse_matches_pinned_csv` and
:func:`test_toy_particles_match_pinned_csv`.
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
TOY_RTOL = 1e-8


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
    prior = GaussianBelief(stpm.constant, models.INITIAL_STATE_COV)
    # a measurement off the predicted one by about one noise sigma per component
    sigma = np.sqrt(np.diag(model.noise_cov))
    y = model.h(stpm.constant) + sigma * np.linspace(-1.0, 1.0, model.dim)
    fmap = build_flow_map(prior, model, y, None, cfg.order, cfg.flow_spec())
    return stpm, fmap


def _toy_map(order):
    cfg = ScenarioConfig.from_json(CONFIGS / "toy.json")
    prior = GaussianBelief(TOY_PRIOR_MEAN, TOY_PRIOR_COV)
    return build_flow_map(prior, models.range_model(TOY_NOISE_SIGMA), [TOY_MEASUREMENT],
                          None, order, cfg.flow_spec())


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
    got = fmap.coeffs
    want = parse_dump(_path(name).read_text(), fmap.ctx, fmap.shape[0])
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


def test_toy_particles_match_pinned_csv(toy_sweep):
    """``particles.csv`` of ``daflow toy --config configs/toy.json``: the
    order-8 run's prior cloud exactly, and its polynomial-map and
    per-particle ODE posteriors to ``TOY_RTOL``.

    The toy is one update with no feedback, but a round-off change can still
    flip an adaptive RK7(8) step or a particle's route: scaling h by
    1 + 1e-14 moved the posteriors by up to 4.4e-10 relative.  1e-8 is 20
    times that and 5e4 times below the map's own DA-vs-ODE discrepancy (RMS
    5.1e-4).  Regenerate the file, with BLAS on one thread, only for a
    change that moves the toy on purpose::

        OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \
            python3 -m daflow.cli toy --config configs/toy.json --out OUT
        cp OUT/particles.csv tests/data/toy_particles.csv
    """
    result = toy_sweep[0][8]
    lines = (DATA / "toy_particles.csv").read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    columns = dict(zip(lines[0].split(","), table.T))
    np.testing.assert_array_equal(columns["particle_id"], np.arange(len(result.prior)))
    np.testing.assert_array_equal(result.prior, np.stack(
        [columns["x0_prior"], columns["x1_prior"]], axis=1))
    for route in ("da", "ode"):
        want = np.stack([columns[f"x0_post_{route}"], columns[f"x1_post_{route}"]], axis=1)
        np.testing.assert_allclose(getattr(result, f"posterior_{route}"), want,
                                   rtol=TOY_RTOL, atol=0.0)


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or not set(names) <= set(BUILDERS):
        sys.exit(f"usage: {sys.argv[0]} NAME...  (names: {', '.join(sorted(BUILDERS))})")
    for name in names:
        _path(name).write_text(algebra.dump(BUILDERS[name]()))
        print(f"wrote {_path(name)}")
