"""numpy is the only runtime dependency: what replaced scipy, checked against scipy."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavdet.params import C_LIGHT, HBAR, K_B
from cavdet.trajectory_sim import garwood_interval, gamma_quantile

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy_and_no_process_pool():
    probe = (
        # cavdet.MHZ imports every module of the package, cli.run_ensemble
        # the transit simulator
        "import sys; import cavdet.cli; cavdet.cli.run_ensemble; cavdet.MHZ; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"


def test_constants_equal_scipy():
    constants = pytest.importorskip("scipy.constants")
    assert C_LIGHT == constants.c
    assert HBAR == constants.hbar
    assert K_B == constants.k


def test_garwood_matches_chi2_ppf():
    stats = pytest.importorskip("scipy.stats")
    n = np.arange(2001)
    span = 0.16
    lo_ref = stats.chi2.ppf(0.025, 2 * n) / (2.0 * span)
    hi_ref = stats.chi2.ppf(0.975, 2 * n + 2) / (2.0 * span)
    bounds = np.array([garwood_interval(int(k), span) for k in n])
    assert bounds[0, 0] == 0.0
    np.testing.assert_allclose(bounds[1:, 0], lo_ref[1:], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(bounds[:, 1], hi_ref, rtol=1e-12, atol=0.0)


def test_garwood_zero_events_upper_bound():
    span = 0.16
    assert garwood_interval(0, span) == (0.0, -math.log(0.025) / span)


def _poisson_tails(shape, x):
    """(Q, P) = (P(K < shape), P(K >= shape)) for K ~ Poisson(x), each summed directly."""
    k = np.arange(shape + int(x + 40.0 * math.sqrt(x) + 50.0))
    log_terms = k * math.log(x) - x - np.array([math.lgamma(j + 1.0) for j in k])
    terms = np.exp(log_terms)
    return math.fsum(terms[:shape]), math.fsum(terms[shape:])


@pytest.mark.parametrize("shape", [1, 2, 7, 150])
@pytest.mark.parametrize("q", [1e-9, 0.025, 0.5, 0.975])
def test_gamma_quantile_inverts_both_tails(shape, q):
    # P(shape, x), the regularized lower incomplete gamma function, is P(K >= shape)
    assert _poisson_tails(shape, gamma_quantile(shape, q))[1] == pytest.approx(q, rel=1e-9)
    assert _poisson_tails(shape, gamma_quantile(shape, q, upper=True))[0] == pytest.approx(
        q, rel=1e-9
    )


@pytest.mark.parametrize("shape, q", [(0, 0.5), (3, 0.0), (3, 1.0)])
def test_gamma_quantile_rejects_bad_arguments(shape, q):
    with pytest.raises(ValueError):
        gamma_quantile(shape, q)
