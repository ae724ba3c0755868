"""Each output check passes on the program's output and fails on a tampered copy.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import transportlab  # noqa: E402
import transportlab.cli  # noqa: E402,F401

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _first(workload_cls, index, tmp_path):
    """Scenario ``index`` of the workload at SEED, run once by the program."""
    wl = workload_cls(transportlab, SEED, str(tmp_path))
    outcome = wl.run(index, str(tmp_path))
    assert outcome.failed == 0
    wl.check(index, outcome)  # the untampered output passes every check
    return wl.specs[index], outcome


def _tampered(array, index, factor=1.001):
    out = np.array(array, dtype=float, copy=True)
    out[index] *= factor
    return out


# ---------------------------------------------------------------------------
# continuity_certify: scenario 0 has the closed-form (affine) speed
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def continuity(tmp_path_factory):
    spec, outcome = _first(workloads.ContinuityCertify, 0,
                           tmp_path_factory.mktemp("continuity"))
    sim, cert, files = outcome.data
    times, xs, rho = checks.read_field(files[0])
    return spec, sim, cert, files, times, xs, rho


def test_positivity_check_catches_a_negative_node(continuity):
    *_, rho = continuity
    with pytest.raises(checks.CheckError):
        checks.check_positive(_tampered(rho, (5, 7), -1.0))


def test_inflow_check_catches_a_scaled_wall_node(continuity):
    spec, *_, times, xs, rho = continuity
    with pytest.raises(checks.CheckError):
        checks.check_inflow(times, _tampered(rho, (10, 0)), spec.rho_s, spec.b_fn())


def test_mass_balance_check_catches_a_scaled_row(continuity):
    spec, *_, times, xs, rho = continuity
    with pytest.raises(checks.CheckError):
        checks.check_mass_balance(times, xs, _tampered(rho, 40), spec.v_fn())


def test_mass_balance_check_catches_a_wrong_speed(continuity):
    spec, *_, times, xs, rho = continuity
    v = spec.v_fn()
    with pytest.raises(checks.CheckError):
        checks.check_mass_balance(times, xs, rho, lambda t, x: 1.01 * v(t, x))


def test_closed_form_check_catches_one_scaled_node(continuity):
    spec, *_, times, xs, rho = continuity
    with pytest.raises(checks.CheckError):
        checks.check_closed_form(times, xs, _tampered(rho, (len(times) // 2, 30)),
                                 spec.exact)


def test_cert_lhs_check_catches_one_scaled_field_node(continuity):
    spec, sim, cert, files, times, xs, rho = continuity
    rows = checks.read_cert(files[1])
    with pytest.raises(checks.CheckError):
        checks.check_cert_lhs(rows, times, xs, _tampered(rho, (len(times) - 1, 30)),
                              spec.rho_s)


def test_cert_lhs_check_catches_one_scaled_lhs(continuity):
    spec, sim, cert, files, times, xs, rho = continuity
    rows = checks.read_cert(files[1])
    est, p, mu, t, lhs = rows[len(rows) // 2]
    rows[len(rows) // 2] = (est, p, mu, t, lhs * 1.001)
    with pytest.raises(checks.CheckError):
        checks.check_cert_lhs(rows, times, xs, rho, spec.rho_s)


def test_cert_json_check_catches_a_failed_verdict(continuity, tmp_path):
    *_, files, times, xs, rho = continuity
    with open(files[2], encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad_cert.json"
    bad.write_text(text.replace('"passed": true', '"passed": false', 2))
    expected = len(gen.CONTINUITY_P) * len(gen.CONTINUITY_MU)
    with pytest.raises(checks.CheckError):
        checks.check_cert_json(str(bad), expected)


def test_exit_status_check_catches_a_nonzero_status(continuity):
    spec, sim, *_ = continuity
    with pytest.raises(checks.CheckError):
        checks.check_exit_status(1, sim[1])


# ---------------------------------------------------------------------------
# transport_oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def transport(tmp_path_factory):
    spec, outcome = _first(workloads.TransportOracle, 0,
                           tmp_path_factory.mktemp("transport"))
    status, printed, refine, values = outcome.data
    return spec, refine, values


def test_point_check_catches_a_shifted_value(transport):
    spec, refine, values = transport
    shifted = list(values)
    shifted[2] += 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_points(spec.queries, shifted, spec.wstar_fn())


def test_refine_check_catches_a_ratio_of_one(transport):
    spec, refine, values = transport
    assert 1.9 < checks.read_refine_ratio(refine) < 2.1
    with pytest.raises(checks.CheckError):
        checks.check_refine_ratio(1.0)


# ---------------------------------------------------------------------------
# closed_loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def closed_loop(tmp_path_factory):
    spec, outcome = _first(workloads.ClosedLoop, 1,
                           tmp_path_factory.mktemp("closed_loop"))
    path, envelope_ok, passed = outcome.data
    with np.load(path) as saved:
        arrays = {k: saved[k] for k in ("times", "xs", "rho", "v")}
    return spec, arrays, envelope_ok, passed


def test_speed_check_catches_a_wrong_lambda(closed_loop):
    spec, a, *_ = closed_loop
    wrong = gen.numpy_fn(f"{spec.c!r}/(1 + {spec.k * 1.01!r}*W)", ("W",))
    with pytest.raises(checks.CheckError):
        checks.check_loop_speed(a["xs"], a["rho"], a["v"], wrong)


def test_envelope_check_catches_a_scaled_peak(closed_loop):
    spec, a, *_ = closed_loop
    peak = np.unravel_index(np.argmax(a["rho"]), a["rho"].shape)
    envelope = checks.data_envelope(spec.rho_s, spec.rho0_fn(), spec.b_fn(),
                                    spec.horizon)
    with pytest.raises(checks.CheckError):
        checks.check_envelope(_tampered(a["rho"], peak), envelope)


def test_inventory_balance_check_catches_a_scaled_row(closed_loop):
    spec, a, *_ = closed_loop
    with pytest.raises(checks.CheckError):
        checks.check_loop_mass(a["times"], a["xs"], _tampered(a["rho"], 300), a["v"])


def test_verdict_check_catches_a_failed_certificate(closed_loop):
    spec, a, envelope_ok, passed = closed_loop
    with pytest.raises(checks.CheckError):
        checks.check_verdicts(envelope_ok, [False] + list(passed[1:]))
    with pytest.raises(checks.CheckError):
        checks.check_verdicts(False, passed)
