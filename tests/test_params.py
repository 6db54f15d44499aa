"""The tolerance rule: a tolerance must be finite and >= 0, wherever the library is given one.

``params._check_tolerance`` words the rule once.  ``params._check_gaps``
applies it to ``gap_tol``, which covers both analytic spectra, the numeric
eigensolver, both coupling solvers and ``make_protocol``; ``make_protocol``
applies it to ``ortho_atol`` before it assembles anything.  A gap tolerance of
0 skips the gap.
"""

import math
import re

import numpy as np
import pytest

from pbrlab import (
    CouplingSet,
    OverlapParams,
    ValidationError,
    Variant,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    make_protocol,
    numeric_spectrum,
    protocol,
    solve_by_root_finding,
    solve_closed_form,
)
from pbrlab.protocol import hamiltonian_stack

BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1e-300]

XYZ = CouplingSet(1.0, 2.0, 3.0)

#: Every public function that takes a gap tolerance, called with a valid input otherwise.
GAP_TOL_TAKERS = {
    "analytic_spectrum_xyz": lambda tol: analytic_spectrum_xyz(XYZ, gap_tol=tol),
    "analytic_spectrum_soc": lambda tol: analytic_spectrum_soc(CouplingSet(1.0, 0.5, -1.0, 1.0), gap_tol=tol),
    "numeric_spectrum": lambda tol: numeric_spectrum(hamiltonian_stack(Variant.XYZ, [XYZ]), tol),
    "solve_closed_form": lambda tol: solve_closed_form(0.7, 1.0, 2.0, b=0.5, gap_tol=tol),
    "solve_by_root_finding": lambda tol: solve_by_root_finding(0.7, 1.0, 2.0, b=0.5, gap_tol=tol),
    "make_protocol": lambda tol: make_protocol(Variant.XYZ, OverlapParams(1.0), XYZ, gap_tol=tol),
}


def _rejected(name: str, tol: float):
    return pytest.raises(ValidationError, match=re.escape(f"{name} must be finite and >= 0, got {tol!r}"))


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
@pytest.mark.parametrize("take", GAP_TOL_TAKERS.values(), ids=GAP_TOL_TAKERS)
def test_a_bad_gap_tol_is_rejected_by_every_taker(take, tol):
    take(0.1)  # the same call with a valid tolerance passes
    with _rejected("gap_tol", tol):
        take(tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
@pytest.mark.parametrize(
    "couplings",
    [CouplingSet(1.0, 1.0, 1.0), CouplingSet(1e308, -1.2e308, 1.7e308)],
    ids=["degenerate", "overflowing"],
)
def test_a_bad_gap_tol_is_named_before_the_spectrum_is_judged(couplings, tol):
    # (1, 1, 1) has the degenerate spectrum (1, 1, 1, -3); a NaN tolerance used to let it through.
    with _rejected("gap_tol", tol):
        make_protocol(Variant.XYZ, OverlapParams(1.0), couplings, gap_tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_a_bad_ortho_atol_is_rejected_before_assembly(monkeypatch, tol):
    assembled = []
    monkeypatch.setattr(protocol, "_assemble", lambda *args: assembled.append(args))
    with _rejected("ortho_atol", tol):
        make_protocol(Variant.XYZ, OverlapParams(1.0), XYZ, ortho_atol=tol)
    assert assembled == []


def test_a_zero_gap_tol_skips_the_gap():
    degenerate = CouplingSet(1.0, 1.0, 1.0)
    assert analytic_spectrum_xyz(degenerate, gap_tol=0.0).eigenvalues == (1.0, 1.0, 1.0, -3.0)
    inst = make_protocol(Variant.XYZ, OverlapParams(1.0), degenerate, gap_tol=0.0)
    assert inst.spectrum.eigenvalues == (1.0, 1.0, 1.0, -3.0)
    values, _ = numeric_spectrum(np.zeros((1, 4, 4)), 0.0)
    assert values.tolist() == [[0.0, 0.0, 0.0, 0.0]]
