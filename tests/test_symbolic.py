"""Symbolic proofs of the analytic formulas, each bound to the code at seeded points.

- The closed-form couplings satisfy cos(alpha + theta) = 0.  With t = tan θ > 0
  and d > 0, the closed form a + c = 2d cot 2θ is s = d(1/t − t).  The mixing
  angle's tangent (s + √(s² + 4d²)) / 2d then simplifies to 1/t = cot θ, so
  alpha = π/2 − θ.  Bound by evaluating ``params.constraint`` at the closed form.
- ``params.mixing_angle``'s two forms are equal:
  (s + √(s² + 4d²)) / 2d = 2d / (√(s² + 4d²) − s) for d ≠ 0.  Bound by
  comparing ``mixing_angle`` with the arctangent of each form, evaluated to 40
  digits, on both of its branches (s >= 0 and s < 0).
- Both Hamiltonians are the real symmetric matrix ((c, −d, d, a−b),
  (−d, −c, a+b, −d), (d, a+b, −c, d), (a−b, −d, d, c)), with d = 0 for the
  exchange one.  Bound with the spectra below: each entry of
  ``hamiltonian_entries`` equals the proved entry evaluated over ``Fraction``
  and rounded once, since each is one correctly rounded operation.
- The Bell states are the eigenvectors of a XX + b YY + c ZZ, with the
  eigenvalues ``params.xyz_eigenvalues`` returns.  Bound by comparing
  ``hamiltonian_entries`` and ``analytic_spectrum_xyz`` with the proved matrix,
  vectors and eigenvalues.
- Φ⁻, Ψ⁺, e'3 and e'4 are the eigenvectors of the spin-orbit Hamiltonian
  a XX + b YY + c ZZ + d (XZ − ZX), with tan α = (s + √(s² + 4d²)) / 2d for
  s = a + c and the eigenvalues ``params.soc_eigenvalues`` returns.  Bound by
  comparing ``hamiltonian_entries`` and ``analytic_spectrum_soc`` with the
  proved matrix, and with the vectors and eigenvalues evaluated to 40 digits.
- Each exchange preparation is orthogonal to exactly one Bell state,
  identically in θ and φ: u⊗u to Ψ⁻ (e4), u⊗vbar to Φ⁻ (e2), v⊗u to Ψ⁺ (e3)
  and v⊗vbar to Φ⁺ (e1).  Bound by comparing ``build_pair_xyz``, the
  instance's preparations, ``protocol.analytic_spectrum`` and
  ``ProtocolInstance.forbidden`` with the proof, and by
  ``forbidden_residuals`` at most 1e-14.
- Each spin-orbit preparation is orthogonal to exactly one of Φ⁻, Ψ⁺, e'3,
  e'4 at α = π/2 − θ: u⊗u to Ψ⁺ (e'2) and v⊗w to Φ⁻ (e'1) identically, while
  u⊗w meets e'4 and v⊗u meets e'3 with overlap e^{−iφ} cos(α + θ)/√2.
  Bound as the exchange map is, on closed-form couplings, and off the
  constraint surface by residuals equal to |cos(α + θ)|/√2.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import sympy as sp

from pbrlab import protocol
from pbrlab.coupling_solver import solve_closed_form
from pbrlab.hamiltonian import analytic_spectrum_soc, analytic_spectrum_xyz, hamiltonian_entries
from pbrlab.params import CouplingSet, OverlapParams, Variant, constraint, mixing_angle
from pbrlab.qstate import build_pair_soc, build_pair_xyz

t, d, theta = sp.symbols("t d theta", positive=True)
S = d * (1 / t - t)


def test_closed_form_sum_is_d_times_cot_minus_tan():
    # cot 2θ = (1 − tan²θ) / (2 tan θ), the double-angle formula.
    cot_2theta = 1 / sp.expand_trig(sp.tan(2 * theta))
    closed_form = (2 * d * cot_2theta).subs(sp.tan(theta), t)
    assert sp.simplify(closed_form - S) == 0


def test_closed_form_gives_tan_alpha_cot_theta():
    # s² + 4d² = d²(t + 1/t)², a square of a positive, so the root resolves.
    square = d**2 * (t + 1 / t) ** 2
    assert sp.expand(S**2 + 4 * d**2 - square) == 0
    root = sp.sqrt(square)
    assert root == d * (t + 1 / t)
    tan_alpha = (S + root) / (2 * d)
    assert sp.simplify(tan_alpha - 1 / t) == 0


def test_constraint_vanishes_at_the_closed_form_to_rounding():
    draw = random.Random(20120229)
    worst = 0.0
    for _ in range(50):
        th = draw.uniform(0.01, math.pi / 2.0 - 0.01)
        dd = math.exp(draw.uniform(math.log(1e-3), math.log(1e3)))
        s = 2.0 * dd * math.cos(2.0 * th) / math.sin(2.0 * th)
        worst = max(worst, abs(constraint(s, dd, th)))
    assert worst <= 1e-15


def _log_uniform(draw: random.Random) -> float:
    return math.exp(draw.uniform(math.log(1e-3), math.log(1e3)))


s_sym = sp.Symbol("s", real=True)
d_nonzero = sp.Symbol("d", real=True, nonzero=True)
ROOT = sp.sqrt(s_sym**2 + 4 * d_nonzero**2)
CANCELLING = (s_sym + ROOT) / (2 * d_nonzero)
STABLE = 2 * d_nonzero / (ROOT - s_sym)


def test_mixing_angle_forms_are_equal():
    # Cross-multiplied: (s + R)(R − s) = R² − s² = 4d², and R − s > 0 since d ≠ 0.
    assert sp.expand((s_sym + ROOT) * (ROOT - s_sym)) == 4 * d_nonzero**2
    assert sp.simplify(CANCELLING - STABLE) == 0


def test_mixing_angle_is_the_arctangent_of_either_form_on_both_branches():
    forms = [sp.lambdify((s_sym, d_nonzero), form, "mpmath") for form in (CANCELLING, STABLE)]
    draw = random.Random(1202_6465)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(50):
            for sign in (1.0, -1.0):  # one point on each branch of mixing_angle
                s, d = sign * _log_uniform(draw), math.copysign(_log_uniform(draw), draw.uniform(-1, 1))
                code = mixing_angle(s, d)
                for form in forms:
                    exact = mpmath.atan(form(mpmath.mpf(s), mpmath.mpf(d)))
                    worst = max(worst, float(abs(code - exact) / abs(exact)))
    assert worst <= 1e-14


A, B, C = sp.symbols("a b c", real=True)
_X, _Y, _Z = sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]), sp.Matrix([[1, 0], [0, -1]])
H_XYZ = sum(
    (k * sp.kronecker_product(p, p) for k, p in ((A, _X), (B, _Y), (C, _Z))), sp.zeros(4, 4)
)
#: (Φ⁺, Φ⁻, Ψ⁺, Ψ⁻) in the basis |++⟩, |+−⟩, |−+⟩, |−−⟩, with their eigenvalues.
BELL = [sp.Matrix(v) / sp.sqrt(2) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
E_XYZ = (A - B + C, -A + B + C, A + B - C, -(A + B + C))


def test_bell_states_are_the_exchange_eigenvectors():
    for vector, energy in zip(BELL, E_XYZ):
        assert sp.expand(H_XYZ * vector - energy * vector) == sp.zeros(4, 1)


def _rounded_once(entries, *couplings):
    """The proved ``entries`` (a lambdified matrix) at float couplings, over ``Fraction``, each rounded once."""
    return tuple(tuple(float(x) for x in row) for row in entries(*map(Fraction, couplings)))


def test_exchange_spectrum_code_matches_the_proof():
    matrix = sp.lambdify((A, B, C), H_XYZ.tolist(), "math")
    energies = sp.lambdify((A, B, C), E_XYZ, "math")
    vectors = np.array([[complex(x) for x in v] for v in BELL])
    draw = random.Random(20120229)
    for _ in range(50):
        scale = _log_uniform(draw)
        a, b, c = (scale * draw.uniform(-1.0, 1.0) for _ in range(3))
        tol = 1e-14 * scale  # relative to the couplings' scale: an eigenvalue may cancel to near 0
        assert hamiltonian_entries(a, b, c, None) == _rounded_once(matrix, a, b, c)
        h = np.array(hamiltonian_entries(a, b, c, None))
        spectrum = analytic_spectrum_xyz(CouplingSet(a, b, c), gap_tol=0.0)
        assert np.max(np.abs(np.array([e.vector for e in spectrum.eigenvectors]) - vectors)) <= 1e-15
        assert max(abs(x - y) for x, y in zip(spectrum.eigenvalues, energies(a, b, c))) <= tol
        for e, value in zip(spectrum.eigenvectors, spectrum.eigenvalues):
            assert np.max(np.abs(h @ np.array(e.vector) - value * np.array(e.vector))) <= tol


H_SOC = H_XYZ + d_nonzero * (sp.kronecker_product(_X, _Z) - sp.kronecker_product(_Z, _X))
ROOT_SOC = sp.sqrt((A + C) ** 2 + 4 * d_nonzero**2)
TAN_ALPHA = (A + C + ROOT_SOC) / (2 * d_nonzero)
#: e'3 and e'4 over cos α / √2, since cos α (1, tan α, −tan α, 1) = (cos α, sin α, −sin α, cos α).
MIXED = (sp.Matrix([1, TAN_ALPHA, -TAN_ALPHA, 1]), sp.Matrix([-TAN_ALPHA, 1, -1, -TAN_ALPHA]))
#: (Φ⁻, Ψ⁺, e'3, e'4) with their eigenvalues.  Both mixed vectors have norm √(2 (1 + tan² α)).
SOC_VECTORS = (BELL[1], BELL[2], *(v / sp.sqrt(2 * (1 + TAN_ALPHA**2)) for v in MIXED))
E_SOC = (-A + B + C, A + B - C, -B - ROOT_SOC, -B + ROOT_SOC)


def test_both_hamiltonians_are_the_real_symmetric_closed_form():
    closed = sp.Matrix([[C, -d_nonzero, d_nonzero, A - B], [-d_nonzero, -C, A + B, -d_nonzero],
                        [d_nonzero, A + B, -C, d_nonzero], [A - B, -d_nonzero, d_nonzero, C]])
    assert sp.expand(H_SOC - closed) == sp.zeros(4, 4)
    assert sp.expand(H_XYZ - closed.subs(d_nonzero, 0)) == sp.zeros(4, 4)


def test_spin_orbit_eigenvectors():
    # Scaling leaves an eigenvector one, so the unnormalized mixed vectors stand for e'3 and e'4;
    # times 2d their residuals are polynomials in a, b, c, d and the root, whose square sympy reduces.
    for vector, energy in zip((BELL[1], BELL[2], *MIXED), E_SOC):
        assert sp.expand(2 * d_nonzero * (H_SOC * vector - energy * vector)) == sp.zeros(4, 1)


def test_spin_orbit_spectrum_code_matches_the_proof():
    args = (A, B, C, d_nonzero)
    matrix = sp.lambdify(args, H_SOC.tolist(), "math")
    proved = sp.lambdify(args, (E_SOC, SOC_VECTORS), "mpmath")
    draw = random.Random(1111_3328)
    with mpmath.workdps(40):
        for _ in range(50):
            scale = _log_uniform(draw)
            a, b, c, d = (scale * draw.uniform(-1.0, 1.0) for _ in range(4))
            tol = 1e-14 * scale  # relative to the couplings' scale, as for the exchange spectrum
            assert hamiltonian_entries(a, b, c, d) == _rounded_once(matrix, a, b, c, d)
            h = np.array(hamiltonian_entries(a, b, c, d))
            energies, vectors = proved(*map(mpmath.mpf, (a, b, c, d)))
            spectrum = analytic_spectrum_soc(CouplingSet(a, b, c, d), gap_tol=0.0)
            code_vectors = np.array([e.vector for e in spectrum.eigenvectors])
            assert np.max(np.abs(code_vectors - np.array([[complex(x) for x in v] for v in vectors]))) <= 1e-15
            assert max(abs(x - float(y)) for x, y in zip(spectrum.eigenvalues, energies)) <= tol
            for e, value in zip(code_vectors, spectrum.eigenvalues):
                assert np.max(np.abs(h @ e - value * e)) <= tol


PHI = sp.Symbol("phi", real=True)
ALPHA = sp.Symbol("alpha", real=True)
PHASE = sp.exp(-sp.I * PHI)
HALF_COS, HALF_SIN = sp.cos(theta / 2), sp.sin(theta / 2)
#: (u, v, vbar) of the Bloch-plane family and (u, v, w) of the spin-orbit family, as column vectors.
PAIR_XYZ = (
    PHASE * sp.Matrix([HALF_COS, -HALF_SIN]), sp.Matrix([HALF_COS, HALF_SIN]), sp.Matrix([-HALF_SIN, HALF_COS])
)
PAIR_SOC = (
    PHASE * sp.Matrix([1, 0]), sp.Matrix([sp.cos(theta), sp.sin(theta)]), sp.Matrix([sp.sin(theta), sp.cos(theta)])
)
#: (Φ⁻, Ψ⁺, e'3, e'4) at mixing angle α.
SOC_BASIS = (
    BELL[1], BELL[2],
    sp.Matrix([sp.cos(ALPHA), sp.sin(ALPHA), -sp.sin(ALPHA), sp.cos(ALPHA)]) / sp.sqrt(2),
    sp.Matrix([-sp.sin(ALPHA), sp.cos(ALPHA), -sp.cos(ALPHA), -sp.sin(ALPHA)]) / sp.sqrt(2),
)
ON_CONSTRAINT = {ALPHA: sp.pi / 2 - theta}
#: The index of each preparation's forbidden outcome, in preparation order, as the proofs derive it.
XYZ_FORBIDDEN = [3, 1, 2, 0]  # (e4, e2, e3, e1)
SOC_FORBIDDEN = [1, 3, 2, 0]  # (e'2, e'4, e'3, e'1)


def _preparations(pair):
    """u⊗u, u⊗companion, v⊗u, v⊗companion: a protocol's preparations in its label order."""
    u, v, companion = pair
    return [sp.kronecker_product(x, y) for x, y in ((u, u), (u, companion), (v, u), (v, companion))]


def _overlap(outcome, prep):
    """⟨outcome|prep⟩ for a real outcome vector, with its trigonometry expanded."""
    return sp.expand(sp.expand_trig((outcome.T * prep)[0]))


def _orthogonal_outcome(prep, basis) -> int:
    """The index of the one basis vector orthogonal to ``prep``; fails unless exactly one is."""
    zeros = [k for k, outcome in enumerate(basis) if _overlap(outcome, prep) == 0]
    assert len(zeros) == 1, zeros
    return zeros[0]


def test_exchange_forbidden_overlaps_vanish_identically():
    # Every overlap is a polynomial in cos(θ/2), sin(θ/2) and e^{-iφ}; each forbidden one is cs - sc.
    forbidden = [_orthogonal_outcome(prep, BELL) for prep in _preparations(PAIR_XYZ)]
    assert forbidden == XYZ_FORBIDDEN


def test_spin_orbit_forbidden_overlaps_vanish_on_the_constraint():
    uu, uw, vu, vw = _preparations(PAIR_SOC)
    assert _overlap(SOC_BASIS[1], uu) == 0 and _overlap(SOC_BASIS[0], vw) == 0  # for any alpha
    residual = sp.expand(sp.expand_trig(PHASE * sp.cos(ALPHA + theta) / sp.sqrt(2)))
    assert _overlap(SOC_BASIS[3], uw) - residual == 0 and _overlap(SOC_BASIS[2], vu) - residual == 0
    on_surface = [basis.subs(ON_CONSTRAINT) for basis in SOC_BASIS]
    forbidden = [_orthogonal_outcome(prep, on_surface) for prep in (uu, uw, vu, vw)]
    assert forbidden == SOC_FORBIDDEN


def _bind(variant, pair, basis, forbidden, inst, build_pair):
    """Hold the instance's states, eigenvectors and forbidden map against the proof at its (θ, φ, α)."""
    point = {theta: inst.params.theta, PHI: inst.params.phi, ALPHA: inst.spectrum.alpha or 0.0}

    def numeric(vectors):
        return np.array([[complex(x.evalf(subs=point)) for x in v] for v in vectors])

    code_pair = [(s.amp_plus, s.amp_minus) for s in build_pair(inst.params)]
    assert np.max(np.abs(np.array(code_pair) - numeric(pair))) <= 1e-15
    code_preps = [state.vector for _, state in inst.preparations]
    assert np.max(np.abs(np.array(code_preps) - numeric(_preparations(pair)))) <= 1e-15
    spectrum = protocol.analytic_spectrum(variant, inst.couplings, 0.0)
    assert np.max(np.abs(np.array([e.vector for e in spectrum.eigenvectors]) - numeric(basis))) <= 1e-15
    assert inst.forbidden == tuple(zip(inst.prep_labels, (inst.outcome_labels[k] for k in forbidden)))
    assert max(inst.forbidden_residuals.values()) <= 1e-14


def test_exchange_forbidden_map_in_code_matches_the_proof():
    draw = random.Random(2012_0229)
    for _ in range(12):
        params = OverlapParams(draw.uniform(0.01, math.pi / 2.0 - 0.01), draw.uniform(0.0, 2.0 * math.pi))
        couplings = CouplingSet(*(draw.uniform(-3.0, 3.0) for _ in range(3)))
        inst = protocol.make_protocol(Variant.XYZ, params, couplings, gap_tol=0.0)
        _bind(Variant.XYZ, PAIR_XYZ, BELL, XYZ_FORBIDDEN, inst, build_pair_xyz)


def test_spin_orbit_forbidden_map_in_code_matches_the_proof():
    draw = random.Random(1202_6465)
    for _ in range(12):
        th, phi = draw.uniform(0.01, math.pi / 2.0 - 0.01), draw.uniform(0.0, 2.0 * math.pi)
        # Sizes as verify's solver samples take them: where |split| dwarfs a + c, rounding a and c moves alpha.
        d, b = draw.uniform(0.1, 3.0), draw.uniform(0.2, 0.8)
        split = draw.choice((-1.0, 1.0)) * draw.uniform(0.5, 2.5)
        couplings = solve_closed_form(th, d, split, b=b, gap_tol=0.0).couplings
        inst = protocol.make_protocol(Variant.SOC, OverlapParams(th, phi), couplings, gap_tol=0.0)
        assert abs(inst.spectrum.alpha - (math.pi / 2.0 - th)) <= 1e-14
        _bind(Variant.SOC, PAIR_SOC, SOC_BASIS, SOC_FORBIDDEN, inst, build_pair_soc)
        # Off the surface the two mixed residuals are the proved |cos(α + θ)|/√2, the fixed two stay 0.
        off = CouplingSet(couplings.a + 0.25, couplings.b, couplings.c + 0.25, couplings.d)
        residuals = list(protocol.orthogonality_residuals(Variant.SOC, OverlapParams(th, phi), off).values())
        alpha = protocol.analytic_spectrum(Variant.SOC, off, 0.0).alpha
        proved = abs(math.cos(alpha + th)) / math.sqrt(2.0)
        assert max(abs(r - x) for r, x in zip(residuals, (0.0, proved, proved, 0.0))) <= 1e-14
