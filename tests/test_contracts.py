"""Each input contract raises its own error class from every entry point.

The paper's positive products need a nonzero packing constant, a Hermitian
D and a strictly positive spectrum; doubled states must pair up, and states
must match the operator they are fed to; model parameters and arguments
must lie in their allowed ranges. One row per entry point and contract.
"""

import numpy as np
import pytest

from kgmetric import (
    AffineSource,
    BiorthonormalSystem,
    FieldState,
    InnerProductSpec,
    SignAssignment,
    SpectralDecomposition,
    TwoComponentState,
    build_hamiltonian,
    check_biorthonormal,
    check_pseudo_unitary,
    drift_report,
    eigen_system,
    eta_inv,
    eta_plus,
    eta_tilde_plus,
    evolve_field,
    evolve_schrodinger,
    gauge_transform,
    hermitian_eigendecompose,
    kg_inner,
    operator_power,
    pack,
    solution_inner,
    two_component_inner,
)
from kgmetric.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    LambdaMismatchError,
    NonPositiveAError,
    NonPositiveCoefficientError,
    NonPositiveSpectrumError,
    NotHermitianError,
    SingularPropagatorError,
    ZeroLambdaError,
)
from kgmetric.evolution import FieldTrajectory
from kgmetric.rng import generator, random_state
from kgmetric.models import (
    KleinGordonLattice,
    ShoModel,
    WdwFrwModel,
    kg_mode_solution,
    kg_relativistic_spec,
    sho_basic_solution,
    sho_inner,
    wdw_numeric_crosscheck,
)

D2 = np.diag([1.0, 2.0])
POSITIVE = SpectralDecomposition(np.array([1.0, 2.0]), np.eye(2, dtype=complex))
NON_POSITIVE = SpectralDecomposition(np.array([-1.0, 2.0]), np.eye(2, dtype=complex))
NAN_SPECTRUM = SpectralDecomposition(np.array([np.nan, 1.0]), np.eye(2))
SPEC = InnerProductSpec.uniform(2)
F2 = FieldState(psi=np.ones(2), psi_dot=np.ones(2))
F3 = FieldState(psi=np.ones(3), psi_dot=np.ones(3))
LATTICE4 = KleinGordonLattice(sites=4, mu=1.0)
TRAJ3 = FieldTrajectory(times=np.zeros(1), psis=np.ones((1, 3)), psi_dots=np.ones((1, 3)))
TRAJ2 = FieldTrajectory(
    times=np.linspace(0.0, 1.0, 11), psis=np.ones((11, 2)), psi_dots=np.ones((11, 2))
)
STACK2 = np.stack([D2] * 3)
NON_HERMITIAN = np.array([[1.0, 2.0], [0.0, 1.0]])
NON_FINITE = np.array([[np.nan, 0.0], [0.0, 1.0]])
# the 12 x 12 Hilbert matrix: its computed inverse misses the identity by about 0.1
HILBERT12 = 1.0 / (np.arange(12)[:, None] + np.arange(12)[None] + 1.0)


# anything the one array reader refuses, built when called
MALFORMED_ARRAYS = {
    "ragged-list": lambda: [[1.0, 2.0], [3.0]],
    "string": lambda: "ab",
    "none": lambda: None,
    "object": lambda: object(),
}
# each builds its source when called: malformed terms raise at construction
MALFORMED_SOURCES = {
    "too-wide-coefficients": lambda: AffineSource(D2[None], lambda ts: np.ones((ts.size, 2))),
    "1d-terms": lambda: AffineSource(np.ones(2), lambda ts: np.ones((ts.size, 1))),
    "2d-terms": lambda: AffineSource(D2, lambda ts: np.ones((ts.size, 2))),
    "wrong-row-count": lambda: AffineSource(D2[None], lambda ts: np.ones((ts.size + 1, 1))),
    "complex-coefficients": lambda: AffineSource(D2[None], lambda ts: np.ones((ts.size, 1)) + 0j),
    "non-callable-coefficients": lambda: AffineSource(D2[None], 3.0),
    "plain-callable": lambda: lambda t: D2,
    **MALFORMED_ARRAYS,
}
SOURCE_ROUTES = {
    "evolve_schrodinger": lambda source: evolve_schrodinger(source, pack(F2, 1.0), 0.0, 1.0, 4),
    "evolve_field": lambda source: evolve_field(source, F2, 0.0, 1.0, 10),
    "drift_report": lambda source: drift_report(TRAJ2, source, SPEC),
}
# every array argument of the public API but a D source; a partner vector is
# (1,), the shape of None converted to a NaN, so no size check can hide a None
ARRAY_SLOTS = {
    "hermitian_eigendecompose": lambda a: hermitian_eigendecompose(a),
    "build_hamiltonian": lambda a: build_hamiltonian(a, 1.0),
    "gauge_transform-H": lambda a: gauge_transform(a, np.eye(2)),
    "gauge_transform-g": lambda a: gauge_transform(np.eye(4), a),
    "gauge_transform-g_dot": lambda a: gauge_transform(np.eye(4), np.eye(2), a),
    "FieldState-psi": lambda a: FieldState(a, np.ones(1)),
    "FieldState-psi_dot": lambda a: FieldState(np.ones(1), a),
    "TwoComponentState-upper": lambda a: TwoComponentState(a, np.ones(1), 1.0),
    "TwoComponentState-lower": lambda a: TwoComponentState(np.ones(1), a, 1.0),
    "TwoComponentState.from_vector": lambda a: TwoComponentState.from_vector(a, 1.0),
    "InnerProductSpec-a_plus_sq": lambda a: InnerProductSpec(a, [1.0]),
    "InnerProductSpec-a_minus_sq": lambda a: InnerProductSpec([1.0], a),
    "SignAssignment": lambda a: SignAssignment(a),
    "two_component_inner-eta": lambda a: two_component_inner(pack(F2, 1.0), pack(F2, 1.0), a),
    "eta_inv-u": lambda a: eta_inv(a, np.eye(2)),
    "eta_inv-eta0": lambda a: eta_inv(np.eye(2), a),
    "check_pseudo_unitary-u": lambda a: check_pseudo_unitary(a, np.eye(2)),
    "check_pseudo_unitary-eta0": lambda a: check_pseudo_unitary(np.eye(2), a),
    "check_biorthonormal-right": lambda a: check_biorthonormal(
        BiorthonormalSystem(a, a, np.zeros(2))),
    "check_biorthonormal-left": lambda a: check_biorthonormal(
        BiorthonormalSystem(np.eye(2), a, np.zeros(2))),
    "AffineSource-terms": lambda a: AffineSource(a, lambda ts: np.ones((ts.size, 1))),
    "sho_inner-pair": lambda a: sho_inner(a, (1.0, 0.0), 1.0),
}


def row(name, error, call):
    return pytest.param(error, call, id=f"{name}-{error.__name__}")


CASES = [
    # lambda = 0
    row("TwoComponentState", ZeroLambdaError,
        lambda: TwoComponentState(np.ones(2), np.ones(2), 0.0)),
    row("build_hamiltonian", ZeroLambdaError, lambda: build_hamiltonian(D2, 0.0)),
    row("eigen_system", ZeroLambdaError, lambda: eigen_system(POSITIVE, 0.0)),
    row("eta_plus", ZeroLambdaError, lambda: eta_plus(POSITIVE, 0.0)),
    row("eta_tilde_plus", ZeroLambdaError, lambda: eta_tilde_plus(POSITIVE, 0.0, SPEC)),
    row("drift_report-lam-zero", ZeroLambdaError,
        lambda: drift_report(TRAJ2, POSITIVE, SPEC, lam=0.0)),
    # lambda^2 past the float range, or a non-finite lambda
    row("eta_plus-lam-overflow", InvalidParameterError, lambda: eta_plus(POSITIVE, 1e300)),
    row("eta_tilde_plus-lam-overflow", InvalidParameterError,
        lambda: eta_tilde_plus(POSITIVE, 1e300, SPEC)),
    row("drift_report-lam-inf", InvalidParameterError,
        lambda: drift_report(TRAJ2, POSITIVE, SPEC, lam=np.inf)),
    row("eigen_system-lam-inf", InvalidParameterError, lambda: eigen_system(POSITIVE, np.inf)),
    row("build_hamiltonian-lam-inf", InvalidParameterError,
        lambda: build_hamiltonian(D2, np.inf)),
    row("TwoComponentState-lam-nan", InvalidParameterError,
        lambda: TwoComponentState(np.ones(2), np.ones(2), np.nan)),
    row("pack-lam-nan", InvalidParameterError, lambda: pack(F2, np.nan)),
    row("pack-lam-inf", InvalidParameterError, lambda: pack(F2, np.inf)),
    # a non-positive spectrum
    row("eta_plus", NonPositiveSpectrumError, lambda: eta_plus(NON_POSITIVE, 1.0)),
    row("eta_tilde_plus", NonPositiveSpectrumError,
        lambda: eta_tilde_plus(NON_POSITIVE, 1.0, SPEC)),
    row("solution_inner", NonPositiveSpectrumError,
        lambda: solution_inner(F2, F2, NON_POSITIVE, SPEC)),
    row("operator_power", NonPositiveSpectrumError,
        lambda: operator_power(NON_POSITIVE, -0.5)),
    *(
        row(f"operator_power-gamma-{gamma}", InvalidParameterError,
            lambda gamma=gamma: operator_power(POSITIVE, gamma))
        for gamma in (np.nan, np.inf, -np.inf)
    ),
    *(
        row(f"hermitian_eigendecompose-tol-{tol}", InvalidParameterError,
            lambda tol=tol: hermitian_eigendecompose(D2, tol))
        for tol in (-1.0, np.nan, np.inf)
    ),
    row("eigen_system", NonPositiveSpectrumError, lambda: eigen_system(NON_POSITIVE, 1.0)),
    # a NaN eigenvalue is not positive either
    row("eta_plus-nan", NonPositiveSpectrumError, lambda: eta_plus(NAN_SPECTRUM, 1.0)),
    row("solution_inner-nan", NonPositiveSpectrumError,
        lambda: solution_inner(F2, F2, NAN_SPECTRUM, SPEC)),
    row("operator_power-nan", NonPositiveSpectrumError,
        lambda: operator_power(NAN_SPECTRUM, -0.5)),
    row("eigen_system-nan", NonPositiveSpectrumError, lambda: eigen_system(NAN_SPECTRUM, 1.0)),
    # a non-Hermitian or non-finite D
    row("hermitian_eigendecompose", NotHermitianError,
        lambda: hermitian_eigendecompose(NON_HERMITIAN)),
    row("hermitian_eigendecompose-nan", NotHermitianError,
        lambda: hermitian_eigendecompose(NON_FINITE)),
    row("build_hamiltonian", NotHermitianError, lambda: build_hamiltonian(NON_HERMITIAN, 1.0)),
    row("build_hamiltonian-nan", NotHermitianError, lambda: build_hamiltonian(NON_FINITE, 1.0)),
    # the eigensolver takes a stack of D; the doubled generator takes one D
    row("build_hamiltonian-stack", DimensionMismatchError,
        lambda: build_hamiltonian(np.stack([D2, D2]), 1.0)),
    # doubled pairs of different size or packing constant
    row("kg_inner", DimensionMismatchError, lambda: kg_inner(pack(F2, 1.0), pack(F3, 1.0))),
    row("kg_inner", LambdaMismatchError, lambda: kg_inner(pack(F2, 1.0), pack(F2, 2.0))),
    row("two_component_inner", DimensionMismatchError,
        lambda: two_component_inner(pack(F2, 1.0), pack(F3, 1.0), np.eye(4))),
    row("two_component_inner", LambdaMismatchError,
        lambda: two_component_inner(pack(F2, 1.0), pack(F2, 2.0), np.eye(4))),
    row("two_component_inner-eta", DimensionMismatchError,
        lambda: two_component_inner(pack(F2, 1.0), pack(F2, 1.0), np.eye(3))),
    row("solution_inner", DimensionMismatchError,
        lambda: solution_inner(F2, F3, POSITIVE, SPEC)),
    row("drift_report-pair", DimensionMismatchError,
        lambda: drift_report(TRAJ2, POSITIVE, SPEC, traj2=TRAJ3)),
    # field data of different sizes in one state
    row("FieldState", DimensionMismatchError, lambda: FieldState(np.ones(2), np.ones(3))),
    row("TwoComponentState", DimensionMismatchError,
        lambda: TwoComponentState(np.ones(2), np.ones(3), 1.0)),
    row("TwoComponentState.from_vector", DimensionMismatchError,
        lambda: TwoComponentState.from_vector(np.ones(3), 1.0)),
    row("check_biorthonormal", DimensionMismatchError,
        lambda: check_biorthonormal(BiorthonormalSystem(np.eye(2), np.eye(3), np.zeros(2)))),
    row("check_biorthonormal-1d", DimensionMismatchError,
        lambda: check_biorthonormal(BiorthonormalSystem(np.ones(2), np.ones(2), np.zeros(2)))),
    # a non-square propagator, or a doubled generator that is not square of even size
    row("eta_inv", DimensionMismatchError, lambda: eta_inv(np.ones((4, 2)), np.eye(4))),
    row("eta_inv-size", DimensionMismatchError, lambda: eta_inv(np.eye(4), np.eye(2))),
    row("check_pseudo_unitary", DimensionMismatchError,
        lambda: check_pseudo_unitary(np.ones((4, 2)), np.eye(4))),
    row("gauge_transform-non-square", DimensionMismatchError,
        lambda: gauge_transform(np.ones((4, 2)), np.eye(2))),
    row("gauge_transform-odd", DimensionMismatchError,
        lambda: gauge_transform(np.eye(3), np.eye(2))),
    row("gauge_transform-g-size", DimensionMismatchError,
        lambda: gauge_transform(np.eye(4), np.eye(3))),
    row("gauge_transform-eta-size", DimensionMismatchError,
        lambda: gauge_transform(np.eye(4), np.eye(2), np.eye(3))),
    # a propagator too ill-conditioned to invert, or a singular metric
    row("eta_inv-ill-conditioned", SingularPropagatorError,
        lambda: eta_inv(HILBERT12, np.eye(12))),
    row("check_pseudo_unitary-singular-eta", SingularPropagatorError,
        lambda: check_pseudo_unitary(np.eye(2), np.zeros((2, 2)))),
    # state size against operator size
    row("evolve_schrodinger-constant", DimensionMismatchError,
        lambda: evolve_schrodinger(D2, pack(F3, 1.0), 0.0, 1.0, 4)),
    row("evolve_field", DimensionMismatchError, lambda: evolve_field(D2, F3, 0.0, 1.0, 4)),
    row("evolve_field-mixed", DimensionMismatchError,
        lambda: evolve_field(D2, [F2, F3], 0.0, 1.0, 4)),
    row("evolve_field-empty", DimensionMismatchError,
        lambda: evolve_field(D2, [], 0.0, 1.0, 4)),
    row("drift_report", DimensionMismatchError, lambda: drift_report(TRAJ3, POSITIVE, SPEC)),
    # a D that is not one (n, n) operator per time
    row("evolve_field-stack", DimensionMismatchError,
        lambda: evolve_field(STACK2, F2, 0.0, 1.0, 10)),
    row("evolve_schrodinger-stack", DimensionMismatchError,
        lambda: evolve_schrodinger(STACK2, pack(F2, 1.0), 0.0, 1.0, 10)),
    row("drift_report-stack", DimensionMismatchError,
        lambda: drift_report(TRAJ2, hermitian_eigendecompose(STACK2), SPEC)),
    row("drift_report-per-sample-stack", DimensionMismatchError,
        lambda: drift_report(TRAJ2, np.stack([D2] * 11), SPEC)),
    # a malformed array, in every array argument but a source (None is g_dot's default)
    *(
        row(f"{name}-{case}", DimensionMismatchError, lambda run=run, value=value: run(value()))
        for name, run in ARRAY_SLOTS.items()
        for case, value in MALFORMED_ARRAYS.items()
        if (name, case) != ("gauge_transform-g_dot", "none")
    ),
    # a malformed array or AffineSource, or a time-dependent D in another form, on every route
    *(
        row(f"{name}-{case}", DimensionMismatchError, lambda run=run, source=source: run(source()))
        for name, run in SOURCE_ROUTES.items()
        for case, source in MALFORMED_SOURCES.items()
    ),
    # d_anchored's alpha is read by the one array reader
    row("d_anchored-string", DimensionMismatchError, lambda: WdwFrwModel().d_anchored("ab")),
    row("d_anchored-none", DimensionMismatchError, lambda: WdwFrwModel().d_anchored(None)),
    # a time bound that is not finite, or a step that overflows, refused before any step
    *(
        row(f"{name}-{bound}-{value}", InvalidParameterError,
            lambda run=run, times=times: run(*times))
        for name, run in {
            "evolve_schrodinger": lambda t0, t1: evolve_schrodinger(D2, pack(F2, 1.0), t0, t1, 4),
            "evolve_field": lambda t0, t1: evolve_field(D2, F2, t0, t1, 10),
        }.items()
        for bound, value, times in (
            ("t0", "nan", (np.nan, 1.0)), ("t1", "nan", (0.0, np.nan)),
            ("t0", "inf", (-np.inf, 1.0)), ("t1", "inf", (0.0, np.inf)),
            ("step", "overflow", (-1e308, 1e308)),
        )
    ),
    # a parameter or argument outside its allowed values
    row("SignAssignment", InvalidParameterError, lambda: SignAssignment([1, 2])),
    row("SignAssignment-fraction", InvalidParameterError, lambda: SignAssignment([1.5, -1])),
    row("InnerProductSpec-complex", NonPositiveCoefficientError,
        lambda: InnerProductSpec(np.array([1 + 2j]), [1.0])),
    row("WdwFrwModel-mass", InvalidParameterError, lambda: WdwFrwModel(mass=0.0)),
    row("WdwFrwModel-kappa", InvalidParameterError, lambda: WdwFrwModel(kappa=2)),
    row("WdwFrwModel-modes", InvalidParameterError, lambda: WdwFrwModel(modes=0)),
    row("KleinGordonLattice-sites", InvalidParameterError,
        lambda: KleinGordonLattice(sites=1, mu=1.0)),
    row("KleinGordonLattice-mu", InvalidParameterError,
        lambda: KleinGordonLattice(sites=4, mu=0.0)),
    # mu^2 past the float range
    row("KleinGordonLattice-mu-overflow", InvalidParameterError,
        lambda: KleinGordonLattice(sites=4, mu=1e160)),
    row("kg_relativistic_spec-a", NonPositiveAError,
        lambda: kg_relativistic_spec(LATTICE4, 0.0, 1.0)),
    row("ShoModel", InvalidParameterError, lambda: ShoModel(omega=0.0)),
    row("column_of", InvalidParameterError, lambda: LATTICE4.column_of(7)),
    row("kg_mode_solution-eps", InvalidParameterError,
        lambda: kg_mode_solution(LATTICE4, 2, 0)),
    row("sho_basic_solution-eps", InvalidParameterError,
        lambda: sho_basic_solution(1.0, 2, 0.0)),
    row("sho_basic_solution-omega", InvalidParameterError,
        lambda: sho_basic_solution(0.0, 1, 0.0)),
    row("sho_inner-omega", InvalidParameterError, lambda: sho_inner((1.0, 0.0), (1.0, 0.0), 0.0)),
    row("sho_inner-size", InvalidParameterError, lambda: sho_inner(F2, F2, 1.0)),
    row("sho_inner-pair-size", InvalidParameterError,
        lambda: sho_inner((1, 2, 3), (1.0, 0.0), 1.0)),
    row("wdw_numeric_crosscheck-grid", InvalidParameterError,
        lambda: wdw_numeric_crosscheck(WdwFrwModel(modes=16), grid=8)),
]


@pytest.mark.parametrize("error, call", CASES)
def test_input_contract_raises_its_error(error, call):
    with pytest.raises(error):
        call()


def test_overflowing_step_is_named():
    # finite bounds whose step overflows are not reported as non-finite bounds
    for run in (lambda: evolve_field(D2, F2, -1e308, 1e308, 10),
                lambda: evolve_schrodinger(D2, pack(F2, 1.0), -1e308, 1e308, 4)):
        with pytest.raises(InvalidParameterError, match="overflows"):
            run()


def test_state_size_checked_before_source_is_asked():
    # a 3-mode state against 2-mode terms is refused before any coefficient
    # query (or, on the midpoint route and in drift_report, any eigensolve of
    # the queried times)
    calls = []

    def recorded(ts):
        calls.append(ts.size)
        return np.ones((ts.size, 1))

    source = AffineSource(D2[None], recorded)
    for run in (
        lambda: evolve_schrodinger(source, pack(F3, 1.0), 0.0, 1.0, 10),
        lambda: evolve_field(source, F3, 0.0, 1.0, 10),
        lambda: drift_report(TRAJ3, source, InnerProductSpec.uniform(3)),
    ):
        with pytest.raises(DimensionMismatchError):
            run()
        assert calls == []


def test_evolve_field_returns_one_trajectory_per_state():
    # one state gives one trajectory; a list, a list of as many, each member
    # the single-state run bit for bit
    rng = generator(25, "contracts:field-list")
    states = [FieldState(psi=random_state(rng, 2), psi_dot=random_state(rng, 2)) for _ in range(3)]
    sources = (D2, AffineSource(D2[None], lambda ts: (1.0 + 0.3 * np.sin(ts))[:, None]))
    for source in sources:
        singles = [evolve_field(source, f, 0.0, 1.0, 100, 10) for f in states]
        assert all(isinstance(traj, FieldTrajectory) for traj in singles)
        for batch in (states[:1], states):
            trajs = evolve_field(source, batch, 0.0, 1.0, 100, 10)
            assert isinstance(trajs, list) and len(trajs) == len(batch)
            for traj, single in zip(trajs, singles):
                assert np.array_equal(traj.times, single.times)
                assert np.array_equal(traj.psis, single.psis)
                assert np.array_equal(traj.psi_dots, single.psi_dots)


def test_stack_refused_before_any_eigensolve(monkeypatch):
    # a stack where one constant D belongs is refused by its shape, unsolved
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for run in (
        lambda: drift_report(TRAJ2, np.stack([D2] * 11), SPEC),
        lambda: evolve_schrodinger(STACK2, pack(F2, 1.0), 0.0, 1.0, 10),
    ):
        with pytest.raises(DimensionMismatchError):
            run()
        assert calls == []
    drift_report(TRAJ2, D2, SPEC)  # the recorder sees a solve that does run
    assert calls == [(1, 2, 2)]
