import copy
import dataclasses
import json
import math
import pickle
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d import closedform, onedim, pde, transform
from ruin2d.errors import DomainError, UnsupportedClaimLaw
from ruin2d.model import (
    ClaimLaw,
    Exponential,
    PhaseType,
    RiskModel,
    derive,
    load_model,
    model_from_dict,
    normalize,
    validate,
)

from oracles import denormalize, kappa, model_to_dict


def test_validate_passes_p0(p0):
    report = validate(p0)
    assert report.ok
    assert report.violations == ()


def test_validate_rejects_wrong_premium_ordering():
    m = RiskModel(lam=1.0, claim=Exponential(1.0), c1=2.0, c2=3.0)
    report = validate(m)
    assert not report.ok
    assert any("net-profit ordering" in v for v in report.violations)


def test_validate_rejects_negative_loading():
    m = RiskModel(lam=3.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    report = validate(m)
    assert not report.ok
    assert any("p2 > rho" in v for v in report.violations)


def test_validate_warns_on_unnormalized_proportions(p0):
    # delta = (1, 1) sums to 2; accepted with a warning
    assert validate(p0).warnings


def test_validate_rejects_degenerate_boundaries():
    equal_p = RiskModel(lam=1.0, claim=Exponential(1.0), c1=2.0, c2=2.0)
    assert not validate(equal_p).ok
    p2_eq_rho = RiskModel(lam=2.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    assert not validate(p2_eq_rho).ok


P0_FIELDS = dict(lam=1.0, c1=3.0, c2=2.0, delta1=1.0, delta2=1.0)
ERLANG2 = dict(beta=[1.0, 0.0], B=[[-2.0, 2.0], [0.0, -2.0]])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["lam", "c1", "c2", "delta1", "delta2", "mu"])
def test_validate_rejects_non_finite_parameters(name, bad):
    fields = {**P0_FIELDS, "mu": 1.0, name: bad}
    report = validate(RiskModel(claim=Exponential(fields.pop("mu")), **fields))
    # one line per parameter, and no sign or ordering check on top of it
    assert (report.ok, report.violations) == (False, (f"{name} must be finite",))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name, index", [("beta", (0,)), ("B", (0, 1)), ("B", (1, 1))])
def test_validate_rejects_non_finite_phasetype_entries(name, index, bad):
    entries = np.array(ERLANG2[name], dtype=float)
    entries[index] = bad
    claim = PhaseType(**{**ERLANG2, name: entries})
    report = validate(RiskModel(claim=claim, **P0_FIELDS))
    assert (report.ok, report.violations) == (False, (f"{name} must be finite",))


def test_validate_keeps_sign_messages_for_finite_values():
    report = validate(RiskModel(lam=-1.0, claim=Exponential(0.0), c1=3.0, c2=2.0, delta1=0.0))
    assert report.violations == (
        "lam must be positive",
        "delta1 must be positive",
        "exponential claim intensity mu must be positive",
    )


def test_derive_p0_constants(p0):
    dc = derive(p0)
    assert dc.gamma1 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert dc.gamma2 == pytest.approx(0.5, abs=1e-14)
    assert dc.C1 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert dc.C2 == pytest.approx(0.5, abs=1e-14)
    assert dc.gamma3 == pytest.approx(-1.0 / 6.0, abs=1e-14)
    assert dc.q_plus_end == pytest.approx(-7.464102, abs=1e-6)
    assert dc.q_minus_end == pytest.approx(-0.535898, abs=1e-6)
    assert dc.regime == "case1"
    assert dc.d == pytest.approx(-1.0)
    assert dc.b_max == math.sqrt(1.0 / 3.0)
    assert dc.end_gap == pytest.approx(-((2.0 - math.sqrt(3.0)) ** 2) / 2.0, rel=1e-15, abs=0)


def test_derive_p1_constants(p1):
    dc = derive(p1)
    assert dc.rho == pytest.approx(2.0)
    assert dc.gamma2 == pytest.approx(0.090909, abs=1e-6)
    assert dc.C2 == pytest.approx(0.909091, abs=1e-6)
    assert dc.gamma3 == pytest.approx(0.469091, abs=1e-6)
    assert dc.regime == "case2"  # p2^2/p1 = 0.968 < rho


# margins where q_minus_end and end_gap, as differences of rounded square roots,
# were off by up to 3.0 relative: e1 = 1e-9 and 2e-9, and 2.5e-8 from the seam c1 = 4
@pytest.mark.parametrize("c1, c2", [(3.0, 2.0), (5.0, 2.2), (1.002, 1.001), (3.999, 2.0),
                                    (1 + 2e-9, 1 + 1e-9), (1.000000003, 1.000000001),
                                    (4.0000001, 2.0)])
def test_cut_constants(c1, c2):
    """``b_max`` is the peak of ``b`` on the cut; the cut end and ``end_gap`` keep their digits."""
    import mpmath as mp

    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=c1, c2=c2)
    dc = derive(model)
    qs = np.linspace(dc.q_plus_end, dc.q_minus_end, 2001)
    assert max(transform.ab(model, float(q), dc).b for q in qs) == pytest.approx(dc.b_max, rel=1e-6)
    with mp.workdps(60):
        p1, p2 = mp.mpf(c1), mp.mpf(c2)
        q_minus_end = -((1 - mp.sqrt(p1)) ** 2) / (p1 - p2)
        end_gap = q_minus_end + (1 - 1 / p2)
    assert dc.q_minus_end == pytest.approx(float(q_minus_end), rel=1e-15, abs=0.0)
    assert dc.end_gap == pytest.approx(float(end_gap), rel=1e-15, abs=0.0)


def test_derive_rejects_invalid_model():
    bad = RiskModel(lam=1.0, claim=Exponential(1.0), c1=2.0, c2=3.0)
    with pytest.raises(DomainError):
        derive(bad)


def test_kappa_consistency_at_minus_gamma2(p0, p1):
    for m in (p0, p1):
        dc = derive(m)
        assert abs(kappa(m, 2, -dc.gamma2)) < 1e-12


def test_phasetype_derive_partial(erlang2_model):
    dc = derive(erlang2_model)
    assert dc.p1 == 3.0 and dc.p2 == 2.0
    assert dc.rho == pytest.approx(1.0)
    assert dc.d == pytest.approx(-1.0)
    with pytest.raises(UnsupportedClaimLaw):
        _ = dc.gamma1
    with pytest.raises(UnsupportedClaimLaw):
        _ = dc.q_plus_end


valid_exponential_models = st.builds(
    RiskModel,
    lam=st.floats(0.05, 5.0),
    claim=st.builds(Exponential, mu=st.floats(0.1, 5.0)),
    c1=st.floats(0.1, 20.0),
    c2=st.floats(0.1, 20.0),
    delta1=st.floats(0.1, 2.0),
    delta2=st.floats(0.1, 2.0),
)


@given(valid_exponential_models)
@settings(max_examples=200, deadline=None)
def test_derived_constant_ordering(m):
    if not validate(m).ok:
        return
    dc = derive(m)
    assert m.p1 > m.p2 > m.rho
    assert dc.gamma1 > dc.gamma2 > 0
    assert 0 < dc.C1 < dc.C2 < 1
    assert dc.d < 0
    # exactly on the regime seam rho = p2^2/p1 the cut endpoint q_minus
    # touches -gamma2 (the ordering is strict off the seam)
    assert dc.q_plus_end < dc.q_minus_end < 0
    if abs(dc.gamma3) > 1e-9 * dc.mu:
        assert dc.q_minus_end < -dc.gamma2
    else:
        assert dc.q_minus_end <= -dc.gamma2 + 1e-12 * dc.gamma2
    # regime flag is "case2" exactly when gamma3 > 0
    assert (dc.regime == "case2") == (dc.gamma3 > 0) or dc.gamma3 == 0
    # kappa_i(-gamma_i) = 0; the strict 1e-12 relative check lives on the
    # canonical models, here the bound carries the cancellation condition
    # number mu/(mu - gamma_i) = mu p_i / lam of evaluating kappa at the root.
    for i, gamma in ((1, dc.gamma1), (2, dc.gamma2)):
        assert abs(kappa(m, i, 0.0)) == 0.0
        p = m.p1 if i == 1 else m.p2
        scale = p * gamma * max(1.0, dc.mu * p / m.lam)
        assert abs(kappa(m, i, -gamma)) < 64 * np.finfo(float).eps * scale


def test_normalize_examples():
    m = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    assert normalize(m, 2.0, 3.0) == (2.0, 3.0)
    m2 = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.5, c2=1.0,
                   delta1=0.5, delta2=0.5)
    assert normalize(m2, 2.0, 3.0) == (4.0, 6.0)


@given(
    u1=st.floats(0.0, 1e6),
    u2=st.floats(0.0, 1e6),
    d1=st.floats(0.1, 2.0),
    d2=st.floats(0.1, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_normalize_round_trip(u1, u2, d1, d2):
    m = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0 * d1, c2=2.0 * d2,
                  delta1=d1, delta2=d2)
    x1, x2 = normalize(m, u1, u2)
    v1, v2 = denormalize(m, x1, x2)
    assert v1 == pytest.approx(u1, rel=1e-12, abs=1e-12)
    assert v2 == pytest.approx(u2, rel=1e-12, abs=1e-12)


def test_json_round_trip(tmp_path, p0, erlang2_model):
    for m in (p0, erlang2_model):
        data = model_to_dict(m)
        again = model_from_dict(json.loads(json.dumps(data)))
        assert again.lam == m.lam and again.c1 == m.c1 and again.c2 == m.c2
        assert type(again.claim) is type(m.claim)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(p0)))
    loaded = load_model(path)
    assert loaded == p0


# one instance of each claim law; a law with no entry here fails the guard below
CLAIM_LAW_EXAMPLES = {
    Exponential: Exponential(mu=1.5),
    PhaseType: PhaseType(beta=[0.4, 0.5], B=[[-3.0, 1.0], [0.5, -2.0]]),
}


@pytest.mark.parametrize("law", typing.get_args(ClaimLaw), ids=lambda law: law.__name__)
def test_every_claim_law_has_a_file_form(law):
    m = RiskModel(lam=0.7, claim=CLAIM_LAW_EXAMPLES[law], c1=3.0, c2=2.0, delta1=0.4, delta2=0.6)
    again = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
    assert type(again.claim) is law
    for f in dataclasses.fields(law):
        np.testing.assert_array_equal(getattr(again.claim, f.name), getattr(m.claim, f.name))
    assert dataclasses.replace(again, claim=m.claim) == m


def test_phasetype_invariant_checks():
    bad_beta = RiskModel(
        lam=1.0,
        claim=PhaseType(beta=[0.7, 0.7], B=[[-2.0, 1.0], [0.0, -2.0]]),
        c1=3.0,
        c2=2.0,
    )
    assert not validate(bad_beta).ok
    bad_diag = RiskModel(
        lam=1.0,
        claim=PhaseType(beta=[1.0, 0.0], B=[[2.0, 1.0], [0.0, -2.0]]),
        c1=3.0,
        c2=2.0,
    )
    assert not validate(bad_diag).ok


def test_phasetype_mean():
    claim = PhaseType(beta=[1.0, 0.0], B=[[-2.0, 2.0], [0.0, -2.0]])
    assert claim.mean == pytest.approx(1.0)
    assert np.allclose(claim.exit_rates, [0.0, 2.0])


# Every public entry point that needs exponential claims, called on a
# phase-type model; each reaches the one refusal in the derived constants.
EXPONENTIAL_ONLY = {
    "derive.mu": lambda m: derive(m).mu,
    "derive.gamma1": lambda m: derive(m).gamma1,
    "derive.q_plus_end": lambda m: derive(m).q_plus_end,
    "derive.b_max": lambda m: derive(m).b_max,
    "derive.end_gap": lambda m: derive(m).end_gap,
    "closedform.survival": lambda m: closedform.survival(m, 1.0, 3.0),
    "closedform.omega": lambda m: closedform.omega(m, 1.0, 3.0),
    "transform.psi_tilde": lambda m: transform.psi_tilde(m, 1.0, 1.0),
    "transform.z_roots": lambda m: transform.z_roots(m, 1.0),
    "transform.ab": lambda m: transform.ab(m, -1.0),
    "transform.invert_2d": lambda m: transform.invert_2d(m, 1.0, 3.0),
    "onedim.ruin_prob_exp": lambda m: onedim.ruin_prob_exp(m, 1.0),
    "onedim._phi": lambda m: onedim._phi(m, 0.5),
    "onedim.ruin_transform_exp": lambda m: onedim.ruin_transform_exp(m, 1.0, 0.5),
    "pde.solve": lambda m: pde.solve(m, steps=10),
}


@pytest.mark.parametrize("call", EXPONENTIAL_ONLY.values(), ids=EXPONENTIAL_ONLY.keys())
def test_exponential_only_entry_points_share_one_refusal(erlang2_model, call):
    with pytest.raises(UnsupportedClaimLaw) as info:
        call(erlang2_model)
    assert str(info.value) == "exponential claims only"


def test_phasetype_constants_copy_and_pickle(erlang2_model):
    dc = derive(erlang2_model)
    for clone in (copy.copy(dc), copy.deepcopy(dc), pickle.loads(pickle.dumps(dc))):
        assert clone == dc
        with pytest.raises(UnsupportedClaimLaw):
            _ = clone.mu
    with pytest.raises(AttributeError):
        _ = dc.not_a_constant
