import csv
import hashlib
import io
import json
import math
import re
import warnings

import pytest

from ruin2d import closedform, mc, pde
from ruin2d.cli import build_parser, main
from ruin2d.errors import ToleranceNotMet
from ruin2d.model import Exponential, RiskModel, derive, load_model
from ruin2d.onedim import ruin_transform_exp

from oracles import model_to_dict, mp_omega, residue_terms


@pytest.fixture()
def p0_file(tmp_path):
    path = tmp_path / "p0.json"
    path.write_text(
        json.dumps(
            {
                "lambda": 1.0,
                "claim": {"type": "exponential", "mu": 1.0},
                "c": [3.0, 2.0],
                "delta": [1.0, 1.0],
            }
        )
    )
    return str(path)


@pytest.fixture()
def ph_file(tmp_path):
    path = tmp_path / "ph.json"
    path.write_text(
        json.dumps(
            {
                "lambda": 1.0,
                "claim": {"type": "phase-type", "beta": [1.0, 0.0],
                          "B": [[-2.0, 2.0], [0.0, -2.0]]},
                "c": [3.0, 2.0],
                "delta": [1.0, 1.0],
            }
        )
    )
    return str(path)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def test_derive_table(p0_file, capsys):
    code, out, err = run_cli(["derive", "--model", p0_file], capsys)
    assert code == 0
    assert "gamma2 = 0.5" in out
    assert "regime = case1" in out


def test_derive_json_equivalence(p0_file, capsys):
    code, out, _ = run_cli(["derive", "--model", p0_file, "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gamma2"] == pytest.approx(0.5)
    assert data["regime"] == "case1"
    assert data["C1"] == pytest.approx(1.0 / 3.0)


def test_derive_invalid_model_exit2(capsys):
    code, out, err = run_cli(
        ["derive", "--lam", "1", "--mu", "1", "--c", "2", "3"], capsys
    )
    assert code == 2
    assert "net-profit ordering" in err


def test_ruin_exact(p0_file, capsys):
    code, out, _ = run_cli(
        ["ruin", "--model", p0_file, "--u", "1", "1", "--method", "exact"], capsys
    )
    assert code == 0
    assert "0.303265" in out


def test_ruin_lower_cone_default_method(p0_file, capsys):
    code, out, _ = run_cli(["ruin", "--model", p0_file, "--u", "2", "1"], capsys)
    assert code == 0
    assert "0.303265" in out


def test_ruin_mc_reproducible(p0_file, capsys):
    argv = [
        "ruin", "--model", p0_file, "--u", "1", "3",
        "--method", "mc", "--paths", "2e4", "--seed", "7", "--ultimate",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ruin_capability_exit3(p0_file, capsys):
    code, _, err = run_cli(
        ["ruin", "--model", p0_file, "--u", "1", "2", "--method", "exact", "--s", "0.5"],
        capsys,
    )
    assert code == 3
    assert "capability" in err


def test_phasetype_exact_exit3(ph_file, capsys):
    code, _, err = run_cli(
        ["ruin", "--model", ph_file, "--u", "1", "2", "--method", "exact"], capsys
    )
    assert code == 3


@pytest.mark.parametrize(
    "model, argv, code, message",
    [
        ("ph", ["ruin", "--u", "1", "2", "--method", "exact"], 3,
         "capability error: exact method needs exponential claims and s=0"),
        ("ph", ["ruin", "--u", "1", "2", "--method", "invert"], 3,
         "capability error: invert method needs exponential claims and s=0"),
        ("ph", ["ruin", "--u", "1", "2", "--method", "pde"], 3,
         "capability error: pde method needs exponential claims"),
        ("ph", ["transform", "--p", "1", "--q", "1"], 3,
         "capability error: exponential claims only"),
        ("ph", ["pde", "--s", "0.5", "--steps", "10"], 3,
         "capability error: exponential claims only"),
        ("ph", ["pde", "--steps", "10"], 3,
         "capability error: exponential claims only"),
        ("ph", ["table", "--x1", "0.5", "1", "2", "--x2", "1", "2", "2"], 3,
         "capability error: exponential claims only"),
        ("p0", ["ruin", "--u", "2", "2", "--method", "invert"], 3,
         "capability error: invert method needs upper-cone reserves x2 > x1 > 0"),
        ("p0", ["ruin", "--u", "3", "1", "--method", "invert"], 3,
         "capability error: invert method needs upper-cone reserves x2 > x1 > 0"),
        ("p0", ["ruin", "--u", "1", "3", "--method", "mc", "--ultimate", "--s", "0.5",
                "--paths", "100"], 3,
         "capability error: the conditional estimator does not read --s"),
        ("p0", ["pde", "--steps", "4", "--tol", "1e-12"], 4,
         "tolerance error: step-halving estimate 7.10e-03 exceeds tol 1.00e-12"),
        ("p0", ["transform", "--p", "1e-300", "--q", "1e-300"], 3,
         "capability error: psi_tilde(p, q) does not come out a finite double at these p and q"),
        ("p0", ["transform", "--p", "1e300", "--q", "1e300"], 3,
         "capability error: psi_tilde(p, q) does not come out a finite double at these p and q"),
        ("p0", ["pde", "--rmax", "1e300", "--steps", "2"], 3,
         "capability error: the march overflows double precision at r_max=1e+300, steps=2"),
        ("p0", ["ruin", "--u", "1", "3", "--method", "mc", "--horizon", "1e300"], 3,
         "capability error: lam * horizon = 1e+300 expected claims per path exceeds "
         "the 1048576 that a simulation holds"),
        ("p0", ["ruin", "--u", "1", "1e300", "--method", "mc", "--ultimate"], 3,
         "capability error: lam * horizon = 1e+300 expected claims per path exceeds "
         "the 1048576 that a simulation holds"),
        ("p0", ["simulate", "--u", "1", "3", "--method", "fluid", "--horizon", "1048577"], 3,
         "capability error: lam * horizon = 1.04858e+06 expected claims per path exceeds "
         "the 1048576 that a simulation holds"),
        ("p0", ["ruin", "--u", "1e-300", "1", "--method", "invert"], 3,
         "capability error: psi_tilde(p, q) does not come out a finite double at these p and q"),
        ("p0", ["ruin", "--u", "1", "3", "--method", "mc", "--ultimate", "--horizon", "5",
                "--paths", "1000"], 3,
         "capability error: the conditional estimator does not read --horizon"),
        ("p0", ["simulate", "--u", "1", "3", "--method", "conditional", "--horizon", "5"], 3,
         "capability error: the conditional estimator does not read --horizon"),
        # u1 = u2 puts the point on the top row at r = 1e300
        ("p0", ["ruin", "--u", "1e300", "1e300", "--method", "pde", "--steps", "4"], 3,
         "capability error: the march overflows double precision at r_max=1e+300, steps=2"),
        ("p0", ["simulate", "--u", "1", "3", "--method", "conditional", "--s", "0.5"], 3,
         "capability error: the conditional estimator does not read --s"),
        ("p0", ["simulate", "--u", "1", "3", "--method", "fluid", "--s", "0.5"], 3,
         "capability error: the fluid estimator does not read --s"),
        ("p0", ["simulate", "--u", "1", "3", "--method", "conditional", "--s", "0.5",
                "--horizon", "5"], 3,
         "capability error: the conditional estimator does not read --horizon or --s"),
        ("p0", ["ruin", "--u", "1", "3", "--ultimate", "--s", "0.5", "--horizon", "5"], 3,
         "capability error: the conditional estimator does not read --horizon or --s"),
    ],
)
def test_exit_codes(p0_file, ph_file, capsys, model, argv, code, message):
    path = {"p0": p0_file, "ph": ph_file}[model]
    got, out, err = run_cli([argv[0], "--model", path, *argv[1:]], capsys)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1] == message


def test_ruin_tolerance_failure_exit4(p0_file, capsys, monkeypatch):
    def explode(*a, **k):
        raise ToleranceNotMet("forced for the test")

    monkeypatch.setattr(closedform, "survival", explode)
    code, out, err = run_cli(["ruin", "--model", p0_file, "--u", "1", "3"], capsys)
    assert (code, out) == (4, "")
    assert err.splitlines()[-1] == "tolerance error: forced for the test"


@pytest.mark.parametrize(
    "model, s, label",
    [("p0", "0", "method=exact"), ("p0", "0.5", "method=pde"),
     ("ph", "0", "method=mc"), ("ph", "0.5", "method=mc")],
)
def test_ruin_default_method(p0_file, ph_file, capsys, model, s, label):
    path = {"p0": p0_file, "ph": ph_file}[model]
    # only options of the method that runs: another method refuses them
    own = {"method=exact": [], "method=pde": ["--steps", "20"],
           "method=mc": ["--paths", "200", "--horizon", "5"]}[label]
    argv = ["ruin", "--model", path, "--u", "1", "2", "--s", s, *own]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert f"  {label}  " in out


@pytest.mark.parametrize("method, option", [
    ("exact", ["--horizon", "5"]), ("pde", ["--horizon", "5"]), ("invert", ["--horizon", "5"]),
    ("invert", ["--tol", "1e-12"]), ("mc", ["--tol", "1e-12"]),
    ("exact", ["--paths", "7"]), ("exact", ["--ultimate"]), ("exact", ["--steps", "20"]),
    ("pde", ["--seed", "3"]), ("invert", ["--threads", "2"]), ("mc", ["--steps", "20"]),
])
def test_ruin_refuses_an_option_its_method_ignores(capsys, method, option):
    code, out, err = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", method,
                              *option], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        f"capability error: {method} method does not read {option[0]}")


@pytest.mark.parametrize("argv, label", [
    (["--horizon", "5", "--paths", "100"], "method=mc"),
    (["--tol", "1e-10"], "method=exact"),
    (["--tol", "1e-2", "--s", "0.5", "--steps", "20"], "method=pde"),
    (["--steps", "20"], "method=pde"),
    (["--seed", "3", "--paths", "100"], "method=mc"),
    # an mc option: mc runs, with mc's defaults applied where they are read
    (["--ultimate"], "method=mc(conditional)  n=100000"),
])
def test_ruin_default_method_reads_every_option_given(capsys, argv, label):
    code, out, _ = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", *argv], capsys)
    assert code == 0
    assert f"  {label}  " in out


def test_ruin_without_a_method_for_every_option_exits3(ph_file, capsys):
    code, out, err = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--horizon", "5",
                              "--tol", "1e-8"], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        "capability error: no method that applies here reads --horizon and --tol")
    code, _, err = run_cli(["ruin", "--model", ph_file, "--u", "1", "3", "--tol", "1e-8"],
                           capsys)
    assert code == 3
    assert err.splitlines()[-1] == "capability error: no method that applies here reads --tol"


def test_ruin_mc_horizon_defaults_to_200(capsys):
    code, out, _ = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", "mc",
                            "--paths", "100", "--seed", "3"], capsys)
    assert code == 0
    assert out == run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", "mc",
                           "--paths", "100", "--seed", "3", "--horizon", "200"], capsys)[1]
    assert out.startswith("ruin(T=200) = ")


@pytest.mark.parametrize("u", [("1", "3"), ("3", "1")])
def test_ruin_ultimate_matches_simulate_conditional(p0_file, capsys, u):
    common = ["--model", p0_file, "--u", *u, "--paths", "4e3", "--seed", "9"]
    code, out, _ = run_cli(["ruin", *common, "--method", "mc", "--ultimate"], capsys)
    assert code == 0
    _, _, ruin, stderr, *_ = out.split()
    code, out, _ = run_cli(["simulate", *common, "--method", "conditional"], capsys)
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[0] == "survival"
    assert float(ruin) == pytest.approx(1.0 - float(row[1]), abs=1e-11)
    assert stderr == f"stderr={row[2]}"


def test_simulate_conditional_lower_cone_is_exact(p0_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "--model", p0_file, "--u", "3", "1", "--method", "conditional",
         "--paths", "100"],
        capsys,
    )
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    dc = derive(load_model(p0_file))
    assert float(row[1]) == pytest.approx(1.0 - dc.C2 * math.exp(-dc.gamma2 * 1.0), rel=1e-12)
    assert row[2] == "0"


def test_transform_command(p0_file, capsys):
    code, out, _ = run_cli(
        ["transform", "--model", p0_file, "--p", "1", "--q", "1"], capsys
    )
    assert code == 0
    assert "0.638675" in out


@pytest.mark.parametrize("q, line", [("1e-10", "psi_tilde(1,1e-10) = 7999999999.64"),
                                     ("1e-300", "psi_tilde(1,1e-300) = 8e+299")])
def test_transform_command_near_q_zero(q, line, capsys):
    # z2(q) -> 0 with q: its digits come from Vieta's rule, not a cancelling sum
    code, out, _ = run_cli(["transform", *P0_INLINE, "--p", "1", "--q", q], capsys)
    assert (code, out) == (0, line + "\n")


def test_simulate_csv_shape(p0_file, capsys, tmp_path):
    out_file = tmp_path / "sim.csv"
    argv = [
        "simulate", "--model", p0_file, "--u", "1", "1",
        "--paths", "2e4", "--seed", "5", "--horizon", "50",
        "--output", str(out_file),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "quantity,estimate,stderr,n,seed,meta"
    fields = lines[1].split(",", 5)
    assert fields[0] == "ruin_by_horizon"
    assert int(fields[3]) == 20_000 and int(fields[4]) == 5


def test_simulate_byte_reproducible(p0_file, capsys, tmp_path):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (fa, fb):
        argv = [
            "simulate", "--model", p0_file, "--u", "1", "2",
            "--paths", "1e4", "--seed", "3", "--horizon", "30",
            "--s", "0.5", "--output", str(f),
        ]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_simulate_conditional(p0_file, capsys):
    code, out, _ = run_cli(
        [
            "simulate", "--model", p0_file, "--u", "1", "2",
            "--method", "conditional", "--paths", "5e4", "--seed", "11",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("quantity,estimate")
    assert "survival," in out


def test_table_shape_and_determinism(p0_file, capsys, tmp_path):
    fa, fb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    for f in (fa, fb):
        code, _, _ = run_cli(
            [
                "table", "--model", p0_file,
                "--x1", "0.5", "1.0", "2", "--x2", "1.5", "2.0", "2",
                "--output", str(f),
            ],
            capsys,
        )
        assert code == 0
    text = fa.read_text().strip().splitlines()
    assert text[0] == "x1,x2,survival,ruin,omega,quadratureError,regime"
    assert len(text) == 5  # header + 2x2 rows
    for row in text[1:]:
        parts = row.split(",")
        ruin_val = float(parts[3])
        assert 0.0 <= ruin_val <= 1.0
    assert fa.read_bytes() == fb.read_bytes()


def test_simulate_fluid_method(p0_file, capsys):
    code, out, _ = run_cli(
        [
            "simulate", "--model", p0_file, "--u", "1", "2",
            "--method", "fluid", "--paths", "500", "--seed", "2",
            "--horizon", "10",
        ],
        capsys,
    )
    assert code == 0
    assert "ruin_by_horizon," in out


def test_simulate_csv_parses(p0_file, capsys):
    base = ["simulate", "--model", p0_file, "--u", "1", "2", "--seed", "4"]
    cases = [
        ["--paths", "2e3", "--horizon", "20"],
        ["--paths", "2e3", "--horizon", "20", "--s", "0.5"],
        ["--paths", "2e3", "--method", "conditional"],
        ["--paths", "200", "--horizon", "10", "--method", "fluid"],
    ]
    for extra in cases:
        code, out, _ = run_cli(base + extra, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(r) for r in rows] == [6, 6]
        assert rows[0] == ["quantity", "estimate", "stderr", "n", "seed", "meta"]
        meta = json.loads(rows[1][5])
        assert meta["estimand"] == rows[1][0]


@pytest.mark.parametrize("method", ["conditional", "fluid"])
def test_simulate_refuses_discount_outside_naive(p0_file, capsys, method):
    code, out, err = run_cli(
        [
            "simulate", "--model", p0_file, "--u", "1", "2",
            "--method", method, "--s", "0.5", "--paths", "200",
        ],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "capability error" in err and "--s" in err


def test_simulate_fluid_threads_identical(p0_file, capsys):
    base = ["simulate", "--model", p0_file, "--u", "1", "2", "--method", "fluid",
            "--paths", "4e4", "--seed", "6", "--horizon", "10"]
    _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
    _, out2, _ = run_cli(base + ["--threads", "2"], capsys)
    assert out1 == out2
    meta = json.loads(list(csv.reader(io.StringIO(out1)))[1][5])
    assert meta["stream_version"] == 6


P0_INLINE = ["--lam", "1", "--mu", "1", "--c", "3", "2"]


# each pinned value lies within 4 standard errors of exact ruin, 0.194023325768 at
# (1, 3) and 0.303265329856 at (3, 1), or, discounted, of ruin --method pde --s 0.5,
# 0.133259841483 at (1, 3) and 0.130904364808 at (1, 30).  Stream 6
# moved the discounted line at (1, 3) only: s = 0, the conditional and fluid
# estimators, and starts whose crossing time is past the horizon (T* = 29 >= 5 at
# (1, 30)) draw as in stream 5.
@pytest.mark.parametrize("argv, u, line, reference", [
    (["ruin", "--method", "mc", "--horizon", "20"], ["1", "3"],
     "ruin(T=20) = 0.1931  stderr=0.00279123790646  method=mc  n=20000  seed=11  "
     "tail<=0.00646800434785", "exact"),
    (["ruin", "--method", "mc", "--horizon", "20", "--s", "0.5"], ["1", "3"],
     "ruin_lt = 0.132548541452  stderr=0.00213151028378  bias<=4.53999297625e-05  "
     "method=mc  n=20000  seed=11", "pde"),
    (["ruin", "--method", "mc", "--ultimate"], ["1", "3"],
     "ruin = 0.192823912376  stderr=0.00248761247682  method=mc(conditional)  n=20000  "
     "seed=11", "exact"),
    (["simulate", "--method", "fluid", "--horizon", "20"], ["1", "3"],
     'ruin_by_horizon,0.1911,0.00278018452109,20000,11,"{""estimand"": ""ruin_by_horizon"", '
     '""horizon"": 20.0, ""method"": ""fluid"", ""stream_version"": 6}"', "exact"),
    (["ruin", "--method", "mc", "--horizon", "20"], ["3", "1"],
     "ruin(T=20) = 0.3059  stderr=0.00325834165482  method=mc  n=20000  seed=11  "
     "tail<=0.0120138679501", "exact"),
    (["ruin", "--method", "mc", "--horizon", "5", "--s", "0.5"], ["1", "30"],
     "ruin_lt = 0.128388507232  stderr=0.00211675544977  bias<=0.0820849986239  "
     "method=mc  n=20000  seed=11", "pde"),
], ids=["direct", "discounted", "conditional", "fluid", "lower_cone", "crossing_past_horizon"])
def test_seeded_output_pinned_at_stream_version(capsys, argv, u, line, reference):
    # 2e4 paths span two chunks and, at T = 20, several path blocks per chunk
    code, out, _ = run_cli([*argv, *P0_INLINE, "--u", *u, "--paths", "2e4",
                            "--seed", "11"], capsys)
    assert code == 0
    assert mc.STREAM_VERSION == 6
    assert out.splitlines()[-1] == line, (
        "a seeded Monte Carlo output changed: if paths are now drawn differently "
        "on purpose, bump mc.STREAM_VERSION and pin the new lines")
    if line.startswith("ruin_by_horizon,"):
        value, se = map(float, line.split(",")[1:3])
    else:
        value, se = (float(re.search(p, line)[1]) for p in (r"= (\S+)", r"stderr=(\S+)"))
    extra = ["--method", "pde", "--s", "0.5"] if reference == "pde" else []
    _, ref_out, _ = run_cli(["ruin", *P0_INLINE, "--u", *u, *extra], capsys)
    assert abs(value - float(re.search(r"= (\S+)", ref_out)[1])) <= 4.0 * se


def test_mc_tail_bounds_the_ruin_after_the_horizon(p0, capsys):
    # at T = 0 no path is ruined yet, so all of the exact ruin comes after the horizon
    code, out, _ = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", "mc",
                            "--horizon", "0"], capsys)
    assert code == 0
    assert out.startswith("ruin(T=0) = 0  stderr=0  ")
    tail = float(re.search(r"tail<=(\S+)", out)[1])
    assert tail >= closedform.survival(p0, 1.0, 3.0).ruin


def test_mc_from_one_path_prints_no_standard_error(capsys):
    code, out, _ = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", "mc",
                            "--paths", "1", "--horizon", "1"], capsys)
    assert code == 0
    assert out.startswith("ruin(T=1) = 0  stderr=inf  method=mc  n=1  ")


P1_INLINE = ["--lam", "2", "--mu", "1", "--c", "5", "2.2"]
ND_INLINE = ["--lam", "1", "--mu", "1", "--c", "1.002", "1.001"]

# derive's rows in the record's field order; the first five hold for any claim law
BASE_ROWS = ["      p1 = 3", "      p2 = 2", "     rho = 1", "       d = -1", "  regime = case1"]
BASE_JSON = {"p1": 3.0, "p2": 2.0, "rho": 1.0, "d": -1.0, "regime": "case1"}
DERIVE_GOLDEN = {
    "P0": (P0_INLINE, [
        *BASE_ROWS, "      mu = 1", "  gamma1 = 0.666666666667", "  gamma2 = 0.5",
        "  gamma3 = -0.166666666667", "      C1 = 0.333333333333", "      C2 = 0.5",
        "  q_plus = -7.46410161514", " q_minus = -0.535898384862", "   b_max = 0.57735026919",
        " end_gap = -0.0358983848622",
    ], {
        **BASE_JSON, "mu": 1.0, "gamma1": 0.6666666666666667, "gamma2": 0.5,
        "gamma3": -0.16666666666666663, "C1": 0.3333333333333333, "C2": 0.5,
        "q_plus": -7.464101615137754, "q_minus": -0.5358983848622454,
        "b_max": 0.5773502691896257, "end_gap": -0.03589838486224541,
    }),
    "P1": (P1_INLINE, [
        "      p1 = 5", "      p2 = 2.2", "     rho = 2", "       d = -2.8", "  regime = case2",
        "      mu = 1", "  gamma1 = 0.6", "  gamma2 = 0.0909090909091", "  gamma3 = 0.469090909091",
        "      C1 = 0.4", "      C2 = 0.909090909091", "  q_plus = -4.75876975726",
        " q_minus = -0.241230242737", "   b_max = 0.632455532034", " end_gap = -0.150321151828",
    ], {
        "p1": 5.0, "p2": 2.2, "rho": 2.0, "d": -2.8, "regime": "case2", "mu": 1.0, "gamma1": 0.6,
        "gamma2": 0.09090909090909094, "gamma3": 0.469090909090909, "C1": 0.4,
        "C2": 0.9090909090909091, "q_plus": -4.758769757263128, "q_minus": -0.24123024273687194,
        "b_max": 0.6324555320336759, "end_gap": -0.15032115182778097,
    }),
    "ND": (ND_INLINE, [
        "      p1 = 1.002", "      p2 = 1.001", "     rho = 1", "       d = -0.001",
        "  regime = case1", "      mu = 1", "  gamma1 = 0.00199600798403",
        "  gamma2 = 0.000999000999001", "  gamma3 = -9.97006984685e-07", "      C1 = 0.998003992016",
        "      C2 = 0.999000999001", "  q_plus = -4003.999001", " q_minus = -0.000999001248253",
        "   b_max = 0.999001497504", " end_gap = -2.4925162177e-10",
    ], {
        "p1": 1.002, "p2": 1.001, "rho": 1.0, "d": -0.001000000000000112, "regime": "case1",
        "mu": 1.0, "gamma1": 0.001996007984031989, "gamma2": 0.0009990009990008542,
        "gamma3": -9.970069846854746e-07, "C1": 0.998003992015968, "C2": 0.9990009990009991,
        "q_plus": -4003.9990009983035, "q_minus": -0.0009990012482525108,
        "b_max": 0.9990014975043671, "end_gap": -2.492516217698654e-10,
    }),
    "Erlang-2": (None, BASE_ROWS, BASE_JSON),
}


@pytest.mark.parametrize("name", DERIVE_GOLDEN)
def test_derive_output_pinned(capsys, tmp_path, erlang2_model, name):
    argv, rows, data = DERIVE_GOLDEN[name]
    if argv is None:
        path = tmp_path / "erlang2.json"
        path.write_text(json.dumps(model_to_dict(erlang2_model)))
        argv = ["--model", str(path)]
    assert run_cli(["derive", *argv], capsys)[:2] == (0, "\n".join(rows) + "\n")
    assert run_cli(["derive", *argv, "--json"], capsys)[:2] == (0, json.dumps(data) + "\n")


EXACT_OUTPUT_MOVED = (
    "an exact-path output changed: these bytes move only with a deliberate change to the "
    "cut integral closedform.omega (its integrand, its panel layout or the cut constants it "
    "reads from derive, or the scipy-free cut integral of the ROADMAP); "
    "check each moved line against mp_omega within its error<=, record it in CHANGES.md "
    "and pin it")

# sha256 of each sweep's CSV, 16 x 16 points
TABLE_GOLDEN = {
    "P0-small": ([*P0_INLINE, "--x1", "0.3", "4.1", "16", "--x2", "0.25", "4.4", "16"],
                 "1aef64a3980bcf955b80281443d897e68a08e0ff211c5274b9a335b8b73fd22e"),
    "P0-large": ([*P0_INLINE, "--x1", "0.7", "28.5", "16", "--x2", "0.9", "30", "16"],
                 "e43bafe3b73027a64f958e1b9537d1bf9098c8cbf63985ffa5bf90f715edff28"),
    "P1-small": ([*P1_INLINE, "--x1", "0.3", "4.1", "16", "--x2", "0.25", "4.4", "16"],
                 "de442bfb7ba22b75dbadd77e26832701cc9332a176b214cd68f113f58c2937f6"),
    "P1-large": ([*P1_INLINE, "--x1", "0.7", "28.5", "16", "--x2", "0.9", "30", "16"],
                 "ece8ae00d31e2ce49f226e3d6bc6e0209e8132f0c3c0b33b07ca9f1da9603118"),
}


@pytest.mark.parametrize("name", TABLE_GOLDEN)
def test_table_output_pinned(capsys, name):
    argv, digest = TABLE_GOLDEN[name]
    code, out, _ = run_cli(["table", *argv], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 16 * 16
    assert hashlib.sha256(out.encode()).hexdigest() == digest, EXACT_OUTPUT_MOVED


RUIN_EXACT_GOLDEN = [
    ([*P0_INLINE, "--u", "10.5", "12.25"],
     "ruin = 0.00113980645999  method=exact  error<=4.61473092826e-11  regime=case1"),
    ([*P0_INLINE, "--u", "17", "23.4"],
     "ruin = 6.94823273133e-06  method=exact  error<=1.67026016419e-11  regime=case1"),
    ([*P0_INLINE, "--u", "29.3", "30"],
     "ruin = 1.52951543066e-07  method=exact  error<=3.57459805503e-13  regime=case1"),
    ([*P0_INLINE, "--u", "21", "13.5"],
     "ruin = 0.000585439810396  method=exact  error<=0  regime=case1"),
    ([*P1_INLINE, "--u", "10.5", "12.25"],
     "ruin = 0.298520038298  method=exact  error<=6.19246851633e-12  regime=case2"),
    ([*P1_INLINE, "--u", "17", "23.4"],
     "ruin = 0.108330449459  method=exact  error<=9.86696762751e-14  regime=case2"),
    ([*P1_INLINE, "--u", "29.3", "30"],
     "ruin = 0.0594521847545  method=exact  error<=3.86003087964e-13  regime=case2"),
    ([*P1_INLINE, "--u", "21", "13.5"],
     "ruin = 0.266446206622  method=exact  error<=0  regime=case2"),
    ([*ND_INLINE, "--u", "0.35", "1.2", "--tol", "1e-6"],
     "ruin = 0.998608567547  method=exact  error<=4.10309166594e-11  regime=case1"),
    ([*ND_INLINE, "--u", "1.6", "2.9", "--tol", "1e-6"],
     "ruin = 0.997304310381  method=exact  error<=6.12423337019e-11  regime=case1"),
    ([*ND_INLINE, "--u", "14", "15.5", "--tol", "1e-6"],
     "ruin = 0.984590087493  method=exact  error<=8.98579884078e-12  regime=case1"),
    ([*ND_INLINE, "--u", "12", "4", "--tol", "1e-6"],
     "ruin = 0.995016952451  method=exact  error<=0  regime=case1"),
    # small probabilities, whose low digits 1 - survival would lose
    ([*P0_INLINE, "--u", "40", "80"],
     "ruin = 8.7436458989e-13  method=exact  error<=1.47593241237e-15  regime=case1"),
    ([*P0_INLINE, "--u", "60", "120"],
     "ruin = 1.4161180851e-18  method=exact  error<=6.96984828407e-24  regime=case1"),
]


@pytest.mark.parametrize("argv, line", RUIN_EXACT_GOLDEN,
                         ids=[f"{i:02d}" for i in range(len(RUIN_EXACT_GOLDEN))])
def test_ruin_exact_output_pinned(capsys, argv, line):
    code, out, _ = run_cli(["ruin", *argv, "--method", "exact"], capsys)
    assert (code, out) == (0, line + "\n"), EXACT_OUTPUT_MOVED


ND = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.002, c2=1.001)


def assert_nd_ruin_within_bound(capsys, x1, x2, *flags):
    """Exact ND ruin at ``(x1, x2)`` is within its printed bound of the one from ``mp_omega``."""
    code, out, err = run_cli(["ruin", *ND_INLINE, "--u", repr(x1), repr(x2), *flags], capsys)
    assert (code, err) == (0, "")
    match = re.fullmatch(r"ruin = (\S+)  method=exact  error<=(\S+)  regime=case1\n", out)
    value, bound = float(match[1]), float(match[2])
    dc = derive(ND)
    # case 1: the company-2 and cross terms cancel
    reference = dc.C1 * math.exp(-dc.gamma1 * x1) - mp_omega(ND, x1, x2)
    # printing to 12 digits rounds by up to 5e-13
    assert abs(value - reference) <= bound + 5e-13


def test_ruin_exact_tolerance_probe_pinned(capsys):
    # an ND point whose cut integral once missed the default --tol
    assert_nd_ruin_within_bound(capsys, 1.9895316759833197, 2.119459091872955)


# ND points next to the cut end q_minus_end, 2.5e-10 short of the pole -gamma2
@pytest.mark.parametrize("tol", ["1e-6", "1e-8"])
@pytest.mark.parametrize("x1, x2", [(0.00968949386818857, 0.09626081472070847),
                                    (0.008843227100072543, 0.06011491445502003)])
def test_ruin_exact_next_to_the_pole(capsys, x1, x2, tol):
    assert_nd_ruin_within_bound(capsys, x1, x2, "--tol", tol)


def test_ruin_exact_nd_warns_nothing(capsys):
    # scipy's roundoff IntegrationWarning once reached stderr here, for an answer within its bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["ruin", *ND_INLINE, "--u", "1", "3"], capsys)
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    assert out.startswith("ruin = 0.997905497601  method=exact  error<=")
    assert_nd_ruin_within_bound(capsys, 1.0, 3.0)


def test_ruin_exact_below_an_ulp_from_the_seam(capsys):
    # the pole -gamma2 sits 0.7 ulp of q_minus_end past it, which derive's end_gap resolves
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=4.00000005, c2=2.0)
    code, out, err = run_cli(
        ["ruin", "--lam", "1", "--mu", "1", "--c", "4.00000005", "2", "--u", "1", "3"], capsys
    )
    exact = closedform.survival(model, 1.0, 3.0)
    assert (code, err) == (0, "")
    match = re.fullmatch(r"ruin = (\S+)  method=exact  error<=(\S+)  regime=case2\n", out)
    reference = exact.ruin + exact.omega - mp_omega(model, 1.0, 3.0)
    assert abs(float(match[1]) - reference) <= float(match[2]) + 5e-13


def test_ruin_exact_answers_where_the_prefactor_exceeds_one(capsys):
    # (p2 - rho)/pi = 3.87 multiplies the cut integral's error: quad was once given a
    # target that much too loose, and this query exited 4 with 2.12e-8 against tol 1e-8
    model = RiskModel(lam=3.8, claim=Exponential(0.24), c1=63.0, c2=28.0)
    code, out, err = run_cli(
        ["ruin", "--lam", "3.8", "--mu", "0.24", "--c", "63", "28", "--u", "1.6", "1.7"], capsys
    )
    assert (code, err) == (0, "")
    match = re.fullmatch(r"ruin = (\S+)  method=exact  error<=(\S+)  regime=case2\n", out)
    terms = residue_terms(model, 1.6, 1.7)
    reference = -(terms["company1"] + terms["company2"] + terms["cross"]) - mp_omega(model, 1.6, 1.7)
    assert abs(float(match[1]) - reference) <= float(match[2]) + 5e-13


def test_ruin_exact_seam_band_warns_nothing(capsys):
    # a draw of scripts/omega_sweep.py --region seam: scipy's IntegrationWarning once
    # reached stderr here twice, with an answer 3.7e-11 off under error<=3.27e-11
    argv = ["ruin", "--lam", "1.0387856035283167", "--mu", "4.263057825008408",
            "--c", "0.25424419739146875", "0.24890170261736375",
            "--u", "0.012491046502647435", "3.4857366571134443"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    assert out.startswith("ruin = 0.965694878006  method=exact  error<=")


def test_delta_warning_only_when_chosen(p0_file, capsys):
    inline = ["derive", "--lam", "1", "--mu", "1", "--c", "3", "2"]
    code, _, err = run_cli(inline, capsys)
    assert code == 0 and "delta1 + delta2" not in err
    code, _, err = run_cli(inline + ["--delta", "1", "1"], capsys)
    assert code == 0 and "delta1 + delta2 != 1" in err
    code, _, err = run_cli(["derive", "--model", p0_file], capsys)
    assert code == 0 and "delta1 + delta2 != 1" in err


def test_ruin_pde_method(p0_file, capsys):
    code, out, _ = run_cli(
        [
            "ruin", "--model", p0_file, "--u", "1", "2", "--s", "0.5",
            "--method", "pde", "--steps", "150",
        ],
        capsys,
    )
    assert code == 0
    assert "method=pde" in out and "s=0.5" in out


def test_ruin_pde_odd_steps_use_one_fewer_column(capsys):
    argv = ["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde", "--steps"]
    assert run_cli([*argv, "41"], capsys) == run_cli([*argv, "40"], capsys)
    assert run_cli([*argv, "41"], capsys) != run_cli([*argv, "42"], capsys)


def test_pde_csv(p0_file, capsys, tmp_path):
    f = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        [
            "pde", "--model", p0_file, "--s", "0.5", "--rmax", "3",
            "--steps", "20", "--output", str(f), "--dump-stride", "10",
        ],
        capsys,
    )
    assert code == 0
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "r,w,u1,u2,chi,xi,h"
    assert len(lines) > 3


@pytest.mark.parametrize("argv, rows, digest", [
    ([*P0_INLINE, "--s", "0.5", "--rmax", "3", "--steps", "20", "--dump-stride", "3"], 106,
     "cbaf07a9169079ed93df7bb77340429b7eee94a1e7ebf7bec1959ee652466c96"),
    # h = e^{mu r - (lam + s) w} chi, taken in log space: e^{mu r} = e^1000 alone overflows
    ([*P0_INLINE, "--rmax", "1000", "--steps", "10", "--dump-stride", "10"], 7,
     "6472680b149219699937511b310fcee79b90712031396389a464718d36414c00"),
    (["--lam", "1.3", "--mu", "0.7", "--c", "5", "3", "--delta", "1.6", "1.25",
      "--s", "0.3", "--rmax", "4", "--steps", "24", "--dump-stride", "4"], 92,
     "6ee6c222bc86463771d5abb2cfbcc79112ca3c3591d171d9daafb455dac43a16"),
], ids=["P0-s0.5", "P0-rmax1000", "delta"])
def test_pde_dump_pinned(capsys, argv, rows, digest):
    code, out, _ = run_cli(["pde", *argv], capsys)
    assert (code, out.count("\n")) == (0, rows)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, PDE_OUTPUT_MOVED


PDE_OUTPUT_MOVED = (
    "a PDE output changed: these bytes move only with a deliberate change to the march's "
    "rounding, the grid the CLI solves on, pde.evaluate or the step-halving estimate; "
    "record each moved line in CHANGES.md and pin it")

PDE_GOLDEN = [
    (["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde", "--s", "0"],
     "ruin = 0.194023325798  method=pde  error<=1.35502818455e-06  s=0"),
    (["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde", "--s", "0.5"],
     "ruin_lt = 0.133259841483  method=pde  error<=1.18968080006e-06  s=0.5"),
    (["ruin", *P1_INLINE, "--u", "1", "3", "--method", "pde", "--s", "0"],
     "ruin = 0.71250926975  method=pde  error<=2.79400918402e-07  s=0"),
    (["ruin", *P1_INLINE, "--u", "1", "3", "--method", "pde", "--s", "0.5"],
     "ruin_lt = 0.237642741177  method=pde  error<=6.24237946982e-07  s=0.5"),
    # the point query of pde --point 1 3 --steps 150, on the query's own column
    (["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde", "--steps", "300"],
     "ruin = 0.194023325861  method=pde  error<=2.40904061246e-06  s=0"),
]


@pytest.mark.parametrize("argv, line", PDE_GOLDEN,
                         ids=["P0-s0", "P0-s0.5", "P1-s0", "P1-s0.5", "point"])
def test_pde_output_pinned(capsys, argv, line):
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, line + "\n"), PDE_OUTPUT_MOVED


@pytest.mark.parametrize("s, line", [
    ("1e3", "ruin_lt = 0.000367145698907  method=exact (lower cone)  s=1000"),
    ("1e8", "ruin_lt = 3.67879433814e-09  method=exact (lower cone)  s=100000000"),
    ("1e9", "ruin_lt = 3.67879440436e-10  method=exact (lower cone)  s=1000000000"),
], ids=["1e3", "1e8", "1e9"])
def test_ruin_pde_lower_cone_at_large_s(capsys, s, line):
    # company 2's discounted ruin from a root that does not cancel as s grows;
    # the values are 60-digit mpmath ones
    code, out, _ = run_cli(["ruin", *P0_INLINE, "--u", "3", "1", "--method", "pde", "--s", s],
                           capsys)
    assert (code, out) == (0, line + "\n")


def test_ruin_pde_upper_cone_at_large_s(capsys):
    code, out, err = run_cli(["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde",
                              "--s", "1e9"], capsys)
    assert (code, err) == (0, "")
    value, bound = (float(v) for v in re.fullmatch(
        r"ruin_lt = (\S+)  method=pde  error<=(\S+)  s=1000000000\n", out).groups())
    # at least company 2's discounted ruin at x2 = 3; at most E[e^{-s T}] for the
    # first claim's time T, lam / (lam + s), since no ruin comes before it
    p0 = RiskModel(lam=1.0, claim=Exponential(1.0), c1=3.0, c2=2.0)
    assert ruin_transform_exp(p0, 3.0, 1e9) - bound <= value <= 1.0 / (1.0 + 1e9) + bound


def test_ruin_pde_cones_agree_beyond_the_discriminant_overflow(capsys):
    # s (s + 2 (p2 mu + lam)) overflows above about s = 1e154; at s = 1e200 both
    # cones are ruin at the first claim, about (lam / s) e^{-1} here
    values = {}
    for u, method in ((("3", "1"), "exact (lower cone)"), (("1", "3"), "pde")):
        code, out, err = run_cli(["ruin", *P0_INLINE, "--u", *u, "--method", "pde",
                                  "--s", "1e200"], capsys)
        assert (code, err) == (0, "")
        values[method] = float(re.fullmatch(
            rf"ruin_lt = (\S+)  method={re.escape(method)}  (error<=\S+  )?s=1e\+200\n",
            out)[1])
        bound = float(re.search(r"error<=(\S+)", out)[1]) if method == "pde" else 0.0
    assert values["exact (lower cone)"] == pytest.approx(math.exp(-1.0) / 1e200, rel=1e-12)
    assert abs(values["pde"] - values["exact (lower cone)"]) <= bound


def test_ruin_pde_honours_tol(capsys):
    argv = ["ruin", *P0_INLINE, "--u", "1", "3", "--method", "pde"]
    code, out, err = run_cli([*argv, "--tol", "1e-12"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("tolerance error: step-halving estimate 1.36e-06 exceeds tol 1.00e-12")
    assert run_cli([*argv, "--tol", "1e-5"], capsys) == run_cli(argv, capsys)


def test_pde_dump_h_is_finite_where_its_value_is(capsys):
    # at (r, w) = (1000, 0), chi = 3.56e-218 and e^{mu r} = e^1000 overflows alone
    code, out, err = run_cli(["pde", *P0_INLINE, "--rmax", "1000", "--steps", "10",
                              "--dump-stride", "10"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert ("1000", "0", "7.01796108926e+216") in [(row["r"], row["w"], row["h"]) for row in rows]
    for row in rows:
        r, w, chi, h = (float(row[k]) for k in ("r", "w", "chi", "h"))
        log_h = r - w + math.log(chi)  # mu = lam = 1, s = 0
        if log_h < 709:
            assert h == pytest.approx(math.exp(log_h), rel=1e-9)
        elif log_h > 710:
            assert h == math.inf


def test_ruin_invert_method(p0_file, capsys):
    code, out, _ = run_cli(
        ["ruin", "--model", p0_file, "--u", "1", "2", "--method", "invert"], capsys
    )
    assert code == 0
    assert "method=invert" in out
    assert "0.2217" in out  # 1 - 0.778202


def test_invert_command(p0_file, capsys):
    # the answers of the former `invert --x X1 X2` are 1 - ruin of `ruin --method invert`
    def survival(x1, x2):
        argv = ["ruin", "--model", p0_file, "--u", x1, x2, "--method", "invert"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return 1.0 - float(re.search(r"= (\S+)", out)[1])

    assert survival("1", "2") == pytest.approx(0.7782, abs=1e-4)
    # far reserves of company 2: survival(1, x2) -> 1 - C1 e^{-gamma1} = 0.8288609603
    assert survival("1", "1e300") == pytest.approx(0.8288609603, abs=1e-3)


def test_table_flags_failed_rows_exit4(p0_file, capsys, tmp_path, monkeypatch):
    import ruin2d.cli as cli_mod
    from ruin2d.errors import ToleranceNotMet

    def explode(*a, **k):
        raise ToleranceNotMet("forced for the test")

    monkeypatch.setattr(cli_mod.closedform, "survival", explode)
    f = tmp_path / "t.csv"
    code, _, err = run_cli(
        [
            "table", "--model", p0_file,
            "--x1", "0.5", "1.0", "2", "--x2", "1.5", "2.0", "2",
            "--output", str(f),
        ],
        capsys,
    )
    assert code == 4
    assert err.splitlines()[-1] == "tolerance error: 4 of 4 table points missed --tol 1e-08"
    rows = f.read_text().strip().splitlines()
    assert len(rows) == 5 and all(r.endswith("failed") for r in rows[1:])


def test_inline_model(capsys):
    code, out, _ = run_cli(
        ["ruin", "--lam", "1", "--mu", "1", "--c", "3", "2", "--u", "1", "1"], capsys
    )
    assert code == 0
    assert "0.303265" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pde", "--steps", "1"], "argument --steps: must be >= 2"),
        (["pde", "--s", "-1"], "argument --s: must be >= 0"),
        (["pde", "--rmax", "0"], "argument --rmax: must be > 0"),
        (["ruin", "--u", "1", "3", "--method", "pde", "--s", "-0.5"], "argument --s"),
        (["ruin", "--u", "1", "3", "--method", "pde", "--steps", "1"], "argument --steps"),
        (["ruin", "--u", "-1", "3"], "argument --u: must be >= 0"),
        (["ruin", "--u", "-1", "3", "--method", "pde"], "argument --u"),
        (["ruin", "--u", "-1", "3", "--method", "mc", "--paths", "100"], "argument --u"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--s", "-0.5"], "argument --s"),
        (["simulate", "--u", "1", "-3", "--paths", "100"], "argument --u"),
        (["simulate", "--u", "1", "3", "--s", "-0.5", "--paths", "100"], "argument --s"),
        (["simulate", "--u", "1", "3", "--s", "nan", "--paths", "100"], "argument --s"),
        (["ruin", "--u", "1", "3", "--tol", "0"], "argument --tol: must be > 0"),
        (["pde", "--tol", "0"], "argument --tol: must be > 0"),
        (["table", "--x1", "0", "1", "2", "--x2", "0", "1", "2", "--tol", "0"],
         "argument --tol: must be > 0"),
        (["table", "--x1", "-1", "1", "2", "--x2", "0", "1", "2"], "argument --x1: must be >= 0"),
        (["table", "--x1", "0", "1", "2", "--x2", "0", "1", "-2"], "argument --x2: must be >= 0"),
        (["table", "--x1", "0", "1", "2", "--x2", "0", "1", "2", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--paths", "0"],
         "argument --paths: must be >= 1"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--paths", "inf"],
         "argument --paths: invalid count value: 'inf'"),
        (["simulate", "--u", "1", "3", "--paths", "0"], "argument --paths: must be >= 1"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--horizon", "-1"],
         "argument --horizon: must be >= 0"),
        (["simulate", "--u", "1", "3", "--horizon", "-1", "--paths", "100"],
         "argument --horizon: must be >= 0"),
        (["transform", "--p", "0", "--q", "1"], "argument --p: must be > 0"),
        (["transform", "--p", "-3", "--q", "1"], "argument --p: must be > 0"),
        (["transform", "--p", "1", "--q", "0"], "argument --q: must be > 0"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--seed", "-1"],
         "argument --seed: must be >= 0"),
        (["simulate", "--u", "1", "3", "--seed", "-1"], "argument --seed: must be >= 0"),
        (["pde", "--point", "1", "2"], "unrecognized arguments: --point 1 2"),
        (["table", "--x1", "0", "1", "inf", "--x2", "0", "1", "2"],
         "argument --x1: must be finite, got inf"),
        (["simulate", "--u", "1", "3", "--horizon", "inf", "--paths", "100"],
         "argument --horizon: must be finite, got inf"),
        (["ruin", "--u", "1", "inf", "--method", "mc", "--ultimate", "--paths", "100"],
         "argument --u: must be finite, got inf"),
        (["ruin", "--u", "1", "inf", "--method", "pde"], "argument --u: must be finite"),
        (["ruin", "--u", "1", "inf", "--method", "invert"], "argument --u: must be finite"),
        (["ruin", "--u", "1", "inf"], "argument --u: must be finite"),
        (["ruin", "--u", "1", "3", "--method", "pde", "--s", "inf"],
         "argument --s: must be finite, got inf"),
        (["ruin", "--u", "1", "3", "--tol", "inf"], "argument --tol: must be finite, got inf"),
        (["pde", "--rmax", "inf"], "argument --rmax: must be finite, got inf"),
        (["ruin", "--u", "inf", "3", "--method", "pde"], "argument --u: must be finite, got inf"),
        (["invert", "--x", "1", "2"], "argument command: invalid choice: 'invert'"),
        (["ruin", "--u", "-1", "2", "--method", "invert"], "argument --u: must be >= 0"),
        (["transform", "--p", "inf", "--q", "1"], "argument --p: must be finite, got inf"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--paths", "100", "--threads", "0"],
         "argument --threads: must be >= 1, got 0"),
        (["simulate", "--u", "1", "3", "--paths", "100", "--threads", "-3"],
         "argument --threads: must be >= 1, got -3"),
        (["pde", "--dump-stride", "-3"], "argument --dump-stride: must be >= 0, got -3"),
        (["ruin", "--u", "1", "3", "--method", "mc", "--paths", "2.7"],
         "argument --paths: invalid count value: '2.7'"),
        (["simulate", "--u", "1", "3", "--paths", "100.5"],
         "argument --paths: invalid count value: '100.5'"),
        (["table", "--x1", "0", "1", "2.5", "--x2", "0", "1", "1.9"],
         "argument --x1: N must be a whole number >= 1, got 2.5"),
        (["table", "--x1", "0", "1", "2", "--x2", "0", "1", "1.9"],
         "argument --x2: N must be a whole number >= 1, got 1.9"),
        (["table", "--x1", "0", "1", "0", "--x2", "0", "1", "2"],
         "argument --x1: N must be a whole number >= 1, got 0"),
        # ruin solves on steps // 2 and steps columns, and a grid needs 2
        (["ruin", "--u", "1", "3", "--method", "pde", "--steps", "2"],
         "argument --steps: must be >= 4, got 2"),
        (["ruin", "--u", "1", "3", "--method", "pde", "--steps", "3"],
         "argument --steps: must be >= 4, got 3"),
    ],
)
def test_invalid_arguments_exit2(p0_file, capsys, argv, message):
    code, out, err = run_cli([argv[0], "--model", p0_file, *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (None, ["--model", "{path}"], "No such file or directory"),
        ("{not json", ["--model", "{path}"], "Expecting property name enclosed in double quotes"),
        ('{"lambda": 1, "c": [3, 2]}', ["--model", "{path}"], "missing key 'claim'"),
        ('{"lambda": 1, "claim": {"type": "weibull"}, "c": [3, 2]}', ["--model", "{path}"],
         "cannot build claim law of type 'weibull'"),
        ("{}", ["--model", "{path}", "--lam", "1"],
         "specify either --model or inline parameters, not both"),
        (None, [], "inline model needs --lam, --mu and --c (or use --model FILE)"),
        (None, ["--lam", "1", "--mu", "inf", "--c", "3", "2"], "mu must be finite"),
        (None, ["--lam", "1", "--mu", "1", "--c", "3", "2", "--delta", "nan", "1"],
         "delta1 must be finite"),
        (None, ["--lam", "nan", "--mu", "1", "--c", "3", "2"], "lam must be finite"),
        ('{"lambda": 1, "claim": {"type": "exponential", "mu": 1e999}, "c": [3, 2]}',
         ["--model", "{path}"], "mu must be finite"),
        ('{"lambda": 1, "claim": {"type": "exponential", "mu": 1}, "c": [3, Infinity]}',
         ["--model", "{path}"], "c2 must be finite"),
        ('{"lambda": 1, "claim": {"type": "exponential", "mu": 1}, "c": [3, 2], '
         '"delta": [1, NaN]}', ["--model", "{path}"], "delta2 must be finite"),
        ('{"lambda": 1, "claim": {"type": "phase-type", "beta": [1, 0], '
         '"B": [[-2, 2], [0, -Infinity]]}, "c": [3, 2]}', ["--model", "{path}"],
         "B must be finite"),
        ('{"lambda": 1, "claim": {"type": "phase-type", "beta": [NaN, 0], '
         '"B": [[-2, 2], [0, -2]]}, "c": [3, 2]}', ["--model", "{path}"], "beta must be finite"),
    ],
)
def test_model_input_errors_exit2(tmp_path, capsys, content, argv, message):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(["derive", *(a.format(path=path) for a in argv)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid model: ") and err.count("\n") == 1
    assert message in err


def test_argument_bounds_are_inclusive(p0_file, capsys):
    code, out, _ = run_cli(["ruin", "--model", p0_file, "--u", "0", "0"], capsys)
    assert code == 0 and out.startswith("ruin = ")
    # the apex r = 0 has no grid to solve on: it takes the cone boundary's value
    code, out, _ = run_cli(["ruin", "--model", p0_file, "--u", "0", "0", "--method", "pde"], capsys)
    assert (code, out) == (0, "ruin = 0.5  method=exact (lower cone)  s=0\n")
    code, out, _ = run_cli(["ruin", "--model", p0_file, "--u", "1", "3", "--method", "pde",
                            "--steps", "4"], capsys)
    assert code == 0 and out.startswith("ruin = ")
    code, out, _ = run_cli(["pde", "--model", p0_file, "--s", "0", "--rmax", "1", "--steps", "2"],
                           capsys)
    assert code == 0 and out.startswith("r,w,u1,u2,chi,xi,h\n0,0,0,0,")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_threads_environment_is_ignored(p0_file, capsys, monkeypatch, value):
    argv = ["simulate", "--model", p0_file, "--u", "1", "2", "--paths", "100"]
    without = run_cli(argv, capsys)
    monkeypatch.setenv("RUIN2D_THREADS", value)
    assert run_cli(argv, capsys) == without
    assert without[0] == 0


def test_threads_default_to_one(p0_file, capsys, monkeypatch):
    seen = []
    map_chunks = mc._map_chunks

    def spy(worker, n, threads):
        seen.append(threads)
        return map_chunks(worker, n, threads)

    monkeypatch.setattr(mc, "_map_chunks", spy)
    ruin = ["ruin", "--model", p0_file, "--u", "1", "3", "--method", "mc",
            "--paths", "2e3", "--ultimate"]
    simulate = ["simulate", "--model", p0_file, "--u", "1", "2", "--paths", "2e3",
                "--horizon", "5"]
    monkeypatch.setenv("RUIN2D_THREADS", "2")
    assert run_cli(ruin, capsys)[0] == 0
    assert run_cli(simulate, capsys)[0] == 0
    assert run_cli([*ruin, "--threads", "2"], capsys)[0] == 0
    assert run_cli([*simulate, "--threads", "2"], capsys)[0] == 0
    assert seen == [1, 1, 2, 2]


ROOT_HELP = """\
usage: ruin2d [-h] {derive,ruin,transform,simulate,pde,table} ...

Joint ruin probabilities for two proportionally coupled companies

positional arguments:
  {derive,ruin,transform,simulate,pde,table}
    derive              print derived model constants
    ruin                joint ruin probability at raw reserves
    transform           evaluate the double transform psi_tilde(p,q)
    simulate            Monte Carlo estimators (CSV output)
    pde                 solve the transform system on the cone
    table               closed-form survival sweep to CSV

options:
  -h, --help            show this help message and exit
"""

RUIN_HELP = """\
usage: ruin2d ruin [-h] [--model MODEL] [--lam LAM] [--mu MU] [--c C1 C2]
                   [--delta D1 D2] --u U1 U2 [--s S]
                   [--method {exact,pde,mc,invert}] [--tol TOL]
                   [--paths PATHS] [--seed SEED] [--horizon HORIZON]
                   [--steps STEPS] [--ultimate] [--threads THREADS]

options:
  -h, --help            show this help message and exit
  --model MODEL         path to a JSON model file
  --lam LAM             claim arrival intensity (inline model)
  --mu MU               exponential claim intensity (inline model)
  --c C1 C2             premium rates
  --delta D1 D2         claim proportions (default 1 1)
  --u U1 U2
  --s S                 ruin-time discount rate
  --method {exact,pde,mc,invert}
  --tol TOL
  --paths PATHS
  --seed SEED
  --horizon HORIZON
  --steps STEPS         with --method pde: columns of the finer of the two
                        grids (an odd count uses one fewer)
  --ultimate            with --method mc: use the unbiased conditional
                        estimator
  --threads THREADS
"""


@pytest.mark.parametrize("argv, expected", [(["--help"], ROOT_HELP), (["ruin", "--help"], RUIN_HELP)])
def test_help_text_unchanged(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert run_cli(argv, capsys) == (0, expected, "")


def test_repeated_calls_print_the_same_bytes(p0_file, capsys):
    commands = [
        ["derive", "--model", p0_file],
        ["ruin", "--model", p0_file, "--u", "2", "1", "--s", "0.5", "--method", "pde"],
        ["ruin", "--model", p0_file, "--u", "1", "3"],
        ["transform", "--model", p0_file, "--p", "1", "--q", "1"],
        ["table", "--model", p0_file, "--x1", "0.5", "1", "2", "--x2", "1", "2", "2"],
        ["simulate", "--model", p0_file, "--u", "1", "2", "--paths", "2e3", "--horizon", "5"],
        ["pde", "--model", p0_file, "--rmax", "2", "--steps", "10"],
    ]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    for _ in range(2):
        assert [run_cli(argv, capsys) for argv in commands] == fresh


def test_usage_error_does_not_affect_next_call(p0_file, capsys):
    argv = ["ruin", "--model", p0_file, "--u", "1", "3"]
    before = run_cli(argv, capsys)
    for bad in (
        ["ruin", "--model", p0_file, "--u", "-1", "3"],
        ["ruin", "--model", p0_file, "--u", "1", "3", "--method", "bogus"],
        ["ruin", "--model", p0_file],
        ["nosuch"],
    ):
        code, out, err = run_cli(bad, capsys)
        assert code == 2 and out == "" and "usage:" in err
    assert run_cli(argv, capsys) == before
