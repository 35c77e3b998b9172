import json
import subprocess
import sys

import numpy as np
import pytest
from helpers import (
    DOUBLED_STATE_TIER,
    OVERFLOWING_F,
    OVERFLOWING_Q,
    discrete,
    lossless_member,
    pole_inside,
    rand_hpd,
    resonance,
    transfer_max_err,
    widely_scaled_certificate,
    write_isometry_family,
)

from kypcert import (
    Domain,
    Family,
    FamilyTag,
    Realization,
    cayley_function,
    change_coordinates,
    evaluate,
    fixture,
    load_realization,
    make_grid,
    qmi,
    random_certified_realization,
    save_matrix,
    save_realization,
    verify_kyp,
)
from kypcert.cli import FAMILY_CODES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def f_file(tmp_path):
    path = tmp_path / "f.json"
    save_realization(path, fixture("f"))
    return str(path)


@pytest.fixture()
def g_file(tmp_path):
    path = tmp_path / "g.json"
    save_realization(path, fixture("g"))
    return str(path)


def test_check_solve_fixture_f(capsys, f_file):
    code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--deterministic", f_file)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["certificate"]["status"] == "verified"
    assert abs(rep["certificate"]["p"][0][0][0] - 1.0) < 1e-6
    assert rep["oracle"]["verdict"] == "pass"
    assert "timestamp" not in rep


def test_check_refuted_by_witness(capsys, g_file):
    code, rep = run_cli(capsys, "check", "--family", "db", "--solve", "--deterministic", g_file)
    assert code == 2
    assert rep["verdict"] == "refuted-by-witness"
    assert rep["oracle"]["verdict"] == "fail"
    assert rep["oracle"]["worst_margin"] < -1e-8
    assert rep["solver"]["status"] == "not-found"


def test_check_with_p_matrix(capsys, tmp_path, f_file):
    p_path = tmp_path / "p.json"
    save_matrix(p_path, np.eye(1))
    code, rep = run_cli(capsys, "check", "--family", "p", "--p-matrix", str(p_path),
                        "--deterministic", f_file)
    assert code == 0
    assert rep["certificate"]["status"] == "verified"


def test_check_inconclusive_on_nonminimal(capsys, tmp_path):
    # F(z) = 1 realized non-minimally with an antistable A: the constant is in
    # every family, but no P can certify it, so the verdict stays open
    from kypcert import Realization

    r = Realization(n=1, m=1, A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]])
    path = tmp_path / "nonmin.json"
    save_realization(path, r)
    code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--deterministic", str(path))
    assert code == 3
    assert rep["verdict"] == "inconclusive"
    assert rep["minimal"]["minimal"] is False
    assert "note" in rep


def test_check_lossless_flag(capsys, tmp_path):
    path = tmp_path / "F1.json"
    save_realization(path, fixture("F1"))
    p_path = tmp_path / "p2.json"
    save_matrix(p_path, np.eye(2))
    code, rep = run_cli(capsys, "check", "--family", "p", "--lossless",
                        "--p-matrix", str(p_path), "--deterministic", str(path))
    assert code == 0
    assert rep["lossless_oracle"]["verdict"] == "pass"
    assert rep["lossless_qmi"] is True


@pytest.mark.parametrize("n, m, seed", [(8, 2, 3), (32, 2, 1)])
def test_check_solve_lossless_passes_an_exact_member_next_to_an_axis_pole(capsys, tmp_path, n, m, seed):
    # solve_p certifies it; the absolute oracle rule refuted it on the grid of
    # this seed, so the check ended on tool-error
    path = tmp_path / "lossless.json"
    save_realization(path, lossless_member(np.random.default_rng(seed), Family.POSITIVE_REAL, n, m))
    code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--lossless", "--seed", str(seed),
                        "--deterministic", str(path))
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["oracle"]["verdict"] == "pass" and rep["oracle"]["worst_margin"] < -1e-8
    assert rep["lossless_oracle"]["verdict"] == "pass"
    assert rep["lossless_qmi"] is True


def test_check_refutes_a_violation_beside_a_large_channel(capsys, tmp_path):
    # F + F* = diag(2e6, -2e-3) exactly: the -2e-3 is judged at the size of F
    # in its own direction, 1e-3, not at ||F|| = 1e6
    from kypcert import Realization

    path = tmp_path / "spread.json"
    save_realization(path, Realization.constant(np.diag([1e6, -1e-3])))
    code, rep = run_cli(capsys, "check", "--family", "p", "--deterministic", str(path))
    assert code == 2
    assert rep["verdict"] == "refuted-by-witness"
    assert rep["oracle"]["verdict"] == "fail"
    assert rep["oracle"]["worst_margin"] == pytest.approx(-2e-3)
    # verify_kyp judges Q~ = diag(2e6, -2e-3) at its size along the
    # eigenvector of -2e-3 too, so under --solve no P is verified and the
    # oracle's witness refutes, with the constant and with a state added
    n1 = Realization(n=1, m=2, A=[[-1.0]], B=[[1.0, 0.0]], C=[[1.0], [0.0]], D=np.diag([1e6, -1e-3]))
    save_realization(tmp_path / "spread1.json", n1)
    for name in ("spread.json", "spread1.json"):
        code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--deterministic", str(tmp_path / name))
        assert code == 2 and rep["verdict"] == "refuted-by-witness"
        assert rep["oracle"]["verdict"] == "fail" and rep["solver"]["status"] == "not-found"


def test_check_hyper_eta(capsys, tmp_path):
    from kypcert import Realization

    path = tmp_path / "half.json"
    save_realization(path, Realization.constant(0.5 * np.eye(1)))
    code, rep = run_cli(capsys, "check", "--family", "b", "--eta", "3", "--solve",
                        "--deterministic", str(path))
    assert code == 0
    assert rep["oracle"]["family"].startswith("hyper-bounded")
    code, rep = run_cli(capsys, "check", "--family", "b", "--eta", "1.05", "--deterministic", str(path))
    assert code == 2  # sqrt(0.05/2.05) < 0.5, so the bound is violated


def test_deterministic_reports_are_byte_identical(capsys, f_file):
    argv = ["check", "--family", "p", "--solve", "--deterministic", "--seed", "4", f_file]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_timestamp_present_without_deterministic(capsys, f_file):
    code, rep = run_cli(capsys, "eval", "--at", "1,0", f_file)
    assert code == 0 and "timestamp" in rep


def test_eval(capsys, f_file):
    code, rep = run_cli(capsys, "eval", "--at", "1,0", "--deterministic", f_file)
    assert code == 0
    assert abs(rep["value"][0][0][0] - 1.0 / 6.0) < 1e-12
    code, _ = run_cli(capsys, "eval", "--at", "garbage", "--deterministic", f_file)
    assert code == 1


def test_wmat_balanced(capsys):
    code, rep = run_cli(capsys, "wmat", "--family", "db", "--balanced", "--n", "1", "--m", "1",
                        "--deterministic")
    assert code == 0
    diag = [row[i][0] for i, row in enumerate(rep["entries"])]
    assert diag == [-1.0, -1.0, 1.0, 1.0]


def test_wmat_p_matrix_with_its_size_as_n(capsys, tmp_path):
    p_path = tmp_path / "P.json"
    save_matrix(p_path, 2.0 * np.eye(3))
    code, rep = run_cli(capsys, "wmat", "--family", "p", "--p-matrix", str(p_path), "--n", "3", "--m", "1",
                        "--deterministic")
    assert code == 0 and (rep["n"], rep["m"]) == (3, 1)
    assert rep["entries"][0][4] == [-2.0, 0.0]


def test_wmat_takes_a_p_in_badly_scaled_coordinates(capsys, tmp_path):
    # P = diag(d) P0 diag(d) with d spread over ten decades: zpotrf factors
    # it, though eigvalsh puts its smallest eigenvalue at -1.5e-5
    rng = np.random.default_rng(21)
    d = rng.permutation(np.geomspace(1e-5, 1e5, 3))
    p = d[:, None] * rand_hpd(rng, 3) * d[None, :]
    p_path = tmp_path / "P.json"
    save_matrix(p_path, p)
    code, rep = run_cli(capsys, "wmat", "--family", "p", "--p-matrix", str(p_path), "--n", "3", "--m", "1",
                        "--deterministic")
    assert code == 0 and rep["entries"][0][4] == [-p[0, 0].real, -p[0, 0].imag]


def test_check_solve_certifies_two_poles_in_moved_coordinates(capsys, tmp_path):
    # 1/(s+1) + 2/(s+2), D = 0, in coordinates T = [[1, 10], [0, 1]]: only
    # the deflated rung certifies it
    from kypcert import Realization, change_coordinates

    r = Realization(n=2, m=1, A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]], C=[[1.0, 2.0]], D=[[0.0]])
    path = tmp_path / "two.json"
    save_realization(path, change_coordinates(r, np.array([[1.0, 10.0], [0.0, 1.0]])))
    code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--deterministic", str(path))
    assert code == 0 and rep["verdict"] == "pass"
    assert rep["certificate"]["status"] == "verified"


def test_fixtures_command_round_trip(capsys, tmp_path):
    out = tmp_path / "F2.json"
    code, rep = run_cli(capsys, "fixtures", "--name", "F2", "--a", "2", "--b", "-1",
                        "-o", str(out), "--deterministic")
    assert code == 0
    back = load_realization(out)
    assert np.abs(back.array - fixture("F2", a=2.0, b=-1.0).array).max() == 0.0


def test_transform_invert_array(capsys, tmp_path, f_file, g_file):
    out = tmp_path / "finv.json"
    code, rep = run_cli(capsys, "transform", "--op", "invert-array", f_file,
                        "-o", str(out), "--deterministic")
    assert code == 0
    assert np.abs(load_realization(out).array - load_realization(g_file).array).max() < 1e-14


def test_transform_invert_fn_and_cayley(capsys, tmp_path):
    src = tmp_path / "F1.json"
    save_realization(src, fixture("F1"))
    out = tmp_path / "out.json"
    code, _ = run_cli(capsys, "transform", "--op", "invert-fn", str(src), "-o", str(out),
                      "--deterministic")
    assert code == 0
    inv = load_realization(out)
    prod = evaluate(inv, 2.0) @ evaluate(fixture("F1"), 2.0)
    assert np.abs(prod - np.eye(2)).max() < 1e-10
    code, _ = run_cli(capsys, "transform", "--op", "cayley-fn", str(src), "-o", str(out),
                      "--deterministic")
    assert code == 0
    code, _ = run_cli(capsys, "transform", "--op", "bilinear", str(src), "-o", str(out),
                      "--deterministic")
    assert code == 0


def test_transform_coords_and_balance(capsys, tmp_path, f_file):
    t_path = tmp_path / "t.json"
    save_matrix(t_path, 3.0 * np.eye(1))
    moved_path = tmp_path / "moved.json"
    code, _ = run_cli(capsys, "transform", "--op", "coords", "--t-matrix", str(t_path),
                      f_file, "-o", str(moved_path), "--deterministic")
    assert code == 0
    p_path = tmp_path / "p9.json"
    save_matrix(p_path, 9.0 * np.eye(1))
    out = tmp_path / "balanced.json"
    code, rep = run_cli(capsys, "transform", "--op", "balance", "--family", "p",
                        "--p-matrix", str(p_path), str(moved_path), "-o", str(out),
                        "--deterministic")
    assert code == 0
    assert rep["certificate"]["status"] == "verified"
    back = load_realization(out)
    assert abs(evaluate(back, 1.0)[0, 0] - 1.0 / 6.0) < 1e-10
    # balance without the certificate inputs is a usage error
    code, _ = run_cli(capsys, "transform", "--op", "balance", str(moved_path),
                      "-o", str(out), "--deterministic")
    assert code == 1


def test_transform_balance_of_a_widely_scaled_certificate(capsys, tmp_path):
    # cond(P) about 3e20: eigvalsh(P) rounds its least eigenvalue to -1.8e-7
    # while zpotrf factors P
    family, r, t, p = widely_scaled_certificate(1)
    save_realization(tmp_path / "moved.json", change_coordinates(r, t))
    save_matrix(tmp_path / "p.json", p)
    flag = next(code for code, fam in FAMILY_CODES.items() if fam is family)
    code, rep = run_cli(capsys, "transform", "--op", "balance", "--family", flag, "--p-matrix",
                        str(tmp_path / "p.json"), str(tmp_path / "moved.json"), "-o", str(tmp_path / "out.json"),
                        "--deterministic")
    assert code == 0 and rep["certificate"]["status"] == "verified"
    assert transfer_max_err(load_realization(tmp_path / "out.json"), r, [1j, 2.0 + 1j]) < 1e-9


def test_combine_lossless_trio(capsys, tmp_path):
    paths = []
    for name in ("F1", "F2", "F3"):
        p = tmp_path / f"{name}.json"
        save_realization(p, fixture(name))
        paths.append(str(p))
    out = tmp_path / "combined.json"
    code, rep = run_cli(capsys, "combine", "--family", "p", "--inputs", ",".join(paths),
                        "--random", "3", "--seed", "5", "-o", str(out), "--deterministic")
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["combined"]["q_norm"] <= 1e-8
    assert len(rep["per_input"]) == 3
    assert load_realization(out).n == 2


def test_combine_with_isometry_file(capsys, tmp_path):
    from kypcert import random_isometry_family, save_isometry_family

    paths = []
    for name in ("F1", "F2"):
        p = tmp_path / f"{name}.json"
        save_realization(p, fixture(name))
        paths.append(str(p))
    iso = tmp_path / "iso.json"
    save_isometry_family(iso, random_isometry_family(2, 2, 2, 9))
    out = tmp_path / "combined.json"
    code, rep = run_cli(capsys, "combine", "--family", "p", "--inputs", ",".join(paths),
                        "--isometries", str(iso), "-o", str(out), "--deterministic")
    assert code == 0 and rep["verdict"] == "pass"


def test_combine_refuses_a_non_isometric_family_before_certifying(capsys, tmp_path, monkeypatch):
    import kypcert.convexity

    f2 = tmp_path / "F2.json"
    save_realization(f2, fixture("F2"))
    bad = tmp_path / "bad.json"
    write_isometry_family(bad, *DOUBLED_STATE_TIER)
    calls = []
    for name in ("verify_kyp", "solve_p"):
        monkeypatch.setattr(kypcert.convexity, name, lambda *args, name=name, **kw: calls.append(name))
    out = tmp_path / "out.json"
    code = main(["combine", "--family", "p", "--inputs", f"{f2},{f2}", "--isometries", str(bad),
                 "-o", str(out), "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {bad}: state_blocks: Gram sum deviates from identity by 1.000e+00\n"
    assert calls == []


def test_usage_and_io_errors(capsys, tmp_path):
    assert main(["check", "--family", "zz", "missing.json"]) == 1
    capsys.readouterr()
    assert main(["check", "--family", "p", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--family", "p", str(bad)]) == 1
    capsys.readouterr()


def test_seed_from_environment(capsys, monkeypatch, f_file):
    monkeypatch.setenv("PASSIVITY_SEED", "123")
    # parser defaults are bound at build time, so drive through main()
    code, rep = run_cli(capsys, "check", "--family", "p", "--deterministic", f_file)
    assert code == 0
    assert rep["seed"] == 123


def test_exit_codes_match_library_verdicts(capsys, tmp_path):
    # the exit-code contract, checked against in-library verdicts across the
    # fixture x family table
    from kypcert import (
        Certificate,
        Family,
        family_domain,
        make_grid,
        membership_oracle,
        solve_p,
    )

    codes = {"p": Family.POSITIVE_REAL, "b": Family.BOUNDED_REAL,
             "dp": Family.DISCRETE_POSITIVE_REAL, "db": Family.DISCRETE_BOUNDED_REAL}
    table = [("f", "p"), ("f", "dp"), ("f", "db"), ("g", "p"), ("g", "db"), ("F1", "p"), ("F1", "b")]
    for name, flag in table:
        r = fixture(name)
        path = tmp_path / f"{name}.json"
        save_realization(path, r)
        fam = codes[flag]
        grid = make_grid(family_domain(fam), 64, 64, 0)
        oracle_pass = membership_oracle(r, fam, grid).passed
        found = solve_p(r, fam)
        verified = isinstance(found, Certificate) and found.verified
        expected = 2 if not oracle_pass else (0 if verified else 3)
        code = main(["check", "--family", flag, "--solve", "--deterministic", str(path)])
        capsys.readouterr()
        assert code == expected, (name, flag)


def test_module_entry_point(tmp_path, f_file):
    proc = subprocess.run(
        [sys.executable, "-m", "kypcert.cli", "check", "--family", "p",
         "--solve", "--deterministic", f_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_grid_must_be_a_positive_integer(capsys, f_file, value):
    assert main(["check", "--family", "p", "--grid", value, f_file]) == 1
    err = capsys.readouterr().err
    assert "error: argument --grid" in err
    assert "Traceback" not in err


def test_solver_block_reports_the_stop_reason(capsys, g_file):
    code, rep = run_cli(capsys, "check", "--family", "db", "--solve", "--deterministic", g_file)
    assert code == 2
    assert rep["solver"]["stop"] == "witness"
    assert rep["solver"]["iterations"] >= 1


@pytest.mark.parametrize("family,eta", [("p", None), ("b", None), ("b", "3")])
def test_lossless_check_evaluates_f_once(capsys, caplog, tmp_path, family, eta):
    import logging

    from kypcert import (
        Family,
        family_domain,
        hyper_bounded_oracle,
        lossless_boundary_oracle,
        make_grid,
        membership_oracle,
    )
    from kypcert.cli import _report_oracle

    r = fixture("F2")
    path = tmp_path / "F2.json"
    save_realization(path, r)
    argv = ["check", "--family", family, "--lossless", "--grid", "16", "--deterministic", str(path)]
    if eta:
        argv += ["--eta", eta]
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert [rec.msg.startswith("evaluated F at") for rec in caplog.records] == [True]
    fam = Family.POSITIVE_REAL if family == "p" else Family.BOUNDED_REAL
    grid = make_grid(family_domain(fam), 16, 16, 0)
    oracle = hyper_bounded_oracle(r, float(eta), grid) if eta else membership_oracle(r, fam, grid)
    lossless = lossless_boundary_oracle(r, "LP" if family == "p" else "LB", grid)
    assert rep["oracle"] == _report_oracle(oracle)
    assert rep["lossless_oracle"] == _report_oracle(lossless)


def test_seeds_from_two_environments_in_process(capsys, monkeypatch, f_file):
    # the parser is built once per process; the environment is read per call
    seeds = []
    for value in ("11", "22"):
        monkeypatch.setenv("PASSIVITY_SEED", value)
        code, rep = run_cli(capsys, "check", "--family", "p", "--deterministic", f_file)
        assert code == 0
        seeds.append(rep["seed"])
    assert seeds == [11, 22]
    code, rep = run_cli(capsys, "check", "--family", "p", "--seed", "5", "--deterministic", f_file)
    assert rep["seed"] == 5


def test_resonance_is_refuted_at_the_solver_witness(capsys, tmp_path):
    # the 64 + 64 grid misses the peak |F(0.37 i)| = 1.05; the solver's
    # witness is scored in the oracle report
    path = tmp_path / "resonance.json"
    save_realization(path, resonance())
    code, rep = run_cli(capsys, "check", "--family", "b", "--deterministic", str(path))
    assert code == 0 and rep["oracle"]["verdict"] == "pass"
    used = rep["oracle"]["samples_used"]
    code, rep = run_cli(capsys, "check", "--family", "b", "--solve", "--deterministic", str(path))
    assert code == 2 and rep["verdict"] == "refuted-by-witness"
    assert rep["solver"]["stop"] == "witness" and rep["solver"]["iterations"] >= 1
    assert rep["oracle"]["verdict"] == "fail" and rep["oracle"]["samples_used"] == used + 1
    assert rep["oracle"]["worst_point"] == rep["solver"]["witness"]
    z = complex(*rep["oracle"]["worst_point"])
    margin = 1.0 - abs(evaluate(resonance(), z)[0, 0])
    assert margin < -1e-8 and margin == pytest.approx(rep["oracle"]["worst_margin"], abs=1e-12)


def test_eta_check_scores_the_solver_witness(capsys, tmp_path):
    # |F| peaks at 1, above the eta = 3 bound sqrt(1/2), in a window the
    # 16 + 16 grid misses
    path = tmp_path / "resonance.json"
    save_realization(path, resonance(gain=1.0, zeta=1e-3))
    argv = ["check", "--family", "b", "--eta", "3", "--grid", "16", "--deterministic", str(path)]
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    code, rep = run_cli(capsys, *argv, "--solve")
    assert code == 2 and rep["oracle"]["family"] == "hyper-bounded(eta=3)"
    z = complex(*rep["oracle"]["worst_point"])
    assert abs(evaluate(resonance(gain=1.0, zeta=1e-3), z)[0, 0]) > np.sqrt(0.5)


def test_solver_witness_at_infinity_is_standard_json(capsys, tmp_path):
    from kypcert import Realization

    # F(s) = -1 + 200/(s + 100): Re F(inf) = -1, the screen's only witness;
    # the 64-point grid reaches only |w| of about 41, where F passes
    path = tmp_path / "inf.json"
    save_realization(path, Realization(n=1, m=1, A=[[-100.0]], B=[[1.0]], C=[[200.0]], D=[[-1.0]]))
    code = main(["check", "--family", "p", "--solve", "--deterministic", str(path)])
    out = capsys.readouterr().out

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    rep = json.loads(out, parse_constant=reject)
    assert rep["solver"]["witness"] == "infinity"
    # the oracle scores the witness with F(inf) = D
    assert code == 2 and rep["verdict"] == "refuted-by-witness"
    assert rep["oracle"]["worst_point"] == "infinity" and rep["oracle"]["worst_margin"] == -2.0


def test_a_p_matrix_verified_within_the_tolerance_meets_the_witness_screen(capsys, tmp_path):
    # a db non-member with a resonance peak 1e-6 wide, which the grid misses,
    # and the P of the rung's shifted pass with its axis test switched off:
    # verify_kyp verifies it at min_eig_q of about -2.7e-10
    r = discrete(resonance(1.0001, 1e-6, 10**1.25))
    tag = FamilyTag(Family.DISCRETE_BOUNDED_REAL)
    g, k = qmi._continuous(r, tag)
    popov = qmi._popov_blocks(g, qmi._io_weight(tag, 1))
    alpha = g.poles().real.max()
    p = -k * qmi._riccati_x(g.A - 1e-3 * alpha * np.eye(g.n), g.B, popov, 0.0, 0.0)[0]
    assert verify_kyp(r, p, tag).verified
    save_realization(tmp_path / "r.json", r)
    save_matrix(tmp_path / "p.json", p)
    argv = ["check", "--family", "db", "--deterministic", str(tmp_path / "r.json")]
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    # the screen's witness fails the oracle, which a verified P may never meet
    code, rep = run_cli(capsys, *argv, "--p-matrix", str(tmp_path / "p.json"))
    assert code == 1 and rep["verdict"] == "tool-error"
    assert rep["certificate"]["status"] == "verified" and rep["oracle"]["verdict"] == "fail"
    code, rep = run_cli(capsys, *argv, "--solve")
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_lossless_bounded_oracle_on_an_overflowing_f_reports_a_finite_margin(capsys, tmp_path):
    path = tmp_path / "r.json"
    save_realization(path, OVERFLOWING_Q[0][1])  # C = 1e200 in b: F*F overflows
    code, rep = run_cli(capsys, "check", "--family", "b", "--lossless", "--deterministic", str(path))
    assert code == 2 and capsys.readouterr().err == ""
    assert rep["lossless_oracle"]["verdict"] == "fail"
    assert rep["lossless_oracle"]["worst_margin"] == -np.finfo(float).max


def test_solver_witness_is_null_without_a_witness(capsys, tmp_path):
    from kypcert import Realization

    r = Realization(n=1, m=1, A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]])
    path = tmp_path / "nonmin.json"
    save_realization(path, r)
    code, rep = run_cli(capsys, "check", "--family", "p", "--solve", "--deterministic", str(path))
    assert code == 3 and rep["solver"]["witness"] is None and rep["solver"]["stop"] != "witness"


@pytest.mark.parametrize("name", ["f", "g", "F1", "F2", "F3"])
@pytest.mark.parametrize("family", ["p", "b", "dp", "db"])
def test_fixture_oracle_blocks_are_the_grid_oracles(capsys, tmp_path, name, family):
    # on the fixtures the solver verifies or the grid already fails, so the
    # solver's witness never enters the oracle block
    from kypcert import family_domain, make_grid, membership_oracle
    from kypcert.cli import FAMILY_CODES, _report_oracle

    r = fixture(name)
    path = tmp_path / f"{name}.json"
    save_realization(path, r)
    code, rep = run_cli(capsys, "check", "--family", family, "--solve", "--deterministic", str(path))
    fam = FAMILY_CODES[family]
    assert rep["oracle"] == _report_oracle(membership_oracle(r, fam, make_grid(family_domain(fam), 64, 64, 0)))
    assert code in (0, 2)
    if code == 2:
        assert rep["solver"]["stop"] == "witness" and isinstance(rep["solver"]["witness"], list)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fam,r", OVERFLOWING_Q, ids=[fam.value for fam, _ in OVERFLOWING_Q])
def test_overflowing_q_is_an_error_not_a_traceback(capsys, tmp_path, fam, r):
    path = tmp_path / "r.json"
    save_realization(path, r)
    flag = {"bounded-real": "b", "discrete-positive-real": "dp", "discrete-bounded-real": "db"}[fam.value]
    code = main(["check", "--family", flag, "--solve", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: Q overflows")


#: every exit-1 error of the CLI; {F2} is a positive-real member, {B} a
#: bounded-real one (its Cayley transform), {P} its 3 x 3 certificate I,
#: {latin} a file that is not UTF-8, {deep} JSON nested past the recursion
#: limit, {bad} a two-block isometry family whose state tier sums to 2 I,
#: {ovf} a p member whose F and whose Q in b overflow, and {out} an output path
ERROR_EXITS = {
    "lossless-with-dp": ["check", "--family", "dp", "--lossless", "{F2}"],
    "coords-without-t-matrix": ["transform", "--op", "coords", "{F2}", "-o", "{out}"],
    "balance-without-p-matrix": ["transform", "--op", "balance", "--family", "p", "{F2}", "-o", "{out}"],
    "empty-inputs": ["combine", "--family", "p", "--inputs", ",", "-o", "{out}"],
    "random-mismatch": ["combine", "--family", "p", "--inputs", "{F2}", "--random", "2", "-o", "{out}"],
    "bad-at": ["eval", "--at", "1;0", "{F2}"],
    "eval-at-nan": ["eval", "--at", "nan,0", "{F2}"],
    "eval-at-infinity": ["eval", "--at", "0,inf", "{F2}"],
    "eval-overflowing-f": ["eval", "--at", "1,0", "{ovf}"],
    "check-b-solve-overflowing-q": ["check", "--family", "b", "--solve", "--grid", "4", "{ovf}"],
    "combine-non-isometric-family": ["combine", "--family", "p", "--inputs", "{F2},{F2}",
                                     "--isometries", "{bad}", "-o", "{out}"],
    "check-eta-nan": ["check", "--family", "b", "--eta=nan", "{B}"],
    "check-eta-minus-inf": ["check", "--family", "b", "--eta=-inf", "{B}"],
    "combine-eta-nan": ["combine", "--family", "b", "--eta=nan", "--inputs", "{B}", "-o", "{out}"],
    "combine-eta-minus-inf": ["combine", "--family", "b", "--eta=-inf", "--inputs", "{B}", "-o", "{out}"],
    "wmat-eta-nan": ["wmat", "--family", "b", "--eta=nan", "--balanced", "--n", "1", "--m", "1"],
    "wmat-eta-minus-inf": ["wmat", "--family", "b", "--eta=-inf", "--balanced", "--n", "1", "--m", "1"],
    "wmat-negative-n": ["wmat", "--family", "p", "--balanced", "--n", "-1", "--m", "1"],
    "wmat-negative-m": ["wmat", "--family", "p", "--balanced", "--n", "1", "--m", "-1"],
    "wmat-zero-m": ["wmat", "--family", "p", "--balanced", "--n", "1", "--m", "0"],
    "nan-tol-oracle": ["check", "--family", "p", "--tol-oracle", "nan", "{F2}"],
    "nan-tol-psd": ["check", "--family", "p", "--tol-psd", "nan", "--solve", "{F2}"],
    "random-zero": ["combine", "--family", "p", "--inputs", "{F2}", "--random", "0", "-o", "{out}"],
    "negative-tol-oracle": ["check", "--family", "p", "--tol-oracle", "-2", "{F2}"],
    "negative-tol-psd": ["check", "--family", "p", "--solve", "--tol-psd", "-5", "{F2}"],
    "transform-family-without-balance": ["transform", "--op", "cayley-fn", "--family", "b", "{F2}", "-o", "{out}"],
    "transform-eta-without-balance": ["transform", "--op", "bilinear", "--eta", "3", "{F2}", "-o", "{out}"],
    "transform-eta-nan-without-balance": ["transform", "--op", "cayley-fn", "--family", "b", "--eta=nan", "{F2}",
                                          "-o", "{out}"],
    "wmat-n-not-the-size-of-p": ["wmat", "--family", "p", "--p-matrix", "{P}", "--n", "7", "--m", "1"],
    "transform-p-matrix-without-balance": ["transform", "--op", "cayley-fn", "--p-matrix", "{P}", "{F2}",
                                           "-o", "{out}"],
    "transform-tol-psd-without-balance": ["transform", "--op", "bilinear", "--tol-psd", "1e-6", "{F2}",
                                          "-o", "{out}"],
    "transform-t-matrix-without-coords": ["transform", "--op", "bilinear", "--t-matrix", "{P}", "{F2}",
                                          "-o", "{out}"],
    "wmat-balanced-with-p-matrix": ["wmat", "--family", "p", "--balanced", "--p-matrix", "{P}", "--n", "3",
                                    "--m", "1"],
    "eval-tol-psd": ["eval", "--at", "1,0", "--tol-psd", "1", "{F2}"],
    "eval-tol-oracle": ["eval", "--at", "1,0", "--tol-oracle", "1", "{F2}"],
    "fixtures-tol-psd": ["fixtures", "--name", "f", "--tol-psd", "1", "-o", "{out}"],
    "wmat-tol-oracle": ["wmat", "--family", "p", "--balanced", "--n", "1", "--m", "1", "--tol-oracle", "1"],
    "transform-tol-oracle": ["transform", "--op", "bilinear", "--tol-oracle", "1", "{F2}", "-o", "{out}"],
    "combine-tol-oracle": ["combine", "--family", "p", "--inputs", "{F2}", "--tol-oracle", "1", "-o", "{out}"],
    "check-not-utf8": ["check", "--family", "p", "{latin}"],
    "check-nested-too-deep": ["check", "--family", "p", "{deep}"],
    "fixtures-a-for-f": ["fixtures", "--name", "f", "--a", "2", "-o", "{out}"],
    "fixtures-b-for-g": ["fixtures", "--name", "g", "--b", "1", "-o", "{out}"],
    "fixtures-a-inf": ["fixtures", "--name", "F1", "--a", "inf", "-o", "{out}"],
    "fixtures-b-nan": ["fixtures", "--name", "F3", "--b", "nan", "-o", "{out}"],
}


@pytest.mark.parametrize("argv", ERROR_EXITS.values(), ids=ERROR_EXITS.keys())
def test_every_error_exit_prints_one_error_line(capsys, tmp_path, argv):
    save_realization(tmp_path / "F2.json", fixture("F2"))
    save_realization(tmp_path / "B.json", cayley_function(fixture("F2")))
    save_matrix(tmp_path / "P.json", np.eye(3))
    (tmp_path / "latin.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "deep.json").write_bytes(b"[" * 200000 + b"]" * 200000)
    write_isometry_family(tmp_path / "bad.json", *DOUBLED_STATE_TIER)
    save_realization(tmp_path / "ovf.json", OVERFLOWING_F)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("F2", "B", "P", "latin", "deep", "bad", "ovf", "out")}
    code = main([arg.format(**paths) for arg in argv] + ["--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("code", ["p", "b", "dp", "db"])
def test_check_solve_refutes_a_pole_inside_the_domain(capsys, tmp_path, code):
    # the grid passes; the solver's witness lies on the circle around the pole
    r, pole = pole_inside(code)
    save_realization(tmp_path / "r.json", r)
    code_, rep = run_cli(capsys, "check", "--family", code, "--solve", "--deterministic", str(tmp_path / "r.json"))
    assert code_ == 2 and rep["verdict"] == "refuted-by-witness"
    witness = complex(*rep["solver"]["witness"])
    assert np.isclose(abs(witness - pole), 1e-3 * (1.0 + abs(pole)), rtol=1e-9)


@pytest.mark.parametrize("skew,exit_code", [(1e-11, 0), (1e-9, 1)])
def test_wmat_reads_p_by_the_rule_of_verify_kyp(capsys, tmp_path, skew, exit_code):
    r = random_certified_realization(Family.POSITIVE_REAL, 2, 1, np.random.default_rng(0))
    p = np.eye(2) + skew * np.outer([1.0, 0.0], [0.0, 1.0])
    assert verify_kyp(r, p, Family.POSITIVE_REAL).verified == (exit_code == 0)
    save_matrix(tmp_path / "P.json", p)
    code, rep = run_cli(capsys, "wmat", "--family", "p", "--p-matrix", str(tmp_path / "P.json"), "--n", "2",
                        "--m", "1", "--deterministic")
    assert code == exit_code
    if not exit_code:
        assert rep["entries"][0][3] == [-1.0, 0.0]


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_json(capsys, *argv):
    """(exit code, report) of one command, the report read as standard JSON."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out, parse_constant=_no_constant)


@pytest.fixture()
def unsampled_file(tmp_path):
    """A = diag(0, z1), z1 the one interior point of `--grid 1 --seed 0`, so
    both points of that grid are poles and every oracle keeps none."""
    z1 = make_grid(Domain.RIGHT_HALF_PLANE, 1, 1, 0).interior_points[0]
    path = tmp_path / "unsampled.json"
    save_realization(path, Realization(n=2, m=1, A=np.diag([0.0, z1]), B=[[1.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]]))
    return str(path)


@pytest.mark.parametrize("lossless", [False, True])
def test_check_with_no_sample_is_inconclusive(capsys, unsampled_file, lossless):
    extra = ["--lossless"] if lossless else []
    code, rep = _check_json(capsys, "check", "--family", "p", "--grid", "1", "--deterministic", *extra, unsampled_file)
    assert code == 3 and rep["verdict"] == "inconclusive" and "no sampling evidence" in rep["note"]
    for key in ["oracle", "lossless_oracle"] if lossless else ["oracle"]:
        # the library's vacuous pass, written with a null margin
        assert rep[key]["verdict"] == "pass" and rep[key]["samples_used"] == 0
        assert rep[key]["worst_margin"] is None and "worst_point" not in rep[key]


def test_check_solve_with_no_grid_sample_refutes(capsys, unsampled_file):
    # the pole z1 inside the domain gives the solver a witness, which the oracle then scores
    code, rep = _check_json(capsys, "check", "--family", "p", "--grid", "1", "--solve", "--deterministic", unsampled_file)
    assert code == 2 and rep["verdict"] == "refuted-by-witness"
    assert rep["oracle"]["samples_used"] == 1 and rep["oracle"]["worst_margin"] < 0.0


@pytest.mark.parametrize("certify", [False, True])
def test_lossless_oracle_with_no_sample_needs_a_certificate(capsys, tmp_path, certify):
    """1/s on `--grid 1`: the only boundary point is its pole, so the lossless
    oracle keeps none; the verified P = 1 carries the verdict, nothing else does."""
    save_realization(tmp_path / "r.json", Realization(n=1, m=1, A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]]))
    save_matrix(tmp_path / "P.json", np.eye(1))
    extra = ["--p-matrix", str(tmp_path / "P.json")] if certify else []
    code, rep = _check_json(capsys, "check", "--family", "p", "--lossless", "--grid", "1", "--deterministic", *extra,
                            str(tmp_path / "r.json"))
    assert rep["lossless_oracle"]["samples_used"] == 0 and rep["lossless_oracle"]["worst_margin"] is None
    assert rep["oracle"]["samples_used"] == 1
    assert (code, rep["verdict"]) == ((0, "pass") if certify else (3, "inconclusive"))


@pytest.mark.parametrize("argv,exit_code,verdict", [
    (["--lossless"], 3, "inconclusive"),
    ([], 3, "inconclusive"),
    (["--solve"], 0, "pass"),
], ids=["lossless", "plain", "solve"])
def test_check_where_f_overflows_skips_every_point(capsys, tmp_path, argv, exit_code, verdict):
    """1e400/(s + 1): F overflows at each grid point, which every oracle skips,
    so the report is standard JSON, stderr is empty, and only the verified
    P = 1 of --solve is evidence."""
    save_realization(tmp_path / "r.json", OVERFLOWING_F)
    code = main(["check", "--family", "p", "--grid", "4", "--deterministic", *argv, str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    rep = json.loads(captured.out, parse_constant=_no_constant)
    assert captured.err == "" and (code, rep["verdict"]) == (exit_code, verdict)
    assert rep["oracle"]["samples_used"] == 0 and rep["oracle"]["skipped"] == 8
    if exit_code == 3:
        assert "overflowing" in rep["note"]
    else:
        assert rep["certificate"]["status"] == "verified"
