"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import numpy as np
import pytest
from helpers import (
    g_closed,
    q_bounded_real,
    q_discrete_bounded_real,
    q_discrete_positive_real,
    q_positive_real,
    rand_coordinates,
    rand_hpd,
    rand_realization,
    sampled_max_err,
)

import kypcert as kc
from kypcert import Family, FamilyTag

FAMILIES = list(Family)

Q_ORACLES = {
    Family.POSITIVE_REAL: q_positive_real,
    Family.BOUNDED_REAL: q_bounded_real,
    Family.DISCRETE_POSITIVE_REAL: q_discrete_positive_real,
    Family.DISCRETE_BOUNDED_REAL: q_discrete_bounded_real,
}

PARAM_PAIRS = [(1.0, 1.0), (2.0, -1.0), (0.5, 3.0)]


def _report(num: int, title: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {title}: {verdict}{suffix}")
    assert ok, f"criterion {num} {title}: {detail}"


def test_criterion_01_weight_structure():
    rng = np.random.default_rng(101)
    worst_rel, worst_spec = 0.0, 0.0
    for _ in range(50):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        p = rand_hpd(rng, n)
        wd = kc.build_weight(Family.DISCRETE_BOUNDED_REAL, p, m).entries
        wb = kc.build_weight(Family.BOUNDED_REAL, p, m).entries
        wa = kc.build_weight(Family.POSITIVE_REAL, p, m).entries
        wg = kc.build_weight(Family.DISCRETE_POSITIVE_REAL, p, m).entries
        u1 = kc.weight_rotation_delta_to_beta(n, m)
        u2 = kc.weight_transfer_beta_to_gamma(n, m)
        ua = kc.weight_transfer_delta_to_alpha(n, m)
        worst_rel = max(
            worst_rel,
            float(np.abs(u1.T @ wd @ u1 - wb).max()),
            float(np.abs(wb @ u2 - wg).max()),
            float(np.abs(wd @ ua - wa).max()),
        )
        ep = np.linalg.eigvalsh(p)
        expected = np.sort(np.concatenate([ep, -ep, np.ones(m), -np.ones(m)]))
        for w in (wd, wb, wa, wg):
            got = np.sort(np.linalg.eigvalsh(w))
            worst_spec = max(worst_spec, float(np.abs(got - expected).max()))
    ok = worst_rel < 1e-12 and worst_spec < 1e-8
    _report(1, "weight transfer identities and spectra", ok,
            f"max identity dev {worst_rel:.2e}, max spectrum dev {worst_spec:.2e}")


def test_criterion_02_q_block_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        r = rand_realization(rng, n, m)
        p = rand_hpd(rng, n)
        for fam, oracle in Q_ORACLES.items():
            q = kc.assemble_q(r, kc.build_weight(fam, p, m))
            worst = max(worst, float(np.abs(q - oracle(r, p)).max()))
    _report(2, "assembled Q matches the four block formulas", worst < 1e-10,
            f"max deviation {worst:.2e}")


def test_criterion_03_inversion_example():
    f = kc.fixture("f")
    ok = kc.verify_kyp(f, [[1.0]], Family.POSITIVE_REAL).verified
    ok &= kc.verify_kyp(f, [[1.0]], Family.DISCRETE_BOUNDED_REAL).verified

    g = kc.invert_array(f)
    pts = [2.0, -2.0, 3.0, 1.0 + 1j, -1.5 + 2j, 4.0 - 1j, 2.5j, -3.0, 5.0, 1.5 - 0.5j]
    ok &= sampled_max_err(g, g_closed, pts) < 1e-9

    rhp = kc.make_grid(kc.Domain.RIGHT_HALF_PLANE, 64, 64, 103)
    ok &= kc.membership_oracle(g, Family.POSITIVE_REAL, rhp).passed

    ext = kc.make_grid(kc.Domain.EXTERIOR_DISK, 64, 64, 103)
    witness = kc.DomainGrid(
        domain=kc.Domain.EXTERIOR_DISK,
        boundary_points=ext.boundary_points,
        interior_points=np.append(ext.interior_points, [3.0 + 0j, -2.0 + 0j]),
        seed=ext.seed,
    )
    db = kc.membership_oracle(g, Family.DISCRETE_BOUNDED_REAL, witness)
    ok &= db.verdict == "fail"
    ok &= abs(abs(kc.evaluate(g, 3.0)[0, 0]) - 10.0 / 3.0) < 1e-12
    anti = kc.anti_db_oracle(g, witness)
    ok &= anti.verdict == "fail"
    ok &= abs(kc.evaluate(g, -2.0)[0, 0]) < 1e-12
    _report(3, "scalar inversion example end to end", bool(ok))


def test_criterion_04_swap_law():
    rng = np.random.default_rng(104)
    ok = True
    count_pr = 0
    while count_pr < 50:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = kc.random_certified_realization(Family.POSITIVE_REAL, n, m, rng)
        p = np.eye(n, dtype=complex)
        if count_pr % 2 == 1 and n:
            t = rand_coordinates(rng, n, cond_max=5.0)
            r = kc.change_coordinates(r, t)
            p = t.conj().T @ t
        arr = r.array
        if np.linalg.svd(arr, compute_uv=False)[-1] < 1e-3:
            continue
        count_pr += 1
        ok &= kc.verify_kyp(kc.invert_array(r), p, Family.POSITIVE_REAL).verified
    count_db = 0
    worst = 0.0
    while count_db < 50:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = kc.random_certified_realization(Family.DISCRETE_BOUNDED_REAL, n, m, rng)
        p = np.eye(n, dtype=complex)
        if count_db % 2 == 1 and n:
            t = rand_coordinates(rng, n, cond_max=5.0)
            r = kc.change_coordinates(r, t)
            p = t.conj().T @ t
        arr = r.array
        if np.linalg.svd(arr, compute_uv=False)[-1] < 1e-3:
            continue
        count_db += 1
        w = kc.build_weight(Family.DISCRETE_BOUNDED_REAL, p, m)
        q = kc.assemble_q(kc.invert_array(r), -w.entries)
        worst = min(worst, float(np.linalg.eigvalsh(q)[0]))
        ok &= worst >= -1e-8
    _report(4, "array-inversion swap law", bool(ok), f"worst negated-form eig {worst:.2e}")


def test_criterion_05_lossless_fixtures():
    ok = True
    j = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    grid16 = kc.make_grid(kc.Domain.RIGHT_HALF_PLANE, 16, 0, 105)
    pts = [2.0, -2.0, 1.0 + 1j, 3.0 - 0.5j, 0.5 + 2j, 4.0, 2.5j + 1, -1.0 + 3j]
    for a, b in PARAM_PAIRS:
        f1 = kc.fixture("F1", a=a, b=b)
        f2 = kc.fixture("F2", a=a, b=b)
        f3 = kc.fixture("F3", a=a, b=b)
        for r in (f1, f2, f3):
            arr = r.array
            ok &= float(np.abs(j @ arr + arr.conj().T @ j).max()) <= 1e-12
            ok &= kc.check_lossless(r, np.eye(2), Family.POSITIVE_REAL)
            skew_worst = 0.0
            used = 0
            for z in grid16.boundary_points:
                try:
                    v = kc.evaluate(r, z)
                except kc.PoleAt:
                    continue
                used += 1
                skew_worst = max(skew_worst, float(np.abs(v + v.conj().T).max()))
            ok &= skew_worst <= 1e-9 and used >= 14
        ok &= float(np.abs(kc.invert_array(f1).array - f2.array).max()) <= 1e-12
        prod_worst = max(
            float(np.abs(kc.evaluate(f3, z) @ kc.evaluate(f1, z) - np.eye(2)).max())
            for z in pts
        )
        ok &= prod_worst <= 1e-8
    _report(5, "lossless fixture family", bool(ok))


def test_criterion_06_convex_combination_preservation():
    rng = np.random.default_rng(106)
    worst = np.inf
    for fam_kind in FAMILIES:
        for _ in range(100):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            rs = [kc.random_certified_realization(fam_kind, n, m, rng) for _ in range(k)]
            fam = kc.random_isometry_family(k, n, m, rng)
            res = kc.verify_preservation(rs, fam, fam_kind)
            worst = min(worst, res.certificate.min_eig_q)
    ok = worst >= -1e-8
    # the averaging caution
    a, b = rand_hpd(rng, 2), rng.standard_normal((2, 2))
    c, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    r1 = kc.Realization(n=2, m=2, A=a, B=b, C=c, D=d)
    r2 = kc.Realization(n=2, m=2, A=a, B=-b, C=-c, D=d)
    s = np.sqrt(0.5) * np.eye(2)
    fam = kc.IsometryFamily(state_blocks=(s, s), io_blocks=(s, s))
    avg = kc.combine_realizations([r1, r2], fam)
    ok &= float(np.abs(avg.B).max()) == 0.0 and float(np.abs(avg.C).max()) == 0.0
    ok &= float(np.abs(avg.A - a).max()) < 1e-12 and float(np.abs(avg.D - d).max()) < 1e-12
    ok &= kc.is_minimal(avg)[0] is False
    _report(6, "combination preserves balanced certificates", bool(ok),
            f"worst combined min-eig {worst:.2e}")


def test_criterion_07_matrix_convexity_closures():
    rng = np.random.default_rng(107)
    y1, y2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    out = kc.matrix_convex_combine([2.0 * np.eye(2), 3.0 * np.eye(2)], [y1, y2])
    ok = bool(np.abs(out - np.diag([2.0, 3.0])).max() == 0.0)

    def trial(member_fn, check_fn):
        nu = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        etas = [int(rng.integers(1, nu + 1)) for _ in range(k)]
        while sum(etas) < nu:
            etas[int(rng.integers(0, k))] = nu
        iso = kc.random_isometry_tuple(etas, nu, rng)
        mats = [member_fn(e) for e in etas]
        return check_fn(kc.matrix_convex_combine(mats, iso), mats)

    def herm_member(e):
        g = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
        return g + g.conj().T

    def psd_member(e):
        g = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
        return g @ g.conj().T

    def ball_member(bound):
        def sample(e):
            g = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
            return g / np.linalg.norm(g, 2) * bound * rng.uniform(0.0, 1.0)
        return sample

    for _ in range(200):
        ok &= trial(herm_member, lambda out, _: np.abs(out - out.conj().T).max() < 1e-9)
        ok &= trial(psd_member, lambda out, _: np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-9)
        bound = float(rng.uniform(0.5, 3.0))
        ok &= trial(ball_member(bound), lambda out, _: np.linalg.norm(out, 2) <= bound + 1e-9)
        ok &= trial(ball_member(1.0), lambda out, _: np.linalg.norm(out, 2) <= 1.0 + 1e-9)
        ok &= trial(lambda e: kc.random_in_lyapunov(np.eye(e), rng),
                    lambda out, _: np.linalg.eigvalsh(out + out.conj().T)[0] > -1e-9)
    _report(7, "matrix-convexity closure suites", bool(ok))


def test_criterion_08_cayley_bilinear_coherence():
    rng = np.random.default_rng(108)
    worst_inv = 0.0
    trials = 0
    while trials < 100:
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.svd(np.eye(n) + a, compute_uv=False)[-1] < 1e-3:
            continue
        trials += 1
        worst_inv = max(worst_inv, float(np.abs(kc.cayley(kc.cayley(a)) - a).max()))
    ok = worst_inv < 1e-9

    rhp = kc.make_grid(kc.Domain.RIGHT_HALF_PLANE, 32, 32, 108)
    ext = kc.make_grid(kc.Domain.EXTERIOR_DISK, 16, 64, 108)
    names = ("f", "g", "F1", "F2", "F3")
    for name in names:
        r = kc.fixture(name)
        assert kc.membership_oracle(r, Family.POSITIVE_REAL, rhp).passed, name
        ok &= kc.membership_oracle(kc.cayley_function(r), Family.BOUNDED_REAL, rhp).passed
        # discrete-positive side of the bilinear substitution, sampled on the
        # open disk via z -> 1/z (the exterior-domain convention bridge)
        out = kc.bilinear_substitute(r)
        disk_worst = min(
            float(np.linalg.eigvalsh(v + v.conj().T)[0])
            for v in (kc.evaluate(out, 1.0 / z) for z in ext.interior_points)
        )
        ok &= disk_worst >= -1e-8
    # sampled substitution identity at 16 points
    mob = lambda z: (1.0 + z) / (1.0 - z)  # noqa: E731
    pts = [0.2 * np.exp(2j * np.pi * t / 8) for t in range(8)]
    pts += [3.0 * np.exp(2j * np.pi * (t + 0.5) / 8) for t in range(8)]
    worst_id = 0.0
    for name in names:
        r = kc.fixture(name)
        out = kc.bilinear_substitute(r)
        for z in pts:
            lhs = kc.evaluate(out, z)
            rhs = kc.evaluate(r, mob(z))
            worst_id = max(worst_id, float(np.abs(lhs - rhs).max()))
    ok &= worst_id < 1e-9
    _report(8, "Cayley/bilinear coherence", bool(ok),
            f"involution dev {worst_inv:.2e}, substitution dev {worst_id:.2e}")


def test_criterion_09_solver_sanity():
    rng = np.random.default_rng(109)
    f = kc.fixture("f")
    ok = isinstance(kc.solve_p(f, Family.POSITIVE_REAL), kc.Certificate)
    ok &= isinstance(kc.solve_p(f, Family.DISCRETE_BOUNDED_REAL), kc.Certificate)
    solved = []
    for i in range(20):
        fam = FAMILIES[i % 4]
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = kc.random_certified_realization(fam, n, m, rng)
        if i % 2 == 1 and n:
            r = kc.change_coordinates(r, rand_coordinates(rng, n, cond_max=5.0))
        cert = kc.solve_p(r, fam)
        ok &= isinstance(cert, kc.Certificate) and cert.verified
        solved.append((r, fam))
    worst_oracle = np.inf
    for r, fam in solved:
        grid = kc.make_grid(kc.family_domain(fam), 32, 32, 109)
        rep = kc.membership_oracle(r, fam, grid)
        worst_oracle = min(worst_oracle, rep.worst_margin)
    ok &= worst_oracle >= -1e-6
    _report(9, "certificate search sanity", bool(ok), f"worst oracle margin {worst_oracle:.2e}")


def test_criterion_10_hyper_bounded():
    rng = np.random.default_rng(110)
    worst_rel = 0.0
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = rand_hpd(rng, n)
        plain = kc.build_weight(Family.BOUNDED_REAL, p, m).entries
        refined = kc.build_weight(FamilyTag(Family.BOUNDED_REAL, eta=1e6), p, m).entries
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(refined - plain, 2) / np.linalg.norm(plain, 2)))
    ok = worst_rel < 1e-5
    grid = kc.make_grid(kc.Domain.RIGHT_HALF_PLANE, 16, 16, 110)
    for _ in range(20):
        eta_small = float(rng.uniform(1.2, 6.0))
        eta_big = eta_small * float(rng.uniform(1.5, 5.0))
        bound = np.sqrt((eta_small - 1.0) / (eta_small + 1.0))
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r = kc.random_certified_realization(Family.BOUNDED_REAL, n, m, rng)
        scaled = kc.Realization(n=r.n, m=r.m, A=r.A, B=r.B,
                                C=0.9 * bound * r.C, D=0.9 * bound * r.D)
        small = kc.hyper_bounded_oracle(scaled, eta_small, grid)
        big = kc.hyper_bounded_oracle(scaled, eta_big, grid)
        ok &= small.passed and big.passed
        ok &= big.worst_margin >= small.worst_margin - 1e-12
    _report(10, "hyper-bounded weight and nesting", bool(ok),
            f"weight relative dev {worst_rel:.2e}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
