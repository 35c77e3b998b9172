#!/usr/bin/env bash
# The checks of the `kypcert` console script, run as a user runs it: each
# runs one command and asserts its exit code, its stderr or its report.
# Needs `kypcert` on PATH (after `python -m pip install .`). Without an
# install, define it as an exported shell function first:
#
#     kypcert() { python -m kypcert.cli "$@"; }; export -f kypcert
#     bash tools/cli_checks.sh
#
# src/ and tests/ of this checkout go on PYTHONPATH, so the package, the
# `python -c` lines and tests/helpers.py are read from here. The inputs are
# written to a temporary directory, removed on exit.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$root/src:$root/tests${PYTHONPATH:+:$PYTHONPATH}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

kypcert fixtures --name F2 -o F2.json
kypcert check --family p --solve --deterministic F2.json
kypcert eval --at 0.5,1 --deterministic F2.json
# a discrete family: the bilinear step, the Riccati rung and its Schur ordering
kypcert fixtures --name f -o f.json
kypcert check --family db --solve --deterministic f.json
# the library's verdict is the console script's: g is no db member
kypcert fixtures --name g -o g.json
python -c "from kypcert import Domain, Family, check, fixture, make_grid; v = check(fixture('g'), Family.DISCRETE_BOUNDED_REAL, make_grid(Domain.EXTERIOR_DISK), solve=True); assert v.verdict == 'refuted-by-witness', v.verdict"
code=0
kypcert check --family db --solve --deterministic g.json > report.json || code=$?
test "$code" -eq 2
grep -q '"verdict": "refuted-by-witness"' report.json
# the discrete hyper-bounded family: sup |f| over the exterior is 1/2, within
# sqrt(1/2) at eta = 3, and the KYP certificate carries its label
kypcert check --family db --eta 3 --solve --deterministic f.json > report.json
grep -q '"family": "hyper-discrete-bounded(eta=3)"' report.json
grep -q '"status": "verified"' report.json
# a lightly damped member that only the rung's shifted second pass certifies
python -c "from kypcert import Realization, save_realization; w, z, g = 0.37, 1e-5, 0.99; save_realization('res.json', Realization(n=2, m=1, A=[[0, 1], [-w * w, -2 * z * w]], B=[[0], [1]], C=[[0, g * 2 * z * w]], D=[[0]]))"
kypcert check --family b --solve --deterministic res.json
# error paths: exit 1 and one `error:` line on stderr
code=0
kypcert check --family b --eta=nan --deterministic F2.json 2> err.txt || code=$?
test "$code" -eq 1
grep -q '^error:' err.txt
# a finite eta on a positive family
code=0
kypcert check --family dp --eta 3 --deterministic f.json 2> err.txt || code=$?
test "$code" -eq 1
test "$(wc -l < err.txt)" -eq 1
grep -q '^error:' err.txt
# an option that the command does not read
code=0
kypcert eval --tol-psd 1 --at 0.5,1 --deterministic F2.json 2> err.txt || code=$?
test "$code" -eq 1
grep -q '^error:' err.txt
# a non-finite point
code=0
kypcert eval --at nan,0 --deterministic F2.json 2> err.txt || code=$?
test "$code" -eq 1
test "$(wc -l < err.txt)" -eq 1
grep -q '^error:' err.txt
# an isometry family whose state tier sums to 2 I is refused when it loads
python -c "import json; e, h = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[0.5 ** 0.5, 0.0]]]; json.dump({'type': 'isometry_family', 'k': 2, 'state_blocks': [e, e], 'io_blocks': [h, h]}, open('bad.json', 'w'))"
code=0
kypcert combine --family p --inputs F2.json,F2.json --isometries bad.json -o out.json --deterministic 2> err.txt || code=$?
test "$code" -eq 1
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: bad.json: state_blocks: ' err.txt
# an exact lossless member next to an axis pole, where ||F|| is about 4e4:
# every oracle scales its tolerance with the terms that cancel
python -c "import sys; sys.path.insert(0, 'tests'); import numpy as np; from helpers import lossless_member; from kypcert import Family, save_realization; save_realization('lossless.json', lossless_member(np.random.default_rng(3), Family.POSITIVE_REAL, 8, 2))"
kypcert check --family p --solve --lossless --seed 3 --deterministic lossless.json > report.json
grep -q '"lossless_qmi": true' report.json
# a fixture parameter that is not finite
code=0
kypcert fixtures --name F1 --a inf -o x.json --deterministic 2> err.txt || code=$?
test "$code" -eq 1
test "$(wc -l < err.txt)" -eq 1
grep -q '^error:' err.txt
# 1/(s+1) + 2/(s+2) in coordinates T = [[1, 10], [0, 1]]: D = 0, so only
# the deflated rung certifies it
python -c "import numpy as np; from kypcert import Realization, change_coordinates, save_realization; save_realization('two.json', change_coordinates(Realization(n=2, m=1, A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]], C=[[1.0, 2.0]], D=[[0.0]]), np.array([[1.0, 10.0], [0.0, 1.0]])))"
kypcert check --family p --solve --deterministic two.json
# the lossless (z - 1)/(z + 1) in dp: I + A is singular, so the rung does not
# run, and the deflated rung's rotation certifies it
python -c "from kypcert import Realization, save_realization; save_realization('minus1.json', Realization(n=1, m=1, A=[[-1.0]], B=[[1.0]], C=[[-2.0]], D=[[1.0]]))"
kypcert check --family dp --solve --deterministic minus1.json > report.json
grep -q '"status": "verified"' report.json
# a violation of -2e-3 beside a channel of 2e6: verify_kyp does not excuse it
python -c "import numpy as np; from kypcert import Realization, save_realization; save_realization('spread.json', Realization.constant(np.diag([1e6, -1e-3])))"
code=0
kypcert check --family p --solve --deterministic spread.json > report.json || code=$?
test "$code" -eq 2
# B = 1e150: the Hamiltonian is finite and its norm must not overflow
python -c "from kypcert import Realization, save_realization; save_realization('huge.json', Realization(n=1, m=1, A=[[-1.0]], B=[[1e150]], C=[[1.0]], D=[[1.0]]))"
code=0
kypcert check --family p --solve --deterministic huge.json > report.json 2> err.txt || code=$?
test ! -s err.txt
# F(s) = -1 + 200/(s + 100): the grid reaches only |w| of about 41, and the
# solver's witness at infinity, scored with F(inf) = D, refutes it
python -c "from kypcert import Realization, save_realization; save_realization('inf.json', Realization(n=1, m=1, A=[[-100.0]], B=[[1.0]], C=[[200.0]], D=[[-1.0]]))"
code=0
kypcert check --family p --solve --deterministic inf.json > report.json || code=$?
test "$code" -eq 2
grep -q '"worst_point": "infinity"' report.json
# C = 1e200 in b: F*F overflows in the lossless-bounded oracle, which
# writes a finite margin and no warning
python -c "from kypcert import Realization, save_realization; save_realization('lb.json', Realization(n=1, m=1, A=[[-1.0]], B=[[1.0]], C=[[1e200]], D=[[0.0]]))"
code=0
kypcert check --family b --lossless --deterministic lb.json > report.json 2> err.txt || code=$?
test "$code" -eq 2
test ! -s err.txt
# a b member whose certificate has condition about 1e21: eigvalsh cannot
# resolve its least eigenvalue, zpotrf factors it, and balance goes by the factor
python -c "import sys; sys.path.insert(0, 'tests'); from helpers import widely_scaled_certificate; from kypcert import Family, change_coordinates, save_matrix, save_realization; f, r, t, p = widely_scaled_certificate(1); assert f is Family.BOUNDED_REAL; save_realization('wide.json', change_coordinates(r, t)); save_matrix('wide-p.json', p)"
kypcert transform --op balance --family b --p-matrix wide-p.json --deterministic wide.json -o balanced.json
# 1 + 0.1/(s - 1) in p: the grid passes, and a witness screen point on the
# circle around the pole inside the domain refutes it
python -c "from kypcert import Realization, save_realization; save_realization('inside.json', Realization(n=1, m=1, A=[[1.0]], B=[[0.1]], C=[[1.0]], D=[[1.0]]))"
code=0
kypcert check --family p --solve --deterministic inside.json > report.json || code=$?
test "$code" -eq 2
grep -q '"refuted-by-witness"' report.json
# a P with an asymmetry of 1e-11: wmat reads it by the rule of verify_kyp
python -c "import numpy as np; from kypcert import save_matrix; save_matrix('skew-p.json', np.eye(2) + 1e-11 * np.outer([1, 0], [0, 1]))"
kypcert wmat --family p --n 2 --m 1 --p-matrix skew-p.json --deterministic
# both points of `--grid 1` are poles, so no oracle keeps a point: no
# evidence (exit 3), and a report in standard JSON (worst_margin null)
python -c "from kypcert import Domain, Realization, make_grid, save_realization; z = make_grid(Domain.RIGHT_HALF_PLANE, 1, 1, 0).interior_points[0]; save_realization('unsampled.json', Realization(n=2, m=1, A=[[0, 0], [0, z]], B=[[1], [1]], C=[[1, 1]], D=[[1]]))"
code=0
kypcert check --family p --grid 1 --deterministic unsampled.json > report.json || code=$?
test "$code" -eq 3
python - <<'PY'
import json


def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


json.loads(open("report.json").read(), parse_constant=refuse)
PY
# 1e400/(s + 1), a p member: F overflows at every grid point, so every oracle
# skips them all (exit 3, standard JSON, no warning), and eval refuses it
python -c "from kypcert import Realization, save_realization; save_realization('overflow.json', Realization(n=1, m=1, A=[[-1.0]], B=[[1e200]], C=[[1e200]], D=[[0.0]]))"
code=0
kypcert check --family p --grid 4 --deterministic overflow.json > report.json 2> err.txt || code=$?
test "$code" -eq 3
test ! -s err.txt
python - <<'PY'
import json


def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


json.loads(open("report.json").read(), parse_constant=refuse)
PY
code=0
kypcert eval --at 1,0 --deterministic overflow.json 2> err.txt || code=$?
test "$code" -eq 1
test "$(wc -l < err.txt)" -eq 1
grep -q '^error:' err.txt
