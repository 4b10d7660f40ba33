"""The command-line front end, called in process through ``cli.run``."""

import json

import numpy as np

import normcount as nc
from normcount import cli

SMOOTH = {"type": "support2d", "a0": 1.0, "cos": [0.0, 0.08], "sin": [0.0, 0.0, 0.04]}
TRUNC_OCT = {"type": "standard3", "name": "truncated_octahedron"}


def _point(capsys, body, at):
    code = cli.run(["point", "--body", json.dumps(body), "--at", ",".join(map(repr, at))])
    out, err = capsys.readouterr()
    return code, out, err


def test_point_smooth_counts(capsys):
    p = (0.1, 0.2)
    code, out, err = _point(capsys, SMOOTH, p)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert sorted(payload) == ["count", "degenerate", "stable", "unstable"]
    total, stable, _ = nc.count_normals2_batch(nc.parse_body(SMOOTH), [p])
    assert payload == {"count": int(total[0]), "stable": int(stable[0]),
                       "unstable": int(total[0] - stable[0]), "degenerate": False}


def test_point_polytope_by_dim(capsys):
    p = (0.3, -0.2, 0.1)
    code, out, err = _point(capsys, TRUNC_OCT, p)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert sorted(payload) == ["by_dim", "count"]
    by_dim = nc.count_normals3_by_dim(nc.parse_body(TRUNC_OCT), np.array(p))
    assert payload["by_dim"] == {str(k): v for k, v in by_dim.items()}
    assert payload["count"] == sum(by_dim.values())


def test_point_on_the_evolute_fails(capsys):
    c = nc.parse_body(SMOOTH).curvature_center(0.3)
    code, out, err = _point(capsys, SMOOTH, c.tolist())
    assert code == 1 and out == ""
    assert err.startswith("error:")


def _tau(capsys, norm, out_dir):
    code = cli.run(["tau", "--norm", json.dumps(norm), "--out", str(out_dir)])
    out, err = capsys.readouterr()
    return code, out, err


def test_tau_hexagon_is_one_and_repeatable(capsys, tmp_path):
    ang = np.arange(6) * (np.pi / 3.0)
    hexagon = {"type": "polygon", "vertices": np.column_stack([np.cos(ang), np.sin(ang)]).tolist()}
    written = []
    for run in ("a", "b"):
        code, out, err = _tau(capsys, hexagon, tmp_path / run)
        assert code == 0 and err == ""
        written.append((tmp_path / run / "tau.json").read_bytes())
    assert written[0] == written[1]
    payload = json.loads(written[0])
    assert abs(float(payload["tau"]) - 1.0) < 1e-9
    assert abs(float(payload["bound"]) - 6.0) < 1e-9


def test_tau_rejects_a_non_symmetric_norm(capsys, tmp_path):
    triangle = {"type": "polygon", "vertices": [[1, 0], [0, 1], [-1, -1]]}
    code, out, err = _tau(capsys, triangle, tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_tau_on_a_reuleaux_norm_is_unsupported(capsys, tmp_path):
    code, out, err = _tau(capsys, {"type": "reuleaux", "sides": 3, "width": 1.0}, tmp_path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "unsupported_combination"
