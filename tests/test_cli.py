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
