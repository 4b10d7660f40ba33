"""The command-line front end, called in process through ``cli.run``."""

import json
import math

import numpy as np
import pytest

import normcount as nc
from normcount import cli

SMOOTH = {"type": "support2d", "a0": 1.0, "cos": [0.0, 0.08], "sin": [0.0, 0.0, 0.04]}
TRUNC_OCT = {"type": "standard3", "name": "truncated_octahedron"}
HEPTAGON = {"type": "polygon",
            "vertices": np.random.default_rng(5).standard_normal((7, 2)).tolist()}


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


def test_point_at_a_negative_value(capsys):
    # "--at -0.5,0.2" is the value of --at, not an unknown option
    runs = [cli.run(["point", "--body", json.dumps(SMOOTH)] + at) for at in
            (["--at", "-0.5,0.2"], ["--at=-0.5,0.2"])]
    out = capsys.readouterr().out.splitlines()
    assert runs == [0, 0] and len(out) == 2 and out[0] == out[1]


_RNG = np.random.default_rng(17)


@pytest.mark.parametrize("xs", [
    _RNG.standard_normal(1000),
    _RNG.integers(0, 2**64, 1000, dtype=np.uint64).view(np.float64),  # any bit pattern
    [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320],
    [0.0, -0.0],
    _RNG.standard_normal(1000) * 10.0 ** _RNG.integers(-300, 300, 1000),
    [1.7976931348623157e308, -1.7976931348623157e308, 2.0**1023, 2.0**-1022],
], ids=["normal", "random_bits", "subnormal", "zeros", "wide_exponents", "extremes"])
def test_format_float_reads_back_as_the_same_double(xs):
    xs = np.asarray(xs, dtype=float)
    for x in xs[np.isfinite(xs)].tolist():
        back = float(nc.format_float(x))
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x), x


def test_point_at_nan_is_not_interior(capsys):
    # a NaN or infinite coordinate is never proven inside, and raises no
    # RuntimeWarning on the way (the suite turns those into errors)
    cases = [(HEPTAGON, (math.nan, 0.5), "body")]
    for x in (math.inf, -math.inf):
        cases += [(HEPTAGON, (x, 0.5), "body"), (SMOOTH, (x, 0.1), "body"),
                  (TRUNC_OCT, (x, 0.1, 0.2), "polytope")]
    for body, at, noun in cases:
        code, out, err = _point(capsys, body, at)
        assert code == 1 and out == ""
        assert err == f"error: query point must lie strictly inside the {noun}\n"


def test_point_polytope_by_dim(capsys):
    p = (0.3, -0.2, 0.1)
    code, out, err = _point(capsys, TRUNC_OCT, p)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert sorted(payload) == ["by_dim", "count"]
    by_dim = nc.count_normals3_by_dim(nc.parse_body(TRUNC_OCT), np.array(p))
    assert payload["by_dim"] == {str(k): v for k, v in by_dim.items()}
    assert payload["count"] == sum(by_dim.values())


def test_point_on_a_flagged_polytope_point_fails(capsys):
    # on a vertex-cone boundary; the counts here would break
    # facets - edges + vertices = 2
    p = (0.6322166801342028, -0.36778332269422426, -0.6633924822023877)
    code, out, err = _point(capsys, TRUNC_OCT, p)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_estimate_runs_are_byte_identical(capsys, tmp_path):
    args = ["estimate", "--body", json.dumps(SMOOTH), "--samples", "4000",
            "--seed", "3", "--out", str(tmp_path)]
    runs = []
    for _ in range(2):
        code = cli.run(args)
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        runs.append((out, (tmp_path / "estimate.json").read_bytes()))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["samples_used"] >= 4000


def test_wedges_n_is_exact_and_runs_are_byte_identical(capsys, tmp_path):
    args = ["wedges", "--body", json.dumps(HEPTAGON), "--out", str(tmp_path)]
    runs = []
    for _ in range(2):
        code = cli.run(args)
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        runs.append((out, (tmp_path / "wedges.csv").read_bytes()))
    assert runs[0] == runs[1]
    _, n = nc.exact_average_normals(nc.parse_body(HEPTAGON))
    assert f"# n={nc.format_float(n)}" in runs[0][1].decode().splitlines()
    assert runs[0][0].splitlines()[0] == f"n={nc.format_float(n)}"


def test_wedges_builds_each_wedge_once(capsys, tmp_path, monkeypatch):
    # I, n and the residual come from the one wedge list: 2k wedges for a
    # k-gon, and the same sums as the library's
    from normcount import wedges

    calls = []
    build = wedges._face_wedge
    monkeypatch.setattr(wedges, "_face_wedge", lambda *a: calls.append(a) or build(*a))
    code = cli.run(["wedges", "--body", json.dumps(HEPTAGON), "--out", str(tmp_path)])
    capsys.readouterr()
    P = nc.parse_body(HEPTAGON)  # the hull of the 7 points
    assert code == 0 and len(calls) == 2 * len(P)
    I, n = nc.exact_average_normals(P)
    lines = (tmp_path / "wedges.csv").read_text().splitlines()
    assert lines[-3:] == [f"# I={nc.format_float(I)}", f"# n={nc.format_float(n)}",
                          f"# euler_residual={nc.format_float(nc.euler_residual(P))}"]


def test_field_rows_equal_field_map(capsys, tmp_path):
    code = cli.run(["field", "--body", json.dumps(SMOOTH), "--grid", "17x13",
                    "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    lines = (tmp_path / "field.csv").read_text().splitlines()
    rows = [[int(v) for v in line.split(",")] for line in lines if not line.startswith("#")]
    assert np.array_equal(np.array(rows), nc.field_map(nc.parse_body(SMOOTH), (17, 13)))
    for knob in ("--samples", "--seed"):
        with pytest.raises(SystemExit):  # the field is not sampled
            cli.run(["field", "--body", json.dumps(SMOOTH), knob, "10"])
    capsys.readouterr()


def _reruns(capsys, args, name):
    runs = []
    for _ in range(2):
        code = cli.run(args)
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        runs.append((out, name.read_bytes()))
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("kind,t_end", [("outward_eikonal", "1"), ("inward_eikonal", "0.2"),
                                         ("curvature_power", "1")],
                         ids=["outward_eikonal", "inward_eikonal", "curvature_power"])
def test_flow_runs_are_byte_identical(capsys, tmp_path, kind, t_end):
    # inward, t_end stays below the body's rolling-ball radius (0.53)
    _, text = _reruns(capsys, ["flow", "--body", json.dumps(SMOOTH), "--samples", "500",
                               "--kind", kind, "--t-end", t_end, "--steps", "2",
                               "--seed", "3", "--out", str(tmp_path)],
                      tmp_path / "flow.csv")
    rows = [line for line in text.decode().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 3  # column names and the times 0, t_end/2, t_end


def test_flow_means_are_exact_and_ignore_samples_and_seed(capsys, tmp_path):
    texts = []
    for samples, seed in (("500", "3"), ("100000", "11")):
        _, text = _reruns(capsys, ["flow", "--body", json.dumps(SMOOTH), "--samples", samples,
                                   "--seed", seed, "--steps", "2", "--out", str(tmp_path)],
                          tmp_path / "flow.csv")
        texts.append(text)
    assert texts[0] == texts[1]
    lines = texts[0].decode().splitlines()
    assert not any(line.startswith("# seed=") for line in lines)
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0][1:4] == ["n_mean", "n_lo", "n_hi"]
    assert all(row[1] == row[2] == row[3] for row in rows[1:])
    assert float(rows[1][1]) == nc.normal_means(nc.parse_body(SMOOTH))[0]


NORM = {"type": "support2d", "a0": 1.0, "cos": [0.0, 0.15]}


@pytest.mark.parametrize("args, names", [
    (["estimate", "--body", json.dumps(SMOOTH), "--samples", "500", "--seed", "7"],
     ["estimate.json"]),
    (["field", "--body", json.dumps(HEPTAGON), "--grid", "11x9"], ["field.csv", "field.pgm"]),
    (["wedges", "--body", json.dumps(HEPTAGON)], ["wedges.csv"]),
    (["evolute", "--body", json.dumps(SMOOTH), "--steps", "16"], ["evolute.csv"]),
    (["flow", "--body", json.dumps(SMOOTH), "--steps", "2"], ["flow.csv"]),
    (["discretize", "--body", json.dumps(SMOOTH), "--k", "8,16"], ["discretize.csv"]),
    (["diameters", "--body", json.dumps(SMOOTH), "--theta-sweep", "12"], ["diameters.csv"]),
    (["tau", "--norm", json.dumps(NORM)], ["tau.json"]),
], ids=["estimate", "field", "wedges", "evolute", "flow", "discretize", "diameters", "tau"])
def test_every_writing_command_says_what_it_wrote(capsys, tmp_path, args, names):
    out_dir = tmp_path / "out"
    code = cli.run(args + ["--out", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    paths = [out_dir / name for name in names]
    assert out.splitlines()[-1] == "wrote " + " and ".join(map(str, paths))
    assert all(path.is_file() for path in paths)
    version = f"# normcount {nc.__version__}"
    for path in paths:
        text = path.read_text()
        if path.suffix == ".csv":
            assert text.splitlines()[:2] == [version, f"# body={nc.body_hash(args[2])}"]
        elif path.suffix == ".json":
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if args[0] == "estimate":
        assert out.splitlines()[:3] == [version, "# seed=7", f"# body={nc.body_hash(args[2])}"]


def test_validate_passes_with_only_pass_lines(capsys):
    code = cli.run(["validate", "--samples", "2000", "--seed", "0"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines and all(line.startswith("[PASS] ") for line in lines)


def test_validate_decides_the_reuleaux_equality_case_exactly(capsys):
    # at seed 67 the 500-sample Reuleaux mean less 1.96 standard errors lies
    # above 2 pi/(pi - sqrt 3), which the exact mean attains
    bound = 2 * math.pi / (math.pi - math.sqrt(3.0))
    rep = nc.estimate_interior_average(nc.build_reuleaux(3, 1.0), "normals", 500, 67)
    assert rep.mean - 1.96 * rep.std_error > bound
    code = cli.run(["validate", "--samples", "500", "--seed", "67"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    line, = [x for x in out.splitlines() if "constant width" in x]
    assert line.startswith("[PASS] ") and f"exact={rep.exact:.12f}" in line


def test_validate_passes_at_500_samples_for_seeds_0_to_24(capsys):
    # the truncated octahedron attains n = 26, so a check on the MC mean's
    # CI would fail on about 2.5% of seeds (here 16 and 24)
    for seed in range(25):
        code = cli.run(["validate", "--samples", "500", "--seed", str(seed)])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", (seed, out)
        line, = [x for x in out.splitlines() if "truncated_octahedron" in x]
        assert line.startswith("[PASS] ") and "exact=26.000000000000" in line


def test_estimate_reports_its_method_and_exact_mean(capsys, tmp_path):
    code = cli.run(["estimate", "--body", json.dumps(SMOOTH), "--samples", "500",
                    "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert code == 0 and payload["method"] == "exact"
    assert float(payload["exact"]) == pytest.approx(90 / 41, rel=1e-15, abs=0.0)
    assert f"exact={payload['exact']}" in out.splitlines()
    code = cli.run(["estimate", "--body", json.dumps(SMOOTH), "--counter", "diameters",
                    "--samples", "500", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert code == 0 and payload["method"] == "mc" and payload["exact"] is None
    assert not any(x.startswith("exact=") for x in out.splitlines())


def test_validate_fails_on_a_wrong_exact_mean(capsys, monkeypatch):
    monkeypatch.setattr(cli, "exact_average_normals", lambda P: (9.0 * P.area(), 9.0))
    code = cli.run(["validate", "--samples", "2000", "--seed", "0"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert any(line.startswith("[FAIL] square exact n in (4, 8]") for line in out.splitlines())


def test_evolute_runs_are_byte_identical(capsys, tmp_path):
    _, text = _reruns(capsys, ["evolute", "--body", json.dumps(SMOOTH), "--steps", "256",
                               "--out", str(tmp_path)], tmp_path / "evolute.csv")
    assert "# contains_evolute=true" in text.decode().splitlines()


def test_evolute_reports_the_worst_excess(capsys, tmp_path):
    code = cli.run(["evolute", "--body", json.dumps(SMOOTH), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    notes = [line for line in (tmp_path / "evolute.csv").read_text().splitlines()
             if line.startswith("# worst_excess=")]
    worst = nc.contains_evolute(nc.parse_body(SMOOTH))[1]
    assert worst < 0.0 and notes == [f"# worst_excess={nc.format_float(worst)}"]


@pytest.mark.parametrize("kind", ["outward_eikonal", "inward_eikonal", "curvature_power"])
@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_flow_rejects_a_non_finite_end_time(capsys, tmp_path, kind, t_end):
    code = cli.run(["flow", "--body", json.dumps(SMOOTH), "--kind", kind, "--t-end", t_end,
                    "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: t_end must be positive and finite\n"
    assert not any(tmp_path.iterdir())


def test_estimate_diameters_is_average_diameters(capsys, tmp_path):
    out, text = _reruns(capsys, ["estimate", "--body", json.dumps(SMOOTH), "--counter",
                                 "diameters", "--samples", "2000", "--seed", "4",
                                 "--out", str(tmp_path)], tmp_path / "estimate.json")
    rep = nc.average_diameters(nc.parse_body(SMOOTH), 2000, 4)
    assert json.loads(text)["mean"] == nc.format_float(rep.mean)
    with pytest.raises(SystemExit):  # the only suite is the standard one
        cli.run(["validate", "--suite", "standard"])
    capsys.readouterr()


def test_discretize_runs_are_byte_identical(capsys, tmp_path):
    _, text = _reruns(capsys, ["discretize", "--body", json.dumps(SMOOTH), "--k", "8,16",
                               "--out", str(tmp_path)], tmp_path / "discretize.csv")
    rows = [line.split(",") for line in text.decode().splitlines() if not line.startswith("#")]
    assert rows[0] == ["k", "n_polygon_exact", "n_body_exact", "margin"]
    assert [row[0] for row in rows[1:]] == ["8", "16"]
    n_body = nc.normal_means(nc.parse_body(SMOOTH))[0]
    assert {row[2] for row in rows[1:]} == {nc.format_float(n_body)}
    with pytest.raises(SystemExit):  # the race samples nothing
        cli.run(["discretize", "--body", json.dumps(SMOOTH), "--samples", "500"])
    capsys.readouterr()


def test_diameters_runs_are_byte_identical(capsys, tmp_path):
    _, text = _reruns(capsys, ["diameters", "--body", json.dumps(SMOOTH), "--theta-sweep", "12",
                               "--out", str(tmp_path)], tmp_path / "diameters.csv")
    rows = [line for line in text.decode().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 12


DISK = json.dumps({"type": "disk", "radius": 1.0})


@pytest.mark.parametrize("args", [
    ["field", "--grid", "abc"], ["point", "--at", "a,b"], ["discretize", "--k", "x"],
    ["evolute", "--steps", "-3"], ["evolute", "--steps", "0"],
    ["diameters", "--theta-sweep", "0"]], ids=lambda a: "-".join(a))
def test_malformed_flag_values_exit_one(capsys, tmp_path, args):
    out_dir = [] if args[0] == "point" else ["--out", str(tmp_path)]
    code = cli.run(args[:1] + ["--body", DISK] + args[1:] + out_dir)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {args[1]}")
    assert not any(tmp_path.iterdir())


TETRA_VERTICES = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("desc", [
    {"type": "standard3", "name": "cube", "side": "abc"},
    {"type": "standard3", "name": "cube", "side": 0},
    {"type": "standard3", "name": "cube", "sidee": 2},
    {"type": "support2d", "a0": 1, "cos": "ab"},
    {"type": "polygon", "vertices": [["a", 0], [1, 0], [0, 1]]},
    {"type": "polytope3", "vertices": TETRA_VERTICES,
     "facets": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 9]]},
], ids=["side-text", "side-zero", "side-misspelt", "cos-text", "vertex-text", "facet-index"])
def test_malformed_bodies_exit_one(capsys, tmp_path, desc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    code = cli.run(["estimate", "--body", str(path), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_a_zero_cube_side_is_named_in_one_line(capsys, tmp_path):
    desc = json.dumps({"type": "standard3", "name": "cube", "side": 0})
    code = cli.run(["estimate", "--body", desc, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: cube side must be positive and finite, got 0\n"


@pytest.mark.parametrize("desc", [
    {"type": "polygon", "vertices": [[0, 0], [1, 0, 3], [0, 1]]},
    {"type": "polytope3", "vertices": [[0, 0, 0], [1, 0], [0, 1, 0], [0, 0, 1]],
     "facets": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]},
], ids=["polygon", "polytope3"])
def test_ragged_vertex_rows_exit_one(capsys, tmp_path, desc):
    code = cli.run(["estimate", "--body", json.dumps(desc), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: field 'vertices' must hold rows of one length\n"
