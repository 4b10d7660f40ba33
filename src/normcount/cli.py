"""Command-line front end: body ingestion, experiments, reproducible reports.

Every run prints a reproducibility header (version, seed, body hash) and
writes its primary output under --out with fixed 12-significant-digit float
formatting, so identical arguments produce byte-identical files.

Exit codes: 0 success, 1 failure or malformed input, 2 unsupported
combination (machine-readable reason on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .averaging import estimate_interior_average, field_map
from .bodies2d import Polygon2, SmoothBody2, build_polygon, measure2d
from .bodies3d import Polytope3, standard_polytope
from .bodyspec import body_hash, format_float, parse_body
from .diameters import average_diameters, diameter_chord
from .discretization import discretization_race
from .errors import GeometryError, SpecError, UnsupportedCombinationError
from .evolute import contains_evolute, curvature_profile, rolling_ball_radius
from .flows import FlowSpec, evolve_flow
from .minkowski import NormBall2, hexagon_ratio_tau, minkowski_counter
from .normals import count_normals3_by_dim, normal_feet2
from .wedges import all_wedges, euler_residual, exact_average_normals


def _header(seed, body_source) -> list[str]:
    lines = [f"# normcount {__version__}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    if body_source is not None:
        lines.append(f"# body={body_hash(body_source)}")
    return lines


def _write_lines(out_dir: str, name: str, lines: list[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _report_payload(report, seed, body_source) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "body_hash": body_hash(body_source),
        "mean": format_float(report.mean),
        "std_error": format_float(report.std_error),
        "ci95": [format_float(report.ci95[0]), format_float(report.ci95[1])],
        "samples_used": report.samples_used,
        "degenerate_resampled": report.degenerate_resampled,
        "exact": None if report.exact is None else format_float(report.exact),
    }


def _cmd_estimate(args) -> int:
    body = parse_body(args.body)
    if args.counter == "normals":
        report = estimate_interior_average(body, "normals", args.samples, args.seed)
    elif args.counter == "diameters":
        report = average_diameters(body, args.samples, args.seed)
    elif args.counter == "minkowski":
        if not args.norm:
            raise UnsupportedCombinationError("--counter minkowski requires --norm")
        M = NormBall2(parse_body(args.norm))
        report = estimate_interior_average(body, minkowski_counter(M),
                                           args.samples, args.seed)
    else:
        raise UnsupportedCombinationError(f"unknown counter {args.counter!r}")
    payload = _report_payload(report, args.seed, args.body)
    path = _write_json(args.out, "estimate.json", payload)
    for line in _header(args.seed, args.body):
        print(line)
    print(f"mean={payload['mean']} ci95=[{payload['ci95'][0]},{payload['ci95'][1]}]")
    print(f"wrote {path}")
    return 0


def _cmd_field(args) -> int:
    body = parse_body(args.body)
    nx, ny = (int(s) for s in args.grid.lower().split("x"))
    counter = args.counter
    if counter == "minkowski":
        if not args.norm:
            raise UnsupportedCombinationError("--counter minkowski requires --norm")
        counter = minkowski_counter(NormBall2(parse_body(args.norm)))
    mat = field_map(body, (nx, ny), counter)
    lines = _header(args.seed, args.body)
    lines += [",".join(str(v) for v in row) for row in mat]
    csv_path = _write_lines(args.out, "field.csv", lines)
    top = max(1, int(mat.max()))
    pgm = ["P2", f"{nx} {ny}", "255"]
    for row in mat[::-1]:  # image rows top-down, y descending
        pgm.append(" ".join(str(0 if v < 0 else (255 * int(v)) // top) for v in row))
    pgm_path = _write_lines(args.out, "field.pgm", pgm)
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def _cmd_wedges(args) -> int:
    body = parse_body(args.body)
    if not isinstance(body, Polygon2):
        raise UnsupportedCombinationError("wedges require a polygon body")
    lines = _header(None, args.body)
    lines.append("face_kind,face_index,area,cumulative_I")
    cum = 0.0
    for w in all_wedges(body):
        cum += w.area
        lines.append(f"{w.face[0]},{w.face[1]},{format_float(w.area)},{format_float(cum)}")
    I, n = exact_average_normals(body)
    lines.append(f"# I={format_float(I)}")
    lines.append(f"# n={format_float(n)}")
    lines.append(f"# euler_residual={format_float(euler_residual(body))}")
    path = _write_lines(args.out, "wedges.csv", lines)
    print(f"n={format_float(n)}")
    print(f"wrote {path}")
    return 0


def _cmd_evolute(args) -> int:
    body = parse_body(args.body)
    contained, worst = contains_evolute(body)
    lines = _header(None, args.body)
    lines.append(f"# contains_evolute={str(contained).lower()}")
    lines.append(f"# worst_excess={format_float(worst)}")
    lines.append(f"# rolling_ball_radius={format_float(rolling_ball_radius(body))}")
    lines.append("theta,rho,cx,cy")
    for pt in curvature_profile(body, grid=args.steps or 512):
        lines.append(",".join(format_float(v) for v in
                              (pt.theta, pt.rho, pt.center[0], pt.center[1])))
    path = _write_lines(args.out, "evolute.csv", lines)
    print(f"contains_evolute={contained}")
    print(f"wrote {path}")
    return 0


def _cmd_flow(args) -> int:
    body = parse_body(args.body)
    spec = FlowSpec(args.kind, args.t_end, args.steps)
    trace = evolve_flow(body, spec, args.samples, args.seed)
    lines = _header(args.seed, args.body)
    if trace.truncated:
        lines.append("# truncated=true")
    lines.append("t,n_mean,n_lo,n_hi,n_surf_mean,area,perimeter")
    for t, b, rep, srep in zip(trace.times, trace.bodies, trace.n_values,
                               trace.n_surf_values):
        m = measure2d(b)
        lines.append(",".join(format_float(v) for v in
                              (t, rep.mean, rep.ci95[0], rep.ci95[1],
                               srep.mean, m["area"], m["perimeter"])))
    path = _write_lines(args.out, "flow.csv", lines)
    print(f"wrote {path}")
    return 0


def _cmd_discretize(args) -> int:
    body = parse_body(args.body)
    ks = [int(s) for s in args.k.split(",") if s]
    rows = discretization_race(body, ks, args.samples, args.seed)
    lines = _header(args.seed, args.body)
    lines.append("k,n_polygon_exact,n_body_mean,ci_lo,ci_hi,margin")
    for row in rows:
        r = row.n_body
        lines.append(",".join([str(row.k)] + [format_float(v) for v in
                              (row.n_polygon, r.mean, r.ci95[0], r.ci95[1], row.margin)]))
    path = _write_lines(args.out, "discretize.csv", lines)
    print(f"wrote {path}")
    return 0


def _cmd_diameters(args) -> int:
    body = parse_body(args.body)
    steps = args.theta_sweep or 360
    lines = _header(None, args.body)
    lines.append("theta,length")
    for theta in np.arange(steps) * (np.pi / steps):
        chord = diameter_chord(body, float(theta))
        lines.append(f"{format_float(theta)},{format_float(chord.length)}")
    path = _write_lines(args.out, "diameters.csv", lines)
    print(f"wrote {path}")
    return 0


def _cmd_tau(args) -> int:
    M = NormBall2(parse_body(args.norm))
    tau = hexagon_ratio_tau(M)
    payload = {
        "version": __version__,
        "norm_hash": body_hash(args.norm),
        "tau": format_float(tau),
        "bound": format_float(6.0 / (3.0 - 2.0 * tau)),
    }
    path = _write_json(args.out, "tau.json", payload)
    print(f"tau={payload['tau']} bound={payload['bound']}")
    print(f"wrote {path}")
    return 0


def _cmd_point(args) -> int:
    body = parse_body(args.body)
    at = [float(s) for s in args.at.split(",")]
    if isinstance(body, Polytope3):
        if len(at) != 3:
            raise SpecError("--at needs x,y,z for a 3D body")
        by_dim = count_normals3_by_dim(body, np.array(at))
        payload = {"count": int(sum(by_dim.values())),
                   "by_dim": {str(k): int(v) for k, v in sorted(by_dim.items(), reverse=True)}}
    else:
        if len(at) != 2:
            raise SpecError("--at needs x,y for a planar body")
        feet = normal_feet2(body, np.array(at))
        stable = sum(1 for f in feet if f.index == 0)
        payload = {"count": len(feet), "stable": stable,
                   "unstable": len(feet) - stable,
                   "degenerate": bool(any(f.degenerate for f in feet))}
    print(json.dumps(payload, sort_keys=True))
    return 0


def _validate_corpus(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    out = []
    slack = lambda rep: rep.mean - 1.96 * rep.std_error  # noqa: E731

    square = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    _, n_sq = exact_average_normals(square)
    out.append(("square exact n in (4, 8]", 4.0 < n_sq <= 8.0 + 1e-12,
                f"n={n_sq:.12f}"))

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((9, 2))
    poly = build_polygon(np.vstack([pts, -pts]))
    _, n_sym = exact_average_normals(poly)
    out.append(("random symmetric polygon n <= 8", n_sym <= 8.0 + 1e-9,
                f"n={n_sym:.12f}"))

    gen = build_polygon(rng.standard_normal((11, 2)))
    _, n_gen = exact_average_normals(gen)
    out.append(("random polygon 4 < n <= 12", 4.0 < n_gen <= 12.0,
                f"n={n_gen:.12f}"))

    from .bodies2d import disk as _disk
    rep = estimate_interior_average(_disk(1.0), "normals", samples, seed)
    out.append(("disk n = 2 exactly", rep.mean == 2.0 and rep.std_error == 0.0,
                f"mean={rep.mean}"))

    ev = SmoothBody2(1.0, [0.0, 0.0, 0.05])
    contained, _ = contains_evolute(ev)
    rep = estimate_interior_average(ev, "normals", samples, seed)
    out.append(("evolute-inside body n <= 6", contained and slack(rep) <= 6.0,
                f"mean={rep.mean:.4f}"))

    generic = SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    rep = estimate_interior_average(generic, "normals", samples, seed)
    out.append(("smooth planar body n <= 12", slack(rep) <= 12.0,
                f"mean={rep.mean:.4f}"))

    from .bodies2d import build_reuleaux
    reuleaux = build_reuleaux(3, 1.0)
    bound_cw = 2.0 * np.pi / (np.pi - np.sqrt(3.0))
    rep = estimate_interior_average(reuleaux, "normals", samples, seed)
    out.append(("constant width n <= 2*pi/(pi - sqrt(3))", slack(rep) <= bound_cw,
                f"mean={rep.mean:.4f} bound={bound_cw:.4f}"))

    for name in ("cube", "truncated_octahedron"):
        solid = standard_polytope(name)
        rep = estimate_interior_average(solid, "normals", samples, seed)
        out.append((f"{name} n <= 26", slack(rep) <= 26.0, f"mean={rep.mean:.4f}"))
    return out


def _cmd_validate(args) -> int:
    if args.suite != "standard":
        raise UnsupportedCombinationError(f"unknown suite {args.suite!r}")
    checks = _validate_corpus(args.samples, args.seed)
    failed = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="normcount",
                                description="normal/diameter counting experiments "
                                            "on convex bodies")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, body=True, seeded=True):
        if body:
            sp.add_argument("--body", required=True, help="body JSON file")
        if seeded:
            sp.add_argument("--samples", type=int, default=100000)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("estimate", help="Monte Carlo interior average")
    common(sp)
    sp.add_argument("--counter", default="normals",
                    choices=["normals", "diameters", "minkowski"])
    sp.add_argument("--norm", help="norm-ball JSON file (minkowski counter)")
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("field", help="counter values on a raster")
    common(sp)
    sp.add_argument("--grid", default="101x101")
    sp.add_argument("--counter", default="normals",
                    choices=["normals", "diameters", "minkowski"])
    sp.add_argument("--norm")
    sp.set_defaults(fn=_cmd_field)

    sp = sub.add_parser("wedges", help="exact polygon wedge decomposition")
    common(sp, seeded=False)
    sp.set_defaults(fn=_cmd_wedges)

    sp = sub.add_parser("evolute", help="curvature profile and containment")
    common(sp, seeded=False)
    sp.add_argument("--steps", type=int, default=512)
    sp.set_defaults(fn=_cmd_evolute)

    sp = sub.add_parser("flow", help="evolve a smooth body and track counts")
    common(sp)
    sp.add_argument("--kind", default="outward_eikonal",
                    choices=["outward_eikonal", "inward_eikonal", "curvature_power"])
    sp.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=10)
    sp.set_defaults(fn=_cmd_flow)

    sp = sub.add_parser("discretize", help="inscribed-polygon race")
    common(sp)
    sp.add_argument("--k", default="8,16,32,64")
    sp.set_defaults(fn=_cmd_discretize)

    sp = sub.add_parser("diameters", help="affine-diameter chord sweep")
    common(sp, seeded=False)
    sp.add_argument("--theta-sweep", dest="theta_sweep", type=int, default=360)
    sp.set_defaults(fn=_cmd_diameters)

    sp = sub.add_parser("tau", help="inscribed affine-regular hexagon ratio")
    sp.add_argument("--norm", required=True)
    sp.add_argument("--out", default=".")
    sp.set_defaults(fn=_cmd_tau)

    sp = sub.add_parser("validate", help="bound battery over the standard corpus")
    sp.add_argument("--suite", default="standard")
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("point", help="pointwise counts at a query point")
    sp.add_argument("--body", required=True)
    sp.add_argument("--at", required=True, help="comma-separated coordinates")
    sp.set_defaults(fn=_cmd_point)

    return p


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedCombinationError as exc:
        print(json.dumps({"error": "unsupported_combination", "reason": str(exc)}),
              file=sys.stderr)
        return 2
    except (SpecError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
