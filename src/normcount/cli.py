"""Command-line front end: body ingestion, experiments, reproducible reports.

Every run prints a reproducibility header (version, seed, body hash) and
writes its primary output under --out with fixed 17-significant-digit float
formatting, so identical arguments produce byte-identical files and every
printed float reads back as the same double.  ``run`` reads --body once, for
the commands that take it, and hands the body to the command; every file
goes through one writer, ``_write``, and every CSV opens with one header,
``_header``.

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
from .bodies2d import (Polygon2, SmoothBody2, build_polygon, build_reuleaux,
                       disk, measure2d)
from .bodies3d import Polytope3, standard_polytope
from .bodyspec import body_hash, format_float, parse_body
from .diameters import diameter_chord
from .discretization import discretization_race
from .errors import GeometryError, SpecError, UnsupportedCombinationError
from .evolute import contains_evolute, curvature_profile, rolling_ball_radius
from .flows import FlowSpec, evolve_flow
from .minkowski import (NormBall2, _width_bound, hexagon_ratio_tau,
                        minkowski_counter)
from .normals import count_normals3_by_dim, normal_feet2
from .wedges import all_wedges, exact_average_normals


def _header(args, seed=None) -> list[str]:
    seeded = [] if seed is None else [f"# seed={seed}"]
    return [f"# normcount {__version__}", *seeded, f"# body={body_hash(args.body)}"]


def _write(args, name: str, content) -> str:
    """Write lines joined by newlines, or a dict as sorted, indented JSON,
    to ``name`` under --out, ending in a newline; return the file's path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    text = (json.dumps(content, indent=2, sort_keys=True) if isinstance(content, dict)
            else "\n".join(content))
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _csv(args, name: str, rows: list[str], *stdout: str) -> int:
    """Write the header and rows to ``name``, print the command's stdout
    lines, then ``wrote <path>``."""
    path = _write(args, name, _header(args) + rows)
    print(*stdout, f"wrote {path}", sep="\n")
    return 0


def _report_payload(report, args) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "body_hash": body_hash(args.body),
        "mean": format_float(report.mean),
        "std_error": format_float(report.std_error),
        "ci95": [format_float(report.ci95[0]), format_float(report.ci95[1])],
        "samples_used": report.samples_used,
        "degenerate_resampled": report.degenerate_resampled,
        "exact": None if report.exact is None else format_float(report.exact),
        "method": report.method,
    }


def _numbers(flag: str, text: str, kind) -> list:
    """The comma-separated values of ``kind`` in a flag's text, or SpecError."""
    try:
        return [kind(s) for s in text.split(",") if s]
    except ValueError:
        raise SpecError(f"{flag}: {text!r} is not a comma-separated list of "
                        f"{kind.__name__}s") from None


def _positive(flag: str, value: int) -> int:
    """The value of an integer flag; SpecError unless it is positive."""
    if value <= 0:
        raise SpecError(f"{flag} must be a positive integer, got {value}")
    return value


def _counter(args):
    """The counter that ``--counter`` names: "normals" or "diameters" as
    such, or the Minkowski counter of the ``--norm`` ball."""
    if args.counter != "minkowski":
        return args.counter
    if not args.norm:
        raise UnsupportedCombinationError("--counter minkowski requires --norm")
    return minkowski_counter(NormBall2(parse_body(args.norm)))


def _cmd_estimate(args, body) -> int:
    report = estimate_interior_average(body, _counter(args), args.samples, args.seed)
    payload = _report_payload(report, args)
    path = _write(args, "estimate.json", payload)
    exact = [] if report.exact is None else [f"exact={payload['exact']}"]
    print(*_header(args, args.seed),
          f"mean={payload['mean']} ci95=[{payload['ci95'][0]},{payload['ci95'][1]}]",
          *exact, f"wrote {path}", sep="\n")
    return 0


def _cmd_field(args, body) -> int:
    grid = args.grid.lower().split("x")
    if len(grid) != 2 or not all(s.isdigit() for s in grid):
        raise SpecError(f"--grid: {args.grid!r} is not NXxNY")
    nx, ny = map(int, grid)
    mat = field_map(body, (nx, ny), _counter(args))
    csv_path = _write(args, "field.csv",
                      _header(args) + [",".join(str(v) for v in row) for row in mat])
    top = max(1, int(mat.max()))
    pgm = ["P2", f"{nx} {ny}", "255"]
    for row in mat[::-1]:  # image rows top-down, y descending
        pgm.append(" ".join(str(0 if v < 0 else (255 * int(v)) // top) for v in row))
    pgm_path = _write(args, "field.pgm", pgm)
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def _cmd_wedges(args, body) -> int:
    if not isinstance(body, Polygon2):
        raise UnsupportedCombinationError("wedges require a polygon body")
    lines = ["face_kind,face_index,area,cumulative_I"]
    # one wedge list, summed as exact_average_normals and euler_residual sum it
    wedges = all_wedges(body)
    cum = 0.0
    for w in wedges:
        cum += w.area
        lines.append(f"{w.face[0]},{w.face[1]},{format_float(w.area)},{format_float(cum)}")
    I = sum(w.area for w in wedges)
    n = I / body.area()
    residual = sum(w.parity * w.area for w in wedges) / body.area()
    lines += [f"# I={format_float(I)}", f"# n={format_float(n)}",
              f"# euler_residual={format_float(residual)}"]
    return _csv(args, "wedges.csv", lines, f"n={format_float(n)}")


def _cmd_evolute(args, body) -> int:
    steps = _positive("--steps", args.steps)
    contained, worst = contains_evolute(body)
    lines = [f"# contains_evolute={str(contained).lower()}",
             f"# worst_excess={format_float(worst)}",
             f"# rolling_ball_radius={format_float(rolling_ball_radius(body))}",
             "theta,rho,cx,cy"]
    lines.extend(",".join(map(format_float, row))
                 for row in curvature_profile(body, grid=steps).tolist())
    return _csv(args, "evolute.csv", lines, f"contains_evolute={contained}")


def _cmd_flow(args, body) -> int:
    trace = evolve_flow(body, FlowSpec(args.kind, args.t_end, args.steps))
    lines = ["# truncated=true"] if trace.truncated else []
    lines.append("t,n_mean,n_lo,n_hi,n_surf_mean,area,perimeter")
    # an exact mean is its own CI: n fills the n_mean, n_lo and n_hi columns
    for t, b, n, n_surf in zip(trace.times, trace.bodies, trace.n_values,
                               trace.n_surf_values):
        m = measure2d(b)
        lines.append(",".join(format_float(v) for v in
                              (t, n, n, n, n_surf, m["area"], m["perimeter"])))
    return _csv(args, "flow.csv", lines)


def _cmd_discretize(args, body) -> int:
    lines = ["k,n_polygon_exact,n_body_exact,margin"]
    for row in discretization_race(body, _numbers("--k", args.k, int)):
        lines.append(",".join([str(row.k)] + [format_float(v) for v in
                              (row.n_polygon, row.n_body, row.margin)]))
    return _csv(args, "discretize.csv", lines)


def _cmd_diameters(args, body) -> int:
    steps = _positive("--theta-sweep", args.theta_sweep)
    lines = ["theta,length"]
    for theta in np.arange(steps) * (np.pi / steps):
        chord = diameter_chord(body, float(theta))
        lines.append(f"{format_float(theta)},{format_float(chord.length)}")
    return _csv(args, "diameters.csv", lines)


def _cmd_tau(args, _body) -> int:
    M = NormBall2(parse_body(args.norm))
    tau = hexagon_ratio_tau(M)
    payload = {
        "version": __version__,
        "norm_hash": body_hash(args.norm),
        "tau": format_float(tau),
        "bound": format_float(_width_bound(tau)),
    }
    path = _write(args, "tau.json", payload)
    print(f"tau={payload['tau']} bound={payload['bound']}", f"wrote {path}", sep="\n")
    return 0


def _cmd_point(args, body) -> int:
    at = _numbers("--at", args.at, float)
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
    # each bound is decided by the exact mean, to a relative 1e-9 (the
    # Reuleaux and truncated-octahedron equality cases)
    at_most = lambda rep, bound: rep.exact <= bound * (1.0 + 1e-9)  # noqa: E731

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

    rep = estimate_interior_average(disk(1.0), "normals", samples, seed)
    out.append(("disk n = 2 exactly", rep.mean == 2.0 and rep.std_error == 0.0,
                f"mean={rep.mean}"))

    ev = SmoothBody2(1.0, [0.0, 0.0, 0.05])
    contained, _ = contains_evolute(ev)
    rep = estimate_interior_average(ev, "normals", samples, seed)
    out.append(("evolute-inside body n <= 6", contained and at_most(rep, 6.0),
                f"exact={rep.exact:.12f} mean={rep.mean:.4f}"))

    generic = SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    rep = estimate_interior_average(generic, "normals", samples, seed)
    out.append(("smooth planar body n <= 12", at_most(rep, 12.0),
                f"exact={rep.exact:.12f} mean={rep.mean:.4f}"))

    reuleaux = build_reuleaux(3, 1.0)
    bound_cw = 2.0 * np.pi / (np.pi - np.sqrt(3.0))
    rep = estimate_interior_average(reuleaux, "normals", samples, seed)
    out.append(("constant width n <= 2*pi/(pi - sqrt(3))", at_most(rep, bound_cw),
                f"exact={rep.exact:.12f} mean={rep.mean:.4f} bound={bound_cw:.12f}"))

    for name in ("cube", "truncated_octahedron"):
        solid = standard_polytope(name)
        rep = estimate_interior_average(solid, "normals", samples, seed)
        out.append((f"{name} n <= 26", at_most(rep, 26.0),
                    f"exact={rep.exact:.12f} mean={rep.mean:.4f}"))
    return out


def _cmd_validate(args, _body) -> int:
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

    def common(sp, seeded=True):
        sp.add_argument("--body", required=True, help="body JSON file")
        if seeded:
            sp.add_argument("--samples", type=int, default=100000)
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".", help="output directory")

    def counted(sp):
        sp.add_argument("--counter", default="normals",
                        choices=["normals", "diameters", "minkowski"])
        sp.add_argument("--norm", help="norm-ball JSON file (minkowski counter)")

    sp = sub.add_parser("estimate", help="interior average: exact where a closed form "
                                         "exists, Monte Carlo always")
    common(sp)
    counted(sp)
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("field", help="counter values on a raster")
    common(sp, seeded=False)
    sp.add_argument("--grid", default="101x101")
    counted(sp)
    sp.set_defaults(fn=_cmd_field)

    sp = sub.add_parser("wedges", help="exact polygon wedge decomposition")
    common(sp, seeded=False)
    sp.set_defaults(fn=_cmd_wedges)

    sp = sub.add_parser("evolute", help="curvature profile and containment")
    common(sp, seeded=False)
    sp.add_argument("--steps", type=int, default=512)
    sp.set_defaults(fn=_cmd_evolute)

    sp = sub.add_parser("flow", help="evolve a smooth body and track counts")
    common(sp, seeded=False)
    for knob in ("--samples", "--seed"):
        sp.add_argument(knob, type=int, help="ignored: flow means are exact")
    sp.add_argument("--kind", default="outward_eikonal",
                    choices=["outward_eikonal", "inward_eikonal", "curvature_power"])
    sp.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=10)
    sp.set_defaults(fn=_cmd_flow)

    sp = sub.add_parser("discretize", help="inscribed-polygon race")
    common(sp, seeded=False)
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
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("point", help="pointwise counts at a query point")
    sp.add_argument("--body", required=True)
    sp.add_argument("--at", required=True, help="comma-separated coordinates")
    sp.set_defaults(fn=_cmd_point)

    return p


def _join_at(argv) -> list[str]:
    """argv with ``--at V`` as ``--at=V``, so that a value with a leading
    minus, such as -0.5,0.2, is not read as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--at":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    args = build_parser().parse_args(_join_at(argv))
    try:
        return args.fn(args, parse_body(args.body) if "body" in args else None)
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
