"""The benchmark's three workloads: inputs, jobs and answer checks.

A job is one answer a user waits for: one estimate, one point query or one
CLI command.  ``run`` is timed; ``check`` is not and compares the answer with
a reference from ``references`` (or, where named, with normcount's batch
counter at the same point).  All inputs are generated from the seed here;
normcount only ever sees the resulting body descriptions and points.  Every
workload is a closed loop: one caller, one process, no extra threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import references as ref

SMOOTH = {"type": "support2d", "a0": 1.0, "cos": [0.0, 0.08], "sin": [0.0, 0.0, 0.04]}
REULEAUX = {"type": "reuleaux", "sides": 3, "width": 1.0}
TRUNC_OCT = {"type": "standard3", "name": "truncated_octahedron"}
GON11_POINTS = np.random.default_rng(3).standard_normal((11, 2))
GON11 = {"type": "polygon", "vertices": GON11_POINTS.tolist()}
CORPUS = {"gon11": GON11, "smooth": SMOOTH, "reuleaux": REULEAUX, "trunc_oct": TRUNC_OCT}

Z_TOL = 5.0  # an MC answer fails when it is more than 5 standard errors off


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    # (failure reason or None, digest of the output or None)
    check: Callable[[Any], tuple[str | None, str | None]]


def _mc_failure(mean, se, want, what="mean"):
    if abs(mean - want) > Z_TOL * se + 1e-12 * max(1.0, abs(want)):
        return f"{what} {mean:.6g} is {abs(mean - want) / max(se, 1e-300):.1f} se from {want:.8g}"
    return None


def _parse_corpus(nc):
    """The estimate and point bodies, and the Euclidean disk as a norm ball."""
    bodies = {key: nc.parse_body(desc) for key, desc in CORPUS.items()}
    return bodies, nc.NormBall2(nc.parse_body({"type": "disk", "radius": 1.0}))


class Workload:
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.jobs: list[Job] = []

    def setup(self, nc) -> None:
        """Program set-up: bodies through parse_body, norm balls."""

    def prepare(self, nc) -> None:
        """Reference answers, computed after set-up and outside any span."""


# ---------------------------------------------------------------------------
# estimate


class Estimate(Workload):
    """`normcount estimate` traffic: each job returns an interior average
    whose 95% half-width is at most its target, or that carries `exact`,
    quadrupling n from a pilot.  Samplers, the containment margin, the smooth
    sign-change kernels and `averaging` do almost all of the work; ROADMAP
    items 2 (exact averages), 3 (exact polygon diameters and polytopes) and
    4 (one bounded-memory kernel) act on exactly these layers.

    Each target is sqrt(2) times the half-width expected at the final n, the
    midpoint (in log) between the final n and a quarter of it, so every seed
    takes the same n sequence and does the same work.  Where counts other
    than the most common one are rare (diameters: about 3% of points; the
    Minkowski counter), the standard error at a quarter of the final n is too
    noisy for that, so the pilot is the final n.  Final n is 1000 to 64000,
    far below the CLI default of 100000, which would take about 45 s for
    smooth normals and about 40 GB for Minkowski.
    """

    # name, body, counter, pilot n, half-width target, reference; targets
    # from per-point standard deviations measured at n = 20000 to 100000
    SPECS = [
        ("normals/gon11", "gon11", "normals", 1000, 0.06, "exact_polygon"),
        ("normals/smooth", "smooth", "normals", 500, 0.0379, "parseval"),  # sd 0.611
        ("normals/reuleaux", "reuleaux", "normals", 4000, 0.0213, "reuleaux"),  # sd 1.945
        ("normals/trunc_oct", "trunc_oct", "normals", 2000, 0.285, "trunc_oct"),  # sd 18.3
        ("diameters/smooth", "smooth", "diameters", 2000, 0.0201, "diam_smooth"),  # sd 0.324
        ("diameters/gon11", "gon11", "diameters", 2000, 0.0208, "diam_polygon"),  # sd 0.336
        ("minkowski/smooth-disk", "smooth", "minkowski", 1000, 0.0542, "parseval"),  # sd 0.619
    ]
    GROWTH = 4
    MAX_STEPS = 4

    def setup(self, nc):
        self.bodies, disk = _parse_corpus(nc)
        calls = {"normals": lambda b, n, s: nc.estimate_interior_average(b, "normals", n, s),
                 "diameters": lambda b, n, s: nc.average_diameters(b, n, s),
                 "minkowski": lambda b, n, s: nc.estimate_interior_average(
                     b, nc.minkowski_counter(disk), n, s)}
        for j, (name, body, counter, pilot, target, reference) in enumerate(self.SPECS):
            if self.smoke:
                pilot, target = 200, math.inf
            self.jobs.append(Job(name, self._runner(calls[counter], self.bodies[body], pilot,
                                                    target, self.seed * 16 + j),
                                 self._checker(reference, target)))

    def _runner(self, call, body, pilot, target, seed):
        def run():
            n, ns = pilot, []
            while True:
                rep = call(body, n, seed)
                ns.append(n)
                if (rep.exact is not None or 1.96 * rep.std_error <= target
                        or len(ns) == self.MAX_STEPS):
                    return rep, ns
                n *= self.GROWTH
        return run

    def prepare(self, nc):
        self.refs = {
            "exact_polygon": ref.polygon_normals_mean(ref.convex_hull(GON11_POINTS)),
            "parseval": ref.smooth_normals_mean(SMOOTH),
            "reuleaux": ref.REULEAUX_NORMALS,
            "trunc_oct": ref.TRUNCATED_OCTAHEDRON_NORMALS,
            "diam_smooth": ref.smooth_diameters_mean(SMOOTH),
            "diam_polygon": ref.polygon_diameters_mean(ref.convex_hull(GON11_POINTS)),
        }

    def _checker(self, reference, target):
        def check(answer):
            rep, ns = answer
            want = self.refs[reference]
            digest = f"{rep.mean!r} {rep.std_error!r} {ns}"
            if rep.exact is not None and abs(rep.exact - want) > 1e-9 * abs(want):
                return f"exact {rep.exact!r} differs from {want!r}", digest
            if rep.exact is None and not 1.96 * rep.std_error <= target:
                return f"half-width {1.96 * rep.std_error:.4g} above target {target}", digest
            return _mc_failure(rep.mean, rep.std_error, want), digest
        return check


# ---------------------------------------------------------------------------
# point


class Point(Workload):
    """`normcount point` traffic: one query per job at a bench-drawn interior
    point, through the scalar public APIs.  It exercises the counting layers
    per point (scalar bisection, `_ray_exit`, NNLS) and barely touches the
    samplers or `averaging`.  ROADMAP item 4 (one vectorised bisection, scalar
    APIs as batch wrappers) shows here; item 2 (exact averages) should leave
    it unchanged.

    No measured traffic gives a mix, so each of the four scalar APIs gets the
    same number of jobs, and the share of `normal_feet2` is split evenly over
    its three bodies.  Query points are uniform in the body.  A point close
    to a curve where its count jumps is drawn again, because there the
    reference count is ill-conditioned.  Queries took 0.2-0.5 ms for polygon
    feet and diameters, 3-10 ms by dimension, 15-75 ms for Reuleaux feet and
    Minkowski roots and 90-420 ms for smooth feet, so the median job is a
    by-dimension count and the tail job a Reuleaux foot.  Cost grows with a
    point's number of feet, so each share has many jobs to steady the sum; a
    pass takes about 6 s.  `point` has no size option.
    """

    SHARE = 20  # jobs per share; of the 240 jobs, 24 lie beyond p90
    # job prefix, body, shares
    QUERIES = [("feet/gon11", "gon11", 1), ("feet/reuleaux", "reuleaux", 1),
               ("feet/smooth", "smooth", 1), ("diameters/gon11", "gon11", 3),
               ("by_dim/trunc_oct", "trunc_oct", 3), ("mink/smooth-disk", "smooth", 3)]

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        rng = np.random.default_rng(seed)
        draw = {"gon11": self._polygon_point(), "trunc_oct": self._solid_point(),
                "reuleaux": self._reuleaux_point(), "smooth": self._smooth_point()}
        share = 1 if smoke else self.SHARE
        self.points = {name: self._uniform(rng, share * shares, *draw[body])
                       for name, body, shares in self.QUERIES}

    # Input generation: bench-side geometry only.  Each _*_point returns a
    # box and a test of whether a point drawn uniformly in it is kept.

    @staticmethod
    def _uniform(rng, count, lo, hi, keep):
        out = []
        while len(out) < count:
            p = rng.uniform(lo, hi)
            if keep(p):
                out.append(p)
        return out

    @staticmethod
    def _polygon_point():
        hull = ref.convex_hull(GON11_POINTS)
        edges = np.roll(hull, -1, axis=0) - hull
        tris = ref.antipodal_triangles(hull)

        def keep(p):
            rel = p - hull
            if np.min(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]) <= 0.0:
                return False
            # stay clear of triangle sides, where the diameter count jumps
            return np.min(np.abs(ref.triangle_margins(p, tris))) > 1e-6
        return hull.min(axis=0), hull.max(axis=0), keep

    @staticmethod
    def _solid_point():
        # vertices are the permutations of (0, +-1, +-2)
        return np.full(3, -2.0), np.full(3, 2.0), lambda p: np.sum(np.abs(p)) < 3.0

    @staticmethod
    def _reuleaux_point():
        ang = 2.0 * math.pi * np.arange(3) / 3.0
        verts = np.stack([np.cos(ang), np.sin(ang)], axis=1) / math.sqrt(3.0)

        def keep(p):
            if np.max(np.sum((verts - p) ** 2, axis=1)) >= 1.0:  # width 1
                return False
            for i in range(3):  # counts jump across the lines joining vertices
                a, b = verts[i], verts[(i + 1) % 3]
                d = abs((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
                if d / np.linalg.norm(b - a) < 0.01:
                    return False
            return True
        return np.full(2, -0.6), np.full(2, 0.6), keep

    @staticmethod
    def _smooth_point():
        t = np.arange(8192) * (2.0 * math.pi / 8192)
        h = ref.support(SMOOTH, t)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        rho = h + ref.support(SMOOTH, t, 2)
        evolute = ref.smooth_boundary(SMOOTH, t) - rho[:, None] * u
        r = float(np.max(h))

        def keep(p):
            if np.max(u @ p - h) >= 0.0:
                return False
            # counts jump across the evolute; keep roots well separated
            return np.min(np.sum((evolute - p) ** 2, axis=1)) >= 0.02**2
        return np.full(2, -r), np.full(2, r), keep

    def setup(self, nc):
        self.bodies, self.disk = _parse_corpus(nc)
        b = self.bodies
        queries = {"feet/gon11": lambda p: nc.normal_feet2(b["gon11"], p),
                   "feet/reuleaux": lambda p: nc.normal_feet2(b["reuleaux"], p),
                   "feet/smooth": lambda p: nc.normal_feet2(b["smooth"], p),
                   "diameters/gon11": lambda p: nc.count_diameters_polygon(b["gon11"], p),
                   "by_dim/trunc_oct": lambda p: nc.count_normals3_by_dim(b["trunc_oct"], p),
                   "mink/smooth-disk": lambda p: nc.refine_mink_roots(self.disk, b["smooth"], p)}
        checks = {"feet/gon11": self._feet_check("gon11"),
                  "feet/reuleaux": self._feet_check("reuleaux"),
                  "feet/smooth": self._feet_check("smooth"),
                  "diameters/gon11": self._diam_check, "by_dim/trunc_oct": self._by_dim_check,
                  "mink/smooth-disk": self._mink_check}
        self.jobs = [Job(f"{name}#{i}", lambda q=queries[name], p=p: q(p),
                         lambda answer, c=checks[name], p=p: c(p, answer))
                     for name, _, _ in self.QUERIES for i, p in enumerate(self.points[name])]

    def prepare(self, nc):
        """Batch-counter and dense answers at every query point (untimed,
        untraced)."""
        self.batch = {}
        for name, body, _ in self.QUERIES:
            pts = np.array(self.points[name])
            if body == "trunc_oct":
                total, (stable, saddle, peak), flags = nc.count_normals3_batch(self.bodies[body], pts)
                for p, f2, f1, f0, fl in zip(pts, stable, saddle, peak, flags):
                    self.batch[p.tobytes()] = ({0: int(f0), 1: int(f1), 2: int(f2)}, bool(fl))
            elif name != "diameters/gon11":
                total, stable, flags = nc.count_normals2_batch(self.bodies[body], pts)
                for p, t, s, f in zip(pts, total, stable, flags):
                    self.batch[p.tobytes()] = (int(t), int(s), bool(f))
        boundary = {"reuleaux": ref.reuleaux_boundary(1.0, 4000),
                    "smooth": ref.smooth_boundary(SMOOTH, np.arange(8192) * (2.0 * math.pi / 8192))}
        self.dense = {p.tobytes(): ref.dense_normal_count(p, boundary[body])
                      for name, body, _ in self.QUERIES if body in boundary
                      for p in self.points[name]}
        tris = ref.antipodal_triangles(ref.convex_hull(GON11_POINTS))
        self.diameters = {p.tobytes(): int(np.sum(ref.triangle_margins(p, tris) > 0))
                          for p in self.points["diameters/gon11"]}

    def _feet_check(self, key):
        def check(p, feet):
            total, stable, flagged = self.batch[p.tobytes()]
            got = (len(feet), sum(1 for f in feet if f.index == 0))
            if flagged or any(f.degenerate for f in feet):
                return "degenerate query point", None
            if got != (total, stable):
                return f"(count, stable) {got} != batch {(total, stable)}", None
            dense = self.dense.get(p.tobytes())
            if dense is not None and dense != len(feet):
                return f"count {len(feet)} != dense boundary count {dense}", None
            return None, repr([(f.source, f.foot.tolist()) for f in feet])
        return check

    def _diam_check(self, p, count):
        want = self.diameters[p.tobytes()]
        return (None if count == want else f"{count} diameters, triangles give {want}"), repr(count)

    def _by_dim_check(self, p, by_dim):
        want, flagged = self.batch[p.tobytes()]
        if flagged:
            return "degenerate query point", None
        return (None if by_dim == want else f"{by_dim} != batch {want}"), repr(by_dim)

    def _mink_check(self, p, roots):
        total, _, flagged = self.batch[p.tobytes()]
        if flagged:
            return "degenerate query point", None
        if total != self.dense[p.tobytes()]:
            return f"batch count {total} != dense boundary count {self.dense[p.tobytes()]}", None
        return (None if len(roots) == total
                else f"{len(roots)} disk-norm roots != {total} Euclidean feet"), repr(roots.tolist())


# ---------------------------------------------------------------------------
# report


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Report(Workload):
    """In-process `normcount.cli.run` of `flow`, `wedges`, `evolute` and
    `tau`, plus `hexagon_ratio_tau` on a disk ball with `coarse` lowered so
    the job fits.  It is the only workload that runs `flows` (coupled pool,
    boundary sampler), `evolute`, `minkowski.gauge_batch` and the `cli`
    layer.  ROADMAP item 5 (one-pass `tau`) shows here and should leave
    `point` unchanged.  Sizes sit below the CLI defaults (`flow` defaults to
    100000 samples and 10 steps, `coarse=720` takes about 22 s per smooth
    ball); `tau --norm` has no size option and runs at its default.

    `validate` is not run: its truncated-octahedron and Reuleaux checks are
    equality cases that pass only through CI slack, so about one seed in
    twenty exits 1 (ROADMAP item 3).  `wedges` and `evolute` run on bodies
    drawn from the seed instead.
    """

    modules = ("normcount.cli",)
    OUT = "cli-out"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        rng = np.random.default_rng(seed)
        # tau is affine invariant: a rotated, scaled regular hexagon and a
        # disk of any radius keep their exact references
        alpha, scale = rng.uniform(0.0, math.pi / 3.0), rng.uniform(0.5, 2.0)
        ang = alpha + np.arange(6) * (math.pi / 3.0)
        self.hexagon = {"type": "polygon",
                        "vertices": (scale * np.stack([np.cos(ang), np.sin(ang)], axis=1)).tolist()}
        self.disk_radius = float(rng.uniform(0.5, 2.0))
        self.polygon_points = rng.standard_normal((11, 2))
        # |h''| stays below 0.6, so rho > 0 and the evolute lies well inside
        self.evolute_body = {"type": "support2d", "a0": 1.0,
                             "cos": [0.0, *rng.uniform(-0.03, 0.03, 2)],
                             "sin": [0.0, *rng.uniform(-0.03, 0.03, 2)]}
        self.samples = 200 if smoke else 500
        self.evolute_steps = 512 if smoke else 4096
        self.flow_steps = 2 if smoke else 4
        self.coarse = 12 if smoke else 24

    def setup(self, nc):
        files = {"smooth.json": SMOOTH, "hexagon.json": self.hexagon,
                 "polygon.json": {"type": "polygon", "vertices": self.polygon_points.tolist()},
                 "evolute.json": self.evolute_body}
        for name, desc in files.items():
            with open(name, "w") as fh:
                json.dump(desc, fh)
            nc.parse_body(name)  # every CLI job re-reads its file; parsing it once checks it
        self.disk = nc.NormBall2(nc.parse_body({"type": "disk", "radius": self.disk_radius}))
        import normcount.cli as cli

        seed = str(self.seed)
        commands = {
            "cli/flow": ["flow", "--body", "smooth.json", "--samples", str(self.samples),
                         "--steps", str(self.flow_steps), "--t-end", "1", "--seed", seed,
                         "--out", self.OUT],
            "cli/wedges": ["wedges", "--body", "polygon.json", "--out", self.OUT],
            "cli/evolute": ["evolute", "--body", "evolute.json", "--steps",
                            str(self.evolute_steps), "--out", self.OUT],
            "cli/tau-hexagon": ["tau", "--norm", "hexagon.json", "--out", self.OUT],
        }
        checks = {"cli/flow": self._check_flow, "cli/wedges": self._check_wedges,
                  "cli/evolute": self._check_evolute, "cli/tau-hexagon": self._check_tau}
        for name, argv in commands.items():
            self.jobs.append(Job(name, lambda argv=argv: self._cli(cli, argv), checks[name]))
        self.jobs.append(Job("tau/disk",
                             lambda: nc.hexagon_ratio_tau(self.disk, coarse=self.coarse),
                             self._check_disk_tau))

    @staticmethod
    def _cli(cli, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def _failed_command(answer):
        rc, _, err = answer
        return f"exit code {rc}: {err.strip()[:200]}" if rc != 0 else None

    def _read(self, name):
        with open(os.path.join(self.OUT, name)) as fh:
            return fh.read()

    def _comments(self, text):
        return dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith("# ") and "=" in line)

    def _check_wedges(self, answer):
        text = self._read("wedges.csv")
        digest = _digest(answer[1], text)
        failure = self._failed_command(answer)
        if failure:
            return failure, digest
        notes = self._comments(text)
        n, integral = float(notes["n"]), float(notes["I"])
        cumulative = float(text.splitlines()[-4].split(",")[-1])
        want = ref.polygon_normals_mean(ref.convex_hull(self.polygon_points))
        if abs(n - want) > 1e-9 * want:
            return f"wedges n {n!r} differs from clipped areas {want!r}", digest
        if abs(cumulative - integral) > 1e-9 * integral:
            return f"wedge areas sum to {cumulative!r}, not I = {integral!r}", digest
        if abs(float(notes["euler_residual"])) > 1e-9:
            return f"euler_residual {notes['euler_residual']}", digest
        return None, digest

    def _check_evolute(self, answer):
        text = self._read("evolute.csv")
        digest = _digest(answer[1], text)
        failure = self._failed_command(answer)
        if failure:
            return failure, digest
        notes = self._comments(text)
        if ref.evolute_clearance(self.evolute_body) <= 0.0:
            return "the drawn body does not contain its evolute", digest
        if notes["contains_evolute"] != "true" or float(notes["worst_excess"]) >= 0.0:
            return (f"contains_evolute={notes['contains_evolute']} worst_excess="
                    f"{notes['worst_excess']}, but the evolute lies inside"), digest
        rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()
                         if line and line[0] not in "#t"])
        if len(rows) != self.evolute_steps:
            return f"evolute wrote {len(rows)} rows, expected {self.evolute_steps}", digest
        t = rows[:, 0]
        rho = ref.support(self.evolute_body, t) + ref.support(self.evolute_body, t, 2)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        centres = ref.smooth_boundary(self.evolute_body, t) - rho[:, None] * u
        if np.max(np.abs(rows[:, 1] - rho)) > 1e-9 or np.max(np.abs(rows[:, 2:] - centres)) > 1e-9:
            return "radii or centres of curvature differ from h + h''", digest
        fine = np.arange(1 << 16) * (2.0 * math.pi / (1 << 16))
        rmin = float(np.min(ref.support(self.evolute_body, fine)
                            + ref.support(self.evolute_body, fine, 2)))
        if abs(float(notes["rolling_ball_radius"]) - rmin) > 1e-6:
            return f"rolling_ball_radius {notes['rolling_ball_radius']} != min rho {rmin!r}", digest
        return None, digest

    def _check_flow(self, answer):
        text = self._read("flow.csv")
        digest = _digest(answer[1], text)
        failure = self._failed_command(answer)
        if failure:
            return failure, digest
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        if len(rows) != self.flow_steps + 1:
            return f"flow wrote {len(rows)} slices, expected {self.flow_steps + 1}", digest
        for row in rows:
            t, n_mean, n_lo, n_hi, n_surf, area, perim = map(float, row)
            se = (n_hi - n_lo) / (2 * 1.96)
            for failure in (
                    _mc_failure(n_mean, se, ref.flow_normals_mean(SMOOTH, t), f"n({t:g})"),
                    # boundary points of a body containing its evolute see 2 normals
                    None if abs(n_surf - 2.0) < 1e-9 else f"n_surf({t:g}) = {n_surf}",
                    None if abs(area / ref.flow_area(SMOOTH, t) - 1) < 1e-9 else f"area({t:g})",
                    None if abs(perim / ref.flow_perimeter(SMOOTH, t) - 1) < 1e-9
                    else f"perimeter({t:g})"):
                if failure:
                    return failure, digest
        return None, digest

    def _check_tau(self, answer):
        text = self._read("tau.json")
        digest = _digest(answer[1], text)
        failure = self._failed_command(answer)
        if failure:
            return failure, digest
        payload = json.loads(text)
        tau, bound = float(payload["tau"]), float(payload["bound"])
        if abs(tau - ref.HEXAGON_TAU) > 1e-9 or abs(bound - ref.HEXAGON_BOUND) > 1e-8:
            return f"hexagon tau {tau!r} bound {bound!r}, expected 1 and 6", digest
        return None, digest

    def _check_disk_tau(self, tau):
        if abs(tau - ref.DISK_TAU) > 1e-9:
            return f"disk tau {tau!r} differs from 3 sqrt(3) / (2 pi)", repr(tau)
        return None, repr(tau)


WORKLOADS = {"estimate": Estimate, "point": Point, "report": Report}
