"""The three benchmark workloads: CLI argument lists, operation counts, checks.

Each workload is one ``shockbeta`` CLI command on a fixed configuration
(written by the benchmark, mirroring ``configs/``) with the transverse
wavenumber xi0 taken from the seed.  beta is homogeneous of degree 2 in
xi0 for every flux, so one reference value per configuration, scaled by
xi0**2, checks every seed:

* ``exact_table`` (``beta``, quadratic flux, L = 10, 20, 30, both methods):
  the closed form of the truncated integral,
  beta_L = xi0**2 (10 tanh(L/2) - 4 L sech(L/2)**2), which tends to the
  paper's 10 xi0**2.
* ``sine_scan`` (``scan``, f2 = sin(4 pi u), six left states, coupled) and
  ``fine_aux`` (``aux --N 40000``, both methods): :data:`SINE_REF`, computed
  by :mod:`reference`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# Relative errors and gaps below this floor are reported as the floor: the
# sine reference values agree with an independent integrating-factor
# computation at N = 320000 only to ~1e-11, and the coupled route at the
# benchmark's resolution already sits at that level, so smaller values are
# not resolved.
REL_FLOOR = 1e-10

# Correctness limits (a check fails above them).  The end-to-end accuracy
# metrics record the actual values, so these only catch wrong answers.
EXACT_TOL = 1e-7       # |beta / beta_L - 1|, every entry of the table
PAPER_TOL = 1e-6       # |beta / (10 xi0^2) - 1| at L >= 20
SINE_TOL = 1e-6        # |beta / beta_ref - 1| and the cross-method gap
IMAG_TOL = 1e-12       # |Im beta| / |beta|

SINE_U_MINUS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)

# beta at L = 20, xi0 = 1 for f1 = u^2/2, f2 = sin(4 pi u), u_plus = -1, keyed
# by u_minus (see reference.py for how they were computed).
SINE_REF = {
    1.0: 45.473716820249074,
    1.1: 41.67957922309949,
    1.2: 27.286835252054217,
    1.3: 36.08652686136944,
    1.4: 24.12736398929281,
    1.5: 23.94071755643231,
}

EXACT_CFG = """\
flux = quadratic_transverse
u_minus = 1.0
u_plus = -1.0
xi0 = 1.0
L = 10,20,30
N = 4000
method = both
quadrature = trapezoid
"""

SINE_CFG = """\
flux = sine_transverse
u_minus = 1.0
u_plus = -1.0
xi0 = 1.0
L = 20
N = 4000
u_minus_list = 1.0,1.1,1.2,1.3,1.4,1.5
"""


def exact_beta(L: float, xi0: float) -> float:
    """Closed-form beta of the quadratic case truncated to [-L, L]."""
    return xi0**2 * (10.0 * math.tanh(L / 2.0) - 4.0 * L / math.cosh(L / 2.0) ** 2)


def relerr(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


@dataclass
class Outcome:
    """Operations of one invocation, read from its output directory."""

    attempted: int
    failed: int
    coupled_points: int


@dataclass
class Check:
    """Result of checking one invocation's outputs against the oracles."""

    errors: list = field(default_factory=list)
    relerr: float = 0.0
    xmethod_gap: float = 0.0
    notes: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass
class Workload:
    name: str
    command: str
    config: str
    extra_args: tuple

    def argv(self, cfg_path: Path, xi0: float, out: Path) -> list[str]:
        return [self.command, "--config", str(cfg_path), "--xi0", repr(xi0),
                "--out-dir", str(out), *self.extra_args]


class ExactTable(Workload):
    L_VALUES = (10.0, 20.0, 30.0)
    METHODS = ("if", "coupled")
    FILES = ("beta_table.csv", "beta_manifest.json")

    def outcome(self, out: Path) -> Outcome:
        entries = 0
        coupled = 0
        path = out / "beta_manifest.json"
        if path.is_file():
            for e in json.loads(path.read_text())["entries"]:
                entries += 1
                coupled += e["method"] == "coupled"
        attempted = len(self.L_VALUES) * len(self.METHODS) + len(self.FILES)
        present = entries + sum((out / f).is_file() for f in self.FILES)
        return Outcome(attempted, attempted - present, coupled)

    def check(self, out: Path, xi0: float) -> Check:
        c = Check()
        manifest = json.loads((out / "beta_manifest.json").read_text())
        c.expect(not manifest["failures"], f"failed entries {manifest['failures']}")
        c.expect(manifest["sign_stable"], "sign of Re beta not stable over L")
        betas = {}
        for e in manifest["entries"]:
            re, im = e["beta"]
            L = e["L"]
            betas[(e["method"], L)] = re
            err = relerr(re, exact_beta(L, xi0))
            c.relerr = max(c.relerr, err)
            c.expect(err <= EXACT_TOL, f"{e['method']} L={L}: beta {re!r} off "
                     f"the closed form by {err:.3e}")
            c.expect(abs(im) <= IMAG_TOL * abs(re), f"{e['method']} L={L}: Im beta {im!r}")
            c.expect(e["sign_re_beta"] == 1, f"{e['method']} L={L}: sign not +1")
            if L >= 20.0:
                paper = relerr(re, 10.0 * xi0**2)
                c.notes[f"paper_relerr_{e['method']}_L{L:g}"] = paper
                c.expect(paper <= PAPER_TOL, f"{e['method']} L={L}: beta {re!r} "
                         f"off 10 xi0^2 by {paper:.3e}")
        for L in self.L_VALUES:
            pair = [betas.get((m, L)) for m in self.METHODS]
            c.expect(None not in pair, f"L={L}: missing entries")
            if None not in pair:
                c.xmethod_gap = max(c.xmethod_gap, relerr(pair[0], pair[1]))
        return c


class SineScan(Workload):
    u_minus = SINE_U_MINUS

    def outcome(self, out: Path) -> Outcome:
        points = 0
        files = 0
        path = out / "scan_manifest.json"
        if path.is_file():
            files += 1
            for p in json.loads(path.read_text())["points"]:
                points += 1
                files += (out / p["file"]).is_file()
        attempted = 2 * len(self.u_minus) + 1
        return Outcome(attempted, attempted - points - files, points)

    def check(self, out: Path, xi0: float) -> Check:
        from shockbeta import serialize
        from shockbeta.beta import compute_beta
        from shockbeta.integrating_factor import solve_auxiliary_if
        from shockbeta.profile import Grid, solve_profile

        c = Check()
        manifest = json.loads((out / "scan_manifest.json").read_text())
        c.expect(manifest["stall_index"] is None, f"scan stalled: {manifest['stall_cause']}")
        points = manifest["points"]
        c.expect(len(points) == len(self.u_minus), f"{len(points)} scan points")
        for p in points:
            um = p["u_minus"]
            beta_c = p["beta"][0]
            profile, aux, flux = serialize.read_point_csv(out / p["file"])
            reread = compute_beta(flux, profile, aux).beta.real
            c.expect(reread == beta_c, f"u-={um}: CSV gives beta {reread!r}, "
                     f"manifest {beta_c!r}")
            err = relerr(beta_c, SINE_REF[um] * xi0**2)
            c.relerr = max(c.relerr, err)
            c.expect(err <= SINE_TOL, f"u-={um}: beta {beta_c!r} off the reference "
                     f"by {err:.3e}")
            c.expect(p["sign_re_beta"] == 1, f"u-={um}: sign not +1")
            # integrating-factor route on the same configuration and grid
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ivp_profile = solve_profile(profile.config, Grid.make(manifest["L"],
                                                                      manifest["N"]))
                aux_if = solve_auxiliary_if(flux, aux.freq, ivp_profile)
            beta_if = compute_beta(flux, ivp_profile, aux_if).beta.real
            gap = relerr(beta_if, beta_c)
            c.xmethod_gap = max(c.xmethod_gap, gap)
            c.expect(gap <= SINE_TOL, f"u-={um}: if/coupled gap {gap:.3e}")
        return c


class FineAux(Workload):
    METHODS = ("if", "coupled")
    n_out = 40000

    def files(self):
        return [f"{kind}_{m}.csv" for m in self.METHODS for kind in ("profile", "aux")]

    def outcome(self, out: Path) -> Outcome:
        names = self.files()
        present = sum((out / f).is_file() for f in names)
        coupled = (out / "aux_coupled.csv").is_file()
        return Outcome(len(names), len(names) - present, int(coupled))

    def check(self, out: Path, xi0: float) -> Check:
        from shockbeta import serialize
        from shockbeta.beta import compute_beta

        c = Check()
        betas = {}
        for m in self.METHODS:
            profile, flux = serialize.read_profile_csv(out / f"profile_{m}.csv")
            aux = serialize.read_aux_csv(out / f"aux_{m}.csv")
            c.expect(profile.grid.N == self.n_out, f"{m}: N = {profile.grid.N}")
            c.expect(aux.method.value == m, f"{m}: aux file says {aux.method.value}")
            r = compute_beta(flux, profile, aux)
            betas[m] = r.beta.real
            err = relerr(r.beta.real, SINE_REF[profile.config.u_minus] * xi0**2)
            c.relerr = max(c.relerr, err)
            c.expect(err <= SINE_TOL, f"{m}: beta {r.beta.real!r} off the reference "
                     f"by {err:.3e}")
            c.expect(r.sign_re_beta == 1, f"{m}: sign not +1")
        c.xmethod_gap = relerr(betas["if"], betas["coupled"])
        c.expect(c.xmethod_gap <= SINE_TOL, f"if/coupled gap {c.xmethod_gap:.3e}")
        return c


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        ExactTable("exact_table", "beta", EXACT_CFG, ()),
        SineScan("sine_scan", "scan", SINE_CFG, ()),
        FineAux("fine_aux", "aux", SINE_CFG, ("--N", str(FineAux.n_out))),
    )
}
