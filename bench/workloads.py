"""Seeded inputs and operations for the three benchmark workloads.

Everything a workload feeds to ``volrepair`` is made here from the seed:
call surfaces priced with an in-file Black-Scholes formula, vol-space stress
bands applied to those formulas, calibration marks, and quote CSVs. The
library only ever receives the finished inputs. Labels for the detector
workload come from the construction itself (a clean Black-Scholes surface is
arbitrage-free; an LP-only surface carries a convex-order certificate), so
the program under test never grades itself.

Each workload is a fixed list of operation slots; the seed moves smile
levels, curvatures and stress sizes inside narrow ranges, so the cost mix of
a batch is the same for every seed while the numbers differ. A run does a
fixed number of whole batches (see ``Workload.batches``), so every run of a
workload does the same work and its order statistics sit at the same slots.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

MATURITIES = (0.16, 0.24, 0.32, 0.40)
FORWARD = 100.0
DISCOUNT = 0.99

# repair_entropic solver settings; e_tol is the library default (see README)
EPSILON = 0.5
E_TOL = 1e-4

# node checks used to pick LP-only surfaces pass with this margin, so the
# detector's own first stage (tolerance 1e-8) passes them too
NODE_MARGIN = 1e-7
# convex-order gap above which an LP-only surface is labelled infeasible
INFEASIBLE_GAP = 1e-6


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(k: float, vol: float, t: float) -> float:
    """Forward-normalized undiscounted Black-Scholes call."""
    s = vol * math.sqrt(t)
    d1 = -math.log(k) / s + 0.5 * s
    return _norm_cdf(d1) - k * _norm_cdf(d1 - s)


@dataclass(frozen=True)
class Smile:
    """vol(t, k) = base + term * t + skew * (k - 1) + curv * (k - 1)^2."""

    base: float
    term: float
    skew: float
    curv: float

    def vol(self, t: float, k: float) -> float:
        x = k - 1.0
        return self.base + self.term * t + self.skew * x + self.curv * x * x


# one stress band: (maturity index, lo, hi, vol multiplier)
Band = tuple[int, float, float, float]


@dataclass(frozen=True)
class SurfaceSpec:
    """Everything needed to price one (possibly stressed) surface."""

    strikes: tuple[tuple[float, ...], ...]
    smile: Smile
    bands: tuple[Band, ...] = ()

    @property
    def m(self) -> int:
        return len(self.strikes)

    def multiplier(self, i: int, k: float) -> float:
        for j, lo, hi, mult in self.bands:
            if j == i and lo <= k <= hi:
                return mult
        return 1.0

    def prices(self, stressed: bool = True) -> list[list[float]]:
        out = []
        for i, ks in enumerate(self.strikes):
            t = MATURITIES[i]
            out.append(
                [
                    bs_call(
                        k,
                        self.smile.vol(t, k)
                        * (self.multiplier(i, k) if stressed else 1.0),
                        t,
                    )
                    for k in ks
                ]
            )
        return out


def make_surface(vr, spec: SurfaceSpec):
    """The stressed spec as a ``volrepair`` NormalizedSurface."""
    prices = spec.prices()
    m = spec.m
    return vr.NormalizedSurface(
        MATURITIES[:m],
        tuple(np.array(ks) for ks in spec.strikes),
        tuple(np.array(cs) for cs in prices),
        (FORWARD,) * m,
        (DISCOUNT,) * m,
    )


def _grid(n: int, lo: float = 0.85, hi: float = 1.15) -> tuple[float, ...]:
    return tuple(float(x) for x in np.round(np.linspace(lo, hi, n), 10))


def _mid(ks, j: int) -> tuple[float, float]:
    """A band around strike j that touches no neighbour."""
    lo = ks[j] - 0.5 * (ks[j] - ks[j - 1]) if j > 0 else ks[j] - 0.01
    hi = ks[j] + 0.5 * (ks[j + 1] - ks[j]) if j + 1 < len(ks) else ks[j] + 0.01
    return float(lo), float(hi)


def _smile(rng) -> Smile:
    return Smile(
        base=_near(rng, 0.2),
        term=_near(rng, 0.05),
        skew=_near(rng, -0.05),
        curv=_near(rng, 0.35),
    )


def _near(rng, centre: float, rel: float = 0.005) -> float:
    """A seeded value within ``rel`` of ``centre``.

    The simplex pivot count, and with it the cost of a detect or an exact
    repair, jumps with small input changes; narrow draws keep the cost of each
    op slot nearly the same from seed to seed.
    """
    return float(centre * (1.0 + rel * rng.uniform(-1.0, 1.0)))


# --- labels, independent of volrepair ---------------------------------------


def implied_vol(k: float, c: float, t: float) -> float:
    """Inverse of :func:`bs_call` in vol, by bisection."""
    lo, hi = 1e-4, 5.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if bs_call(k, mid, t) < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lp_only_candidate(rng, m: int) -> SurfaceSpec:
    """A surface whose last smile dips below the convex hull of the one before.

    The earlier maturities quote only the wings, the last one also quotes at
    the money. The second-to-last smile is bent so its left wing is flatter
    than the last smile's, and the last at-the-money price is pushed below
    that wing's straight extension. The node checks compare prices only at
    quoted strikes and miss it; the path-space LP does not.
    """
    full = _grid(5, float(rng.uniform(0.84, 0.88)), float(rng.uniform(1.12, 1.16)))
    wings = full[:2] + full[3:]
    smile = _smile(rng)
    spec = SurfaceSpec((wings,) * (m - 1) + (full,), smile)
    e, t_e, t_l = m - 2, MATURITIES[m - 2], MATURITIES[m - 1]
    later = spec.prices()[m - 1]
    dk = full[1] - full[0]
    s_later = (later[1] - later[0]) / dk
    flatten = float(rng.uniform(0.02, 0.08))
    gap = float(rng.uniform(1e-4, 3e-4))
    c1 = later[1] - gap
    c0 = c1 - dk * (s_later + flatten)
    c_atm = c1 + (full[2] - full[1]) * (s_later + flatten) - 0.5 * (
        (full[2] - full[1]) * flatten - gap
    )
    bands = (
        (e, *_mid(wings, 0), implied_vol(full[0], c0, t_e) / smile.vol(t_e, full[0])),
        (e, *_mid(wings, 1), implied_vol(full[1], c1, t_e) / smile.vol(t_e, full[1])),
        (m - 1, *_mid(full, 2), implied_vol(full[2], c_atm, t_l) / smile.vol(t_l, full[2])),
    )
    return SurfaceSpec(spec.strikes, smile, bands)


def convex_order_gap(spec: SurfaceSpec) -> float:
    """How far the last at-the-money price sits below the straight extension
    of the previous smile's left wing.

    Any martingale needs C_{m-1}(k) <= C_m(k) at every k, and the earlier
    call function is convex through its quotes, so a positive gap proves
    that no martingale reprices the surface.
    """
    prices = spec.prices()
    (k0, k1), (c0, c1) = spec.strikes[-2][:2], prices[-2][:2]
    atm = spec.strikes[-1][2]
    return c1 + (atm - k1) * (c1 - c0) / (k1 - k0) - prices[-1][2]


def find_lp_only(rng, ms=(2, 3), max_candidates: int = 400) -> list[SurfaceSpec]:
    """Surfaces that pass the node checks but admit no martingale, one per
    entry of ``ms`` (its maturity count).

    Deterministic for a given generator state: candidates are drawn in order
    and the first that passes the node checks with a convex-order gap above
    INFEASIBLE_GAP is kept.
    """
    found: list[SurfaceSpec] = []
    for m in ms:
        for _ in range(max_candidates):
            spec = lp_only_candidate(rng, m)
            if passes_node_checks(spec) and convex_order_gap(spec) > INFEASIBLE_GAP:
                found.append(spec)
                break
        else:
            raise RuntimeError(f"no LP-only surface with m={m} in {max_candidates} draws")
    return found


def passes_node_checks(spec: SurfaceSpec) -> bool:
    """Smile and calendar node checks pass with NODE_MARGIN to spare."""
    prices = spec.prices()
    for ks, cs in zip(spec.strikes, prices):
        c = np.concatenate([[1.0], cs])
        k = np.concatenate([[0.0], ks])
        dc, dk = np.diff(c), np.diff(k)
        if np.max(dc) > -NODE_MARGIN or np.max(-dc - dk) > -NODE_MARGIN:
            return False
        if np.min(np.diff(dc / dk)) < NODE_MARGIN:
            return False
        if np.min(c[1:] - np.maximum(1.0 - k[1:], 0.0)) < NODE_MARGIN:
            return False
    for i in range(spec.m - 1):
        k_next = np.concatenate([[0.0], spec.strikes[i + 1]])
        c_next = np.concatenate([[1.0], prices[i + 1]])
        for k, c in zip(spec.strikes[i], prices[i]):
            if k <= spec.strikes[i + 1][-1]:
                if float(np.interp(k, k_next, c_next)) - c < NODE_MARGIN:
                    return False
    return True


# --- operations -------------------------------------------------------------


@dataclass
class Outcome:
    """What the benchmark learned from one operation."""

    failed: bool = False
    silent: bool = False  # wrong output the program did not flag itself
    reason: str = ""
    digest: str = ""
    violation_after: float | None = None
    bytes_written: int = 0


@dataclass
class Op:
    """One timed call into the library: ``call`` is timed, ``judge`` is not.

    ``inputs`` is a digest of everything the call receives.
    """

    name: str
    inputs: str
    call: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Workload:
    """A batch of ops, run in order; ``deadline_s`` caps any one op.

    ``batch_s`` is the nominal wall time of one untraced batch on a 2-core
    x86 host; it turns ``--seconds`` into a whole number of batches.
    """

    name: str
    ops: list[Op]
    warmup: Op
    deadline_s: float
    batch_s: float
    cleanup: Callable[[], None] = lambda: None

    def batches(self, seconds: float, traced: bool = False) -> int:
        """Whole batches that fill about ``seconds`` on that host; a traced
        run runs each op twice, so it does half as many."""
        return max(1, round(seconds / (self.batch_s * (2 if traced else 1))))

    @property
    def inputs(self) -> str:
        """Digest of every op's inputs, in order: equal seeds give equal digests."""
        return _sha(*(op.inputs.encode() for op in [self.warmup, *self.ops]))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def run_guarded(op: Op):
    """Call the op; an exception is a result, not a crash of the benchmark."""
    try:
        return op.call()
    except Exception as exc:  # the library's failure is the measurement
        return exc


# repair_entropic -------------------------------------------------------------


def _entropic_slots(rng) -> list[tuple[str, SurfaceSpec, tuple]]:
    """(label, spec, marks) for each op of one repair_entropic batch.

    Strike counts are chosen so the four m=2 slots cost about the same
    (1.6-1.8 s, 470-770 sweeps on a 2-core x86 host): the median op is then
    an m=2 repair whichever slot it falls on.
    """
    slots = []
    # m=3, 4 strikes: N = 216 paths, 44 rows; ATM butterfly on every maturity
    ks = _grid(4, 0.9, 1.1)
    bands = tuple((i, *_mid(ks, 1), _near(rng, 1.33)) for i in range(3))
    slots.append(("m3k4-atm", SurfaceSpec((ks,) * 3, _smile(rng), bands), ()))
    # m=2, 5 strikes: ATM bump, the bumped node pinned by a calibration mark
    ks = _grid(5, 0.9, 1.1)
    bands = ((0, *_mid(ks, 2), _near(rng, 1.25)),)
    slots.append(("m2k5-atm-mark", SurfaceSpec((ks,) * 2, _smile(rng), bands), ((0, 2),)))
    # m=2, 8 strikes: skew steepening (low wing up, high wing down) on the far smile
    ks = _grid(8)
    up, down = _near(rng, 1.4), _near(rng, 0.65)
    bands = ((1, 0.8, 0.93, up), (1, 1.07, 1.2, down))
    slots.append(("m2k8-skew", SurfaceSpec((ks,) * 2, _smile(rng), bands), ()))
    # m=2, 5 strikes: far smile flattened below the near one (calendar)
    ks = _grid(5, 0.9, 1.1)
    bands = ((1, 0.8, 1.2, _near(rng, 0.7)),)
    slots.append(("m2k5-far-flat", SurfaceSpec((ks,) * 2, _smile(rng), bands), ()))
    # m=2, 7 strikes: mild uniform bump of the far smile, still arbitrage-free
    ks = _grid(7)
    bands = ((1, 0.8, 1.2, _near(rng, 1.03)),)
    slots.append(("m2k7-clean", SurfaceSpec((ks,) * 2, _smile(rng), bands), ()))
    return slots


def _repair_outcome(result, stressed, marks, e_tol: float) -> Outcome:
    if isinstance(result, Exception):
        return Outcome(failed=True, reason=f"raised {type(result).__name__}: {result}")
    out = Outcome()
    d = result.diagnostics
    mags = [v.magnitude for v in result.report_after.violations]
    out.violation_after = max(mags) if mags else 0.0
    if d.get("converged") is False:
        out.failed, out.reason = True, f"not converged after {d['iterations']} sweeps"
    elif not result.report_after.feasible:
        kinds = sorted({v.kind for v in result.report_after.violations})
        out.failed = True
        out.reason = f"report_after infeasible: {kinds} max {out.violation_after:.3g}"
    for i, j in marks:
        err = abs(float(result.repaired_surface.prices[i][j]) - float(stressed.prices[i][j]))
        if err > e_tol:
            out.failed, out.silent = True, True
            out.reason = f"mark ({i},{j}) off by {err:.3g} > e_tol {e_tol:g}"
    out.digest = _sha(
        np.ascontiguousarray(result.mu).tobytes(),
        *(np.ascontiguousarray(p).tobytes() for p in result.repaired_surface.prices),
    )
    return out


def repair_entropic(vr, seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = [_entropic_op(vr, *slot) for slot in _entropic_slots(rng)]
    # two m=2 slots run twice: six of seven ops sit near the median, and the
    # repeats must reproduce their first outputs byte for byte
    ops += ops[1:3]
    # warm-up: m=1 repair, same code path at a fraction of the cost
    ks = _grid(8)
    spec = SurfaceSpec((ks,), _smile(rng), ((0, *_mid(ks, 4), 1.25),))
    return Workload(
        "repair_entropic",
        ops,
        _entropic_op(vr, "warmup", spec, ()),
        deadline_s=60.0,
        batch_s=30.0,
    )


def _entropic_op(vr, label, spec, marks=()) -> Op:
    stressed = make_surface(vr, spec)
    config = vr.RepairConfig(
        mode="entropic", epsilon=EPSILON, e_tol=E_TOL, calibration_marks=marks
    )
    mod = vr.repair_module
    return Op(
        label,
        _sha(repr((spec, marks, EPSILON, E_TOL)).encode()),
        call=lambda: mod.repair(stressed, config),
        judge=lambda r: _repair_outcome(r, stressed, marks, E_TOL),
    )


# check_pathspace -------------------------------------------------------------

# One batch, in run order: (m, strikes per maturity) of a clean surface, or
# "lponly" for the next LP-only surface. Every clean op is its own draw, so a
# batch averages over the simplex's pivot counts, which jump with small input
# changes (670-840 pivots for m=3/5 strikes, 4.9k-9.2k for m=3/7 strikes).
# Times are for a 2-core x86 host. Each of four dear slots opens a segment
# of fifteen m=3/5-strike detects (0.2 s) and five m=2/14-strike ones
# (0.4-0.6 s, 2.2k-2.4k pivots), 84 ops in all. The median falls among the
# m=3/5-strike detects. The tail, the 74th of 84 and the highest with ten
# samples beyond it, falls in the middle of the m=2/14-strike ones: a burst
# of host slowness has to hit several of these longer ops to move it. Above
# them lie one m=4/3-strike detect (2 s) and one m=3/7-strike detect (3-7 s).
DETECT_DEAR = ((4, 3), "lponly", (3, 7), "lponly")
DETECT_SEGMENT = ((3, 5), (3, 5), (3, 5), (2, 14)) * 5
DETECT_BATCH = tuple(x for dear in DETECT_DEAR for x in (dear,) + DETECT_SEGMENT)
LP_ONLY_MATURITIES = (2, 3)


def check_pathspace(vr, seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    lp_only = iter(find_lp_only(rng, LP_ONLY_MATURITIES))
    items: list[tuple[str, SurfaceSpec, bool]] = []
    for i, slot in enumerate(DETECT_BATCH):
        if slot == "lponly":
            spec = next(lp_only)
            items.append((f"{i:02d}-m{spec.m}k{len(spec.strikes[-1])}-lponly", spec, False))
        else:
            m, n_k = slot
            spec = SurfaceSpec((_grid(n_k),) * m, _smile(rng))
            items.append((f"{i:02d}-m{m}k{n_k}-clean", spec, True))
    ops = [_detect_op(vr, label, spec, truth) for label, spec, truth in items]
    warm = _detect_op(vr, "warmup", SurfaceSpec((_grid(4),) * 2, _smile(rng)), True)
    return Workload("check_pathspace", ops, warm, deadline_s=20.0, batch_s=30.0)


def _detect_op(vr, label, spec, truth: bool) -> Op:
    surface = make_surface(vr, spec)
    mod = vr.constraints

    def judge(report) -> Outcome:
        if isinstance(report, Exception):
            return Outcome(failed=True, reason=f"raised {type(report).__name__}: {report}")
        out = Outcome(digest=_sha(json.dumps(report.to_json_dict(), sort_keys=True).encode()))
        if report.feasible != truth:
            out.failed, out.silent = True, True
            out.reason = f"verdict feasible={report.feasible}, label feasible={truth}"
        return out

    return Op(
        label,
        _sha(repr((spec, truth)).encode()),
        call=lambda: mod.detect_arbitrage(surface),
        judge=judge,
    )


# cli_desk ------------------------------------------------------------------


def quotes_csv(spec: SurfaceSpec, stressed: bool) -> str:
    """Quote file in currency units; puts from call-put parity."""
    lines = ["maturity_years,strike,call_mid,put_mid,volume"]
    for i, (ks, cs) in enumerate(zip(spec.strikes, spec.prices(stressed))):
        for k, c in zip(ks, cs):
            strike = k * FORWARD
            call = c * FORWARD * DISCOUNT
            put = call - DISCOUNT * (FORWARD - strike)
            lines.append(f"{MATURITIES[i]!r},{strike!r},{call!r},{put!r},1")
    return "\n".join(lines) + "\n"


def scenario_json(spec: SurfaceSpec, marks) -> str:
    bands = [
        {"maturities": [i], "lo": lo, "hi": hi, "mult": mult}
        for i, lo, hi, mult in spec.bands
    ]
    return json.dumps({"bands": bands, "calibration_marks": [list(x) for x in marks]})


def cli_desk(vr, seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    inputs = scratch / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def desk(name, strikes, m, bands=(), stressed=False):
        spec = SurfaceSpec((strikes,) * m, _smile(rng), tuple(bands))
        path = inputs / f"{name}.csv"
        path.write_text(quotes_csv(spec, stressed))
        return spec, path

    def atm(ks, m, mult, j=None):
        j = len(ks) // 2 if j is None else j
        return tuple((i, *_mid(ks, j), _near(rng, mult)) for i in range(m))

    k8, k20, k30, k3, k4 = _grid(8), _grid(20, 0.8, 1.2), _grid(30, 0.8, 1.2), _grid(3, 0.9, 1.1), _grid(4, 0.9, 1.1)
    _, a_csv = desk("m1k8", k8, 1)
    spec_e, e_csv = desk("m1k20-arb", k20, 1, atm(k20, 1, 1.35), stressed=True)
    spec_b, b_csv = desk("m1k30", k30, 1)
    spec_c, c_csv = desk("m2k3", k3, 2)
    spec_d, d_csv = desk("m2k4", k4, 2)

    def scen(name, spec, bands, marks):
        path = inputs / f"{name}.json"
        path.write_text(scenario_json(SurfaceSpec(spec.strikes, spec.smile, bands), marks))
        return path

    b_scen = scen("m1k30-atm", spec_b, atm(k30, 1, 1.25), [(0, 15)])
    c_scen = scen("m2k3-atm", spec_c, atm(k3, 2, 1.3), [])
    d_scen = scen("m2k4-atm", spec_d, atm(k4, 2, 1.3, j=1), [(1, 1)])

    out_root = scratch / "out"
    ops = [
        _cli_check(vr, "check-m1k8", a_csv, out_root, clean=True),
        _cli_check(vr, "check-m2k3", c_csv, out_root, clean=True),
        _cli_check(vr, "check-m1k20-arb", e_csv, out_root, clean=False),
        _cli_repair(vr, "repair-m1k20-arb", e_csv, None, out_root),
        _cli_repair(vr, "repair-m1k30-clean", b_csv, None, out_root),
        _cli_repair(vr, "repair-m1k30-scen", b_csv, b_scen, out_root),
        _cli_repair(vr, "repair-m2k3-clean", c_csv, None, out_root),
        _cli_repair(vr, "repair-m2k3-scen", c_csv, c_scen, out_root),
        _cli_repair(vr, "repair-m2k4-clean", d_csv, None, out_root),
        _cli_repair(vr, "repair-m2k4-scen", d_csv, d_scen, out_root),
    ]
    warm = _cli_repair(vr, "warmup", a_csv, None, out_root)
    # a batch is one round of the ten ops; a 30 s run does ten rounds. In
    # cost order a round is three checks (5 ms), one m=1/20-strike repair
    # (0.12 s), two m=2/3-strike repairs (0.2 s), two m=1/30-strike repairs
    # (0.4 s) and two m=2/4-strike repairs (0.8 s), so the median sits in the
    # middle of the m=2/3-strike repairs and the tail (90th of 100) in the
    # middle of the m=2/4-strike ones. Every op repeats and must reproduce
    # its bytes.
    return Workload(
        "cli_desk",
        ops,
        warm,
        deadline_s=10.0,
        batch_s=3.0,
        cleanup=lambda: shutil.rmtree(scratch, ignore_errors=True),
    )


def _dir_bytes(out: Path) -> tuple[int, str]:
    files = sorted(p for p in out.iterdir() if p.is_file())
    blobs = [(p.name.encode(), p.read_bytes()) for p in files]
    return sum(len(b) for _, b in blobs), _sha(*(x for pair in blobs for x in pair))


def _cli_check(vr, label, csv: Path, out_root: Path, clean: bool) -> Op:
    out = out_root / label
    argv = ["check", str(csv), "--out", str(out)]

    def judge(code) -> Outcome:
        if isinstance(code, Exception):
            return Outcome(failed=True, reason=f"raised {type(code).__name__}: {code}")
        size, digest = _dir_bytes(out)
        res = Outcome(digest=digest, bytes_written=size)
        want = 0 if clean else 2
        if code != want:
            res.failed, res.silent = True, True
            res.reason = f"check exited {code}, expected {want}"
        return res

    return Op(
        label,
        _sha(b"check", csv.read_bytes()),
        call=lambda: vr.cli.main(argv),
        judge=judge,
        prepare=lambda: shutil.rmtree(out, ignore_errors=True),
    )


def _cli_repair(vr, label, csv: Path, scenario: Path | None, out_root: Path) -> Op:
    out = out_root / label
    argv = ["repair", str(csv), "--mode", "lp_exact", "--out", str(out)]
    marks = []
    if scenario is not None:
        argv += ["--scenario", str(scenario)]
        marks = json.loads(scenario.read_text())["calibration_marks"]
    e_tol = vr.RepairConfig().e_tol

    def judge(code) -> Outcome:
        if isinstance(code, Exception):
            return Outcome(failed=True, reason=f"raised {type(code).__name__}: {code}")
        if code != 0:
            return Outcome(failed=True, reason=f"repair exited {code}")
        size, digest = _dir_bytes(out)
        res = Outcome(digest=digest, bytes_written=size)
        report = json.loads((out / "report.json").read_text())
        after = report["violations_after"]
        res.violation_after = max((v["magnitude"] for v in after), default=0.0)
        if not report["feasible_after"]:
            res.failed = True
            res.reason = f"feasible_after false, max violation {res.violation_after:.3g}"
        smiles = (out / "smiles.csv").read_text().splitlines()[1:]
        by_mat: dict[str, list[list[str]]] = {}
        for row in smiles:
            cells = row.split(",")
            by_mat.setdefault(cells[0], []).append(cells)
        mats = sorted(by_mat, key=float)
        for i, j in marks:
            cells = by_mat[mats[i]][j]
            err = abs(float(cells[6]) - float(cells[4]))
            if err > e_tol:
                res.failed, res.silent = True, True
                res.reason = f"mark ({i},{j}) off by {err:.3g} > e_tol {e_tol:g}"
        return res

    return Op(
        label,
        _sha(b"repair", csv.read_bytes(), scenario.read_bytes() if scenario else b""),
        call=lambda: vr.cli.main(argv),
        judge=judge,
        prepare=lambda: shutil.rmtree(out, ignore_errors=True),
    )


WORKLOADS = {
    "repair_entropic": repair_entropic,
    "check_pathspace": check_pathspace,
    "cli_desk": cli_desk,
}
