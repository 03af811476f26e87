"""Correctness checks on the outputs of one round.

Every check compares an output with an independent computation or with a
property of the method, never with a stored copy of an earlier output. The
functions take plain dicts and arrays, so tests can corrupt a result and show
that the check fails on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# max|P0 + cum - 1| on a record; the fast rate measures 2.5e-5 at dt = 1e-6
BUDGET_TOL = 1e-4
# |int G + never detected - 1|; the fast rate measures 2.3e-3 at dt2 = 1e-5,
# and a G off by 5% moves it by more than 0.04
CLOSURE_TOL = 1e-2
FREE_PROPAGATION_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _trapz(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def check_ref_study(out: dict, expect: dict, rates: tuple) -> list[Check]:
    checks = []
    missing = [tag for tag in rates if tag not in out]
    checks.append(Check("all rates ran", not missing, f"missing {missing}"))
    for tag in rates:
        if tag not in out:
            continue
        r = out[tag]
        budget = float(np.max(np.abs(r["survival_p0"] + r["cumulative"] - 1.0)))
        checks.append(
            Check(f"{tag}: P0 + cum = 1", budget < BUDGET_TOL, f"{budget:.2e}")
        )

        times = r["times"]
        idx = np.round((r["entry_times"] - times[0]) / (times[1] - times[0]))
        w1_at_entry = r["density_w1"][idx.astype(int)]
        rel = float(np.max(np.abs(r["norms_sq"] / w1_at_entry - 1.0)))
        checks.append(Check(f"{tag}: reset norm = w1", rel < 1e-10, f"{rel:.2e}"))

        if tag in expect["paper_peaks_s"]:
            peak = float(times[int(np.argmax(r["density_w1"]))])
            dev = peak / expect["paper_peaks_s"][tag] - 1.0
            checks.append(
                Check(f"{tag}: peak within 15% of paper", abs(dev) < 0.15, f"{dev:+.3f}")
            )

        tau, g = r["tau"], r["g_tau"]
        checks.append(Check(f"{tag}: G >= 0", float(np.min(g)) >= 0.0, f"{np.min(g):.2e}"))
        total = _trapz(g, tau)
        checks.append(Check(f"{tag}: total > 0.9", total > 0.9, f"{total:.4f}"))
        closure = total + r["never_detected"] - 1.0
        checks.append(
            Check(
                f"{tag}: int G + never detected = 1",
                abs(closure) < CLOSURE_TOL,
                f"{closure:+.2e}",
            )
        )
        mean = _trapz(tau * g, tau) / total
        checks.append(
            Check(
                f"{tag}: reported mean matches G",
                _rel(r["mean_s"], mean) < 1e-9,
                f"{r['mean_s']:.6e} vs {mean:.6e}",
            )
        )
        dev = mean / expect["transit_s"] - 1.0
        checks.append(
            Check(f"{tag}: mean within 10% of d/v0", abs(dev) < 0.10, f"{dev:+.3f}")
        )
    if "free_propagation_rel_err" in out:
        err = out["free_propagation_rel_err"]
        checks.append(
            Check(
                "free split-step = analytic packet",
                err < FREE_PROPAGATION_TOL,
                f"{err:.2e}",
            )
        )
    return checks


def check_sweep(out: dict, expect: dict) -> list[Check]:
    if not out.get("probe_passed"):
        return [Check("convergence probe passed", False, "scaling_sweep did not finish")]
    checks = [Check("convergence probe passed", True, "gate_first=True")]
    m, hbar, d = expect["mass"], expect["hbar"], expect["distance"]
    energy = 0.5 * m * np.asarray(expect["v0"]) ** 2
    rel = float(np.max(np.abs(out["energy"] / energy - 1.0)))
    checks.append(Check("energies = m v0^2 / 2", rel < 1e-12, f"{rel:.2e}"))
    slope = float(np.polyfit(np.log(energy), np.log(out["std_s"]), 1)[0])
    exponent = out["exponent"]
    checks.append(
        Check(
            "reported exponent matches the fit",
            abs(exponent - slope) < 1e-9,
            f"{exponent:.6f} vs {slope:.6f}",
        )
    )
    checks.append(
        Check("exponent in [-0.85, -0.65]", -0.85 <= exponent <= -0.65, f"{exponent:.4f}")
    )
    totals = np.asarray(out["total"])
    checks.append(
        Check("every total > 0.9", bool(np.all(totals > 0.9)), f"{totals.min():.4f}")
    )
    # closed-form optimum sqrt(5 hbar d sqrt(m/2)) E^(-3/4)
    dtau_opt = np.sqrt(5.0 * hbar * d * np.sqrt(m / 2.0)) * energy**-0.75
    ratio = np.asarray(out["std_s"]) / dtau_opt
    checks.append(
        Check(
            "std(G) within a factor 2 of delta_tau_opt",
            bool(np.all((ratio > 0.5) & (ratio < 2.0))),
            " ".join(f"{v:.3f}" for v in ratio),
        )
    )
    return checks


def _masked_l1(table: np.ndarray, half_width: float) -> float:
    x, a, b = table[:, 0], table[:, 1], table[:, 2]
    keep = (x < -half_width) | (x > half_width)
    dx = x[1] - x[0]
    a, b = a[keep], b[keep]
    return float(np.sum(np.abs(a / (np.sum(a) * dx) - b / (np.sum(b) * dx))) * dx)


def check_oracle(out: dict, expect: dict, commands: list[str]) -> list[Check]:
    codes = out["exit_codes"]
    bad = {k: v for k, v in codes.items() if v != 0}
    missing = [c for c in commands if c not in codes]
    checks = [
        Check("every exit code is 0", not bad and not missing, f"bad {bad} missing {missing}")
    ]
    decay_a = 2.0 * np.pi * expect["coupling"] ** 2 * expect["omega_0"] / expect["omega_max"]
    for name, res in out["discrete"].items():
        summary = res["summary"]
        l1 = _masked_l1(res["table"], 2.0 * expect["bath_sigma"])
        reported = summary["l1_masked"]
        checks.append(
            Check(
                f"{name}: masked L1 < 0.05",
                reported < 0.05 and l1 < 0.05,
                f"{reported:.2e}",
            )
        )
        checks.append(
            Check(
                f"{name}: reported L1 matches the CSV",
                abs(reported - l1) < 1e-8,
                f"{reported:.3e} vs {l1:.3e}",
            )
        )
        rel = _rel(summary["decay_a_per_second"], decay_a)
        checks.append(Check(f"{name}: decay_a = 2 pi g^2 w0 / w_max", rel < 1e-12, f"{rel:.2e}"))
    if "kijowski" in out:
        t, pi_k = out["kijowski"]["table"][:, 0], out["kijowski"]["table"][:, 1]
        norm = _trapz(pi_k, t)
        reported = out["kijowski"]["summary"]["normalization_on_grid"]
        checks.append(
            Check(
                "Kijowski normalisation within 1e-3 of 1",
                abs(norm - 1.0) < 1e-3 and _rel(reported, norm) < 1e-9,
                f"{norm:.6f} (reported {reported:.6f})",
            )
        )
    if "reset" in out:
        summary = out["reset"]["summary"]
        dens = out["reset"]["table"][:, 1]
        x_min, x_max, n = expect["grid"]
        dx = (x_max - x_min) / n
        x = x_min + dx * np.arange(n)
        a, b = expect["detector1"]
        outside = (x < a) | (x >= b)
        leak = float(np.max(dens[outside]))
        checks.append(Check("reset density zero outside detector 1", leak == 0.0, f"{leak:.2e}"))
        norm = float(np.sum(dens) * dx)
        rel = _rel(norm, summary["norm_sq"])
        checks.append(Check("reset density integrates to norm_sq", rel < 1e-9, f"{rel:.2e}"))
        mean = np.sum(x * dens) * dx / norm
        std_x = float(np.sqrt(np.sum((x - mean) ** 2 * dens) * dx / norm))
        rel = _rel(summary["std_x_meters"], std_x)
        checks.append(Check("reported std_x matches the CSV", rel < 1e-6, f"{rel:.2e}"))
        product = summary["std_x_meters"] * summary["std_p_kg_m_per_s"]
        ratio = product / (0.5 * expect["hbar"])
        checks.append(Check("std_x std_p >= hbar/2", ratio >= 1.0, f"{ratio:.4f}"))
    return checks
