"""Monte Carlo atom-transit detection summary, with and without recoil.

Runs the guided transit ensemble twice (photon recoil heating on and
off), prints detection efficiency, scattered-photon budget and the dark
count calibration, and writes a per-atom summary (scattered photons, click
count, detected) to JSON.
"""
import argparse
import json
import time
from pathlib import Path

from cavdet import (
    MHZ,
    UM,
    US,
    AtomParams,
    CavityParams,
    DriveParams,
    GuideParams,
    SimConfig,
    run_ensemble,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--atoms", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pump-per-us", type=float, default=10.0)
    ap.add_argument("--threshold", type=int, default=11)
    ap.add_argument("--window-us", type=float, default=8.0)
    ap.add_argument("--dark-windows", type=int, default=20000)
    ap.add_argument("--out-dir", default="out/transit")
    args = ap.parse_args()

    atom = AtomParams()
    cavity = CavityParams(
        g_max=12.0 * MHZ, kappa_t=14.0 * MHZ, kappa_loss=14.0 * MHZ, waist=3.0 * UM
    )
    guide = GuideParams()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(
        f"{'recoil':>7} {'eff':>7} {'mean M':>8} {'dark/s':>8} "
        f"{'CI95/s':>18} {'conv range/s':>18} {'wall s':>7}"
    )
    drive = DriveParams(args.pump_per_us / US, args.window_us * US)
    for recoil in (True, False):
        sim = SimConfig(
            threshold=args.threshold,
            window=args.window_us * US,
            n_atoms=args.atoms,
            seed=args.seed,
            include_recoil=recoil,
            dark_windows=args.dark_windows,
        )
        # (m_scattered, click count) per atom; the full records are not kept
        summary = []
        t0 = time.perf_counter()
        report = run_ensemble(
            atom, cavity, drive, guide, sim,
            record_sink=lambda i, r: summary.append((r.m_scattered, int(r.click_times.size))),
        )
        wall = time.perf_counter() - t0
        lo, hi = report.dark_rate_ci
        clo, chi = report.dark_rate_convention_range
        print(
            f"{str(recoil):>7} {report.efficiency:7.3f} {report.mean_m:8.2f} "
            f"{report.dark_rate:8.1f} {f'[{lo:.0f},{hi:.0f}]':>18} "
            f"{f'[{clo:.0f},{chi:.0f}]':>18} {wall:7.1f}"
        )
        tag = "recoil" if recoil else "ballistic"
        detected = {idx for idx, _ in report.detections}
        payload = {
            "report": {
                "efficiency": report.efficiency,
                "dark_rate": report.dark_rate,
                "dark_rate_ci": [float(x) for x in report.dark_rate_ci],
                "dark_rate_convention_range": [
                    float(x) for x in report.dark_rate_convention_range
                ],
                "mean_m": report.mean_m,
                "n_atoms": report.n_atoms,
            },
            "atoms": [
                {"detected": i in detected, "m_scattered": m, "n_clicks": n_clicks}
                for i, (m, n_clicks) in enumerate(summary)
            ],
        }
        with (out_dir / f"ensemble_{tag}.json").open("w") as fh:
            json.dump(payload, fh, indent=1)
    print(f"records written to {out_dir}/")


if __name__ == "__main__":
    main()
