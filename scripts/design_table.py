"""Fiber-gap cavity design table over the resonant mirror-gap ladder.

For each mode index m the gap between the fiber facet and the flat mirror
is resonant; larger gaps leak more (gap loss grows ~d^2) while the mirror
transmission and coupling stay fixed, so the cooperativity and the peak
resonant SNR both fall down the ladder.  Prints the table and optionally
writes it as CSV.
"""
import argparse
import csv
import sys

from cavdet import (
    MHZ,
    US,
    AtomParams,
    FiberCavityDesign,
    cooperativity,
    derive,
    design_to_cavity,
    max_snr_over_pump,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length-mm", type=float, default=10.4)
    ap.add_argument("--core-um", type=float, default=5.0, help="core diameter")
    ap.add_argument("--transmission", type=float, default=0.01)
    ap.add_argument("--m-max", type=int, default=16)
    ap.add_argument("--extra-loss-mhz", type=float, default=0.0)
    ap.add_argument("--tau-us", type=float, default=10.0)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    atom = AtomParams()
    design = FiberCavityDesign(
        fiber_length=args.length_mm * 1e-3,
        core_radius=args.core_um / 2 * 1e-6,
        mirror_transmission=args.transmission,
    )

    rows = []
    for m in range(1, args.m_max + 1):
        der = derive(design, atom, mode_index=m)
        cavity = design_to_cavity(der, design.fiber_length, args.extra_loss_mhz * MHZ)
        opt = max_snr_over_pump(atom, cavity, args.tau_us * US)
        rows.append(
            {
                "m": m,
                "gap_um": 2 * der.half_gap / 1e-6,
                "kappa_gap_mhz": der.kappa_gap / MHZ,
                "kappa_t_mhz": der.kappa_t / MHZ,
                "g_mhz": der.g_max / MHZ,
                "cooperativity": cooperativity(atom, cavity),
                "max_snr": opt.snr,
            }
        )

    hdr = f"{'m':>3} {'gap um':>8} {'k_gap MHz':>10} {'kT MHz':>8} {'g MHz':>7} {'C':>7} {'max S':>8}"
    print(hdr)
    for r in rows:
        print(
            f"{r['m']:3d} {r['gap_um']:8.3f} {r['kappa_gap_mhz']:10.3f} "
            f"{r['kappa_t_mhz']:8.3f} {r['g_mhz']:7.3f} {r['cooperativity']:7.2f} "
            f"{r['max_snr']:8.2f}"
        )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"table written to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
