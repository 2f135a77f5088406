"""Soft energy truncation of the teleportation channel.

However energetic a coherent input, the output's mean photon number
stays below a closed-form cap; number states can go above it.  The cap
grows with the resource squeezing lambda_x and barely moves with the
measurement squeezing lambda_y.
"""
import numpy as np

from cvpbt import ChannelParams, max_output_energy, output_energy

params = ChannelParams(0.5, 0.5)
cap = max_output_energy(params)
print(f"lambda_x={params.lambda_x}, lambda_y={params.lambda_y}: coherent energy cap {cap:.6f}")
print("coherent input energy -> output energy (bounded, non-monotone):")
for u in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 1e4):
    print(f"  {u:>8.1f} -> {output_energy(u, params):.6f}")

print("\ncoherent energy cap across the parameter square:")
grid = np.linspace(0.1, 0.8, 8)
header = "lx\\ly " + " ".join(f"{ly:6.2f}" for ly in grid)
print(header)
for lx in grid:
    row = " ".join(f"{max_output_energy(ChannelParams(lx, ly)):6.3f}" for ly in grid)
    print(f"{lx:5.2f} {row}")
print("(columns nearly constant: the measurement squeezing hardly matters)")
