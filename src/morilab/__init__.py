"""morilab: stability of relaxation dynamics under Mori-chain perturbations.

Build coefficient chains for chosen decay classes, evolve them, perturb the
coefficients with band-limited seeded noise, and quantify how far the
perturbed dynamics leave their class.
"""

__version__ = "0.1.0"
