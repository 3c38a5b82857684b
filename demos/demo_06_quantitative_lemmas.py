"""The two quantitative lemmas as numeric routines.

* The doubling iteration: sequences satisfying
  A_{k+1} <= M0 delta0^(2^(k+1)) + M0^k A_k^2 are certified against the
  closed-form bound a_k = M0^-(k+2) (M0^4 delta0^2)^(2^(k-1)), entirely in
  log space (the terms underflow doubles near k = 30).
* The layer-adapted interpolation inequality: the ratio of its two sides
  is measured on random band-limited fields, giving the constant a proof
  would have to supply.

Run:  python demos/demo_06_quantitative_lemmas.py
"""

import numpy as np

from hydrostat import BoundParams, ladyzhenskaya_ratio, moser_bound_check
from hydrostat.estimates import (growth_envelope, iteration_base,
                                 iteration_weight_integral,
                                 perturbation_response, random_instance,
                                 saturated_instance)
from hydrostat.spectral import (Grid, PhysicalField, dealias,
                                field_from_function, to_spectral)

# --- iteration lemma ------------------------------------------------------------
inst = saturated_instance(2.0, 0.1, 40)
verdict = moser_bound_check(inst)
print("saturated recursion, M0 = 2, delta0 = 0.1, k <= 40:")
print(f"  verdict: {verdict.status}")
print(f"  log10 A_40 = {inst.log_terms[-1] / np.log(10):.3e} "
      f"(hopeless outside log space)")
print(f"  a_1 identity: log a_1 - log(M0 delta0^2) = "
      f"{verdict.log_certified[0] - (np.log(2.0) + 2 * np.log(0.1)):.1e}")

rng = np.random.default_rng(0)
bad = sum(0 if moser_bound_check(random_instance(rng)).ok else 1 for _ in range(2000))
print(f"  2000 randomized hypothesis-satisfying instances: {bad} violations")

# --- layer inequality -------------------------------------------------------------
grid = Grid.make(32, 32, 32, 0.5)
one = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
r = ladyzhenskaya_ratio(one, one, one)
print(f"\nconstant fields at 2h = 1: lhs = {r.lhs:.3f}, ratios = "
      f"({r.ratio1:.3f}, {r.ratio2:.3f})  [exactly 1 by hand computation]")

worst = 0.0
for seed in range(50):
    rng = np.random.default_rng(seed)
    triple = [dealias(to_spectral(PhysicalField(
        grid, rng.standard_normal((1,) + grid.physical_shape)))) for _ in range(3)]
    rr = ladyzhenskaya_ratio(*triple)
    worst = max(worst, rr.ratio1, rr.ratio2)
print(f"max empirical constant demand over 50 random triples: {worst:.4f}")

# --- closed-form bound evaluators --------------------------------------------------
p = BoundParams(c0=1.0, c=1.0, c0_star=1.0)
print("\nclosed-form evaluators with unit constants:")
print(f"  sup-norm growth envelope at t = 0, small data: "
      f"{growth_envelope(0.0, 0.0, p.c0):.6f} (= e)")
print(f"  perturbation response rho(0) = "
      f"{perturbation_response(0.0, 1.0, 0.5, p)} and rho(1e-25) = "
      f"{perturbation_response(1e-25, 1.0, 0.5, p):.3e}")
s1 = iteration_weight_integral(0.25, 0.2, p)
print(f"  iteration base M0(0.25) = {iteration_base(0.25, s1, 0.5, p):.3e} "
      f"(>= 2 always; the 2^80 term dominates)")
