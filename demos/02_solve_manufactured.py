"""Manufactured-solution round trip: pick a potential phi*, form the
density f = F(phi*), and let the damped Newton solver recover phi* from f.
"""

import numpy as np

import akcy
from akcy.structure import default_generator

chart = akcy.build_grid(2, [12, 12, 12, 12])
recipe = akcy.StructureRecipe(
    kind="twisted", generator=default_generator(2),
    amplitude=0.12, profile="sin_x1_cos_y2",
)
s = akcy.twisted_structure(chart, recipe)

# phi* from the builtin candidate list, scaled well inside the taming cone
cand = {c.name: c for c in akcy.default_candidates(2)}["prod_x2_y1"]
phi_star = akcy.project_zero_mean(s, 0.01 * cand.sample(chart)).values
print("taming margin at phi*:", akcy.taming_margin(s, phi_star))

f = akcy.F_total(s, phi_star)
print(f"target density range: [{f.min():.6f}, {f.max():.6f}]")

pot, rep = akcy.newton_solve(s, f, tol=1e-10)
print(f"converged={rep.converged} in {rep.iters} iterations, "
      f"residual {rep.residual:.2e}")
print("iter  residual      margin      step   lin_res")
for it, res, margin, step, lin_res in rep.trace:
    print(f"{it:4d}  {res:.3e}  {margin:.6f}  {step:.3f}  {lin_res:.3e}")

err = np.abs(pot.values - phi_star).max()
print("recovery error |phi - phi*|_inf:", err)

# a second start from a random perturbation lands on the same solution
rng = np.random.default_rng(3)
init = 1e-3 * akcy.random_potential(2, rng).sample(chart)
pot2, _ = akcy.newton_solve(s, f, phi_init=init, tol=1e-10)
print("init independence gap:", np.abs(pot.values - pot2.values).max())
