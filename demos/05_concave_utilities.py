"""Concave exploitation: weight several arms under a packing constraint.

Instead of committing to one arm, exploitation assigns weights y_i in [0,1]
with sum sigma_i y_i <= B, collecting a concave super-martingale utility
g_u(y_i) per arm.  The LP discretizes weights on a 1/L grid; the rounded
policy runs arms greedily, stops once the tentative weights fill B, and then
halves every weight, which restores feasibility at a factor-2 value loss
(so the guarantee is (1 - eps)/8 of the LP bound).
"""

from fractions import Fraction

from banditlp import (
    as_concave,
    evaluate_plan_exact,
    execute_concave_greedy,
    extract_single_arm_policies,
    gen_integrality_gap,
    make_greedy_plan,
    monte_carlo_evaluate,
    solve_relaxation,
)

base = gen_integrality_gap(3)
inst = as_concave(base, capacity=1.0, epsilon=0.25)  # g_u(y) = r_u * y, sigma = 1
prob = inst.objective.concave
print(f"grid L = {prob.grid} (ceil(n/eps)), capacity B = {prob.capacity}")

solution = solve_relaxation(inst)
policies = extract_single_arm_policies(solution, inst)
print("gamma* =", round(solution.gamma_star, 6))
for pol in policies:
    print(f"  {pol.arm_id}: expected weight P={pol.explore_prob:.3f}, value R={pol.reward:.3f}, cost C={pol.cost:.3f}")

plan = make_greedy_plan(policies, inst, "concave")
trace = execute_concave_greedy(inst, plan, solution, rng_seed=5)
print("\none run's final weights (after the halving step):", trace.weights)
packed = sum(Fraction(int(prob.sigmas[a])) * Fraction(n, 2 * trace.grid) for a, n in trace.weight_numerators.items())
print(f"packed mass {packed} <= B = {int(prob.capacity)} (exact rational check)")
print("run value:", round(trace.value, 6))

value, cost = evaluate_plan_exact(inst, plan, solution)  # every reachable run, audited
mc = monte_carlo_evaluate(inst, plan, solution, reps=50_000, seed=11)
bound = (1 - prob.epsilon) * solution.gamma_star / 8
print(f"\nexact value {value:.4f} (expected cost {cost:.4f}) >= (1-eps) gamma*/8 = {bound:.4f}")
print(f"Monte-Carlo value {mc.mean:.4f} +- {mc.stderr:.4f}")
print("invariant violations:", mc.violations)
