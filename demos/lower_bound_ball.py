"""Lower bound on the blow-up time for the unit ball.

For F = u^2 v^2 the growth condition u^3 f1 + v^3 f2 <= 2(u^6 + v^6)
follows from (u^3 - v^3)^2 >= 0, so the lower-bound pipeline applies with
p = 2 and k1 = k2 = 2.  On the unit ball the geometric constants are
rho = d = 1.  The bound integral, which the library evaluates in closed
form, is compared against a deliberately dumb trapezoid rule.
"""

import numpy as np

from rdblowup.bounds import MODE_A2PRIME, lower_bound_pipeline
from rdblowup.geometry import DomainSpec
from rdblowup.nonlinearity import make_power_product
from rdblowup.oracle import brute_force_integral


def main():
    nl = make_power_product(1.0, 2.0, 2.0)
    ball = DomainSpec("ball", 3, radius=1.0)
    res = lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0,
                               mode=MODE_A2PRIME)

    print(f"geometry: rho = {res.rho}, d = {res.d}")
    print(f"admissible beta = {res.beta:.9f} (beta1 = {res.beta1:.9f}, "
          f"beta2 = {res.beta2:.9f})")
    print(f"K1 = {res.K1:.9f}, K2 = {res.K2:.9f}")
    print(f"scriptE(0) = {res.scriptE0:.9f}")
    print(f"t_lower = {res.t_lower:.9e} "
          f"(rounding bound {res.integral_abs_error:.1e})")

    w_top = 1.0 / np.sqrt(res.scriptE0)
    trap = brute_force_integral(
        lambda w: 2.0 * w**3 / (res.K1 * w**3 + res.K2), 0.0, w_top, 400000)
    print(f"trapezoid oracle     = {trap:.9e} "
          f"(difference {abs(trap - res.t_lower):.1e})")


if __name__ == "__main__":
    main()
