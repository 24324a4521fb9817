"""Independent references the benchmark checks rdblowup's outputs against.

Nothing here imports rdblowup.  Every expectation comes from the
mathematics: the Euler identity of homogeneous potentials, exact integrals
of spatially constant data, the closed-form blow-up time of the flat
power-product problem, separable Robin heat modes, the absorption case
split, and a composite trapezoid rule (with one Richardson step) for the
lower-bound integral.
"""

import math

import numpy as np

# Hypothesis checks report "holds" iff margin >= -HOLD_TOL (documented
# behaviour of the sampled checks).
HOLD_TOL = 1e-9


# --- domains --------------------------------------------------------------

def box_volume(half):
    return math.prod(2.0 * L for L in half)


def box_surface(half):
    """Total boundary measure of the box prod [-L_i, L_i]."""
    sides = [2.0 * L for L in half]
    return 2.0 * sum(math.prod(sides[:i] + sides[i + 1:]) for i in range(len(sides)))


def ball_volume(radius):
    return 4.0 / 3.0 * math.pi * radius**3


def geometry_constants(half=None, radius=None):
    """rho = min over the boundary of x.n and d = max |x| for a centred
    box or ball."""
    if radius is not None:
        return radius, radius
    return min(half), math.sqrt(sum(L * L for L in half))


# --- potentials and hypothesis margins ------------------------------------

def shape_value(shape, w):
    kind, arg = shape
    if kind == "constant":
        return arg
    if kind == "power":
        return w**arg
    return math.exp(-w)  # exp_decay


def potential(nl, u, v):
    """F(u, v) for the config families that have a potential."""
    if nl["family"] == "power_product":
        return nl["c"] * u ** nl["a"] * v ** nl["b"]
    m = 2.0 * (1.0 + nl["alpha"])
    return nl["c"] * u**m * shape_value(nl["shape"], v / u)


def scaled_margin(lhs, rhs):
    """(lhs - rhs) / (|lhs| + |rhs|), the scaling of an integral condition."""
    return (lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def h1_margin(nl, alpha):
    """Closed-form H1 margin, or None where only its sign is known.

    A potential homogeneous of degree m with u*f1 = (m - m') F and
    v*f2 = m' F has slack (m - 2(1+alpha)) F on the whole box, so the
    scaled margin is the constant (m - m_h) / (|m - m'| + m' + m_h).
    """
    m_h = 2.0 * (1.0 + alpha)
    if nl["family"] == "power_product":
        m, m_v = nl["a"] + nl["b"], nl["b"]
    else:
        m = 2.0 * (1.0 + nl["alpha"])
        kind, arg = nl["shape"]
        if kind == "exp_decay":
            return None
        m_v = 0.0 if kind == "constant" else arg
    return (m - m_h) / (abs(m - m_v) + m_v + m_h)


def h1_holds(nl, alpha):
    """H1 holds iff the degree of homogeneity is at least 2(1+alpha)."""
    degree = nl["a"] + nl["b"] if nl["family"] == "power_product" else 2.0 * (1.0 + nl["alpha"])
    return degree >= 2.0 * (1.0 + alpha)


def a2prime_margin(c, m, k):
    """A2' margin for F = c u^m v^m with p = 2m - 2 and k1 = k2 = k.

    By weighted AM-GM the left side is at most c*m*(u^3p + v^3p), with
    equality on the diagonal u = v, so the worst scaled slack is
    (k - c m) / (k + c m).
    """
    return (k - c * m) / (k + c * m)


# --- constant-data energies -------------------------------------------------

def constant_data_energies(nl, c1, c2, gamma1, gamma2, alpha, half):
    """E(0), J(0) and the H2/H3 margins for spatially constant data on a box."""
    V, S = box_volume(half), box_surface(half)
    two_int_F = 2.0 * potential(nl, c1, c2) * V
    b1, b2 = gamma1 * c1 * c1 * S, gamma2 * c2 * c2 * S
    E0 = (c1 * c1 + c2 * c2) * V
    J0 = 2.0 * (1.0 + alpha) * (two_int_F - b1 - b2)
    return {"E0": E0, "J0": J0,
            "H2": scaled_margin(two_int_F, b1), "H3": scaled_margin(two_int_F, b2)}


# --- lower bound ------------------------------------------------------------

def lower_bound_constants(p, k1, k2, rho, d):
    """Largest admissible betas and the constants K1, K2 of the growth
    inequality scriptE' <= K1 scriptE^(3/2) + K2 scriptE^3."""
    geom = (d / rho + 1.0) ** 1.5
    beta = min(2.0**1.5 * (2.0 * p - 1.0) / (3.0**0.25 * p * p * k * geom)
               for k in (k1, k2))
    k = max(k1, k2)
    K1 = 3.0**0.75 * p * k * rho**-1.5
    K2 = (p * k / (2.0**0.5 * 3.0**0.75)) * geom * beta**-3.0
    return K1, K2


def t_lower_trapezoid(scriptE0, K1, K2, panels=4096):
    """int_{scriptE0}^inf dxi / (K1 xi^1.5 + K2 xi^3), as
    int_0^{scriptE0^-1/2} 2 w^3 / (K1 w^3 + K2) dw by composite
    trapezoid rules at two panel counts and one Richardson step."""
    upper = 1.0 / math.sqrt(scriptE0)

    def trapezoid(n):
        w = np.linspace(0.0, upper, n + 1)
        y = 2.0 * w**3 / (K1 * w**3 + K2)
        return (float(np.sum(y)) - 0.5 * (y[0] + y[-1])) * (upper / n)

    coarse, fine = trapezoid(panels // 2), trapezoid(panels)
    return fine + (fine - coarse) / 3.0


# --- absorption classifier ----------------------------------------------------

def classify_absorption(p, q, r, s, a, b):
    """Case split of f1 = v^p - a u^r, f2 = u^q - b v^s: compare pq with
    max(r,1) max(s,1); at the threshold, r or s <= 1 gives global solutions
    and otherwise a^q b^r >= 1 decides bounded-global against blow-up."""
    crit = max(r, 1.0) * max(s, 1.0)
    if p * q > crit:
        return "blowup_exists"
    if p * q < crit:
        return "all_global_bounded" if min(r, s) >= 1 else "all_global"
    if r <= 1 or s <= 1:
        return "threshold_global"
    return "threshold_global_bounded" if a**q * b**r >= 1 else "threshold_blowup_small_ab"


# --- exact solutions ----------------------------------------------------------

def flat_power_product_blowup(c, c0):
    """F = c u^2 v^2 with u0 = v0 = c0 and Neumann walls reduces to
    u' = 2 c u^3, so u = c0 (1 - 4 c c0^2 t)^(-1/2) and t* = 1/(4 c c0^2)."""
    return 1.0 / (4.0 * c * c0 * c0)


def cell_centers(n, n_dim):
    """Centres of a uniform n^N cell grid on [-1, 1]^N, C order."""
    axis = -1.0 + (2.0 / n) * (np.arange(n) + 0.5)
    grids = np.meshgrid(*([axis] * n_dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def robin_gamma(lam):
    """Robin coefficient for which cos(lam x) satisfies du/dn + gamma u = 0
    at x = +-1."""
    return lam * math.tan(lam)


def robin_mode(centers, lam, t):
    """Heat solution exp(-N lam^2 t) prod_i cos(lam x_i) on [-1, 1]^N."""
    n_dim = centers.shape[1]
    return math.exp(-n_dim * lam * lam * t) * np.prod(np.cos(lam * centers), axis=1)
