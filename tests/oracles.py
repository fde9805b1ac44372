"""Reference rate formulas of the agent model, written out per agent: the
test oracles for the event loop's rates in `epigame.abm`.

They share no rate code with the library. Each takes the agent vectors as
arrays: behaviours (1 protects, 0 does not), healths (1 infected, 0
susceptible) and activities. The graph is read only through its order `n`
and its out-neighbour lists `neighbors(i)`."""

import numpy as np


def _prevalence(healths) -> float:
    return sum(1 for h in healths if h == 1) / len(healths)


def node_payoffs(g, behaviours, healths, activities, p):
    """Per-node payoffs (pi1, pi0). With s_i the share of i's out-neighbours
    that protect and y_bar the prevalence: pi1_i = s_i + zeta*y_bar, the
    adoption share plus risk perception, and pi0_i = 1 - s_i + c, the
    complementary share plus the protection cost."""
    y_bar = _prevalence(healths)
    pi1, pi0 = [], []
    for i in range(g.n):
        nbrs = g.neighbors(i).tolist()
        share = sum(1 for j in nbrs if behaviours[j] == 1) / len(nbrs)
        pi1.append(share + p.zeta * y_bar)
        pi0.append(1.0 - share + p.c)
    return np.array(pi1), np.array(pi0)


def switch_rates(g, behaviours, healths, activities, p):
    """Imitation rates (q01, q10): q01_i is the mean over i's out-neighbours
    j of x_j * pi1_j, the rate at which a non-adopter i adopts, and q10_i
    that of (1 - x_j) * pi0_j, the rate at which an adopter i drops."""
    pi1, pi0 = node_payoffs(g, behaviours, healths, activities, p)
    q01, q10 = [], []
    for i in range(g.n):
        nbrs = g.neighbors(i).tolist()
        q01.append(sum(pi1[j] for j in nbrs if behaviours[j] == 1) / len(nbrs))
        q10.append(sum(pi0[j] for j in nbrs if behaviours[j] == 0) / len(nbrs))
    return np.array(q01), np.array(q10)


def infection_rate(behaviours, healths, activities, i: int, p,
                   bidirectional: bool = True) -> float:
    """Poisson rate at which susceptible agent i becomes infected.

    lam * (1 - x_i) / (n - 1) * (n * a_i * y_bar + sum of infected activities);
    with one-directional transmission only contacts initiated by the infected
    count (the second term).
    """
    if healths[i] != 0:
        raise ValueError(f"agent {i} is not susceptible")
    if behaviours[i] == 1:
        return 0.0
    n = len(healths)
    pressure = sum(float(a) for a, h in zip(activities, healths) if h == 1)
    if bidirectional:
        pressure += n * float(activities[i]) * _prevalence(healths)
    return p.lam / (n - 1) * pressure
