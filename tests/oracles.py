"""Reference rate formulas of the agent model, written out per agent: the
test oracles for the event loop's rates in `epigame.abm`."""

from epigame import InfluenceGraph, ModelParams, Population
from epigame.abm import INFECTED, PROTECTION, SUSCEPTIBLE
from epigame.meanfield import imitation_rates


def node_payoffs(g: InfluenceGraph, pop: Population, p: ModelParams):
    """Per-node payoffs (pi1, pi0): neighbourhood adoption share plus risk
    perception, and the complementary share plus the protection cost."""
    return imitation_rates(g, pop.behaviours.astype(float), pop.y_bar, p)[:2]


def switch_rates(g: InfluenceGraph, pop: Population, p: ModelParams):
    """Imitation rates (q01, q10); q01 drives adoption of non-adopters only,
    q10 drives dropping by adopters only."""
    return imitation_rates(g, pop.behaviours.astype(float), pop.y_bar, p)[2:]


def infection_rate(pop: Population, i: int, p: ModelParams, bidirectional: bool = True) -> float:
    """Poisson rate at which susceptible agent i becomes infected.

    lam * (1 - x_i) / (n - 1) * (n * a_i * y_bar + sum of infected activities);
    with one-directional transmission only contacts initiated by the infected
    count (the second term).
    """
    if pop.healths[i] != SUSCEPTIBLE:
        raise ValueError(f"agent {i} is not susceptible")
    if pop.behaviours[i] == PROTECTION:
        return 0.0
    n = pop.n
    infected_activity = float(pop.activities[pop.healths == INFECTED].sum())
    pressure = infected_activity
    if bidirectional:
        pressure += n * float(pop.activities[i]) * pop.y_bar
    return p.lam / (n - 1) * pressure
