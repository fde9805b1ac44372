"""Exact event-driven stochastic simulation of the agent model.

Agents carry a behaviour bit (protection on/off) and an SIS health state.
Contacts follow an activity-driven process (each agent activates at its own
Poisson rate and meets a uniformly random partner); behaviour switches follow
imitation dynamics at rates built from neighbours' payoffs on the static
influence graph.

All clock rates are constant between events, so the direct stochastic
simulation method is statistically exact: waiting times are exponential in
the total rate and the event kind is chosen proportionally. Off the complete
graph the adopt and drop channels fire at constant upper bounds of their
totals instead, and each proposal is accepted with probability (true rate) /
(bound); a rejected proposal is a null event that advances the time and
changes nothing else. This thinning is exact too.

Contacts. The contact process fires at the constant total rate A = sum of
the activities and picks its pair without looking at the state, so it is a
Poisson process of its own (Perra et al. 2012). On the frozen path below
it is one channel of the event loop's clock. On every free contact path
(contact mode on any other graph, or with heterogeneous activities) the
clock splits in two, exactly, by superposition and memorylessness, as in
the next-reaction method (Gibson & Bruck 2000): the contacts come from a
stream of their own (`_Contacts`), a block at a time, and every other
channel waits -log(1 - u)/R_o for R_o the total rate of those channels.
The loop sees only the candidate contacts, those whose transmission
uniform is below lambda. A candidate before the wait's end infects if its
pair is transmissible at its time, and is then the loop's event: it is
logged as an infection at that time and the wait is drawn again from it.
A candidate that transmits nothing changes nothing, the wait included.

Thinning bounds. With ybar the prevalence and B_j the share of j's
out-neighbours that protect, non-adopter i adopts at q01_i = mean over its
out-neighbours j of x_j*(B_j + zeta*ybar), and adopter i drops at q10_i =
mean over j of (1 - x_j)*(1 - B_j + c). Since B_j lies in [0, 1] and c,
zeta >= 0, q01_i <= 1 + zeta*ybar and q10_i <= 1 + c. The adopt channel
therefore fires at n0*(1 + zeta*ybar), or 0 when nobody protects (every q01
is then 0), and the drop channel at n1*(1 + c), or 0 when everybody protects.

Random-draw contract (what seeded replay reproduces). The loop reads
PCG64's 64-bit words in order, fetched in blocks of 4096 (`_Words`). A
"uniform" below is one word's ``(word >> 11) * 2**-53``, the double that a
scalar ``rng.random()`` call gives from it, so the uniforms are those of
successive scalar calls on every path. The paths differ in the wait:

- the frozen path, the complete graph with uniform activities, whose
  seeded logs the acceptance tests pin, waits ``(1/R) * e``, with e the
  standard exponential of numpy's ziggurat (Marsaglia & Tsang 2000):
  ``rng.exponential(1/R)``, double for double. The ziggurat's fast path
  uses one word; a word that leaves it (about 1 wait in 45) takes a uniform
  from the next word for the tail or the wedge test, and may start over
  from the word after. The loop computes the fast path for a whole block
  with numpy and replays the slow path in Python from the raw words, with
  the ziggurat's tables, committed as literals (``_ziggurat``, read from
  numpy's ``libnpyrandom.a``). In the count phase below each event reads
  its wait, the channel word and the member word whatever the state, so a
  block splits into events from its words alone: it is decoded once with
  numpy, slow words and all, into each event's wait and channel uniform,
  and only those two doubles are made. This ties the frozen path to
  numpy's ziggurat. numpy has kept it since ``Generator`` arrived, but the
  guard is not that history: ``TestSamplers`` compares 10**6 draws at each
  of three seeds, slow paths included, and the count phase's decoded draws,
  with the installed numpy's methods;
- every other path (any other graph, or heterogeneous activities) waits
  -log(1 - u)/R for a uniform u. It fetches the same raw blocks and makes
  only their uniforms, since it needs no exponentials.

A free contact path's contact stream is ``default_rng(seed)``'s PCG64
jumped once (``bit_generator.jumped()``), read in blocks of CONTACT_BLOCK
contacts until a block reaches the horizon. A block is one
``random((CONTACT_BLOCK, 4))`` array, the doubles of scalar ``random()``
calls, with a row of four uniforms per contact in the loop's own order.
The first, u, gives the wait -log(1 - u)/A, and the times are the waits
summed in order from the last time of the block before. The second, v,
picks the initiator: a uniform index int(v*n) with uniform activities;
with heterogeneous ones Vose's alias table of the activities, built once
per run: k = int(v*n), and the initiator is k if v*n - k < prob[k], else
alias[k]. The third picks the partner, uniform over the other n - 1
agents, and the fourth is the transmission uniform, against lambda.

``Trajectory.meta["words"]`` counts the words the loop read (not the ones
it fetched ahead), so ``default_rng(seed)`` advanced by that count, plus the
2n words of a sampled initial state, is where scalar draws would have left
the generator. ``meta["contact_words"]`` counts the words of the contact
stream's blocks, one per uniform, so 4*CONTACT_BLOCK per block: the jumped
generator advanced by it is where the stream's scalar draws leave it. It
is 0 on a path without the stream.
``Trajectory.meta["lumped_at"]`` is the time the count phase below began,
which is when protection died, or None if it never did, and
``meta["lumped_events"]`` the number of events after it (0 without a
count phase).

Per event of the loop's clock, in order:

1. waiting time, R the total rate: ``rng.exponential(1/R)``'s double on
   the frozen path, -log(1 - u)/R for a uniform u on every other path (R_o
   on a free contact path, where a transmitting candidate contact before
   the wait's end is the event instead, and reads no word of this stream)
2. a uniform for the channel choice, cumulative over
   [recovery, infection|contact, adopt, drop]
3. member selection inside the channel: a uniform as an index into the
   group list -- infected (recovery), eligible = susceptible and unprotected
   (aggregated infection), non-adopters (adopt), adopters (drop). The lists
   start in ascending agent order; a member joins at the end, and a leaving
   member's slot takes the last member. With heterogeneous activities the
   bidirectional aggregated infection target is drawn by rejection (one
   extra uniform against the largest weight per attempt). The frozen
   path's contact initiator is a uniform index.
4. adopt and drop off the complete graph: the walk that accepts or rejects
   the proposal of member i. A uniform picks a uniform out-neighbour j of
   i. Adopt: if j protects, ``u * (1 + zeta*ybar) < zeta*ybar`` for a
   uniform u accepts, and otherwise a uniform picks a uniform out-neighbour m
   of j and the proposal is accepted iff m protects; if j does not protect,
   it is rejected. So P(accept) = (A_i + zeta*ybar*B_i) / (1 + zeta*ybar) =
   q01_i / (1 + zeta*ybar), with A_i the mean of x_j*B_j. Drop: the same
   with "does not protect" for "protects" and c for zeta*ybar, so P(accept)
   = q10_i / (1 + c).
5. the frozen path's contact events only: a uniform for the partner
   (uniform over the other n-1 agents) and, only when a transmissible pair
   realises, a uniform against the per-contact infection probability.

Initial conditions sampled from fractions consume ``rng.random(n)`` twice
(behaviours first, then healths) before any event draw.

Absorbed layers. On the frozen path in aggregated mode without a log, once
nobody protects the adopt and drop rates are exactly 0.0 and stay so. Every
sampled member's attribute is then known: a recovered agent is unprotected
and becomes eligible, and an infection target is eligible. Agent identities
change nothing, and the process lumps exactly to the SIS chain of the
infected count (Kemeny & Snell). So once a rate recompute finds that nobody
protects, the loop goes on as that chain: it reads the same words in the
same order (the member word is skipped, not dropped), and the samples,
event counts and words are bit for bit those of the agent loop. The
infected count k moves by one per event, so every rate is a function of k:
the loop reads tables of the total rate, its inverse and the recovery
threshold over k = 0..n, built once with numpy from the recompute's
operands in its order. The tables leave out the adopt and drop terms that
the recompute adds, which are +0.0 with nobody protecting, and x + 0.0 == x
for every x >= 0, so no double moves. The activity sums are functions of
the counts as well, by the rule every aggregated recompute follows: with
uniform activities a, the sums of the infected and of the eligible are
n_I*a and n_E*a, the correctly rounded true sums; with heterogeneous ones
they are running totals, set to 0.0 whenever their group is empty. So no
rounding residue outlives its group, and an empty group is never picked
from. For a on the dyadic grid (a = m * 2**e for an odd m with m*n < 2**53,
such as 3) the products equal the running totals bit for bit. A run whose
disease dies while protection lives stays in the agent loop until
protection dies too, and then enters the count phase in its absorbing
state. Contact mode (contacts read health by index), heterogeneous
activities, other graphs and logged runs keep the agent loop to the end.

Cost per event: O(1) on every graph and every draw path (group lists with
swap-with-last removal, walks of at most two out-neighbour steps); in the
count phase, three table reads and a multiply-add after O(n) tables, with
the draws decoded a block at a time. A free contact path's contacts cost
the loop nothing unless they are candidates: their marks are computed
with numpy a block at a time, after an O(n) alias table per heterogeneous
run, and a candidate costs the loop one transmissibility check, or an
infection event if it transmits. The one exception is the rejection
for the aggregated bidirectional target with heterogeneous activities:
with n_I infected, A_I their activity sum and A_E the activity sum of the
n_E eligible, it takes on average (a_max*n_I + A_I) / (A_E*n_I/n_E + A_I)
attempts, at most a_max/a_min. The loop holds the agent state and the
out-neighbour lists in Python lists for the whole run, so no event touches
a numpy scalar. Each grid time costs O(n) for the check of the counters
against the agent lists; the count phase checks its counters at entry and
at the end.

The loop has no checking mode of its own. Its verifier is the draw-by-draw
replay in the test suite, which recomputes every rate from per-agent
formulas before each draw and must reproduce the loop's history event for
event.

The loop counts its events per kind in ``Trajectory.meta["events"]`` and
the rejected adopt and drop proposals in ``meta["null_proposals"]`` (always
0 on the complete graph), log or no log. A free contact path counts every
contact before the horizon from its stream's blocks, and a log takes them
as arrays. The frozen path's contact mode skips the contacts made while
nobody is infected: they cannot change the state, so skipping them is
exact thinning, and they are neither counted nor logged. No draw depends
on the log, so on every path a quiet run's samples, counts and words of
both streams are those of its logged twin.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from operator import length_hint
from typing import ClassVar

import numpy as np

from . import _ziggurat as zig
from .artifacts import text, write_csv
from .core import (
    ConfigError,
    ModelParams,
    NumericalError,
    activities_from,
    checked_activities,
    config_value,
    config_vector,
)
from .meanfield import Trajectory, sample_grid
from .network import InfluenceGraph

NO_PROTECTION, PROTECTION = 0, 1
SUSCEPTIBLE, INFECTED = 0, 1

RNG_NAME = "numpy-pcg64"

# 64-bit words per block the event loop fetches
UNIFORM_BLOCK = 4096
# an event that starts past this position refills first: a bounded event
# reads at most six words, and the fifteen left are enough. The two
# unbounded draws, the ziggurat's retries and the rejection for a
# heterogeneous aggregated target, check the position themselves
REFILL_AT = UNIFORM_BLOCK - 16
# the ziggurat's fast-path tables, for a whole block at once
_WE = np.array(zig.WE)
_KE = np.array(zig.KE, dtype=np.uint64)
# contacts per block a free contact path draws
CONTACT_BLOCK = 4096

EVENT_CONTACT = "contact"
EVENT_INFECTION = "infection"
EVENT_RECOVERY = "recovery"
EVENT_ADOPT = "adopt"
EVENT_DROP = "drop"
EVENT_KINDS = (EVENT_RECOVERY, EVENT_INFECTION, EVENT_ADOPT, EVENT_DROP, EVENT_CONTACT)
# an event's kind code is its index in EVENT_KINDS
K_RECOVERY, K_INFECTION, K_ADOPT, K_DROP, K_CONTACT = range(len(EVENT_KINDS))
_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_KIND_TABLE = np.array(EVENT_KINDS, dtype=bytes)


@dataclass
class EventLog:
    """Chronological event record. Times are non-decreasing.

    The record is typed columns. The event loop appends each event's time,
    kind code (its index in EVENT_KINDS), actor and counterpart (-1 when
    there is none) in turn to one flat list of floats and ints, `flat`: a
    long run then makes no per-event object for the garbage collector to
    track. A free contact path's contacts join as arrays of times,
    initiators and partners, a block at a time (`contacts`), and `columns`
    merges the two by time."""

    flat: list = field(default_factory=list)
    contacts: list = field(default_factory=list)
    seed: int | None = None
    rng_name: ClassVar[str] = RNG_NAME  # the simulator's one generator, not settable

    def append(self, t: float, kind: str, actor: int, counterpart: int | None = None):
        self.flat.extend((t, _KIND_CODES[kind], actor, -1 if counterpart is None else counterpart))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The events' times, kind codes, actors and counterparts (-1 for
        none) in time order. A contact goes before a loop event at the same
        time, so before the infection it causes."""
        flat = self.flat
        columns = [np.array(flat[0::4], dtype=float),
                   *(np.array(flat[k::4], dtype=np.intp) for k in (1, 2, 3))]
        if self.contacts:
            t, i, j = map(np.concatenate, zip(*self.contacts))
            contacts = (t, np.full(t.size, K_CONTACT, dtype=np.intp), i, j)
            order = np.argsort(np.concatenate((t, columns[0])), kind="stable")
            columns = [np.concatenate(pair)[order] for pair in zip(contacts, columns)]
        return tuple(columns)

    @property
    def events(self) -> list:
        """The events as (t, kind, actor, counterpart) tuples, with the kind
        a string of EVENT_KINDS and None for no counterpart."""
        t, kind, actor, counterpart = (c.tolist() for c in self.columns())
        return list(zip(t, [EVENT_KINDS[k] for k in kind], actor,
                        [None if c < 0 else c for c in counterpart]))

    def __len__(self):
        return len(self.flat) // 4 + sum(t.size for t, _, _ in self.contacts)

    def __iter__(self):
        return iter(self.events)

    def to_csv(self, path) -> None:
        t, kind, actor, counterpart = self.columns()
        # each node id formatted once; an absent one (-1) is the last, empty entry
        ids = text("%d", [*range(max(actor.max(initial=-1), counterpart.max(initial=-1)) + 1),
                          None])
        write_csv(path, "t,kind,actor,counterpart",
                  [t, _KIND_TABLE[kind], ids[actor], ids[counterpart]],
                  comment=f"rng={self.rng_name} seed={self.seed}")


@dataclass
class AbmConfig:
    """Full specification of one stochastic run."""

    params: ModelParams
    graph: InfluenceGraph
    activities: np.ndarray
    horizon: float
    sample_dt: float
    seed: int
    x0: float | None = None
    y0: float | None = None
    behaviours0: np.ndarray | None = None
    healths0: np.ndarray | None = None
    infection_mode: str = "aggregated"  # "aggregated" | "contact"
    directionality: str = "bidirectional"  # "bidirectional" | "activator-infects"
    record_events: bool | None = None  # default: only for n <= 1000

    def __post_init__(self):
        self.activities = checked_activities(self.activities, self.graph.n)
        # numpy would draw a None seed from OS entropy and reject a negative one
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, not {seed!r}")
        for name in ("horizon", "sample_dt"):
            value = getattr(self, name)
            # false for None, nan and inf too
            if not (value is not None and 0 < value < math.inf):
                raise ConfigError(f"{name} must be > 0 and finite, not {value!r}")
        if self.infection_mode not in ("aggregated", "contact"):
            raise ConfigError(f"unknown infection_mode {self.infection_mode!r}")
        if self.directionality not in ("bidirectional", "activator-infects"):
            raise ConfigError(f"unknown directionality {self.directionality!r}")
        explicit = self.behaviours0 is not None or self.healths0 is not None
        sampled = self.x0 is not None or self.y0 is not None
        if explicit and sampled:
            raise ConfigError("give either explicit initial vectors or fractions, not both")
        if explicit:
            if self.behaviours0 is None or self.healths0 is None:
                raise ConfigError("explicit initial condition needs both behaviours0 and healths0")
            for name in ("behaviours0", "healths0"):
                v = np.asarray(getattr(self, name))
                if v.shape != (self.graph.n,):
                    raise ConfigError(f"{name} must have length n = {self.graph.n}")
                if not np.isin(v, (0, 1)).all():
                    raise ConfigError(f"{name} entries must be 0 or 1")
                setattr(self, name, v.astype(np.int8))
        elif sampled:
            if self.x0 is None or self.y0 is None:
                raise ConfigError("sampled initial condition needs both x0 and y0")
            if not (0.0 <= self.x0 <= 1.0 and 0.0 <= self.y0 <= 1.0):
                raise ConfigError("initial fractions must lie in [0,1]")
        else:
            raise ConfigError("no initial condition given")
        if self.record_events is None:
            self.record_events = self.graph.n <= 1000
        elif not isinstance(self.record_events, bool):
            raise ConfigError("record_events must be true, false or null")

    @property
    def bidirectional(self) -> bool:
        return self.directionality == "bidirectional"

    # every key of `to_dict`, and so of an abm-sim or compare sidecar's abm block
    SPEC_KEYS = ("params", "graph", "activities", "horizon", "sample_dt", "seed",
                 "infection_mode", "directionality", "record_events", "rng",
                 "behaviours0", "healths0", "x0", "y0")

    def to_dict(self) -> dict:
        d = {
            "params": self.params.to_dict(),
            "graph": self.graph.to_dict(),
            "activities": (
                "uniform"
                if np.ptp(self.activities) == 0.0 and self.activities[0] == self.params.alpha
                else self.activities.tolist()
            ),
            "horizon": self.horizon,
            "sample_dt": self.sample_dt,
            "seed": self.seed,
            "infection_mode": self.infection_mode,
            "directionality": self.directionality,
            "record_events": self.record_events,
            "rng": RNG_NAME,
        }
        if self.behaviours0 is not None:
            d["behaviours0"] = self.behaviours0.tolist()
            d["healths0"] = self.healths0.tolist()
        else:
            d["x0"] = self.x0
            d["y0"] = self.y0
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AbmConfig":
        """The run spec of `to_dict`; absent optional keys take the field
        defaults. A key outside SPEC_KEYS, an rng other than RNG_NAME, or
        initial vectors next to initial fractions is a ConfigError."""
        unknown = [k for k in d if k not in cls.SPEC_KEYS]
        if unknown:
            raise ConfigError(f"unknown key(s) in the run spec: {', '.join(map(repr, unknown))}")
        if d.get("rng", RNG_NAME) != RNG_NAME:
            raise ConfigError(f"rng must be {RNG_NAME!r}, not {d['rng']!r}")
        params = ModelParams.from_dict(d["params"])
        graph = InfluenceGraph.from_dict(d["graph"])
        # every initial key given goes to the constructor, which rejects a
        # spec holding both vectors and fractions, or only one of a pair
        initial = {k: None if d[k] is None else config_vector(k, d[k], int)
                   for k in ("behaviours0", "healths0") if k in d}
        initial.update({k: config_value(k, d[k], float) for k in ("x0", "y0") if k in d})
        return cls(
            params=params,
            graph=graph,
            activities=activities_from(d.get("activities", "uniform"), graph.n, params.alpha),
            horizon=config_value("horizon", d.get("horizon"), float),
            sample_dt=config_value("sample_dt", d.get("sample_dt"), float),
            seed=config_value("seed", d.get("seed"), int),
            infection_mode=d.get("infection_mode", "aggregated"),
            directionality=d.get("directionality", "bidirectional"),
            record_events=d.get("record_events"),
            **initial,
        )


class _Words:
    """The event loop's random words: PCG64's 64-bit outputs, fetched raw in
    blocks of UNIFORM_BLOCK on every path and read through a position that
    the loop keeps in a local, so a draw is one list index and no call.

    ``ub[pos]`` is the uniform of word pos, ``(word >> 11) * 2**-53``: the
    double that a scalar ``rng.random()`` call would give. On the frozen path
    ``eb[pos]`` is the standard exponential that numpy's ziggurat returns
    from that word on its fast path, or nan when the word leaves the fast
    path; `exponential` then replays the slow path. The other paths need no
    exponentials, so `frozen` only decides whether ``eb`` is made. The count
    phase reads no lists: `count_draws` decodes its blocks into per-event
    draws.
    """

    def __init__(self, rng: np.random.Generator, frozen: bool):
        self.rng = rng
        self.frozen = frozen
        self.ub, self.eb = [], []
        self.raw = np.empty(0, dtype=np.uint64)
        self.fetched = 0
        self.refill(-1)

    def refill(self, pos: int) -> int:
        """Drop the words through `pos`, append a block after the unread
        tail, and return -1, the position before the first unread word. The
        lists change in place, so the loop's references to them stay valid."""
        del self.ub[:pos + 1], self.eb[:pos + 1]
        words = self._fetch(pos)
        if self.frozen:
            ri, idx, fast = self._fast_path(words)
            waits = ri * _WE[idx]
            waits[~fast] = np.nan
            self.eb.extend(waits.tolist())
        else:
            ri = words >> 11
        self.ub.extend((ri * 2.0**-53).tolist())
        return -1

    @staticmethod
    def _fast_path(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each word's ri, ``word >> 11``, and idx, bits 3 to 10, and
        whether the ziggurat's fast path takes it: ``ri < ke[idx]``, and then
        ``ri * we[idx]`` is its draw. A word's uniform is ``ri * 2**-53``;
        ri < 2**53 converts to a double exactly."""
        ri = words >> 3
        idx = (ri & 0xFF).astype(np.intp)
        ri >>= 8
        return ri, idx, ri < _KE[idx]

    def _fetch(self, pos: int) -> np.ndarray:
        """Drop the raw words through `pos`, append a block and return it."""
        words = self.rng.bit_generator.random_raw(UNIFORM_BLOCK)
        self.raw = np.concatenate((self.raw[pos + 1:], words))
        self.fetched += UNIFORM_BLOCK
        return words

    def _slow_path(self, pos: int, end: int) -> tuple[float, int] | None:
        """numpy's ``random_standard_exponential`` from raw word `pos` on, a
        word whose fast path failed: at idx 0 the tail ``r - log1p(-u)``,
        else the wedge test of x against ``exp(-x)``, and on its failure a
        new draw from the next word. A uniform u is its word's
        ``(word >> 11) * 2**-53``. ``math`` calls libm's ``log1p`` and
        ``exp``, as numpy's C code does. Returns the draw and the position
        of the last word read, or None if that position would be `end` or
        later."""
        word, we, ke, fe = self.raw.item, zig.WE, zig.KE, zig.FE
        while pos < end:
            ri = word(pos) >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * we[idx]
            if ri < ke[idx]:
                return x, pos
            if (pos := pos + 1) >= end:
                return None
            u = (word(pos) >> 11) * 2.0**-53
            if idx == 0:
                return zig.R - math.log1p(-u), pos
            if (fe[idx - 1] - fe[idx]) * u + fe[idx] < math.exp(-x):
                return x, pos
            pos += 1
        return None

    def exponential(self, pos: int) -> tuple[float, int]:
        """The wait of the frozen path's agent loop from word `pos` on, a word
        whose fast path failed (`_slow_path`). Returns the draw and the
        position of the last word read, with at least 13 words after it: a
        draw that would read closer to the end refills, keeping the words
        from `pos` on, and is replayed."""
        while (drawn := self._slow_path(pos, self.raw.size - 13)) is None:
            pos = self.refill(pos - 1) + 1
        return drawn

    def count_draws(self, pos: int):
        """The count phase's draws from the word after `pos` on: a generator
        of one iterator per block over its events' (wait, channel uniform)
        pairs, for ``itertools.chain.from_iterable``.

        Every count-phase event reads its wait (one word on the ziggurat's
        fast path, more on its slow path), then the channel word and the
        member word, whatever the state. So the words alone split into
        events: each block is decoded once with numpy, only the slow-path
        waits are replayed in Python, and only the two doubles an event
        uses are made. An event cut by the block's end is decoded with the
        next block. `count_stop` gives the events and words the loop read.
        The agent loop's lists are not read again."""
        self.ub.clear()
        self.eb.clear()
        self.first = 0  # events of the blocks before the current one
        while True:
            self._fetch(pos)
            ri, idx, fast = self._fast_path(self.raw)
            # an event whose wait ends at or after `end` does not fit
            end = self.raw.size - 2
            # event j's first word is 3*j plus the words the slow waits before
            # it took beyond one; `stop` is the first word of the first event
            # left to the next block
            slow_at, slow_waits, slow_extra = [], [], []
            shift = start = 0  # the extra words so far, and the next event's first word
            stop = end + 2
            for p in np.flatnonzero(~fast).tolist():
                if p < start or (p - shift) % 3:
                    continue  # a word inside a slow wait, or a channel or member word
                drawn = self._slow_path(p, end)
                if drawn is None:
                    stop = p
                    break
                slow_at.append((p - shift) // 3)
                slow_waits.append(drawn[0])
                slow_extra.append(drawn[1] - p)
                shift += drawn[1] - p
                start = drawn[1] + 3
            extra = np.zeros((stop - shift) // 3, dtype=np.intp)
            extra[slow_at] = slow_extra
            # each event's last wait word, in this block's positions
            self.ends = ends = 3 * np.arange(extra.size) + np.cumsum(extra)
            waits = ri[ends] * _WE[idx[ends]]
            waits[slow_at] = slow_waits
            uniforms = ri[ends + 1] * 2.0**-53
            self.left = iter(waits.tolist())
            yield zip(self.left, uniforms.tolist())
            self.first += ends.size
            pos = int(ends[-1]) + 2 if ends.size else -1

    def count_stop(self, waited: bool) -> tuple[int, int]:
        """The count phase's whole events and the position of the last word
        read, once its loop stopped at the event it took last: that event
        read its wait if it `waited` (the horizon cut it), else nothing (an
        absorbing state). A list iterator's length hint is the number of
        items it has left."""
        j = self.ends.size - length_hint(self.left) - 1
        if waited:
            return self.first + j, int(self.ends[j])
        return self.first + j, (int(self.ends[j - 1]) + 2 if j else -1)

    def consumed(self, pos: int) -> int:
        """The number of words read through position `pos`."""
        return self.fetched - (self.raw.size - pos - 1)


class _Contacts:
    """The contact process of a free contact path, drawn from a stream of
    its own a block at a time (module docstring, "Contacts").

    A block is CONTACT_BLOCK contacts, one row of four uniforms each, drawn
    with numpy: the wait's, the initiator's, the partner's and the
    transmission uniform. The waits, -log(1 - u) over the activity total,
    are summed into times by ``np.cumsum``, which adds in order as the
    scalar sum does. `words` grows by each block's size. `candidates` hands
    the loop the contacts before the horizon whose transmission uniform is
    below lambda. Every contact before the horizon is counted (`count`)
    and, with a log, joins it as arrays."""

    def __init__(self, seed: int, acts: np.ndarray, lam: float, horizon: float,
                 log: EventLog | None):
        self.rng = np.random.Generator(np.random.PCG64(seed).jumped())
        self.n = acts.size
        self.rate = float(acts.sum())
        # with heterogeneous activities: Vose's alias table of the activities
        self.alias = None if np.ptp(acts) == 0.0 else tuple(
            map(np.array, _alias_table(acts.tolist())))
        self.lam, self.horizon, self.log = lam, horizon, log
        self.count = 0  # contacts before the horizon
        self.words = 0  # the words of the blocks drawn so far

    def marks(self):
        """A generator of each block's contacts: their times, initiators,
        partners and transmission uniforms, as arrays. It ends with the block
        that holds the first contact at or after the horizon."""
        t, n = 0.0, self.n
        while t < self.horizon:
            u = self.rng.random((CONTACT_BLOCK, 4))
            self.words += u.size
            waits = -np.log(1.0 - u[:, 0]) / self.rate
            times = np.cumsum(np.concatenate(((t,), waits)))[1:]
            t = times[-1]
            scaled = u[:, 1] * n
            i = scaled.astype(np.intp)
            if self.alias is not None:
                prob, alias = self.alias
                i = np.where(scaled - i < prob[i], i, alias[i])
            j = (u[:, 2] * (n - 1)).astype(np.intp)
            j += j >= i
            yield times, i, j, u[:, 3]

    def _blocks(self):
        """Each block's candidate contacts before the horizon, as an
        iterator of (time, initiator, partner)."""
        for times, i, j, u in self.marks():
            m = int(np.searchsorted(times, self.horizon))  # the contacts before the horizon
            self.count += m
            if self.log is not None:
                self.log.contacts.append((times[:m], i[:m], j[:m]))
            cand = np.flatnonzero(u[:m] < self.lam)
            yield zip(times[cand].tolist(), i[cand].tolist(), j[cand].tolist())

    def candidates(self):
        """The candidate contacts before the horizon, one (time, initiator,
        partner) at a time, and then (inf, -1, -1)."""
        return chain(chain.from_iterable(self._blocks()), ((math.inf, -1, -1),))


def _alias_table(weights) -> tuple[list, list]:
    """Vose's alias table for a pick proportional to ``weights``, in O(n).

    With k = int(u*n) for a uniform u, the pick is k if u*n - k < prob[k],
    else alias[k]; so agent i is picked with probability
    (prob[i] + sum of 1 - prob[k] over k with alias[k] = i) / n.
    """
    n = len(weights)
    total = math.fsum(weights)
    scaled = [w * n / total for w in weights]
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        prob[lo], alias[lo] = scaled[lo], hi
        # Vose's order of operations: hi keeps the excess over 1 that lo did not take
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    # what is left on either list has weight 1 up to rounding, and keeps prob 1
    return prob, alias


def simulate(cfg: AbmConfig) -> tuple[Trajectory, EventLog]:
    """One statistically exact realization; identical seeds give identical logs."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.behaviours0 is not None:
        behaviours, healths = cfg.behaviours0, cfg.healths0
    else:
        behaviours = (rng.random(cfg.graph.n) < cfg.x0).astype(np.int8)
        healths = (rng.random(cfg.graph.n) < cfg.y0).astype(np.int8)
    if not cfg.params.payoff_assumption_holds:
        import warnings

        warnings.warn(
            "parameters violate the payoff ordering (c > 1, zeta > c + 1); "
            "simulation is well-defined but the analytical regime results do not apply",
            stacklevel=2,
        )
    return _run(cfg, behaviours, healths, rng)


def _transmission(x: list, y: list, i: int, j: int, bidi: bool) -> tuple:
    """The (target, source) of a contact that initiator i makes with partner
    j when the pair is transmissible: the source infected, the target
    susceptible and unprotected, and with `bidi` either may be the source.
    (None, None) when it is not."""
    if y[i] == INFECTED and y[j] == SUSCEPTIBLE and x[j] == NO_PROTECTION:
        return j, i
    if bidi and y[i] == SUSCEPTIBLE and x[i] == NO_PROTECTION and y[j] == INFECTED:
        return i, j
    return None, None


def _check_counts(x: list, y: list, n1: int, n_inf: int) -> None:
    """Raise unless the agent lists hold n1 adopters and n_inf infected."""
    if sum(x) != n1 or sum(y) != n_inf:
        raise NumericalError("incremental counters diverged from agent vectors")


def _check_lumped(n: int, n1: int, n_inf: int, n_elig: int) -> None:
    """Raise unless the count phase's counters describe a state of the SIS
    chain: nobody protects, so every susceptible agent is eligible."""
    if not (n1 == 0 and 0 <= n_inf <= n and n_elig == n - n_inf):
        raise NumericalError("count-phase counters left the absorbed states")


def _count_tables(n: int, a: float, mu: float, per_pair: float,
                  bidi: bool) -> tuple[np.ndarray, ...]:
    """The count phase's rates as functions of the infected count k = 0..n
    with nobody protecting. Returns the total rate, its inverse (inf where
    the total is 0.0, the disease-free absorbing state) and the channel
    threshold r_rec, below which the event is a recovery and else an
    infection. Each entry is the event loop's recompute in that state, with
    its operands and order, and the activity sums it derives from the counts
    with the one activity `a`, so the doubles are equal. The loop also adds
    the adopt and drop rates, which are +0.0 there, and x + 0.0 is x for
    every x >= 0. The arrays are returned, not lists, so that the
    temporaries are freed before the loop's lists are made."""
    n_inf = np.arange(n + 1)
    n_elig = n - n_inf
    a_inf, a_elig = n_inf * a, n_elig * a
    r_rec = mu * n_inf
    if bidi:
        r_mid = per_pair * (n_inf * a_elig + n_elig * a_inf)
    else:
        r_mid = per_pair * n_elig * a_inf
    total = r_rec + r_mid
    with np.errstate(divide="ignore"):
        inv = 1.0 / total  # inf where the total is 0.0: an absorbing state
    return total, inv, r_rec


def _run(cfg: AbmConfig, xs: np.ndarray, ys: np.ndarray,
         rng: np.random.Generator) -> tuple[Trajectory, EventLog]:
    """`simulate`'s event loop, for every influence graph, from the
    behaviours `xs` and healths `ys`, which it leaves unchanged.

    The agent vectors are copied once into Python lists; group members,
    activity sums and rates are plain Python ints and floats, so the loop does
    no numpy scalar arithmetic. Adopters, non-adopters and the infected are
    lists that are only sampled by slot, so removing the sampled member moves
    the last one into its slot. The eligible (susceptible, unprotected) group
    also loses members it did not sample, so it keeps each member's slot
    (``elig_pos``); adding and removing are inline, because method calls
    cost a measurable share of each event. On the complete graph the adopt
    and drop channels fire at their exact totals; on any other graph they
    fire at the thinning bounds and each proposal walks the out-neighbour
    lists (module docstring). The behaviour terms (adopter count, xbar, the
    adopt weight and the drop rate) change only with adopt and drop events,
    so they are recomputed only after one; the other rates are recomputed
    only after an event that changed the state. `_check_counts` checks the
    counters against the lists at each grid time and after the last event.
    On a free contact path the contacts come from `_Contacts`, and before
    each wait's end the loop checks the candidates that fall in it (module
    docstring, "Contacts"). Once nobody protects on the frozen path in
    aggregated mode without a log, the count phase after the main loop
    finishes the run as the SIS chain of the infected count (module
    docstring, "Absorbed layers"); it checks the lists and `_check_lumped`
    once at entry and once at the end.
    """
    p = cfg.params
    g = cfg.graph
    n = g.n
    acts = cfg.activities
    x, y, a = xs.tolist(), ys.tolist(), acts.tolist()
    uniform_act = float(np.ptp(acts)) == 0.0
    a0 = a[0]  # the one activity, if they are uniform
    a_max = float(acts.max())
    a_total = float(acts.sum())
    bidi = cfg.bidirectional
    contact_mode = cfg.infection_mode == "contact"
    record = cfg.record_events
    horizon = cfg.horizon
    log = EventLog(seed=cfg.seed)
    log_event = log.flat.extend
    # off the complete graph: out-neighbour lists for the thinning walks
    nbrs = None if g.is_complete else g.neighbor_lists()

    free = (ys == SUSCEPTIBLE) & (xs == NO_PROTECTION)
    adopters = np.flatnonzero(xs == PROTECTION).tolist()
    nonadopters = np.flatnonzero(xs == NO_PROTECTION).tolist()
    infected = np.flatnonzero(ys == INFECTED).tolist()
    elig = np.flatnonzero(free).tolist()
    # slots of ids that are not members are stale and never read
    elig_pos = [-1] * n
    for k, i in enumerate(elig):
        elig_pos[i] = k
    a_inf = float(acts[ys == INFECTED].sum())
    a_elig = float(acts[free].sum())
    n_rec = n_infect = n_adopt = n_drop = n_contact = 0
    null_adopt = null_drop = 0

    grid = sample_grid(cfg.horizon, cfg.sample_dt)
    grid_t = grid.tolist() + [math.inf]  # sentinel: never reached
    t_next = grid_t[0]
    out_x = []
    out_y = []
    t = 0.0
    lam, mu, c, zeta = p.lam, p.mu, p.c, p.zeta
    per_pair = lam / (n - 1)
    # the draw contract by path (module docstring)
    frozen = nbrs is None and uniform_act
    # a free contact path's contacts come from a stream of their own, and the
    # loop sees only the candidates; tc is the next one's time (inf if none)
    contacts = None
    tc = math.inf
    if contact_mode and not frozen:
        contacts = _Contacts(cfg.seed, acts, lam, horizon, log if record else None)
        candidates = contacts.candidates()
        tc, ci, cj = next(candidates)
    # the count phase's domain, entered once nobody protects (module
    # docstring, "Absorbed layers")
    lump = frozen and not contact_mode and not record
    lumped_at = None
    words = _Words(rng, frozen)
    ub, eb = words.ub, words.eb
    pos = -1  # the last word read
    refill_at = REFILL_AT
    ln = math.log
    moved = sick = True

    while True:
        if pos > refill_at:
            pos = words.refill(pos)
        # the behaviour terms change only with adopt and drop events, and the
        # rates only with those and with recoveries and infections, not with
        # a contact that transmits nothing or a null proposal. Every rate
        # keeps its operands and association order, so seeded runs give the
        # same doubles: r_adopt is (n0*xbar) * (xbar + zeta*ybar) on the
        # complete graph
        if moved:
            n1 = len(adopters)
            n0 = n - n1
            xbar = n1 / n
            if nbrs is None:
                w_adopt, adopt_base = n0 * xbar, xbar
                r_drop = n1 * (1.0 - xbar) * (1.0 - xbar + c)
            else:
                # thinning bounds: q01 <= 1 + zeta*ybar, and 0 without adopters;
                # q10 <= 1 + c, and 0 without non-adopters
                w_adopt, adopt_base = (n0 if n1 else 0.0), 1.0
                r_drop = n1 * (1.0 + c) if n0 else 0.0
        if moved or sick:
            n_inf = len(infected)
            n_elig = len(elig)
            ybar = n_inf / n
            r_adopt = w_adopt * (adopt_base + zeta * ybar)
            r_rec = mu * n_inf
            if contact_mode:
                # the frozen path's contacts cannot change state without
                # infected present, so skipping them then is exact thinning,
                # log or no log. A free path's are not in this clock
                r_mid = a_total if contacts is None and n_inf > 0 else 0.0
            else:
                # no rounding residue outlives its group in the activity sums,
                # so the count phase's tables are these doubles (module
                # docstring, "Absorbed layers")
                if uniform_act:
                    a_inf, a_elig = n_inf * a0, n_elig * a0
                else:
                    if not n_inf:
                        a_inf = 0.0
                    if not n_elig:
                        a_elig = 0.0
                if bidi:
                    r_mid = per_pair * (n_inf * a_elig + n_elig * a_inf)
                else:
                    r_mid = per_pair * n_elig * a_inf
            r_inf = r_rec + r_mid
            r_imit = r_inf + r_adopt
            total = r_imit + r_drop
            moved = sick = False
            if lump and n1 == 0:
                lumped_at = t  # nobody protects: the count phase below goes on
                break
        if total <= 0.0:
            break
        if frozen:
            e = eb[(pos := pos + 1)]
            if e != e:  # nan: the word left the ziggurat's fast path
                e, pos = words.exponential(pos)
            t_new = t + (1.0 / total) * e
        else:
            t_new = t - ln(1.0 - ub[(pos := pos + 1)]) / total
        # a free contact path's candidates before t_new: the first whose pair
        # is transmissible is the event, and the others change nothing
        target = None
        while tc < t_new:
            target, source = _transmission(x, y, ci, cj, bidi)
            if target is not None:
                t_new = tc
            tc, ci, cj = next(candidates)
        # sample every grid time strictly before min(t_new, horizon)
        if t_next < t_new and t_next < horizon:
            _check_counts(x, y, n1, n_inf)
            while t_next < t_new and t_next < horizon:
                out_x.append(xbar)
                out_y.append(ybar)
                t_next = grid_t[len(out_x)]
        if t_new >= horizon:
            break
        t = t_new
        if target is not None:
            pass  # a candidate contact transmits: the infection below
        elif (u := ub[(pos := pos + 1)] * total) < r_rec:
            k = int(ub[(pos := pos + 1)] * n_inf)
            i = infected[k]
            infected[k] = infected[-1]
            infected.pop()
            y[i] = SUSCEPTIBLE
            a_inf -= a[i]
            if x[i] == NO_PROTECTION:
                elig_pos[i] = n_elig
                elig.append(i)
                a_elig += a[i]
            n_rec += 1
            sick = True
            if record:
                log_event((t, K_RECOVERY, i, -1))
        elif u < r_inf:
            source = -1
            if contact_mode:  # the frozen path's contact channel
                i = int(ub[(pos := pos + 1)] * n)
                j = int(ub[(pos := pos + 1)] * (n - 1))
                if j >= i:
                    j += 1
                n_contact += 1
                if record:
                    log_event((t, K_CONTACT, i, j))
                target, source = _transmission(x, y, i, j, bidi)
                if target is not None and ub[(pos := pos + 1)] >= lam:
                    target = None
            elif bidi and not uniform_act:
                # per-agent weight a_i*nI + A_I; rejection against the max
                w_max = a_max * n_inf + a_inf
                while True:
                    if pos > refill_at:
                        pos = words.refill(pos)
                    target = elig[int(ub[(pos := pos + 1)] * n_elig)]
                    if ub[(pos := pos + 1)] * w_max <= a[target] * n_inf + a_inf:
                        break
            else:
                target = elig[int(ub[(pos := pos + 1)] * n_elig)]
        elif u < r_imit:
            k = int(ub[(pos := pos + 1)] * n0)
            i = nonadopters[k]
            if nbrs is not None:
                # accept with probability q01_i / (1 + zeta*ybar)
                nb = nbrs[i]
                j = nb[int(ub[(pos := pos + 1)] * len(nb))]
                zy = zeta * ybar
                if x[j] == PROTECTION and ub[(pos := pos + 1)] * (1.0 + zy) >= zy:
                    nb = nbrs[j]
                    j = nb[int(ub[(pos := pos + 1)] * len(nb))]
                if x[j] == NO_PROTECTION:
                    null_adopt += 1
                    continue
            nonadopters[k] = nonadopters[-1]
            nonadopters.pop()
            adopters.append(i)
            x[i] = PROTECTION
            if y[i] == SUSCEPTIBLE:
                last = elig[-1]
                elig[elig_pos[i]] = last
                elig_pos[last] = elig_pos[i]
                elig.pop()
                a_elig -= a[i]
            n_adopt += 1
            moved = True
            if record:
                log_event((t, K_ADOPT, i, -1))
        else:
            k = int(ub[(pos := pos + 1)] * n1)
            i = adopters[k]
            if nbrs is not None:
                # accept with probability q10_i / (1 + c)
                nb = nbrs[i]
                j = nb[int(ub[(pos := pos + 1)] * len(nb))]
                if x[j] == NO_PROTECTION and ub[(pos := pos + 1)] * (1.0 + c) >= c:
                    nb = nbrs[j]
                    j = nb[int(ub[(pos := pos + 1)] * len(nb))]
                if x[j] == PROTECTION:
                    null_drop += 1
                    continue
            adopters[k] = adopters[-1]
            adopters.pop()
            nonadopters.append(i)
            x[i] = NO_PROTECTION
            if y[i] == SUSCEPTIBLE:
                elig_pos[i] = n_elig
                elig.append(i)
                a_elig += a[i]
            n_drop += 1
            moved = True
            if record:
                log_event((t, K_DROP, i, -1))
        if target is not None:
            # the target is susceptible and unprotected, so eligible
            y[target] = INFECTED
            infected.append(target)
            last = elig[-1]
            elig[elig_pos[target]] = last
            elig_pos[last] = elig_pos[target]
            elig.pop()
            a_inf += a[target]
            a_elig -= a[target]
            n_infect += 1
            sick = True
            if record:
                log_event((t, K_INFECTION, target, source))

    if contacts is not None:
        # the contacts after the loop's last event still count, and join the log
        for _ in candidates:
            pass
        n_contact = contacts.count
    # no event changes the state between a recompute and a break above, so
    # n1 and n_inf are the counts the lists hold, checked here once
    _check_counts(x, y, n1, n_inf)
    lumped_events = 0
    if lumped_at is not None:
        # The count phase. Nobody protects, so every sampled member's
        # attribute is known: a recovered agent and an infection target are
        # both eligible. Only the infected count k moves, by one per event. The draws come a block at a time in the main loop's
        # order (the member word read and skipped), and every rate is the
        # double the main loop computes.
        _check_lumped(n, n1, n_inf, n_elig)
        # no agent list is read again, so the tables below take their place
        del x, y, a, adopters, nonadopters, infected, elig, elig_pos
        draws = chain.from_iterable(words.count_draws(pos))
        k = k0 = n_inf
        # every rate is a function of k, so the loop reads tables
        tot, inv, thr = map(np.ndarray.tolist, _count_tables(n, a0, mu, per_pair, bidi))
        for e, u in draws:
            t_new = t + inv[k] * e  # inf in an absorbing state
            while t_next < t_new and t_next < horizon:
                out_x.append(0.0)
                out_y.append(k / n)
                t_next = grid_t[len(out_x)]
            if not t_new < horizon:  # nan too, for inf * 0.0
                break
            t = t_new
            k += -1 if u * tot[k] < thr[k] else 1  # a recovery, else an infection
        done, pos = words.count_stop(tot[k] > 0.0)
        # each event moved k by one, `recoveries` of them down
        recoveries = (done + k0 - k) // 2
        n_inf, n_rec, n_infect = k, n_rec + recoveries, n_infect + done - recoveries
        n_elig = n - n_inf
        lumped_events = done
        _check_lumped(n, n1, n_inf, n_elig)
    while len(out_x) < grid.size:  # the state holds through the horizon
        out_x.append(n1 / n)
        out_y.append(n_inf / n)
    meta = {"seed": cfg.seed, "rng": RNG_NAME, "mode": cfg.infection_mode,
            "directionality": cfg.directionality, "n": n,
            "events": dict(zip(EVENT_KINDS, (n_rec, n_infect, n_adopt, n_drop, n_contact))),
            "null_proposals": {EVENT_ADOPT: null_adopt, EVENT_DROP: null_drop},
            "words": words.consumed(pos), "contact_words": 0 if contacts is None else contacts.words,
            "lumped_at": lumped_at, "lumped_events": lumped_events}
    return Trajectory(times=grid, xs=np.array(out_x), ys=np.array(out_y), params=p, meta=meta), log


@dataclass
class EnsembleResult:
    """Pointwise mean and deviation across seeded replicate runs."""

    times: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray
    x_std: np.ndarray
    y_std: np.ndarray
    finals: np.ndarray  # (n_runs, 2)
    seeds: list[int]
    params: ModelParams

    @property
    def n_runs(self) -> int:
        return len(self.seeds)

    def mean_trajectory(self) -> Trajectory:
        return Trajectory(
            times=self.times,
            xs=self.x_mean,
            ys=self.y_mean,
            params=self.params,
            meta={"n_runs": self.n_runs, "seeds": list(self.seeds)},
        )

    def to_csv(self, path) -> None:
        write_csv(path, "t,x_mean,y_mean,x_std,y_std",
                  [self.times, self.x_mean, self.y_mean, self.x_std, self.y_std])


def _one_run(cfg: AbmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    traj, _ = simulate(cfg)
    return traj.times, traj.xs, traj.ys


def check_ensemble_size(n_runs: int, n_jobs: int) -> None:
    """Raise ConfigError unless n_runs and n_jobs are both >= 1."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, not {n_runs!r}")
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, not {n_jobs!r}")


def ensemble(cfg: AbmConfig, n_runs: int, n_jobs: int = 1) -> EnsembleResult:
    """Replicate runs with seeds cfg.seed + 0 ... cfg.seed + n_runs - 1."""
    check_ensemble_size(n_runs, n_jobs)
    seeds = [cfg.seed + k for k in range(n_runs)]
    cfgs = [dataclasses.replace(cfg, seed=s) for s in seeds]
    # a pool forks all its workers at once, so no more than there are runs
    n_jobs = min(n_jobs, n_runs)
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_one_run, cfgs))
    else:
        results = [_one_run(c) for c in cfgs]
    times = results[0][0]
    xs = np.stack([r[1] for r in results])
    ys = np.stack([r[2] for r in results])
    ddof = 1 if n_runs > 1 else 0
    return EnsembleResult(
        times=times,
        x_mean=xs.mean(axis=0),
        y_mean=ys.mean(axis=0),
        x_std=xs.std(axis=0, ddof=ddof),
        y_std=ys.std(axis=0, ddof=ddof),
        finals=np.column_stack([xs[:, -1], ys[:, -1]]),
        seeds=seeds,
        params=cfg.params,
    )
