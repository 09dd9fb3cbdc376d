"""Test-only helpers: brute-force oracles and direct network access.

The oracles check the library's fast paths by exhaustive enumeration, so
they are usable on small inputs only.
"""
import itertools

from byzreg.checker import LinItem, validate_linearization
from byzreg.messages import Message
from byzreg.netsim import Simulation
from byzreg.rbcast import Send


def brute_force_linearizable(items: list[LinItem]) -> bool:
    """Try every total order; for cross-checking small traces only."""
    init = [i for i in items if i.label == "init"]
    rest = [i for i in items if i.label != "init"]
    for perm in itertools.permutations(rest):
        ok, _ = validate_linearization(init + list(perm))
        if ok:
            return True
    return False


def min_quorum_intersection(n: int, t: int) -> int:
    """Smallest possible overlap of two (n-t)-subsets of n processes."""
    return max(0, 2 * (n - t) - n)


def min_quorum_intersection_enumerated(n: int, t: int) -> int:
    """Brute-force oracle for the formula above; usable for small n only."""
    universe = range(n)
    best = n
    for q1 in itertools.combinations(universe, n - t):
        s1 = set(q1)
        for q2 in itertools.combinations(universe, n - t):
            best = min(best, len(s1.intersection(q2)))
    return best


def quorum_intersection_holds(n: int, t: int) -> bool:
    """Any two (n-t)-quorums share at least t+1 processes."""
    return min_quorum_intersection(n, t) >= t + 1


def enqueue(sim: Simulation, sender: int, receiver: int,
            payload: Message) -> int:
    """Put one message in flight, as a node's Send would; returns its id."""
    mid = len(sim._by_id)
    sim._process_effects(sender, [Send(receiver, payload)])
    return mid
