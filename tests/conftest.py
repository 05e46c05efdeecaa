import math
from contextlib import contextmanager
from itertools import zip_longest
from types import SimpleNamespace

import pytest

from sdnsim import harness
from sdnsim.core import (
    ControlChannel,
    LinkSpec,
    MICROSECOND,
    MILLISECOND,
    TopologySpec,
    build_topology,
)
from sdnsim.kernel import Kernel

GBPS = 1_000_000_000
MBPS = 1_000_000


def linear_chain_spec(n: int = 10, capacity: int = GBPS,
                      propagation: int = MILLISECOND,
                      hosts_at: tuple[int, ...] = (1, 10)) -> TopologySpec:
    """S1-S2-...-Sn chain with hosts H<i> attached at the given switches."""
    switches = tuple(f"S{i}" for i in range(1, n + 1))
    links = tuple(LinkSpec(f"S{i}", f"S{i + 1}", capacity, propagation)
                  for i in range(1, n))
    hosts = tuple((f"H{i}", f"S{i}") for i in hosts_at)
    return TopologySpec(switches, hosts, links)


def ring_with_chords_spec(capacity: int = GBPS,
                          propagation: int = MILLISECOND) -> TopologySpec:
    """10-switch ring plus two chords; three disjoint 3-hop S1->S8 routes."""
    switches = tuple(f"S{i}" for i in range(1, 11))
    ring = [LinkSpec(f"S{i}", f"S{i + 1}", capacity, propagation)
            for i in range(1, 10)]
    ring.append(LinkSpec("S10", "S1", capacity, propagation))
    chords = [LinkSpec("S1", "S6", capacity, propagation),
              LinkSpec("S3", "S8", capacity, propagation)]
    hosts = tuple((f"H{i}", f"S{i}") for i in range(1, 9))
    return TopologySpec(switches, hosts, tuple(ring + chords))


@pytest.fixture
def chain10():
    return build_topology(linear_chain_spec())


@pytest.fixture
def ring10():
    return build_topology(ring_with_chords_spec())


@pytest.fixture
def symmetric_control():
    return ControlChannel(default_c2s=250 * MICROSECOND,
                          default_s2c=250 * MICROSECOND)


def experiment_runs(scenario, variants, seeds, sweep=None):
    """(swept scenario, variant, seed, RunResult with its log) of every run
    that run_experiment makes, in the order it makes them."""
    run_single = harness.run_single
    runs = []

    def recorded(swept, variant, seed, **kwargs):
        kwargs["keep_log"] = True
        done = run_single(swept, variant, seed, **kwargs)
        runs.append((swept, variant, seed, done))
        return done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_single", recorded)
        harness.run_experiment(scenario, variants, seeds, sweep=sweep)
    return runs


def assert_runs_match_fresh_runs(runs):
    """Each recorded run's log and metrics equal a fresh run_single's."""
    for swept, variant, seed, done in runs:
        fresh = harness.run_single(swept, variant, seed)
        assert done.log.to_jsonl() == fresh.log.to_jsonl(), (variant, seed)
        assert done.metrics == fresh.metrics, (variant, seed)


@contextmanager
def counted_fast_forward():
    """Count Kernel._fast_forward's calls and the packets it replicates."""
    counts = SimpleNamespace(calls=0, packets=0)
    fast_forward = Kernel._fast_forward

    def counted(kernel, until):
        before = len(kernel.log.packets)
        fast_forward(kernel, until)
        counts.calls += 1
        counts.packets += len(kernel.log.packets) - before

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "_fast_forward", counted)
        yield counts


@contextmanager
def no_fast_forward():
    """Kernel._fast_forward patched to a no-op: the kernel simulates every
    period (the no-op also stops the loop from asking again)."""
    def off(kernel, until):
        kernel._period_at = math.inf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "_fast_forward", off)
        yield


def assert_fast_forward_exact(run):
    """run() builds a kernel and runs it to its end.  The kernel it returns
    must leave the same log, egress state and clock as one that simulates
    every period; returns the fast-forward counts."""
    with counted_fast_forward() as counts:
        kernel = run()
    with no_fast_forward():
        simulated = run()
    ours = kernel.log.to_jsonl().splitlines()
    theirs = simulated.log.to_jsonl().splitlines()
    # The first differing line alone: a diff of whole logs takes minutes.
    first = next((i for i, (a, b) in enumerate(zip_longest(ours, theirs))
                  if a != b), None)
    assert first is None, (ours[first:first + 1], theirs[first:first + 1])
    assert kernel.log == simulated.log
    assert kernel.egress_free == simulated.egress_free
    assert kernel.now == simulated.now
    return counts
