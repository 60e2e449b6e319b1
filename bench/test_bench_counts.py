"""The benchmark's exact counts repeat for a seed, and tracing changes nothing.

Runs two units of every workload at a tiny size, once plain and once traced,
and requires identical per-method counts (solves, converged, evaluations,
trials, accepted iterates) and no failed output check.
"""

import dataclasses

import pytest

import workloads  # first: it puts the checkout's src/ on sys.path
from demandinv import LogitMarket, PureCharMarket
import demandinv.cli as cli_mod
import demandinv.harness as harness_mod
import demandinv.purechar as purechar_mod

TINY = {
    name: dataclasses.replace(wl, n=12, max_iterations=25, replications=min(wl.replications, 2))
    for name, wl in workloads.WORKLOADS.items()
}


def run_counts(wl, seed, workdir, traced):
    runner = workloads.Runner(wl, seed, workdir)
    units = [runner.unit(k, traced) for k in range(2)]
    assert [u.problems for u in units] == [[], []]
    return workloads.exact_counts([s for u in units for s in u.solves], workloads.ALL_METHODS)


def call_sites():
    return (
        harness_mod.invert,
        cli_mod.main,
        cli_mod.run_suite,
        cli_mod.write_json,
        LogitMarket.evaluate,
        PureCharMarket.evaluate,
        purechar_mod.upper_envelope,
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_identical_counts(name, tmp_path, monkeypatch):
    # The solve log sees only solves run in this process.
    monkeypatch.setenv(harness_mod.WORKERS_ENV, "1")
    before = call_sites()
    plain = run_counts(TINY[name], 3, tmp_path / "plain", traced=False)
    traced = run_counts(TINY[name], 3, tmp_path / "traced", traced=True)
    assert plain == traced
    assert all(plain[m]["solves"] == 2 * TINY[name].replications for m in TINY[name].methods)
    assert call_sites() == before
