"""Tests of the benchmark's input generation (run: python -m pytest perfbench)."""

import math

import pytest

from workloads import FAILING_PAIR, SEPARATIONS, STRATUM, WORKLOADS, FarfieldDense, ShadowSweep


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b = WORKLOADS[name](5).ops(), WORKLOADS[name](5).ops()
    assert [(op.name, op.scenario) for op in a] == [(op.name, op.scenario) for op in b]
    assert len({op.name for op in a}) == len(a)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_their_number(name):
    a, b = WORKLOADS[name](5).ops(), WORKLOADS[name](6).ops()
    assert len(a) == len(b)
    assert [op.scenario for op in a] != [op.scenario for op in b]


def test_sweep_draws_one_separation_per_stratum_and_keeps_the_fixed_pair():
    for seed in range(20):
        pairs = ShadowSweep(seed).pairs
        assert pairs[-1] == FAILING_PAIR and FAILING_PAIR not in pairs[:-1]
        for kind in ("parallel", "shifted", "endfire"):
            ds = [d for k, d in pairs[:-1] if k == kind]
            strata = [int(list(SEPARATIONS).index(d)) // STRATUM for d in ds]
            assert strata == list(range(len(SEPARATIONS) // STRATUM))


def test_farfield_arcs():
    arcs = FarfieldDense(3).arcs
    assert arcs["full"] == (0.0, 2 * math.pi)
    lo, hi = arcs["quarter"]
    assert 0.0 <= lo < 2 * math.pi and hi - lo == pytest.approx(math.pi / 2, rel=1e-15)
