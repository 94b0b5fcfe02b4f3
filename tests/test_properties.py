"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chem.atom import Atom
from repro.chem.formats.sdf import parse_sdf, write_sdf
from repro.chem.molecule import Molecule
from repro.cloud.simclock import SimClock
from repro.perf.metrics import efficiency, improvement_percent, speedup
from repro.workflow.relation import Relation, tuple_key
from repro.workflow.scheduler import GreedyCostScheduler, PendingActivation
from repro.cloud.cluster import CoreHandle

# -- strategies ---------------------------------------------------------------

elements = st.sampled_from(["C", "N", "O", "S", "H", "P", "F"])
coords3 = st.tuples(
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
)


@st.composite
def molecules(draw, min_atoms=1, max_atoms=12):
    n = draw(st.integers(min_atoms, max_atoms))
    m = Molecule("HYP")
    for i in range(n):
        m.add_atom(Atom(i + 1, f"A{i + 1}", draw(elements), np.array(draw(coords3))))
    # A random spanning-tree-ish bond set keeps indices valid.
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        if not m.has_bond(i, j):
            m.add_bond(i, j)
    return m


class TestMoleculeProperties:
    @given(molecules())
    @settings(max_examples=30, deadline=None)
    def test_sdf_roundtrip_preserves_structure(self, mol):
        back = parse_sdf(write_sdf(mol))
        assert len(back) == len(mol)
        assert len(back.bonds) == len(mol.bonds)
        assert np.allclose(back.coords, mol.coords, atol=1e-3)
        assert [a.element for a in back.atoms] == [a.element for a in mol.atoms]

    @given(molecules(min_atoms=2))
    @settings(max_examples=30, deadline=None)
    def test_copy_equals_original(self, mol):
        c = mol.copy()
        assert len(c) == len(mol)
        assert np.allclose(c.coords, mol.coords)
        assert {(b.i, b.j) for b in c.bonds} == {(b.i, b.j) for b in mol.bonds}

    @given(molecules(min_atoms=2), st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_translation_is_additive(self, mol, dx, dy):
        before = mol.coords
        mol.translate([dx, dy, 0.0])
        mol.translate([-dx, -dy, 0.0])
        assert np.allclose(mol.coords, before, atol=1e-9)

    @given(molecules())
    @settings(max_examples=30, deadline=None)
    def test_formula_counts_all_atoms(self, mol):
        import re

        total = 0
        for sym, count in re.findall(r"([A-Z][a-z]?)(\d*)", mol.formula):
            if sym:
                total += int(count) if count else 1
        assert total == len(mol)

    @given(molecules(min_atoms=3))
    @settings(max_examples=30, deadline=None)
    def test_connected_components_partition(self, mol):
        comps = mol.connected_components()
        flat = sorted(i for comp in comps for i in comp)
        assert flat == list(range(len(mol)))


class TestRelationProperties:
    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_append_preserves_order_and_length(self, values):
        rel = Relation("r", [{"x": v} for v in values])
        assert len(rel) == len(values)
        assert rel.column("x") == values if values else True

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_tuple_keys_unique_by_index(self, values):
        rel = Relation("r", [{"x": v} for v in values])
        keys = [tuple_key(t, i) for i, t in enumerate(rel)]
        assert len(set(keys)) == len(keys)


class TestSimClockProperties:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_events_fire_in_nondecreasing_time(self, delays):
        clock = SimClock()
        fired = []
        for d in delays:
            clock.schedule(d, lambda d=d: fired.append(clock.now))
        clock.run()
        assert fired == sorted(fired)
        assert clock.now == pytest.approx(max(delays))


class TestMetricsProperties:
    @given(
        st.floats(1, 1e6, allow_nan=False),
        st.floats(1, 1e6, allow_nan=False),
        st.integers(1, 512),
    )
    @settings(max_examples=50, deadline=None)
    def test_efficiency_is_speedup_over_cores(self, base, tet, cores):
        assert efficiency(base, tet, cores) == pytest.approx(
            speedup(base, tet) / cores
        )

    @given(st.floats(1, 1e6, allow_nan=False), st.floats(1, 1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_improvement_bounded_above_by_100(self, base, tet):
        assert improvement_percent(base, tet) <= 100.0

    @given(st.floats(1, 1e6, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_no_change_no_improvement(self, t):
        assert improvement_percent(t, t) == pytest.approx(0.0)


class TestSchedulerProperties:
    @given(
        st.lists(st.floats(0.1, 1000, allow_nan=False), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_assigns_min_of_jobs_and_cores(self, costs, n_cores):
        sched = GreedyCostScheduler()
        jobs = [PendingActivation(f"j{i}", c, i) for i, c in enumerate(costs)]
        cores = [
            CoreHandle(f"vm{i}", i, 1.0 + 0.1 * i, "m3.xlarge")
            for i in range(n_cores)
        ]
        pairs = sched.assign(jobs, cores)
        assert len(pairs) == min(len(jobs), len(cores))
        # The highest-cost job always goes to the fastest core.
        if pairs:
            assert pairs[0][0].expected_cost == max(costs)
            assert pairs[0][1].speed == max(c.speed for c in cores)

    @given(st.integers(1, 10000), st.integers(1, 128))
    @settings(max_examples=30, deadline=None)
    def test_overhead_monotone(self, n_ready, n_cores):
        sched = GreedyCostScheduler()
        assert sched.overhead_seconds(n_ready, n_cores) <= sched.overhead_seconds(
            n_ready + 1, n_cores
        )
        assert sched.overhead_seconds(n_ready, n_cores) <= sched.overhead_seconds(
            n_ready, n_cores + 1
        )
