"""Hypothesis property tests on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EDNParams
from repro.core.labels import (
    MixedRadix,
    digits_from_int,
    int_from_digits,
    reverse_bits,
    rotate_left,
    rotate_right,
)
from repro.core.permutations import Permutation, gamma, gamma_inverse
from repro.core.tags import DestinationTag, RetirementOrder
from repro.core.topology import EDNTopology
from repro.sim.stagegraph import StageGraphReference, edn_graph

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

powers_of_two = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def edn_params(draw):
    """A random valid small EDN shape."""
    b = draw(st.sampled_from([2, 4, 8]))
    c = draw(st.sampled_from([1, 2, 4]))
    a = b * c  # square hyperbars keep sizes manageable
    l = draw(st.integers(min_value=1, max_value=3))
    return EDNParams(a, b, c, l)


@st.composite
def label_and_width(draw):
    width = draw(st.integers(min_value=1, max_value=16))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return value, width


@st.composite
def radices_and_value(draw):
    radices = tuple(
        draw(st.lists(st.sampled_from([2, 3, 4, 5, 8]), min_size=1, max_size=5))
    )
    size = 1
    for r in radices:
        size *= r
    value = draw(st.integers(min_value=0, max_value=size - 1))
    return radices, value


# ---------------------------------------------------------------------------
# Label properties
# ---------------------------------------------------------------------------


class TestLabelProperties:
    @given(radices_and_value())
    def test_digit_expansion_roundtrips(self, case):
        radices, value = case
        assert int_from_digits(digits_from_int(value, radices), radices) == value

    @given(label_and_width(), st.integers(min_value=0, max_value=40))
    def test_rotations_invert(self, case, k):
        value, width = case
        assert rotate_right(rotate_left(value, width, k), width, k) == value

    @given(label_and_width())
    def test_rotate_by_width_is_identity(self, case):
        value, width = case
        assert rotate_left(value, width, width) == value

    @given(label_and_width())
    def test_bit_reversal_is_involution(self, case):
        value, width = case
        assert reverse_bits(reverse_bits(value, width), width) == value

    @given(st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=4), st.data())
    def test_mixed_radix_digit_edit(self, radices, data):
        scheme = MixedRadix(radices)
        value = data.draw(st.integers(min_value=0, max_value=scheme.size - 1))
        position = data.draw(st.integers(min_value=0, max_value=len(radices) - 1))
        digit = data.draw(st.integers(min_value=0, max_value=radices[position] - 1))
        edited = scheme.with_digit(value, position, digit)
        assert scheme.digit(edited, position) == digit
        # Other digits untouched.
        before, after = scheme.to_digits(value), scheme.to_digits(edited)
        for i, (x, y) in enumerate(zip(before, after)):
            if i != position:
                assert x == y


# ---------------------------------------------------------------------------
# Gamma properties
# ---------------------------------------------------------------------------


class TestGammaProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.data(),
    )
    def test_gamma_bijective_and_invertible(self, n_bits, j, k, data):
        j = min(j, n_bits)
        y = data.draw(st.integers(min_value=0, max_value=(1 << n_bits) - 1))
        z = gamma(y, n_bits, j, k)
        assert 0 <= z < (1 << n_bits)
        assert gamma_inverse(z, n_bits, j, k) == y

    @given(st.integers(min_value=2, max_value=10), st.data())
    def test_gamma_preserves_low_bits(self, n_bits, data):
        j = data.draw(st.integers(min_value=0, max_value=n_bits))
        k = data.draw(st.integers(min_value=0, max_value=5))
        y = data.draw(st.integers(min_value=0, max_value=(1 << n_bits) - 1))
        mask = (1 << j) - 1
        assert gamma(y, n_bits, j, k) & mask == y & mask


# ---------------------------------------------------------------------------
# Permutation properties
# ---------------------------------------------------------------------------

permutations = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.permutations(range(n))
)


class TestPermutationProperties:
    @given(permutations)
    def test_inverse_composes_to_identity(self, mapping):
        p = Permutation(mapping)
        assert (p.inverse() @ p).is_identity()
        assert (p @ p.inverse()).is_identity()

    @given(permutations, st.data())
    def test_apply_to_then_invert(self, mapping, data):
        p = Permutation(mapping)
        items = list(range(p.size))
        moved = p.apply_to(items)
        restored = p.inverse().apply_to(moved)
        assert restored == items

    @given(permutations)
    def test_cycles_partition_moved_points(self, mapping):
        p = Permutation(mapping)
        in_cycles = {x for cycle in p.cycles() for x in cycle}
        moved = {i for i in range(p.size) if p(i) != i}
        assert in_cycles == moved


# ---------------------------------------------------------------------------
# Network invariants
# ---------------------------------------------------------------------------


class TestNetworkProperties:
    @settings(max_examples=25, deadline=None)
    @given(edn_params(), st.data())
    def test_lone_message_always_delivered(self, params, data):
        source = data.draw(st.integers(min_value=0, max_value=params.num_inputs - 1))
        dest = data.draw(st.integers(min_value=0, max_value=params.num_outputs - 1))
        net = StageGraphReference(edn_graph(params))
        dests = np.full(params.num_inputs, -1, dtype=np.int64)
        dests[source] = dest
        result = net.route(dests)
        assert result.output[source] == dest

    @settings(max_examples=20, deadline=None)
    @given(edn_params(), st.data())
    def test_deliveries_unique_and_correct(self, params, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
        result = StageGraphReference(edn_graph(params)).route(dests)
        delivered_mask = result.blocked_stage == 0
        outputs = result.output[delivered_mask]
        assert len(np.unique(outputs)) == len(outputs)
        assert np.array_equal(outputs, dests[delivered_mask])

    @settings(max_examples=20, deadline=None)
    @given(edn_params())
    def test_interstage_is_bijection(self, params):
        topo = EDNTopology(params)
        for i in range(1, params.l + 1):
            width = params.wires_after_stage(i)
            images = {topo.interstage(i, y) for y in range(width)}
            assert len(images) == width

    @settings(max_examples=20, deadline=None)
    @given(edn_params(), st.data())
    def test_fixup_inverts_landing(self, params, data):
        order_tuple = tuple(data.draw(st.permutations(range(params.l))))
        order = RetirementOrder(order_tuple)
        fixup = order.fixup_permutation(params)
        output = data.draw(st.integers(min_value=0, max_value=params.num_outputs - 1))
        tag = DestinationTag.from_output(output, params)
        assert fixup(order.landing_output(tag, params)) == output

    @settings(max_examples=15, deadline=None)
    @given(edn_params())
    def test_cost_closed_forms(self, params):
        from repro.core.cost import (
            crosspoint_cost,
            crosspoint_cost_closed_form,
            wire_cost,
            wire_cost_closed_form,
        )

        topo = EDNTopology(params)
        assert crosspoint_cost(params) == crosspoint_cost_closed_form(params)
        assert crosspoint_cost(params) == topo.count_crosspoints()
        assert wire_cost(params) == wire_cost_closed_form(params)
        assert wire_cost(params) == topo.count_wires()

    @settings(max_examples=15, deadline=None)
    @given(edn_params(), st.floats(min_value=1e-12, max_value=1.0))
    def test_acceptance_probability_in_unit_interval(self, params, r):
        # Rates below ~1e-12 reach subnormal territory where intermediate
        # flushes can round PA to 0; physical request rates never get there.
        from repro.core.analysis import acceptance_probability

        pa = acceptance_probability(params, r)
        assert 0.0 < pa <= 1.0 + 1e-12
