"""G_b(X, Y) family and the H(Y|X) = 2b/3 entropy identity."""

import pytest

from repro.graphs.validation import connected_components
from repro.lowerbound import (
    conditional_entropy_exact,
    conditional_entropy_monte_carlo,
    random_gb_instance,
)


class TestInstance:
    def test_connectivity_guarantee(self, rng):
        for _ in range(20):
            inst = random_gb_instance(8, rng)
            assert all(x | y for x, y in zip(inst.x_bits, inst.y_bits))

    def test_edge_structure(self, rng):
        inst = random_gb_instance(5, rng, u=100, w=101, v_start=0)
        edges = inst.edges()
        assert (100, 101) in edges
        for (a, c) in edges[1:]:
            assert a in (100, 101) and c in inst.v

    def test_as_graph_connected(self, rng):
        inst = random_gb_instance(6, rng, u=0, w=1, v_start=2)
        es = inst.edges()
        g = inst.as_graph([0.1 * (i + 1) for i in range(len(es))])
        assert len(connected_components(g)) == 1

    def test_as_graph_weight_arity(self, rng):
        inst = random_gb_instance(3, rng)
        with pytest.raises(ValueError):
            inst.as_graph([0.5])

    def test_uniform_sampling_hits_all_patterns(self, rng):
        seen = set()
        for _ in range(200):
            inst = random_gb_instance(1, rng)
            seen.add((inst.x_bits[0], inst.y_bits[0]))
        assert seen == {(1, 0), (0, 1), (1, 1)}


class TestEntropy:
    @pytest.mark.parametrize("b", [1, 2, 5, 12, 30])
    def test_exact_is_two_thirds_b(self, b):
        assert conditional_entropy_exact(b) == pytest.approx(2 * b / 3, rel=1e-9)

    def test_monte_carlo_converges(self, rng):
        b = 9
        est = conditional_entropy_monte_carlo(b, 20_000, rng)
        assert est == pytest.approx(2 * b / 3, rel=0.05)


class TestPartitionConcentration:
    def test_u_machine_sees_few_bits_of_y(self, rng):
        """Appendix A.4's Chernoff step: under the random vertex
        partition, the machine hosting u co-hosts ≈ b/k of the v_i's —
        the information it gets 'for free' is only (1+ζ)b/k bits."""
        from repro.sim import random_vertex_partition

        b, k, trials = 120, 4, 200
        zeta = 0.75
        over = 0
        for t in range(trials):
            vp = random_vertex_partition(range(b + 2), k, rng)
            u_home = vp.home(b)  # vertices b, b+1 play u, w
            free_bits = sum(1 for i in range(b) if vp.home(i) == u_home)
            if free_bits > (1 + zeta) * b / k:
                over += 1
        assert over <= 0.05 * trials  # exponentially rare in the theorem
