"""Cluster execution and the global combination phase (paper §III-A).

FREERIDE is a cluster middleware: after each node combines its threads'
reduction-object copies locally, "the results produced by all nodes in a
cluster are combined again to form the final result" — all-to-one for
small objects, parallel merge for large ones.

The engine runs one node, as the paper measures; the cross-node phase is
priced by the machine model.  This example shows how the two
global-combination strategies scale with node count for a small (k-means)
and a large (PCA covariance) reduction object.

Run:  python examples/cluster_scaling.py
"""

from repro.machine import ClusterCombinePhase, NetworkModel


def combination_strategy_model() -> None:
    print("global combination on the modeled cluster "
          "(1 Gb/s network, 2.33 GHz nodes):")
    print(f"{'nodes':>6} {'RO':>20} {'all-to-one':>12} {'tree merge':>12}")
    for elements, label in ((500, "k-means (4 KB)"), (1_000_000, "PCA cov (8 MB)")):
        for nodes in (2, 4, 8, 16, 32):
            times = {}
            for strategy in ("all_to_one", "parallel_merge"):
                phase = ClusterCombinePhase(
                    "g",
                    num_nodes=nodes,
                    ro_elements=elements,
                    ro_bytes=elements * 8,
                    cycles_per_element=2.0,
                    strategy=strategy,
                    network=NetworkModel(),
                )
                times[strategy] = phase.critical_path_seconds(2.33e9)
            print(f"{nodes:>6} {label:>20} "
                  f"{times['all_to_one'] * 1e3:>10.2f}ms "
                  f"{times['parallel_merge'] * 1e3:>10.2f}ms")


if __name__ == "__main__":
    combination_strategy_model()
