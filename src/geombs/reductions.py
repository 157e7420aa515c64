"""Doubling reduction: duplicate every object in place.

Under closed intersection semantics a co-located copy intersects its
original and everything the original intersects, so the doubled scene's
graph is the two-copy construction whose maximum bipartite subgraph has
exactly twice the size of the original's maximum independent set.
"""
from .model import GeometricInstance


def double_instance(instance: GeometricInstance) -> GeometricInstance:
    """Scene with each object duplicated; index n + i is the copy of i."""
    return GeometricInstance(
        instance.kind,
        instance.objects + instance.objects,
        instance.disk_radius,
    )
