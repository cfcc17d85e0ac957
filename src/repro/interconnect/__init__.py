"""Interconnect substrate: crossbar, butterfly networks, topology, routing.

Names resolve lazily (PEP 562, :mod:`repro._lazy`): importing the
package imports none of its submodules, and the first access of an
exported name imports the one submodule that defines it (see
:mod:`repro.arch` for the import cycle this keeps closed).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "butterfly": ("ButterflyNetwork",),
    "crossbar": ("LogarithmicCrossbar",),
    "routing": ("FabricRouter",),
    "topology": ("ClusterTopology", "LatencyTable"),
})
