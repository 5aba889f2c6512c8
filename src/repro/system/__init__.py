"""System composition: multi-core machine, attacker agent, noise.

``Machine`` steps all attached cores in lockstep over one shared
:class:`~repro.memory.hierarchy.CacheHierarchy`.  The attacker of the
paper's CrossCore model (§2.1) is an :class:`AttackerAgent`: untrusted
native code on another physical core whose only relevant behaviour is
its pattern of timed shared-LLC accesses — so it is modeled as a
bare-metal agent rather than a second pipeline.
"""

from repro.system.machine import Machine
from repro.system.agent import AttackerAgent
from repro.system.noise import NoiseInjector
from repro.system.stats import machine_metrics

__all__ = [
    "Machine",
    "AttackerAgent",
    "NoiseInjector",
    "machine_metrics",
]
