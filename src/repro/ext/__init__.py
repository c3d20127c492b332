"""Extensions beyond the paper's model.

The paper's analysis is strictly circuit-switched and bufferless ("It is
assumed that the network is circuit-switched, and so there are no buffers
or queues in the network", Section 3.2).  Buffered packet switching
lives in the compiled core (:mod:`repro.sim.buffered`); this subpackage
holds the combinatorial follow-up:

* :mod:`repro.ext.admissibility` — exhaustive censuses of which
  permutations route conflict-free in a single pass, quantifying how
  capacity enlarges the admissible set (Lemma 2's combinatorial shadow).
"""

from repro.ext.admissibility import admissible_fraction, is_admissible

__all__ = [
    "is_admissible",
    "admissible_fraction",
]
