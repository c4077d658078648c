"""Scalable human/machine video coding kit, in four parts:

* :mod:`svhm.rdtheory` -- finite-alphabet entropies, Blahut-Arimoto solvers
  and the conditional-vs-residual rate-distortion lab.
* :mod:`svhm.entropy_model` / :mod:`svhm.range_coder` -- Laplace box-probability
  model, rate estimation and a bit-exact range coder.
* :mod:`svhm.codec` -- the two-layer (base/enhancement) scalable codec.
* :mod:`svhm.evalkit` -- the BD-Rate / break-even evaluation toolkit.
"""

__version__ = "0.1.0"
