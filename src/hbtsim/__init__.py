"""Stochastic wave-optics simulation of geometric-phase intensity interferometry.

Two mutually incoherent, constant-modulus (phase-noise-only) light sources
feed a polarized Mach-Zehnder bench; intensity cross correlations between
the two detectors pick up a Pancharatnam phase equal to half the solid
angle enclosed by the polariser loop on the Poincaré sphere, while the
self correlations and the mean intensities do not.  The package provides
the sources (``source``), the bench and its amplitude table (``bench``),
correlation estimators (``correlate``), closed-form predictions
(``oracle``), end-to-end runs (``pipeline``) and the ``hbt`` command-line
driver (``cli``); the sphere geometry the tests hold the amplitude table to
is ``tests/poincare_reference.py``.  Import each name from its module: the
package re-exports nothing, so a command loads only the modules it uses.
"""

__version__ = "0.1.0"
