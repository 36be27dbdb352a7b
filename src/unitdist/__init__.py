"""Discrete and continuous unit-distance measurements.

Point-set unit-pair counting and tuple censuses, exact Cantor-type set
constructions with delta-neighborhood rasterization, band-restricted pair
measures (the |D^delta| of the distance band 1 +- w delta), scale sweeps
with exponent fits against the closed-form bound table, unit-frame
geometry, and Fourier-side energy checks.

Each name lives in one module and is imported from there, e.g.
`from unitdist.measure import pair_band_measure_product`; importing the
package itself loads no module.
"""

__version__ = "0.1.0"
