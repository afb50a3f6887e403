"""specpoint: local spectra of continuous nonlinear maps.

Engines: one dimensional derivative-quadruple intervals (`dini`), eigenvalue
curves and winding-number classification for positively homogeneous planar
maps (`homog2d`), the bifurcation scan and the Jacobian reduction
(`estimators`), a symbolic compactness-rate calculus (`rates`), the
sequence-space shift model (`structured`), and a deterministic CLI (`cli`).
Import each from its module: the package itself loads none of them, so a
command loads only the engines it computes with.
"""

__version__ = "0.1.0"
