"""Golden-ratio stopping rules for transient diffusions.

A transient diffusion on (0, inf) drifts to infinity; its running
minimum settles at some final value at a random (unobservable) time.
This package solves the problem of stopping as close as possible to that
time, in expectation, using only the observed past.  For Bessel
processes the answer is a ratio rule: stop when the state first reaches
lam(d) times the running minimum, where lam(d) solves a polynomial
characteristic equation; at d = 3 the threshold is 1 + phi (phi the
golden ratio) and the rule becomes, through an exact change of variable,
the 61.8% golden-retracement trailing stop on a CEV price bubble.

Layout: `diffusion` (model plumbing: scale, speed, hitting laws),
`bessel` (closed forms: thresholds, values, stopped laws), `boundary`
(general-model free boundary by shooting, value quadrature, residual
diagnostics), `simulate` (deterministic Monte Carlo engine and rule
comparisons), `cev` (price-side drawdown picture, Fibonacci levels),
`checks` (statistical certification), `cli` (the `goldenstop` command).

Each module's ``__all__`` is the one list of its public names; the
package re-exports all of them except `cli`'s, which needs click.
"""

from . import bessel, boundary, cev, checks, diffusion, errors, simulate
from .errors import *  # noqa: F401,F403
from .diffusion import *  # noqa: F401,F403
from .bessel import *  # noqa: F401,F403
from .boundary import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .cev import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (errors, diffusion, bessel, boundary, simulate, cev, checks)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
