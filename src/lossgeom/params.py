"""Parameter record defining every random ensemble draw.

All experiments are pure functions of a ``ModelParams`` value; two runs with
equal parameters produce identical results (see :mod:`lossgeom.rng`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

# A Box-Muller radius is at most sqrt(-2 ln 2**-53) < 8.572 (lossgeom.rng), so a
# logit is at most 8.572 sigma_z and softmax's z - max z at most twice that.
_SIGMA_Z_MAX = sys.float_info.max / (2 * 8.572)


@dataclass(frozen=True)
class ModelParams:
    """Scalars defining the random gradient/Hessian ensemble.

    Defaults reproduce the reference configuration: N=300 examples, C=10
    classes, D=1000 weights, logit std 15, mean-gradient std 1/sqrt(D),
    residual std 0.7/sqrt(D), simulated accuracy 0.95, 10-dimensional
    projection hyperplane.

    ``sigma_c`` and ``sigma_e`` default to ``None`` meaning "use the
    reference scaling for this D"; they are resolved to concrete floats at
    construction time, so a constructed instance always carries numbers.
    """

    n_examples: int = 300
    n_classes: int = 10
    n_weights: int = 1000
    sigma_z: float = 15.0
    sigma_c: float = field(default=None)  # type: ignore[assignment]
    sigma_e: float = field(default=None)  # type: ignore[assignment]
    length_beta: float = 0.0
    target_accuracy: float = 0.95
    seed: int = 0
    hyperplane_dim: int = 10

    def __post_init__(self) -> None:
        for name in ("n_examples", "n_classes", "n_weights", "hyperplane_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v < 2**63:
                raise ValueError(f"{name} must be a positive integer < 2**63, got {v!r}")
        if self.sigma_c is None:
            object.__setattr__(self, "sigma_c", 1.0 / math.sqrt(self.n_weights))
        if self.sigma_e is None:
            object.__setattr__(self, "sigma_e", 0.7 / math.sqrt(self.n_weights))
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.hyperplane_dim > self.n_weights:
            raise ValueError(
                f"hyperplane_dim ({self.hyperplane_dim}) must not exceed "
                f"n_weights ({self.n_weights})"
            )
        for name in ("sigma_z", "sigma_c", "sigma_e", "length_beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")
        if self.sigma_z > _SIGMA_Z_MAX:
            raise ValueError(f"sigma_z must be at most {_SIGMA_Z_MAX:.6g}, past which a logit "
                             f"gap of 2 * 8.572 * sigma_z overflows, got {self.sigma_z!r}")
        # A tensor entry is at most a = 8.572 ((1 + length_beta) sigma_c + sigma_e), a
        # centered one 2a. Norms sum D squares and the Hessian N*C products of such
        # values; those stay finite while each term of a is at most sqrt(max / sums) / 4.
        sums = max(self.n_weights, self.n_examples * self.n_classes)
        bound = math.sqrt(sys.float_info.max / sums) / (4 * 8.572)
        for name, scale in (("sigma_c", 1 + self.length_beta), ("sigma_e", 1.0)):
            v = getattr(self, name)
            if v and not sys.float_info.min <= v * v < math.inf:  # squared in the Hessian
                raise ValueError(f"{name} must be 0 or have a square in "
                                 f"[{sys.float_info.min:g}, inf), got {v!r}")
            if v * scale > bound:
                raise ValueError(f"{name} must be at most {bound / scale:.6g}, past which sums "
                                 f"of squares of the gradients overflow, got {v!r}")
        if not 0.0 <= self.target_accuracy <= 1.0:
            raise ValueError(
                f"target_accuracy must lie in [0, 1], got {self.target_accuracy!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
