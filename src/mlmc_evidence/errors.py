"""Exception types shared across the package.

The CLI maps these onto exit codes: contract/usage problems exit with 1,
runtime guards (divergence, resource caps) exit with 2.
"""


class ContractViolation(ValueError):
    """An input broke a documented precondition (empty buffer, non-finite
    value, probability outside (0, 1), ...)."""


class UnsupportedOperation(RuntimeError):
    """The requested operation needs a capability this model does not have,
    e.g. a closed-form evidence oracle."""


class ResourceGuardExceeded(RuntimeError):
    """A draw tripped a guard: a sampled level above the configured level
    cap, or `estimator.draw_chunks` members that may need 2^63 bytes or more.
    Also raised when a variance profile's worker process exits mid-call.

    The cap is a guard against runaway cost, not a truncation of the level
    distribution: hitting it is an error so the estimator never silently
    renormalizes."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""

    def __init__(self, step: int, grad_norm_theta: float, grad_norm_phi: float):
        self.step = step
        self.grad_norm_theta = grad_norm_theta
        self.grad_norm_phi = grad_norm_phi
        super().__init__(
            f"non-finite parameter after step {step} "
            f"(|grad_theta|={grad_norm_theta:.6g}, |grad_phi|={grad_norm_phi:.6g})"
        )

    def __reduce__(self):
        # rebuilt from its fields, not from the message a plain exception keeps
        return type(self), (self.step, self.grad_norm_theta, self.grad_norm_phi)
