"""Module system with a functional-parameter escape hatch.

Meta-learning needs to evaluate the *same* architecture under
*different* parameter values (the adapted ``theta_i`` of Algorithm 3)
without mutating the model.  Modules therefore resolve every parameter
through :class:`ParamContext`: by default a context maps each parameter
to itself, and :meth:`Module.functional_call` evaluates a forward pass
with any subset of parameters overridden by fully-qualified name.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor registered as trainable state of a module."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class ParamContext:
    """Resolves parameter names to tensors during a forward pass.

    ``ParamContext({})`` (or ``None`` at call sites) resolves every
    parameter to the module's own tensor; a non-empty mapping overrides
    selected fully-qualified names, which is how the adapted weights of
    the MAML inner loop flow through the network.
    """

    __slots__ = ("_overrides",)

    def __init__(self, overrides: Mapping[str, Tensor] | None = None) -> None:
        self._overrides = dict(overrides) if overrides else {}

    def resolve(self, qualified_name: str, default: Tensor) -> Tensor:
        return self._overrides.get(qualified_name, default)

    def narrowed(self, prefix: str) -> "ParamContext | None":
        """Context restricted to names under ``prefix`` (prefix stripped).

        Composite modules call this when delegating to sub-modules so
        that override names stay relative to each module.
        """
        overrides = {
            name[len(prefix) :]: tensor
            for name, tensor in self._overrides.items()
            if name.startswith(prefix)
        }
        return ParamContext(overrides) if overrides else None

    def __bool__(self) -> bool:
        return bool(self._overrides)


_EMPTY_CONTEXT = ParamContext()


class Module:
    """Base class for neural network components.

    Subclasses register :class:`Parameter` and sub-``Module`` instances
    as plain attributes; registration is detected via ``__setattr__``
    like in the major frameworks.  Forward passes receive an optional
    :class:`ParamContext` so the same module can run with external
    (adapted) weights.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # state (de)serialisation — used to snapshot tree-node initialisations
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load parameter arrays in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != param.data.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {param.data.shape}")
            param.data = arr.copy()

    # ------------------------------------------------------------------
    # forward plumbing
    # ------------------------------------------------------------------
    def forward(self, *args, ctx: ParamContext | None = None, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, ctx: ParamContext | None = None, **kwargs):
        return self.forward(*args, ctx=ctx if ctx is not None else _EMPTY_CONTEXT, **kwargs)

    def functional_call(self, overrides: Mapping[str, Tensor], *args, **kwargs):
        """Forward pass with parameters overridden by qualified name."""
        return self.forward(*args, ctx=ParamContext(overrides), **kwargs)

    def _resolve(self, ctx: ParamContext | None, qualified_name: str, default: Parameter) -> Tensor:
        if ctx is None or not ctx:
            return default
        return ctx.resolve(qualified_name, default)


def clone_parameters(module: Module) -> dict[str, Tensor]:
    """Fresh leaf tensors holding copies of a module's parameters.

    The returned dict is a valid ``overrides`` mapping for
    :meth:`Module.functional_call` and the starting point of a MAML
    inner loop.
    """
    return {name: Tensor(p.data.copy(), requires_grad=True, name=name) for name, p in module.named_parameters()}


def apply_gradient_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    lr: float,
) -> dict[str, Tensor]:
    """One detached SGD step: ``theta' = theta - lr * grad``.

    Produces fresh leaf tensors (first-order semantics: the step is not
    differentiated through).
    """
    stepped: dict[str, Tensor] = {}
    for name, p in params.items():
        g = grads.get(name)
        new = p.data if g is None else p.data - lr * g
        stepped[name] = Tensor(np.array(new, copy=True), requires_grad=True, name=name)
    return stepped


def flatten_gradients(grads: Mapping[str, np.ndarray]) -> np.ndarray:
    """Concatenate named gradients into a flat vector (sorted names)."""
    items = sorted(grads.items())
    return np.concatenate([g.ravel() for _, g in items]) if items else np.zeros(0)


LossFn = Callable[[Tensor, Tensor], Tensor]
