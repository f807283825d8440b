"""``Parameter`` / ``Module`` containers and state-dict (de)serialisation.

Modules are the unit GraphInfer's *hierarchical model segmentation* (§3.4)
operates on: a trained K-layer GNN is split into K+1 slices, each slice being
the state-dict of one layer module.  ``state_dict`` / ``load_state_dict``
therefore round-trip through plain ``dict[str, np.ndarray]`` so slices can be
shipped to MapReduce reducers (and to parameter servers) without this
framework on the wire.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Sequential", "StateLayout"]


@dataclass(frozen=True)
class StateLayout:
    """Fixed mapping of a state dict onto one contiguous float32 slab.

    The shared-memory parameter server keeps the whole model as a single
    flat ``float32`` vector; this layout (sorted parameter names, C-order
    slices) is the contract both sides agree on.  It is plain data —
    picklable, so worker processes can carry it — and every array it hands
    back from :meth:`unflatten` is a *view* into the given slab, which is
    what makes a pull a view refresh instead of a serialization pass.

    The shared-memory and TCP parameter-server transports
    (:mod:`repro.ps.shm`, :mod:`repro.ps.tcp`) both speak it; any state
    dict — a whole model, a raw ``named_parameters`` mapping — flattens
    the same way.  :meth:`flatten` accepts plain arrays or
    ``Parameter``/``Tensor`` values, and ``out`` may be any float32 view
    of the right length (e.g. a sub-range of a larger slab).
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    total_size: int

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "StateLayout":
        names = tuple(sorted(state))
        shapes, offsets, offset = [], [], 0
        for name in names:
            # accept raw arrays or Parameter/Tensor objects (``.data`` holds
            # the ndarray)
            shape = tuple(np.shape(getattr(state[name], "data", state[name])))
            shapes.append(shape)
            offsets.append(offset)
            offset += int(np.prod(shape, dtype=np.int64)) if shape else 1
        return cls(names, tuple(shapes), tuple(offsets), offset)

    @classmethod
    def from_module(cls, module: "Module") -> "StateLayout":
        return cls.from_state(dict(module.named_parameters()))

    def _slot(self, i: int) -> slice:
        shape = self.shapes[i]
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return slice(self.offsets[i], self.offsets[i] + size)

    def flatten(self, state: dict[str, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """Pack ``state`` into ``out`` (or a fresh ``float32`` vector)."""
        if out is None:
            out = np.empty(self.total_size, dtype=np.float32)
        if out.shape != (self.total_size,) or out.dtype != np.float32:
            raise ValueError(
                f"slab must be float32[{self.total_size}], got {out.dtype}{out.shape}"
            )
        missing = set(self.names) - state.keys()
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for i, name in enumerate(self.names):
            raw = state[name]
            value = np.asarray(getattr(raw, "data", raw), dtype=np.float32)
            if value.shape != self.shapes[i]:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != expected {self.shapes[i]}"
                )
            out[self._slot(i)] = value.reshape(-1)
        return out

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """State dict of *views* into ``flat`` (no copies)."""
        if flat.shape != (self.total_size,):
            raise ValueError(f"expected float32[{self.total_size}], got {flat.shape}")
        return {
            name: flat[self._slot(i)].reshape(self.shapes[i])
            for i, name in enumerate(self.names)
        }


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with automatic parameter/submodule registration."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if "_parameters" not in self.__dict__:
            raise RuntimeError(
                f"call super().__init__() before assigning attributes on {type(self).__name__}"
            )
        self._parameters.pop(name, None)
        self._modules.pop(name, None)
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------ traversal
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ----------------------------------------------------------------- mode
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------ state i/o
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """In-place load (keeps parameter object identity — PS references
        into the model stay valid).  Strict: keys and shapes must match."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        unexpected = state.keys() - own.keys()
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != expected {param.data.shape}"
                )
            param.data[...] = value

    # -------------------------------------------------------------- calling
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """List container whose elements are registered submodules."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)


class Sequential(Module):
    """Feed-forward chain of modules."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(list(modules))

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
