"""The torch backend — optional accelerator drop-in for the kernels.

Importing this module requires ``torch`` (the ``[torch]`` packaging
extra); everything else in the library works without it.  The registry
(:mod:`repro.backend.registry`) imports it lazily from the ``"torch"``
factory, so a torch-less install pays nothing and gets a readable
:class:`~repro.exceptions.ConfigurationError` if it asks for the
backend anyway.

Numerical contract: per-kernel agreement with the numpy reference
backend on identical float64 inputs to within a small multiple of
float64 round-off (``tests/backend/test_torch_parity.py`` pins the
tolerance).  Bit-for-bit identity is *not* promised — BLAS reduction
orders differ between libraries — which is why the engine's
differential guarantee is anchored to the numpy backend and torch is
qualified by the parity suite instead.

Method-by-method notes live next to the non-obvious translations:
numpy ``axis`` → torch ``dim``, numpy's averaged even-count median
(torch's own ``median`` takes the lower), ``partition`` via full sort,
and scalar-operand promotion for ``where``/``maximum``-family calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext
from typing import Any

import numpy as np
import torch

from repro.backend.base import ArrayBackend
from repro.exceptions import ConfigurationError

__all__ = ["TorchBackend"]

_FLOAT_DTYPES = {"float64": torch.float64, "float32": torch.float32}
_NUMPY_FLOATS = {"float64": np.float64, "float32": np.float32}


class TorchBackend(ArrayBackend):
    """torch, presented through the :class:`ArrayBackend` namespace.

    ``dtype`` selects the floating precision (``"float64"`` keeps the
    parity guarantee; ``"float32"`` trades it for accelerator speed) and
    ``device`` any valid torch device string (``"cpu"``, ``"cuda"``,
    ``"cuda:1"``, ...).  The device is validated eagerly — a grid should
    fail at configuration time, not mid-round.
    """

    name = "torch"

    def __init__(self, dtype: str = "float64", device: str = "cpu"):
        if dtype not in _FLOAT_DTYPES:
            raise ConfigurationError(
                f"torch backend dtype must be one of "
                f"{sorted(_FLOAT_DTYPES)}, got {dtype!r}"
            )
        try:
            self._device = torch.device(device)
            # A malformed-but-parseable device ("cuda" on a CPU-only
            # build) only fails on first allocation; probe it now.
            # CPU-only builds raise AssertionError ("Torch not compiled
            # with CUDA enabled") rather than RuntimeError.
            torch.empty(0, device=self._device)
        except (AssertionError, RuntimeError, ValueError) as error:
            raise ConfigurationError(
                f"torch backend cannot use device {device!r}: {error}"
            ) from error
        self._dtype_name = dtype
        self.float_dtype = _FLOAT_DTYPES[dtype]
        self.int_dtype = torch.int64
        self.bool_dtype = torch.bool

    @property
    def numpy_float_dtype(self) -> np.dtype:
        return np.dtype(_NUMPY_FLOATS[self._dtype_name])

    @property
    def device(self) -> str:
        return str(self._device)

    # -- scalar promotion ----------------------------------------------

    def _tensor_pair(self, a: Any, b: Any) -> tuple[torch.Tensor, torch.Tensor]:
        """Promote python scalars against the tensor operand (numpy's
        ufuncs do this implicitly; torch's binary ops want tensors of a
        concrete dtype on the right device)."""
        if not isinstance(a, torch.Tensor):
            anchor = b if isinstance(b, torch.Tensor) else None
            a = torch.as_tensor(
                a,
                dtype=anchor.dtype if anchor is not None else self.float_dtype,
                device=self._device,
            )
        if not isinstance(b, torch.Tensor):
            b = torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return a, b

    # -- creation & movement -------------------------------------------

    def asarray(self, x: Any, dtype: Any = None) -> torch.Tensor:
        target = self.float_dtype if dtype is None else dtype
        if isinstance(x, torch.Tensor):
            return x.to(device=self._device, dtype=target)
        # Route python sequences through numpy first: torch.as_tensor
        # on nested lists is slow, and numpy-backed memory transfers in
        # one copy.
        if not isinstance(x, np.ndarray):
            x = np.asarray(x)
        return torch.as_tensor(x, device=self._device).to(target)

    def to_numpy(self, x: Any) -> np.ndarray:
        if isinstance(x, torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def empty(self, shape: Sequence[int], dtype: Any = None) -> torch.Tensor:
        return torch.empty(
            tuple(shape),
            dtype=self.float_dtype if dtype is None else dtype,
            device=self._device,
        )

    def zeros(self, shape: Sequence[int], dtype: Any = None) -> torch.Tensor:
        return torch.zeros(
            tuple(shape),
            dtype=self.float_dtype if dtype is None else dtype,
            device=self._device,
        )

    def full(
        self, shape: Sequence[int], fill_value: Any, dtype: Any = None
    ) -> torch.Tensor:
        return torch.full(
            tuple(shape),
            fill_value,
            dtype=self.float_dtype if dtype is None else dtype,
            device=self._device,
        )

    def arange(self, stop: int, dtype: Any = None) -> torch.Tensor:
        return torch.arange(
            stop,
            dtype=self.int_dtype if dtype is None else dtype,
            device=self._device,
        )

    def copy(self, x: torch.Tensor) -> torch.Tensor:
        return x.clone()

    def astype(self, x: torch.Tensor, dtype: Any) -> torch.Tensor:
        return x.to(dtype)

    # -- elementwise ---------------------------------------------------

    def where(self, condition, a, b) -> torch.Tensor:
        a, b = self._tensor_pair(a, b)
        return torch.where(condition, a, b)

    def maximum(self, a, b) -> torch.Tensor:
        return torch.maximum(*self._tensor_pair(a, b))

    def minimum(self, a, b) -> torch.Tensor:
        return torch.minimum(*self._tensor_pair(a, b))

    def fmax(self, a, b) -> torch.Tensor:
        return torch.fmax(*self._tensor_pair(a, b))

    def abs(self, x) -> torch.Tensor:
        return torch.abs(x)

    def sqrt(self, x) -> torch.Tensor:
        return torch.sqrt(x)

    def isfinite(self, x) -> torch.Tensor:
        return torch.isfinite(x)

    def isnan(self, x) -> torch.Tensor:
        return torch.isnan(x)

    # -- contractions --------------------------------------------------

    def einsum(self, subscripts: str, *operands) -> torch.Tensor:
        return torch.einsum(subscripts, *operands)

    def transpose(self, x, axes: Sequence[int]) -> torch.Tensor:
        return x.permute(*axes)

    # -- reductions ----------------------------------------------------

    def sum(self, x, axis: int | None = None):
        return torch.sum(x) if axis is None else torch.sum(x, dim=axis)

    def mean(self, x, axis: int | None = None):
        return torch.mean(x) if axis is None else torch.mean(x, dim=axis)

    def median(self, x, axis: int):
        # numpy semantics, twice over: even counts average the two
        # middle order statistics (torch.median returns the *lower*
        # one), and any NaN along the axis poisons that slice's median
        # (a sorted NaN parks at the high end and would otherwise be
        # silently skipped).
        ordered = torch.sort(x, dim=axis).values
        m = x.shape[axis]
        if m % 2 == 1:
            result = ordered.select(axis, (m - 1) // 2).clone()
        else:
            lower = ordered.select(axis, m // 2 - 1)
            upper = ordered.select(axis, m // 2)
            result = 0.5 * (lower + upper)
        if torch.is_floating_point(x):
            nan_slices = torch.isnan(x).any(dim=axis)
            if bool(torch.any(nan_slices)):
                result = result.masked_fill(nan_slices, float("nan"))
        return result

    def max(self, x, axis: int | None = None):
        return torch.max(x) if axis is None else torch.amax(x, dim=axis)

    def min(self, x, axis: int | None = None):
        return torch.min(x) if axis is None else torch.amin(x, dim=axis)

    def any(self, x, axis: int | None = None):
        return torch.any(x) if axis is None else torch.any(x, dim=axis)

    def all(self, x, axis: int | None = None):
        return torch.all(x) if axis is None else torch.all(x, dim=axis)

    def count_nonzero(self, x, axis: int | None = None):
        return torch.count_nonzero(x, dim=axis)

    def argmin(self, x, axis: int | None = None):
        # torch's arg-reductions reject bool tensors (numpy accepts
        # them — the Bulyan committee loop arg-reduces candidate
        # masks); widen to int8 first, preserving first-index ties.
        if x.dtype is torch.bool:
            x = x.to(torch.int8)
        return torch.argmin(x) if axis is None else torch.argmin(x, dim=axis)

    def argmax(self, x, axis: int | None = None):
        if x.dtype is torch.bool:
            x = x.to(torch.int8)
        return torch.argmax(x) if axis is None else torch.argmax(x, dim=axis)

    def norm(self, x, axis: int | None = None):
        if axis is None:
            return torch.linalg.vector_norm(x)
        return torch.linalg.vector_norm(x, dim=axis)

    # -- ordering ------------------------------------------------------

    def sort(self, x, axis: int = -1) -> torch.Tensor:
        return torch.sort(x, dim=axis).values

    def argsort(self, x, axis: int = -1, stable: bool = False) -> torch.Tensor:
        return torch.argsort(x, dim=axis, stable=stable)

    def partition(self, x, kth: int, axis: int = -1) -> torch.Tensor:
        # torch has no partial sort; a full sort satisfies the partition
        # contract (kth smallest in the first kth+1 slots) and n is tiny
        # (worker counts) on the partitioned axis.
        return torch.sort(x, dim=axis).values

    def take_along_axis(self, x, indices, axis: int) -> torch.Tensor:
        return torch.take_along_dim(x, indices, dim=axis)

    # -- numerics control ----------------------------------------------

    def errstate(self):
        # torch does not emit numpy-style floating-point warnings for
        # inf/NaN arithmetic; nothing to silence.
        return nullcontext()
