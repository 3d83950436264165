"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is taped implicitly: every op records its parents and a closure
that pushes the output gradient back onto them.  `backward` walks the graph
once in reverse topological order.  All storage is 64-bit; forward passes
are bit-deterministic for identical inputs.

Layer ops take batched input only: feature maps [N,C,H,W], vectors [N,n].
Inside `no_grad()` the same ops run but record nothing, in that thread only.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Ops run inside the block, in the calling thread only, record no graph."""
    prev, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _records(*parents: "Tensor") -> bool:
    """Whether an op on these parents records a graph node."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


class Tensor:
    """A float64 array plus the autograd bookkeeping attached to it."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: Array, parents: tuple["Tensor", ...], op: str,
                vjp: Callable[[Array], None]) -> "Tensor":
        out = Tensor(data)
        if _records(*parents):
            out.requires_grad = True
            out.op = op
            out._parents = parents
            out._vjp = vjp
        return out

    def _accum(self, g: Array, owned: bool = False) -> None:
        """Add g to .grad.  The first g gives zeros + g, which has the bits
        of g + 0.0 (-0.0 becomes 0.0), in the data's layout.  An owned g, one
        the caller built and drops, becomes .grad in place when its layout
        is the data's: no new buffer, no zero fill.

        So .grad never holds -0.0, and a g that differs from another only in
        the sign of a zero gives .grad the same bits."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and g.shape == self.data.shape and g.strides == self.data.strides:
                self.grad = np.add(g, 0.0, out=g)
            else:
                self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- introspection --------------------------------------------------------

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self.op}{flag})"

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def vjp(g, a=self):
            a._accum(g.reshape(a.data.shape))
        return Tensor._result(self.data.reshape(shape), (self,), "reshape", vjp)

    # -- backward ----------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad over the whole graph.

        self must be scalar; call sites own grad zeroing between passes.  The
        walk releases the graph: once an interior node's vjp has run, the node
        drops its vjp, parents and .grad, and so the arrays they hold; leaves
        keep their .grad.  A released graph cannot be walked again.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        nodes = trace(self)
        if any(node._vjp is None and node.op != "leaf" for node in nodes):
            raise ContractError("backward() through a graph an earlier backward released")
        self._accum(np.ones_like(self.data))
        while nodes:
            node = nodes.pop()
            if node.op != "leaf":
                if node.grad is not None:
                    node._vjp(node.grad)
                node._vjp, node._parents, node.grad = None, (), None


def trace(root: Tensor) -> list[Tensor]:
    """Every grad-requiring node reachable from root, parents strictly before children."""
    nodes: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return nodes


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along an existing axis; gradient splits back by the input widths."""
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    datas = [t.data for t in tensors]
    widths = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + widths)

    def vjp(g, ts=tuple(tensors), offs=offsets, ax=axis):
        for t, lo, hi in zip(ts, offs[:-1], offs[1:]):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(lo, hi)
            t._accum(g[tuple(idx)])
    return Tensor._result(np.concatenate(datas, axis=axis), tuple(tensors), "concat", vjp)


# -- layer ops -------------------------------------------------------------------


# (C, H, W, kh, kw) -> _im2col's gather index into one channels-last sample
_IM2COL_INDEX: dict[tuple[int, ...], Array] = {}


def _im2col(x: Array, kh: int, kw: int) -> tuple[Array, int, int]:
    # [N,C,H,W] -> ([N*H'*W', C*kh*kw], H', W') for stride-1 valid windows,
    # columns ordered (c, di, dj): one gather from the channels-last samples
    n, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    key = (c, h, w, kh, kw)
    index = _IM2COL_INDEX.get(key)
    if index is None:
        i, j, ch, di, dj = np.ix_(range(ho), range(wo), range(c), range(kh), range(kw))
        index = (((i + di) * w + j + dj) * c + ch).reshape(ho * wo, -1)
        index.flags.writeable = False       # shared by every later call
        _IM2COL_INDEX[key] = index
    samples = x.transpose(0, 2, 3, 1).reshape(n, h * w * c)    # a view when channels-last
    return np.take(samples, index, axis=1).reshape(n * ho * wo, c * kh * kw), ho, wo


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """Valid cross-correlation, stride 1, no bias.

    x: [N,C_in,H,W]; kernels: [C_out,C_in,kh,kw] -> [N,C_out,H-kh+1,W-kw+1].
    The input gradient is one product with the kernel matrix, whose kh*kw
    column blocks are added back onto the input (col2im) in row-major order.
    """
    if kernels.data.ndim != 4:
        raise ShapeError(f"kernels must be rank 4, got rank {kernels.data.ndim}")
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"input must be rank 4, got rank {xd.ndim}")
    co, ci, kh, kw = kernels.data.shape
    if xd.shape[1] != ci:
        raise ShapeError(f"channel axis mismatch: input has {xd.shape[1]}, kernels expect {ci}")
    if kh > xd.shape[2] or kw > xd.shape[3]:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {xd.shape[2]}x{xd.shape[3]}")

    n = xd.shape[0]
    cols, ho, wo = _im2col(xd, kh, kw)
    out = cols @ kernels.data.reshape(co, ci * kh * kw).T
    # channels-last in memory; the kernel gradient reads g in that layout
    out = out.reshape(n, ho, wo, co).transpose(0, 3, 1, 2)

    def vjp(g, x=x, kernels=kernels, cols=cols):
        gm = g.transpose(0, 2, 3, 1).reshape(-1, co)
        if kernels.requires_grad:
            kernels._accum((gm.T @ cols).reshape(kernels.data.shape))
        if x.requires_grad:
            # dcols columns ordered (di, dj, c): each offset's block is one [N,H',W',C] slab
            kmat = kernels.data.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
            dcols = (gm @ kmat).reshape(n, ho, wo, kh, kw, ci)
            dx = np.zeros((n, xd.shape[2], xd.shape[3], ci))
            for di in range(kh):
                for dj in range(kw):
                    dx[:, di:di + ho, dj:dj + wo] += dcols[:, :, :, di, dj]
            x._accum(dx.transpose(0, 3, 1, 2), owned=True)

    return Tensor._result(out, (x, kernels), "conv2d", vjp)


_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)


def _pool_views(a: Array, window: int, stride: int, ho: int, wo: int) -> list[Array]:
    # one strided [N,C,H',W'] view of a per window offset, offsets row-major
    hi, wi = stride * (ho - 1) + 1, stride * (wo - 1) + 1
    return [a[:, :, i:i + hi:stride, j:j + wi:stride]
            for i in range(window) for j in range(window)]


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Square max pooling of x [N,C,H,W], floor output size.

    Each window yields its first maximal element in row-major order, or its
    first NaN; the gradient routes there, and overlapping windows accumulate.
    """
    if window < 1 or stride < 1:
        raise ContractError(f"window and stride must be >= 1, got {window}, {stride}")
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"input must be rank 4, got rank {xd.ndim}")
    h, w = xd.shape[2:]
    if window > h or window > w:
        raise ShapeError(f"window {window} larger than spatial axes {h}x{w}")

    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    views = _pool_views(xd, window, stride, ho, wo)
    track = _records(x)

    def pool(exact, has_nan):
        out = views[0].copy(order="K")
        arg = np.zeros_like(out, np.min_scalar_type(len(views) - 1)) if track else None
        for k, v in enumerate(views[1:], 1):
            if track or exact:
                better = v > out            # strict: the earlier of equal values stays
                if has_nan:
                    better |= np.isnan(v) & ~np.isnan(out)
            if exact:
                out = np.where(better, v, out)
            else:
                np.maximum(out, v, out=out)
            if track:                       # k only grows, so max is an update
                np.maximum(arg, better * arg.dtype.type(k), out=arg)
        return out, arg

    # np.maximum returns the first maximum except between -0.0 and 0.0, whose
    # int64 view is the minimum, or among NaNs; there, select by `better`
    if xd.view(np.int64).min() == _NEG_ZERO_BITS:
        out, arg = pool(True, np.isnan(np.max(xd)))
    else:
        out, arg = pool(False, False)
        # np.maximum carries a NaN that any window reads to that window's
        # output; a NaN no window reads changes nothing
        if np.isnan(np.max(out)):
            out, arg = pool(True, True)

    def vjp(g, x=x, arg=arg):
        dx = np.zeros_like(xd)
        dviews = _pool_views(dx, window, stride, ho, wo)
        # a finite g times a miss is a signed zero, which leaves any sum that
        # starts at 0.0 unchanged
        finite = np.isfinite(np.sum(g))
        # later offsets first: np.add.at's order where windows overlap
        for k in reversed(range(len(dviews))):
            hit = arg == k
            if stride < window:
                dviews[k] += g * hit if finite else np.where(hit, g, 0.0)
            # disjoint windows: a cell's one term is written, not added to
            # 0.0, which would change only a -0.0, and _accum drops that
            elif finite:
                np.multiply(g, hit, out=dviews[k])
            else:
                dviews[k][...] = np.where(hit, g, 0.0)
        x._accum(dx, owned=True)

    return Tensor._result(out, (x,), "maxpool2d", vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: x [N,n], weight [m,n], bias [m] -> [N,m]."""
    if weight.data.ndim != 2:
        raise ShapeError(f"weight must be rank 2, got rank {weight.data.ndim}")
    m, nin = weight.data.shape
    if bias.data.shape != (m,):
        raise ShapeError(f"bias must have shape ({m},), got {bias.data.shape}")
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"input must be rank 2, got rank {xd.ndim}")
    if xd.shape[1] != nin:
        raise ShapeError(f"input width {xd.shape[1]} does not match weight width {nin}")

    out = xd @ weight.data.T + bias.data

    def vjp(g, x=x, weight=weight, bias=bias, xd=xd):
        if weight.requires_grad:
            weight._accum(g.T @ xd)
        if bias.requires_grad:
            bias._accum(g.sum(axis=0))
        if x.requires_grad:
            x._accum(g @ weight.data)

    return Tensor._result(out, (x, weight, bias), "linear", vjp)

