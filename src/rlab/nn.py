"""Model specifications and their realization as autograd graphs.

A ModelSpec is a value object: conv/pool/fc stack, activation kind, optional
auxiliary input column(s) spliced into one FC layer's input, plus the
training hyperparameters.  Feature shapes are a pure function of a
ModelSpec, so whole grids can be enumerated and checked without building
anything; parameter counts come from the one layout `Model` builds.

Convolutions carry no bias; linear layers do.  Weights draw from He's
fan-in-scaled normal, biases start at zero, learnable activation slopes at
0.25.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import CatalogueError, ContractError, ShapeError, require_counts, require_strings
from .optim import OptimizerConfig
from .seeding import substream
from .tensor import Tensor, _records, concat, conv2d, linear, maxpool2d

INPUT_SHAPE = (1, 15, 15)

ACTIVATIONS = ("sigmoid", "tanh", "relu", "leaky_relu", "prelu", "elu", "gelu")
LEAKY_SLOPE = 0.01
PRELU_INIT = 0.25

AUX_WIDTHS = {"none": 0, "energy_sum": 1, "barycenter": 2}
TARGETS = ("energy", "position_x")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# -- activations ---------------------------------------------------------------


# scipy.special is imported when sigmoid or gelu first runs, not with the
# package: it costs each process about 20 MB and maps its own OpenBLAS
def _expit(x):
    from scipy.special import expit
    return expit(x)


def _erf(x):
    from scipy.special import erf
    return erf(x)


# The rectifiers take no data-dependent branch, where np.where mispredicts
# one per element on a mixed sign pattern, and give the bits of its forms.
# A NaN input falls on their x <= 0 side; fmax returns its other operand.


def _relu(x):
    y = np.fmax(x, 0.0)
    return np.add(y, 0.0, out=y)        # 0.0 for -0.0, whichever zero fmax kept


def _unit_slopes(a) -> bool:
    # 0 < a <= 1, which NaN fails: then a * x lies between x and 0, so the
    # rectifier is a max, and so is its slope factor
    return bool(0.0 < np.min(a) and np.max(a) <= 1.0)


def _leaky(x, a, unit):
    """np.where(x > 0.0, x, a * x); unit is _unit_slopes(a)."""
    y = np.multiply(a, x)
    if unit:
        return np.fmax(x, y, out=y)     # x and a * x tie only as zeros of one sign
    return np.where(x > 0.0, x, y)


def _leaky_gradient(g, x, a, unit, buf=None):
    """g * np.where(x > 0.0, 1.0, a), written into buf if given and unit."""
    if unit:
        factor = np.sign(x, out=buf)    # 1, -1, a signed zero, or NaN
        np.fmax(factor, a, out=factor)
    else:
        factor = np.where(x > 0.0, 1.0, a)
    return np.multiply(g, factor, out=factor)


_LEAKY_UNIT = _unit_slopes(LEAKY_SLOPE)

# kind -> (value(x), gradient(g, x, y)) on raw arrays, y the value at x; a
# gradient is a new array
_ELEMENTWISE = {
    "sigmoid": (_expit, lambda g, x, y: g * y * (1.0 - y)),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "relu": (_relu, lambda g, x, y: g * (x > 0.0)),
    "leaky_relu": (lambda x: _leaky(x, LEAKY_SLOPE, _LEAKY_UNIT),
                   lambda g, x, y: _leaky_gradient(g, x, LEAKY_SLOPE, _LEAKY_UNIT)),
    "elu": (lambda x: np.where(x > 0.0, x, np.expm1(x)),
            lambda g, x, y: g * np.where(x > 0.0, 1.0, y + 1.0)),
    # exact form: x * Phi(x), not the tanh fit
    "gelu": (lambda x: x * (0.5 * (1.0 + _erf(x * _INV_SQRT2))),
             lambda g, x, y: g * (0.5 * (1.0 + _erf(x * _INV_SQRT2))
                                  + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI))),
}


def _elementwise(kind: str):
    """The autograd op of one _ELEMENTWISE entry."""
    value, gradient = _ELEMENTWISE[kind]

    def activation(x: Tensor) -> Tensor:
        y = value(x.data)

        def vjp(g, x=x, y=y):
            x._accum(gradient(g, x.data, y), owned=True)
        return Tensor._result(y, (x,), kind, vjp)

    activation.__name__ = activation.__qualname__ = kind    # pickles by its module name
    return activation


sigmoid, tanh, relu, leaky_relu, elu, gelu = (
    _elementwise(kind) for kind in ("sigmoid", "tanh", "relu", "leaky_relu", "elu", "gelu"))


def _rectifier_pool(x: Tensor, window: int, stride: int, slopes: Tensor | None = None) -> Tensor:
    """maxpool2d(act(x), window, stride) for act relu, or prelu with these
    slopes, computed on the pooled map where that keeps every bit.

    Both are monotone: act(max(w)) has the bits of max(act(w)) for each window
    w, and the gradient reaches the same element or a signed zero _accum drops.
    relu maps a NaN to 0.0: when a window reads one, the stage takes the defined order.
    prelu is monotone for slopes in (0, 1] only, and its backward is the defined
    order's, run on x through the pool's recorded winners.  A product with the
    slope that rounds can tie two values of a window: the larger wins, not the first.
    """
    if slopes is None:
        pooled = maxpool2d(x, window, stride)
        if not np.isnan(np.max(pooled.data)):    # a window's output is NaN iff it reads one
            return relu(pooled)     # the module globals: a tracer's rebinding sees the calls
    elif _unit_slopes(slopes.data) and (x.requires_grad or not _records(slopes)):
        return prelu(maxpool2d(x, window, stride), slopes, True)
    return maxpool2d(relu(x) if slopes is None else prelu(x, slopes), window, stride)


def _slope_broadcast(xshape: tuple[int, ...], n: int) -> tuple[int, ...]:
    # axis 1: channels of [N,C,H,W] feature maps, units of [N,n] vectors
    if len(xshape) < 2 or xshape[1] != n:
        raise ShapeError(f"{n} slopes cannot broadcast onto axis 1 of {xshape}")
    return (1, n) + (1,) * (len(xshape) - 2)


def prelu(x: Tensor, slopes: Tensor, pooled: bool = False) -> Tensor:
    """Parametric rectifier: one learnable slope per channel (conv) or unit (fc);
    pooled: x is maxpool2d(input), and maxpool2d(prelu(input))'s backward runs."""
    if slopes.data.ndim != 1:
        raise ShapeError("slopes must be a vector")
    bshape = _slope_broadcast(x.data.shape, slopes.data.size)
    # the slopes spread over one sample in x's layout: an op of a and x then
    # runs one long inner loop per sample, not one per run of channels
    a = np.empty_like(x.data[:1])
    a[...] = slopes.data.reshape(bshape)
    unit = _unit_slopes(a)
    out = _leaky(x.data, a, unit)

    def vjp(g, x=x, slopes=slopes, a=a, unit=unit, bshape=bshape):
        if pooled:      # maxpool2d's vjp routes g to the winners of a stand-in input
            sink = Tensor(x._parents[0].data, requires_grad=True)
            x._vjp(g, x=sink)
            g, x = sink.grad, x._parents[0]
            a = np.empty_like(x.data[:1])
            a[...] = slopes.data.reshape(bshape)
        xd, buf = x.data, None
        if slopes.requires_grad:
            # np.minimum(x, 0.0) is np.where(x > 0.0, 0.0, x) up to the sign
            # of a zero, which reaches only the sign of a zero total: a sign
            # that _accum drops
            buf = np.minimum(xd, 0.0)
            axes = tuple(i for i, b in enumerate(bshape) if b == 1)
            total = np.multiply(g, buf, out=buf).sum(axis=axes)
            slopes._accum(total.reshape(slopes.data.shape))
        if x.requires_grad:
            x._accum(_leaky_gradient(g, xd, a, unit, buf), owned=True)
    return Tensor._result(out, (x, slopes), "prelu", vjp)


# -- initialization --------------------------------------------------------------


def he_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal with variance 2/fan_in."""
    if fan_in < 1:
        raise ContractError("fan_in must be positive")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)


# -- specification ----------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to build and train one model, hyperparameters included."""

    name: str
    conv_layers: tuple[tuple[int, int], ...]    # (filters, kernel) per layer
    pool_layers: tuple[tuple[int, int], ...]    # (window, stride) after each conv
    fc_layers: tuple[int, ...]                  # output widths; last must be 1
    activation: str
    optimizer: OptimizerConfig
    batch_size: int
    target: str = "energy"
    aux: str = "none"
    aux_injection_layer: int = 0
    seed_policy: str = "substreams"

    def __post_init__(self):
        object.__setattr__(self, "conv_layers", tuple(tuple(c) for c in self.conv_layers))
        object.__setattr__(self, "pool_layers", tuple(tuple(p) for p in self.pool_layers))
        object.__setattr__(self, "fc_layers", tuple(self.fc_layers))
        require_counts(conv_layers=self.conv_layers, pool_layers=self.pool_layers,
                       fc_layers=self.fc_layers, aux_injection_layer=self.aux_injection_layer,
                       batch_size=self.batch_size)
        require_strings(name=self.name)
        if self.activation not in ACTIVATIONS:
            raise CatalogueError(f"unknown activation {self.activation!r}")
        if self.target not in TARGETS:
            raise CatalogueError(f"unknown target {self.target!r}")
        if self.aux not in AUX_WIDTHS:
            raise CatalogueError(f"unknown aux feature {self.aux!r}")
        if self.seed_policy != "substreams":
            raise CatalogueError(f"unknown seed policy {self.seed_policy!r}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        # every field but name, optimizer and batch_size; the checks above
        # leave only ints and str in it, so equal keys are equal values
        key = (self.conv_layers, self.pool_layers, self.fc_layers, self.aux_injection_layer,
               self.activation, self.target, self.aux, self.seed_policy)
        fragments = _ARCHITECTURES.get(key)
        if fragments is None:
            if len(self.pool_layers) != len(self.conv_layers):
                raise ContractError("need one pool stage per conv layer")
            if not self.fc_layers or self.fc_layers[-1] != 1:
                raise ContractError("fc stack must end in a single output unit")
            if not 0 <= self.aux_injection_layer < len(self.fc_layers):
                raise ContractError("aux_injection_layer out of range")
            feature_shapes(self)   # raises if the stack eats the grid
            fragments = _ARCHITECTURES[key] = _json_fragments(self.to_dict())
        object.__setattr__(self, "_fragments", fragments)

    @property
    def aux_width(self) -> int:
        return AUX_WIDTHS[self.aux]

    def varied(self, name: str, optimizer: OptimizerConfig, batch_size: int) -> "ModelSpec":
        """This spec with another name, optimizer and batch size, the fields of
        _PER_SPEC: equal to dataclasses.replace's, but only those three are
        checked, since the architecture already was."""
        require_counts(batch_size=batch_size)
        require_strings(name=name)
        if batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        spec = object.__new__(ModelSpec)
        vars(spec).update(vars(self), name=name, optimizer=optimizer, batch_size=batch_size)
        vars(spec).pop("_spec_id", None)
        return spec

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "conv_layers": [list(c) for c in self.conv_layers],
            "pool_layers": [list(p) for p in self.pool_layers],
            "fc_layers": list(self.fc_layers),
            "activation": self.activation,
            "optimizer": self.optimizer.to_dict(),
            "batch_size": self.batch_size,
            "target": self.target,
            "aux": self.aux,
            "aux_injection_layer": self.aux_injection_layer,
            "seed_policy": self.seed_policy,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        d = dict(d)
        d["optimizer"] = OptimizerConfig(**d["optimizer"])
        return ModelSpec(**d)

    def spec_id(self) -> str:
        """sha1 of the sorted-key JSON of to_dict(), first 10 hex digits.

        The JSON is the architecture's fragments around the encoded
        batch size, name and optimizer.  The id is computed once per
        instance and kept in its __dict__: the fields are frozen, and
        dataclasses.replace builds a new instance through __init__ and
        varied() drops it, so a derived spec never inherits its source's id.
        """
        sid = self.__dict__.get("_spec_id")
        if sid is None:
            head, after_batch, after_name, tail = self._fragments
            blob = (f"{head}{self.batch_size}{after_batch}{json.dumps(self.name)}"
                    f"{after_name}{self.optimizer.to_json()}{tail}").encode()
            sid = hashlib.sha1(blob).hexdigest()[:10]
            object.__setattr__(self, "_spec_id", sid)
        return sid


# the to_dict() keys whose values vary within one architecture, in sorted order
_PER_SPEC = ("batch_size", "name", "optimizer")

# checked architecture key (see ModelSpec.__post_init__) -> its JSON fragments
_ARCHITECTURES: dict[tuple, tuple[str, ...]] = {}


def _json_fragments(d: dict) -> tuple[str, ...]:
    """json.dumps(d, sort_keys=True) cut around the values of _PER_SPEC."""
    fragments, text = [], "{"
    for i, key in enumerate(sorted(d)):
        text += f"{', ' if i else ''}{json.dumps(key)}: "
        if key in _PER_SPEC:
            fragments.append(text)
            text = ""
        else:
            text += json.dumps(d[key], sort_keys=True)
    return (*fragments, text + "}")


def feature_shapes(spec: ModelSpec) -> list[tuple[int, int, int]]:
    """(C, H, W) after each conv+pool stage; raises ShapeError if any axis dies."""
    c, h, w = INPUT_SHAPE
    out = []
    for idx, ((filters, k), (window, stride)) in enumerate(zip(spec.conv_layers, spec.pool_layers)):
        if k > h or k > w:
            raise ShapeError(f"conv layer {idx}: kernel {k} exceeds feature map {h}x{w}")
        h, w = h - k + 1, w - k + 1
        if window > h or window > w:
            raise ShapeError(f"pool stage {idx}: window {window} exceeds feature map {h}x{w}")
        if window < 1 or stride < 1:
            raise ContractError(f"pool stage {idx}: window and stride must be >= 1")
        h, w = (h - window) // stride + 1, (w - window) // stride + 1
        c = filters
        out.append((c, h, w))
    return out


# -- realization -------------------------------------------------------------------


class Model:
    """A spec instantiated with concrete weights.

    Weight draws consume the init substream in a fixed order (conv kernels,
    then fc weights); biases and slopes are deterministic, so the init seed
    alone pins every parameter bit.
    """

    def __init__(self, spec: ModelSpec, init_seed: int):
        self.spec = spec
        self.init_seed = int(init_seed)
        rng = substream(self.init_seed, "weights")
        shapes = feature_shapes(spec)
        is_prelu = spec.activation == "prelu"

        self.conv_kernels: list[Tensor] = []
        self.conv_slopes: list[Tensor | None] = []
        c_in = INPUT_SHAPE[0]
        for filters, k in spec.conv_layers:
            fan = c_in * k * k
            self.conv_kernels.append(Tensor(he_init((filters, c_in, k, k), fan, rng),
                                            requires_grad=True))
            self.conv_slopes.append(
                Tensor(np.full(filters, PRELU_INIT), requires_grad=True) if is_prelu else None)
            c_in = filters

        c, h, w = shapes[-1]
        self._flat_width = c * h * w
        width_in = self._flat_width
        self.fc_weights: list[Tensor] = []
        self.fc_biases: list[Tensor] = []
        self.fc_slopes: list[Tensor | None] = []
        last = len(spec.fc_layers) - 1
        for j, width in enumerate(spec.fc_layers):
            fan = width_in + (spec.aux_width if j == spec.aux_injection_layer else 0)
            self.fc_weights.append(Tensor(he_init((width, fan), fan, rng), requires_grad=True))
            self.fc_biases.append(Tensor(np.zeros(width), requires_grad=True))
            self.fc_slopes.append(
                Tensor(np.full(width, PRELU_INIT), requires_grad=True)
                if is_prelu and j < last else None)
            width_in = width

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for kern, slope in zip(self.conv_kernels, self.conv_slopes):
            out.append(kern)
            if slope is not None:
                out.append(slope)
        for w, b, slope in zip(self.fc_weights, self.fc_biases, self.fc_slopes):
            out.extend((w, b))
            if slope is not None:
                out.append(slope)
        return out

    def _activate(self, x: Tensor, slopes: Tensor | None) -> Tensor:
        # looked up when called, so a module-level rebinding takes effect
        act = globals()[self.spec.activation]
        return act(x) if slopes is None else act(x, slopes)

    def forward(self, x: Tensor, aux: Tensor | None = None) -> Tensor:
        """Batched prediction: x [N,1,15,15] (+ aux [N,aux_width]) -> [N]."""
        if x.data.ndim != 4:
            raise ShapeError(f"input must be [N,C,H,W], got rank {x.data.ndim}")
        n = x.data.shape[0]
        want = self.spec.aux_width
        if want == 0:
            if aux is not None:
                raise ContractError(f"{self.spec.name} takes no aux input")
        else:
            if aux is None:
                raise ContractError(f"{self.spec.name} needs {want} aux column(s)")
            if aux.data.shape != (n, want):
                raise ShapeError(f"aux must be [N,{want}], got {aux.data.shape}")

        for kern, slope, (window, stride) in zip(self.conv_kernels, self.conv_slopes,
                                                 self.spec.pool_layers):
            x = conv2d(x, kern)
            if self.spec.activation in ("relu", "prelu"):
                x = _rectifier_pool(x, window, stride, slope)
            else:
                x = maxpool2d(self._activate(x, slope), window, stride)
        x = x.reshape(n, self._flat_width)

        last = len(self.fc_weights) - 1
        for j, (w, b, slope) in enumerate(zip(self.fc_weights, self.fc_biases, self.fc_slopes)):
            if j == self.spec.aux_injection_layer and want:
                x = concat([x, aux], axis=1)
            x = linear(x, w, b)
            if j < last:
                x = self._activate(x, slope)
        return x.reshape(n)


# -- presets --------------------------------------------------------------------


# the four reference configurations (energy x position, raw x aux-fed)
PRESETS = {
    "model1": dict(pool_layers=((2, 2), (2, 1)), fc_layers=(9, 1), activation="relu",
                   optimizer=OptimizerConfig("nadam", learning_rate=1e-4, l2=0.01),
                   batch_size=64, target="energy"),
    "model2": dict(pool_layers=((2, 2), (2, 1)), fc_layers=(9, 1), activation="relu",
                   optimizer=OptimizerConfig("adamw", learning_rate=1e-3, weight_decay=0.1),
                   batch_size=32, target="energy", aux="energy_sum", aux_injection_layer=0),
    "model3": dict(pool_layers=((2, 2), (4, 4)), fc_layers=(64, 9, 1), activation="prelu",
                   optimizer=OptimizerConfig("adamw", learning_rate=1e-4, weight_decay=0.1),
                   batch_size=32, target="position_x"),
    "model4": dict(pool_layers=((2, 2), (4, 4)), fc_layers=(64, 9, 1), activation="prelu",
                   optimizer=OptimizerConfig("adamw", learning_rate=1e-4, weight_decay=0.1),
                   batch_size=32, target="position_x", aux="barycenter", aux_injection_layer=1),
}
PRESET_IDS = tuple(PRESETS)


def preset_spec(preset_id: str) -> ModelSpec:
    """One of PRESETS by case-insensitive id; all four share their conv layers."""
    key = preset_id.lower()
    if key not in PRESETS:
        raise CatalogueError(f"unknown preset {preset_id!r}, expected one of {PRESET_IDS}")
    return ModelSpec(name=key, conv_layers=((32, 3), (64, 3)), **PRESETS[key])


# -- search space ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """Axes of a hyperparameter grid; architectures enter as base specs."""

    architectures: tuple[ModelSpec, ...]
    learning_rates: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    regularizations: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "learning_rates", tuple(self.learning_rates))
        object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
        object.__setattr__(self, "regularizations", tuple(self.regularizations))
        for label in ("architectures", "learning_rates", "batch_sizes", "regularizations"):
            if not getattr(self, label):
                raise ContractError(f"search space axis {label} is empty")


def enumerate_search_space(space: SearchSpace) -> list[ModelSpec]:
    """Cartesian product in axis order (architecture outermost), deduplicated.

    Regularization lands on the slot the architecture's optimizer kind uses:
    weight_decay for adamw, coupled l2 otherwise.
    """
    specs: list[ModelSpec] = []
    seen: set[str] = set()
    for arch in space.architectures:
        # the other slot is zeroed too: an adamw config may carry l2=-0.0
        slot, other = (("weight_decay", "l2") if arch.optimizer.kind == "adamw"
                       else ("l2", "weight_decay"))
        for lr in space.learning_rates:
            opts = [replace(arch.optimizer, learning_rate=lr, **{slot: reg, other: 0.0})
                    for reg in space.regularizations]     # the same at every batch size
            for bs in space.batch_sizes:
                for reg, opt in zip(space.regularizations, opts):
                    spec = arch.varied(f"{arch.name}-lr{lr:g}-bs{bs}-reg{reg:g}", opt, bs)
                    sid = spec.spec_id()
                    if sid not in seen:
                        seen.add(sid)
                        specs.append(spec)
    return specs


def _fitting_pool(dim: int) -> tuple[int, int]:
    return (2, 2) if dim >= 2 else (1, 1)


def _grid_architecture(aux: str, depth: int, kernel: int, f1: int, f2: int,
                       head: int, target: str) -> ModelSpec:
    h = 15 - kernel + 1
    pool1 = _fitting_pool(h)
    h = (h - pool1[0]) // pool1[1] + 1
    h = h - kernel + 1
    pool2 = _fitting_pool(h)
    fc = (head,) + (9,) * (depth - 2) + (1,)
    return ModelSpec(
        name=f"cnn-k{kernel}-f{f1}x{f2}-fc{'x'.join(map(str, fc))}-{aux}",
        conv_layers=((f1, kernel), (f2, kernel)), pool_layers=(pool1, pool2),
        fc_layers=fc, activation="relu",
        optimizer=OptimizerConfig("adamw", learning_rate=1e-3, weight_decay=0.01),
        batch_size=32, target=target, aux=aux, aux_injection_layer=0)


def reference_search_space(target: str = "energy") -> SearchSpace:
    """The bundled example grid: 144 architectures x 48 hyperparameter points.

    Architecture axes: aux usage (2), fc depth 2-4 (3), shared conv kernel
    size 2/3/5 (3), first-layer filters 16/32 (2), second-layer filters
    32/64 (2), fc head width 9/64 (2).  Hyperparameter axes: learning rate
    (4), batch size (4), regularization strength (3).  6,912 specs total.
    """
    aux_kinds = ("none", "energy_sum") if target == "energy" else ("none", "barycenter")
    archs = [
        _grid_architecture(aux, depth, kernel, f1, f2, head, target)
        for aux in aux_kinds
        for depth in (2, 3, 4)
        for kernel in (2, 3, 5)
        for f1 in (16, 32)
        for f2 in (32, 64)
        for head in (9, 64)
    ]
    return SearchSpace(
        architectures=tuple(archs),
        learning_rates=(1e-4, 1e-3, 1e-2, 1e-1),
        batch_sizes=(16, 32, 64, 128),
        regularizations=(1e-3, 1e-2, 1e-1),
    )
