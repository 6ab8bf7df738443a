"""The traced run's per-layer ledger: self time by layer, from outside.

Nothing in ``repro`` is edited.  :func:`install` wraps, in this process
only and before the system is built:

- every public method of every class defined in a layer's modules, as
  a span of that layer (``Simulator.run``/``step``, the dispatch loop
  itself, excepted);
- every callback the kernel dispatches, through a
  :class:`~repro.obs.profiler.SimProfiler` subclass, as a span of the
  layer that defined the callback (a :class:`~repro.sim.timers.Timer`
  is looked through to the function it fires);
- callbacks one layer hands another to call later (``done``
  continuations, socket handlers, trace subscribers, ``on_receive``
  upcalls), as spans of the layer that defined them.

A span opened while its own layer is already innermost is elided, so
a layer's internal calls cost one comparison.  A layer's self time is
the wall time of its spans minus the spans nested inside them; what no
named layer claims is ``other``.  The wrappers read the clock and
count, nothing else, so they cannot perturb event order or any RNG stream:
the worker checks the traced run's modelled outputs against the
untraced run's.

A few exact counters only exist here, counted by wrapping private
methods: radio state transitions, neighbourhood builds, TSCH slot
ticks (and ticks whose slot carried a frame), and kernel events
scheduled and cancelled.
"""

from __future__ import annotations

import enum
import functools
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, Optional

from repro.sim.timers import PeriodicTimer, Timer

#: Module prefix -> layer, most specific first.
LAYER_PREFIXES = (
    ("repro.sim", "sim"),
    ("repro.radio", "radio"),
    ("repro.net.mac", "mac"),
    ("repro.net.rpl", "rpl"),
    ("repro.net", "net"),
    ("repro.middleware", "coap"),
    ("repro.aggregation", "agg"),
    ("repro.crdt", "crdt"),
    ("repro.obs", "obs"),
    ("repro.checking", "checking"),
)
LAYERS = tuple(layer for _, layer in LAYER_PREFIXES)
OTHER = "other"
#: The dispatch loop: the timed phase runs inside an explicit sim span.
_UNWRAPPED = {("Simulator", "run"), ("Simulator", "step")}


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return OTHER


def _module_of_file(filename: str) -> Optional[str]:
    """``.../src/repro/net/mac/tsch.py`` -> ``repro.net.mac.tsch``."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    return "repro." + filename[at + len(marker):-3].replace("/", ".")


class Ledger:
    """Self time and span count per layer, plus the traced-only counters."""

    def __init__(self) -> None:
        self.layer = OTHER
        self._child = 0.0
        self._layer_cache: Dict[Any, str] = {}
        self.self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.spans = dict.fromkeys(LAYERS + (OTHER,), 0)
        self.counts = dict.fromkeys(
            ("transitions", "neighborhood_builds", "slot_ticks", "slot_used",
             "scheduled", "cancelled"), 0)

    def reset(self) -> None:
        """Zero every accumulator (called at the start of the timed phase).

        In place: the counting hooks hold references to ``counts``.
        """
        for table, zero in ((self.self_s, 0.0), (self.spans, 0),
                            (self.counts, 0)):
            for key in table:
                table[key] = zero

    # -- spans ------------------------------------------------------------
    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` as a span of ``layer``."""
        if layer is self.layer:
            return fn(*args, **kwargs)
        outer, outer_child = self.layer, self._child
        self.layer, self._child = layer, 0.0
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = perf_counter() - start
            self.self_s[layer] += spent - self._child
            self.spans[layer] += 1
            self.layer, self._child = outer, outer_child + spent

    def layer_of(self, callback: Callable) -> str:
        """The layer that defined ``callback`` (timers looked through)."""
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, (Timer, PeriodicTimer)):
            callback = owner._callback
            owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "__wrapped__", func)
        code = (generator.gi_code if generator is not None
                else getattr(func, "__code__", None))
        key = code if code is not None else type(owner or func)
        layer = self._layer_cache.get(key)
        if layer is None:
            if code is not None:
                module = _module_of_file(code.co_filename)
            else:
                module = type(owner or func).__module__
            layer = self._layer_cache[key] = layer_of_module(module)
        return layer

    def bind(self, callback: Optional[Callable]) -> Optional[Callable]:
        """Wrap a callback handed across layers as a span of its own layer."""
        if callback is None:
            return None
        layer = self.layer_of(callback)
        call = self.call

        def bound(*args: Any, **kwargs: Any) -> Any:
            return call(layer, callback, args, kwargs)

        bound.__wrapped__ = callback
        return bound

    # -- results ------------------------------------------------------------
    def self_ms(self, run_s: float) -> Dict[str, float]:
        """Self time per layer in ms; ``other`` is ``run_s`` minus the rest."""
        out = {layer: 1e3 * self.self_s[layer] for layer in LAYERS}
        out[OTHER] = 1e3 * run_s - sum(out.values())
        return out


def _span_method(ledger: Ledger, layer: str, fn: Callable) -> Callable:
    call = ledger.call

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return call(layer, fn, args, kwargs)

    return wrapper


def _bind_arg(ledger: Ledger, cls: type, name: str, index: int,
              keyword: str) -> None:
    """Make ``cls.name`` wrap its callback argument with :meth:`Ledger.bind`."""
    fn = getattr(cls, name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if keyword in kwargs:
            kwargs[keyword] = ledger.bind(kwargs[keyword])
        elif len(args) > index:
            args = args[:index] + (ledger.bind(args[index]),) + args[index + 1:]
        return fn(*args, **kwargs)

    setattr(cls, name, wrapper)


def _count(cls: type, name: str, hook: Callable) -> None:
    """Run ``hook(*args)`` before every call of ``cls.name``."""
    fn = getattr(cls, name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        hook(*args, **kwargs)
        return fn(*args, **kwargs)

    setattr(cls, name, wrapper)


def _layer_classes():
    """(class, layer) for every class defined in a loaded layer module."""
    for module_name, module in sorted(sys.modules.items()):
        layer = layer_of_module(module_name)
        if layer == OTHER or module is None:
            continue
        for value in list(vars(module).values()):
            if (isinstance(value, type) and value.__module__ == module_name
                    and not issubclass(value, (enum.Enum, BaseException, tuple))):
                yield value, layer


def install() -> Ledger:
    """Patch the layers' classes in this process; returns the ledger."""
    # Loaded lazily by IIoTSystem: load them now so they are patched too.
    import repro.checking  # noqa: F401
    import repro.obs  # noqa: F401
    from repro.middleware.coap.client import CoapClient
    from repro.net.fragmentation import FragmentationAdapter
    from repro.net.mac.base import MacLayer
    from repro.net.mac.tsch import TschMac
    from repro.net.stack import NetworkStack
    from repro.radio.medium import Medium, Radio
    from repro.sim.kernel import EventHandle, Simulator
    from repro.sim.trace import TraceLog

    ledger = Ledger()
    for cls, layer in list(_layer_classes()):
        for name, value in list(vars(cls).items()):
            if (name.startswith("_") or not isinstance(value, types.FunctionType)
                    or (cls.__name__, name) in _UNWRAPPED):
                continue
            setattr(cls, name, _span_method(ledger, layer, value))

    for cls, name, index, keyword in (
        (Medium, "transmit", 3, "done"),
        (MacLayer, "send", 4, "done"),
        (FragmentationAdapter, "send", 4, "done"),
        (NetworkStack, "send_datagram", 6, "done"),
        (NetworkStack, "unicast_control", 4, "done"),
        (NetworkStack, "bind", 2, "handler"),
        (TraceLog, "subscribe", 2, "callback"),
        (CoapClient, "request", 4, "callback"),
    ):
        _bind_arg(ledger, cls, name, index, keyword)

    counts = ledger.counts

    def transition(radio: Radio, state: Any) -> None:
        if state is not radio.state:
            counts["transitions"] += 1

    def neighborhood(medium: Medium, sender: Radio) -> None:
        counts["neighborhood_builds"] += 1

    last_frames: Dict[int, int] = {}  # id(mac) -> its frames at last tick

    def slot_tick(mac: TschMac) -> None:
        frames = mac.radio.frames_sent + mac.radio.frames_received
        previous = last_frames.get(id(mac))
        if previous is not None and frames != previous:
            counts["slot_used"] += 1
        last_frames[id(mac)] = frames
        counts["slot_ticks"] += 1

    def scheduled(*_args: Any, **_kwargs: Any) -> None:
        counts["scheduled"] += 1

    def cancelled(handle: EventHandle) -> None:
        if handle.pending:
            counts["cancelled"] += 1

    _count(Radio, "_set_state", transition)
    _count(Medium, "_build_neighborhood", neighborhood)
    _count(TschMac, "_slot_tick", slot_tick)
    _count(Simulator, "schedule_at", scheduled)
    _count(EventHandle, "cancel", cancelled)
    return ledger


def attach(ledger: Ledger, workload) -> None:
    """Hook a built workload: kernel dispatch and stored upcalls."""
    from repro.obs.profiler import SimProfiler

    class _Dispatch(SimProfiler):
        def record(self, callback: Callable[[], None]) -> None:
            ledger.call(ledger.layer_of(callback), callback, (), {})

    _Dispatch(workload.sim)
    for radio in workload.medium.radios.values():
        radio.on_receive = ledger.bind(radio.on_receive)
    if workload.system is not None:
        for node in workload.system.nodes.values():
            node.stack.mac.on_receive = ledger.bind(node.stack.mac.on_receive)
            rpl = node.stack.rpl
            rpl.send_dao_upward = ledger.bind(rpl.send_dao_upward)
