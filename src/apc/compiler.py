"""Lowering a resolved ODE system to a computing-element netlist.

The classic feedback construction: assume the highest derivative of each
variable is available on a net, derive the lower derivatives by a chain
of integrators, synthesize the right-hand side from those signals, and
feed it back into the head of the chain.

Because summers and integrators invert, every net carries a sign parity:
net value = parity * signal value. The lowering tracks parity per net
and inserts single-input summers only where parities genuinely clash;
with the chain head assumed positive, the k-th integrator output carries
parity (-1)^k and its initial-condition setting is parity * init.
Normalization (``normalize``, built by ``dsl.evaluate``) folds every
sign into term coefficients and net parities, so no inverter ever reads
an inverter or feeds a multiplier, and no cleanup pass is needed; its
signal factors are the source's own ``Ref``s, and a zero factor folds
its product away, so no element computes a term that is identically 0.
One sign rule: every signal, outputs included, binds its net at the net's
native parity, and only the host (``descale_trace``) applies the parity.

Amplitude and time scaling enter here: a ScaleMap turns each chain stage
into a coefficient of alpha = lambda * m_upper / (m_lower * k0) and
folds amplitude factors into term coefficients. Without a ScaleMap the
chains are plain and the netlist computes y(k0 * tau).

This module owns the contract between scaling and lowering: the normal
form, ``demand`` (the gains its lowering will need, which the autoscaler
in ``scaling`` sizes signals by) and ``ScaleMap``. It imports nothing
from ``scaling``, so a compile without autoscaling never loads it.
"""

from __future__ import annotations

from collections import Counter

from .dsl import Expr, Num, OdeSystem, Ref, evaluate, signal_name
from .machine import (
    Element,
    Mapping,
    Netlist,
    ParamBinding,
    ScalingError,
    SignalBinding,
    coefficient,
    evaluation_order,
    function_generator,
    integrator,
    multiplier,
    reference,
    summer,
    table_bound,
)
from .record import Frozen, Record

_PENDING = "__pending__"
#: Relative slack of every machine-range test of a gain, alpha, init or sum.
RANGE_TOL = 1e-9


# --- normal form -------------------------------------------------------------
# An expression becomes a sum of terms; each term is a numeric coefficient
# (with symbolic param bookkeeping for the sweep interface) times signal,
# lookup and parenthesized-sum factors: a signal is the source's own ``Ref``,
# a sum an ``_NSum`` itself. ``normalize`` builds the form with
# ``dsl.evaluate``, over ``_NSum``'s unary minus, ``+``, ``-`` and ``*``.
# Products never distribute over sums, so the element structure of the
# source is preserved; a product with a zero factor is the empty sum, 0.
# The compiler lowers this form term by term (``_Synth``), and ``demand``
# predicts the gains that lowering needs, which the autoscaler sizes
# signals by; the modal bounds in ``scaling`` read linear terms from it.

class _FLut(Record):
    __slots__ = ("table", "arg")


class _Term(Record):
    __slots__ = ("coeff", "pexps", "factors")


class _NSum(Record):
    __slots__ = ("terms",)

    def __neg__(self) -> _NSum:
        return _NSum([_Term(-t.coeff, t.pexps, t.factors) for t in self.terms])

    def __add__(self, other: _NSum) -> _NSum:
        return _mk_sum(self.terms + other.terms)

    def __sub__(self, other: _NSum) -> _NSum:
        return self + -other

    def __mul__(self, other: _NSum) -> _NSum:
        """A constant operand scales the other's terms; else one term joins both's factors."""
        if not self.terms or not other.terms:
            return _NSum([])
        for const, n in ((self, other), (other, self)):
            if len(const.terms) == 1 and not const.terms[0].factors:
                c = const.terms[0]
                return _mk_sum([_Term(u.coeff * c.coeff, u.pexps + c.pexps, u.factors)
                                for u in n.terms])
        a, b = (n.terms[0] if len(n.terms) == 1 else _Term(1.0, Counter(), [n])
                for n in (self, other))
        return _mk_sum([_Term(a.coeff * b.coeff, a.pexps + b.pexps, a.factors + b.factors)])


def _mk_sum(terms) -> _NSum:
    merged: dict = {}
    out = []
    for t in terms:
        if t.coeff == 0.0:
            continue
        if not t.factors:
            key = frozenset(t.pexps.items())
            if key in merged:
                merged[key].coeff += t.coeff
            else:
                merged[key] = _Term(t.coeff, t.pexps, [])
                out.append(merged[key])
        else:
            out.append(t)
    return _NSum([t for t in out if t.coeff != 0.0])


def normalize(expr: Expr, system: OdeSystem) -> _NSum:
    def leaf(e):
        if isinstance(e, Num):
            return _mk_sum([_Term(e.value, Counter(), [])])
        if e.name in system.params:
            return _mk_sum([_Term(system.params[e.name], Counter({e.name: 1}), [])])
        return _NSum([_Term(1.0, Counter(), [e])])

    def lut(e, ev):
        if e.func != "lut":
            raise TypeError(f"cannot normalize {e!r}")
        return _NSum([_Term(1.0, Counter(), [_FLut(e.args[0].name, ev(e.args[1]))])])

    return evaluate(expr, leaf, lut)


class ScaleMap(Frozen):
    """Amplitude factors per signal plus the time-scale factor.

    Machine signal = problem signal / m; problem time t = lam * tau.
    ``k0`` is the integrator rate the compiled netlist will use; with the
    default lam = k0 and uniform amplitudes the integrator chains carry
    unit stage coefficients.
    """

    __slots__ = ("amplitude", "lam", "k0")

    def __init__(self, amplitude: dict | None = None, lam: float = 1.0, k0: float = 1.0):
        if not (lam > 0 and k0 > 0):
            raise ValueError("lambda and k0 must be positive")
        super().__init__({} if amplitude is None else amplitude, lam, k0)

    def m(self, var: str, order: int) -> float:
        return self.amplitude.get((var, order), 1.0)

    @classmethod
    def identity(cls, k0: float = 1.0) -> "ScaleMap":
        return cls({}, lam=k0, k0=k0)


def stage_gain(scale: ScaleMap, var: str, low_order: int) -> float:
    """Required gain alpha*k0 feeding the integrator that outputs ``low_order``."""
    return scale.lam * scale.m(var, low_order + 1) / scale.m(var, low_order)


class CompileOptions(Frozen):
    """``scale`` carries lambda, k0 and the amplitudes; None is ``ScaleMap.identity()``."""

    __slots__ = ("scale",)
    _defaults = {"scale": None}


class CompileResult(Record):
    __slots__ = ("netlist", "mapping", "report")


#: Element id prefix of each of machine's element constructors.
_PREFIX = {summer: "sum", integrator: "int", multiplier: "mul", coefficient: "coef",
           function_generator: "fgen", reference: "ref"}


class NetlistBuilder:
    """Elements with deterministic ids (prefix + counter), each driving the net of its id."""

    def __init__(self):
        self.elements: dict[str, Element] = {}
        self._counters: Counter = Counter()

    def add(self, make, *args) -> str:
        """Add the element ``make(id, *args)``, ``make`` one of machine's
        element constructors, and the net it drives; returns their id."""
        prefix = _PREFIX[make]
        self._counters[prefix] += 1
        eid = f"{prefix}{self._counters[prefix]}"
        self.elements[eid] = make(eid, *args)
        return eid


# --- synthesis ---------------------------------------------------------------

def demand(n: _NSum, amplitude: dict, tables: dict) -> tuple[float, float]:
    """(G, V) of a normal form as ``_Synth`` lowers it.

    G is the largest gain any one term's coefficient needs (its constant
    times the amplitude factors of its signals) and V the worst-case
    magnitude of the summing net with every machine net at full scale.
    A sum used as a multiplier operand or as a lookup-table argument is
    lowered unscaled, so it must fit [-1, 1] on its own.
    """
    g = v = 0.0
    for t in n.terms:
        gain = size = abs(t.coeff)
        for f in t.factors:
            if isinstance(f, Ref):
                m = amplitude[(f.name, f.order)]
                gain, size = gain * m, size * m
            elif isinstance(f, _NSum):
                g_in, v_in = demand(f, amplitude, tables)
                if max(g_in, v_in) > 1.0 + RANGE_TOL:
                    raise ScalingError(
                        f"parenthesized sum needs {max(g_in, v_in):.4g} machine units; "
                        "expand it or bound its inputs")
                size *= min(1.0, v_in)
            else:
                arg = max(demand(f.arg, amplitude, tables))
                if arg > 1.0 + RANGE_TOL:
                    raise ScalingError(
                        f"lookup-table argument can reach {arg:.4g}; arguments must stay in [-1, 1]")
                size *= table_bound(tables[f.table])
        g = max(g, gain)
        v += size
    return g, v


class _Synth:
    def __init__(self, builder: NetlistBuilder, system: OdeSystem, scale: ScaleMap):
        self.b = builder
        self.system = system
        self.scale = scale
        # (var, order) -> (net, parity): where each signal lives
        self.signals: dict[tuple, tuple] = {}
        # param -> list of (coefficient element or None, alpha scale factor)
        self.param_sites: dict[str, list] = {}

    def _record_params(self, pexps: Counter, element: str | None, coeff: float):
        for name, exp in pexps.items():
            site = None
            if element is not None and exp == 1 and self.system.params[name] != 0.0:
                site = (element, coeff / self.system.params[name])
            self.param_sites.setdefault(name, []).append(site)

    def weigh(self, net: str, c: float, pexps: Counter, noun: str) -> str:
        """``net`` times |c|: the net itself when |c| is 1, else a coefficient
        element; ScalingError naming ``noun`` when |c| exceeds 1.
        Records the parameter sites of ``pexps`` either way."""
        mag = abs(c)
        if mag > 1.0 + RANGE_TOL:
            raise ScalingError(
                f"unscaled coefficient {c:.6g}: {noun} must lie in [-1, 1]; "
                "run the autoscaler or rescale the program")
        element = self.b.add(coefficient, net, mag) if mag < 1.0 else None
        self._record_params(pexps, element, c)
        return element or net

    def const_net(self, value: float, pexps: Counter, want: int) -> str:
        """Materialize a constant on a net at the requested parity."""
        ref = self.b.add(reference, want * (1.0 if value >= 0 else -1.0))
        return self.weigh(ref, value, pexps, "constants")

    def term(self, t: _Term, m_top: float) -> tuple[str, int]:
        """Lower one term with factors; returns (net, parity)."""
        amp = 1.0
        nets = []
        parity = 1
        for f in t.factors:
            if isinstance(f, Ref):
                net, p = self.signals[(f.name, f.order)]
                amp *= self.scale.m(f.name, f.order)
            elif isinstance(f, _NSum):
                net, p = self.sum(f, m_top=1.0)
            else:
                arg, _ = self.sum(f.arg, m_top=1.0, want=1)
                net = self.b.add(function_generator, arg, self.system.tables[f.table])
                p = 1
            nets.append(net)
            parity *= p
        out = nets[0]
        for other in nets[1:]:
            out = self.b.add(multiplier, out, other)
        c = t.coeff * amp / m_top
        if c < 0:
            parity = -parity
        return (self.weigh(out, c, t.pexps, "term gains"), parity)

    def sum(self, n: _NSum, m_top: float, want: int | None = None):
        """Lower a sum of terms to one net.

        ``want`` requests an output parity; the summer's input-side target
        parity is chosen to honor it for free where possible, and a final
        inverter is inserted only when unavoidable. Mixed-parity addends
        are gathered by a single group summer rather than inverted one by
        one. Returns (net, parity), at parity ``want`` when one is given.
        """
        nets = [self.term(t, m_top) for t in n.terms if t.factors]
        consts = [t for t in n.terms if not t.factors]
        if not nets and len(consts) <= 1:  # the empty sum is the constant 0
            (c,) = consts or [_Term(0.0, Counter(), [])]
            parity = want or 1
            return (self.const_net(c.coeff / m_top, c.pexps, parity), parity)
        if len(nets) == 1 and not consts:
            net, parity = nets[0]
            if want is not None and parity != want:
                return (self.b.add(summer, [net]), -parity)
            return (net, parity)

        if want is not None:
            target = -want
        else:
            target = 1 if sum(p for _, p in nets) > 0 else -1
        direct = [net for net, p in nets if p == target]
        minority = [net for net, p in nets if p != target]
        direct.extend(self.const_net(c.coeff / m_top, c.pexps, target) for c in consts)
        if minority:
            direct.append(self.b.add(summer, minority))
        out = self.b.add(summer, direct)
        return (out, -target)


def build_integrator_chain(builder: NetlistBuilder, var: str, order: int,
                           machine_inits, k0: float, gains: list):
    """Create the integrator chain for one variable.

    ``machine_inits[k]`` is the scaled initial value of derivative order
    k. ``gains[j - 1]`` is the required stage gain feeding integrator j,
    realized as a coefficient of alpha = gain / k0 when that is not unity.
    Returns (entry element id, {(var, order) -> (net, parity)}). The entry
    element's input stays unpatched for the fed-back highest derivative.
    """
    entries = {}
    entry = prev_net = None
    for j, gain in enumerate(gains, start=1):
        d = order - j
        parity = -1 if j % 2 else 1
        init = machine_inits[d]
        ic = parity * init
        if abs(ic) > 1.0 + RANGE_TOL:
            raise ScalingError(
                f"initial condition of {signal_name(var, d)} is {init:.6g} machine units; "
                "the autoscaler must run first")
        ic = max(-1.0, min(1.0, ic))
        alpha = gain / k0
        if alpha <= 0:
            raise ScalingError(
                f"the stage from {signal_name(var, d + 1)} to {signal_name(var, d)} has gain 0: "
                f"the bound of {signal_name(var, d + 1)} over the bound of {signal_name(var, d)} "
                "underflows, which no time scale can mend")
        if alpha > 1.0 + RANGE_TOL:
            raise ScalingError(
                f"stage gain {gain:.6g} needs alpha {alpha:.6g} at k0={k0:.6g}; "
                "rerun time scaling")
        alpha = min(alpha, 1.0)
        src = _PENDING if j == 1 else prev_net
        if alpha != 1.0:
            src = builder.add(coefficient, src, alpha)
        eid = builder.add(integrator, [src], ic, k0)
        if j == 1:
            entry = eid if src == _PENDING else src
        entries[(var, d)] = (eid, parity)
        prev_net = eid
    return entry, entries


def close_feedback(builder: NetlistBuilder, entry: str, rhs_net: str) -> None:
    """Patch the fed-back highest-derivative net into a chain entry element."""
    e = builder.elements[entry]
    builder.elements[entry] = Element(e.id, e.kind, e.params,
                                      [rhs_net if n == _PENDING else n for n in e.inputs])


# --- top-level compilation ---------------------------------------------------

def compile_system(system: OdeSystem, options: CompileOptions | None = None) -> CompileResult:
    """Lower a resolved system to a validated netlist plus its sidecar.

    Deterministic: identical input produces an identical netlist. The
    netlist is loop-free (every cycle passes through an integrator):
    ``resolve`` rejects a cycle among order-0 equations, and their
    elements are built in ``system.order0``.
    """
    options = options or CompileOptions()
    scale = options.scale if options.scale is not None else ScaleMap.identity()
    k0 = scale.k0

    builder = NetlistBuilder()
    synth = _Synth(builder, system, scale)
    signals = synth.signals

    chains = {}
    for var, order in system.var_order.items():
        if order == 0:
            continue
        inits = [system.inits[(var, k)] / scale.m(var, k) for k in range(order)]
        gains = [stage_gain(scale, var, order - j) for j in range(1, order + 1)]
        entry, entries = build_integrator_chain(builder, var, order, inits, k0, gains)
        chains[var] = entry
        signals.update(entries)

    for var in system.order0:
        net, parity = synth.sum(normalize(system.equations[var], system),
                                m_top=scale.m(var, 0))
        signals[(var, 0)] = (net, parity)

    for var, order in system.var_order.items():
        if order == 0:
            continue
        net, _ = synth.sum(normalize(system.equations[var], system),  # at the wanted parity
                           m_top=scale.m(var, order), want=1)
        close_feedback(builder, chains[var], net)
        signals[(var, order)] = (net, 1)

    for name, order in system.outputs:
        net, parity = signals[(name, order)]
        if builder.elements[net].name is not None:  # another output's net (eq x = y): buffer it
            net = builder.add(coefficient, net, 1.0)
            signals[(name, order)] = (net, parity)
        e = builder.elements[net]
        builder.elements[net] = Element(e.id, e.kind, e.params, e.inputs, signal_name(name, order))

    netlist = Netlist(builder.elements.values(), [signal_name(*s) for s in system.outputs])

    # No resolved program fails this check; an unpatched feedback input
    # would fail it as a dangling input.
    evaluation_order(netlist)

    bindings = {
        signal_name(var, order): SignalBinding(net, parity, scale.m(var, order))
        for (var, order), (net, parity) in signals.items()
    }
    params = {}
    for name, sites in synth.param_sites.items():
        if len(sites) == 1 and sites[0] is not None:
            element, alpha_scale = sites[0]
            params[name] = ParamBinding(element, alpha_scale, system.params[name])
    mapping = Mapping(bindings, params, lam=scale.lam, k0=k0,
                      horizon_machine=system.horizon / scale.lam)
    return CompileResult(netlist, mapping, netlist.counts())
