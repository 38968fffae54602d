package webapi

import (
	"fmt"

	"repro/internal/webidl"
)

// CallContext carries one logical method invocation (or batch thereof)
// through the dispatch chain. The context passed to a MethodFunc is only
// valid for the duration of the call: the runtime reuses one context across
// dispatches (pages invoke features millions of times per survey), so
// implementations must not retain it or call back into the same runtime's
// dispatch while holding it.
type CallContext struct {
	// Feature is the resolved corpus feature being invoked.
	Feature *webidl.Feature
	// Count is the number of logical invocations this dispatch
	// represents; tight script loops batch their calls, and
	// instrumentation must account for each.
	Count int
}

// MethodFunc is a method slot implementation.
type MethodFunc func(*CallContext)

// WatchFunc observes property writes, receiving the written feature and the
// write multiplicity.
type WatchFunc func(f *webidl.Feature, count int)

// Bindings is the immutable, corpus-derived dispatch structure shared by
// all pages: feature resolution tables and the inheritance chain. Build it
// once per process with NewBindings.
type Bindings struct {
	reg *webidl.Registry
	// resolve maps "Interface.member" (including inherited members) to
	// the defining feature.
	resolve map[string]*webidl.Feature
}

// NewBindings precomputes dispatch tables from the corpus.
func NewBindings(reg *webidl.Registry) *Bindings {
	b := &Bindings{reg: reg, resolve: make(map[string]*webidl.Feature, len(reg.Features)*2)}
	// Direct members.
	for _, f := range reg.Features {
		b.resolve[f.Interface+"."+f.Member] = f
	}
	// Inherited members: for each interface, walk up the parent chain
	// and expose ancestors' members under the derived interface name,
	// unless shadowed.
	for name := range reg.Interfaces {
		chain := b.chainOf(name)
		for _, anc := range chain {
			ancIface, ok := reg.InterfaceOf(anc)
			if !ok {
				continue
			}
			for _, f := range ancIface.Members {
				key := name + "." + f.Member
				if _, shadowed := b.resolve[key]; !shadowed {
					b.resolve[key] = f
				}
			}
		}
	}
	return b
}

// chainOf returns the ancestor interface names of name, nearest first.
func (b *Bindings) chainOf(name string) []string {
	var chain []string
	seen := map[string]bool{name: true}
	cur, ok := b.reg.InterfaceOf(name)
	for ok && cur.Parent != "" && !seen[cur.Parent] {
		seen[cur.Parent] = true
		chain = append(chain, cur.Parent)
		cur, ok = b.reg.InterfaceOf(cur.Parent)
	}
	return chain
}

// Registry returns the corpus the bindings were built from.
func (b *Bindings) Registry() *webidl.Registry { return b.reg }

// Resolve finds the feature for an "Interface.member" reference, following
// the inheritance chain.
func (b *Bindings) Resolve(iface, member string) (*webidl.Feature, bool) {
	f, ok := b.resolve[iface+"."+member]
	return f, ok
}

// Measurable reports whether the paper's instrumentation can observe use of
// the feature: methods are observable via prototype shims; properties are
// observable only as writes to non-readonly attributes of singleton objects
// (§4.2.2).
func Measurable(f *webidl.Feature) bool {
	if f.Kind == webidl.Method {
		return true
	}
	return !f.ReadOnly && webidl.IsSingletonInterface(f.Interface)
}

// ReferenceError is returned when a script references a member no interface
// provides — the analog of a JavaScript ReferenceError/TypeError, which
// aborts the referencing script.
type ReferenceError struct {
	Interface string
	Member    string
}

func (e *ReferenceError) Error() string {
	return fmt.Sprintf("webapi: %s.%s is not a function", e.Interface, e.Member)
}

// WatchError is returned for invalid Watch registrations.
type WatchError struct {
	Feature *webidl.Feature
	Reason  string
}

func (e *WatchError) Error() string {
	return fmt.Sprintf("webapi: cannot watch %s: %s", e.Feature.Name(), e.Reason)
}

// Runtime is the per-page dispatch state: one fresh set of prototype slots
// per page, plus singleton watchpoints. The zero value is not useful; use
// Bindings.NewRuntime.
type Runtime struct {
	b *Bindings
	// methods[featureID] is the current slot implementation; patching
	// swaps entries, page scripts dispatch through them.
	methods []MethodFunc
	// native[featureID] counts logical invocations reaching the native
	// (original) implementation, whether or not the slot is patched —
	// the simulator's ground truth that shims preserve functionality.
	native []int64
	// watchers[featureID] holds property watchpoints.
	watchers map[int][]WatchFunc
	// instrumented lists the owners (extensions) that have installed
	// their shims on this runtime; see MarkInstrumented.
	instrumented []any
	// scratch is the reusable CallContext handed to method slots; see the
	// CallContext docs for the non-retention contract that makes one
	// context per runtime safe.
	scratch CallContext
}

// NewRuntime creates a fresh page runtime with pristine (unpatched) slots.
func (b *Bindings) NewRuntime() *Runtime {
	rt := &Runtime{
		b:        b,
		methods:  make([]MethodFunc, len(b.reg.Features)),
		native:   make([]int64, len(b.reg.Features)),
		watchers: nil, // lazily allocated
	}
	return rt
}

// ResetCounts zeroes the per-page native counters while preserving patches,
// watchpoints, and instrumentation marks. This is the recycle path for a
// runtime returning to its browser's pool between pages of one profile:
// the extension stack is identical on every page, so its shims — which are
// pure forwarding closures — can survive the round trip, and only the
// counts (the per-page ground truth) must start fresh.
func (rt *Runtime) ResetCounts() { clear(rt.native) }

// MarkInstrumented records that owner has installed its instrumentation on
// this runtime. Extensions that patch methods or register watchpoints must
// mark the runtime and check InstrumentedBy before instrumenting, so a
// runtime recycled by the browser's page pool is never shimmed twice
// (double-wrapping would double every count). ResetCounts preserves the
// marks.
func (rt *Runtime) MarkInstrumented(owner any) {
	rt.instrumented = append(rt.instrumented, owner)
}

// InstrumentedBy reports whether owner has marked this runtime.
func (rt *Runtime) InstrumentedBy(owner any) bool {
	for _, o := range rt.instrumented {
		if o == owner {
			return true
		}
	}
	return false
}

// nativeImpl is the default implementation for every method slot: it
// performs the feature's (simulated) effect, which for measurement purposes
// is recording that the native code ran.
func (rt *Runtime) nativeImpl(ctx *CallContext) {
	rt.native[ctx.Feature.ID] += int64(ctx.Count)
}

// Call dispatches count logical invocations of Interface.member. Unknown
// references return a ReferenceError; invoking an attribute as a function
// is likewise an error, as in JavaScript.
func (rt *Runtime) Call(iface, member string, count int) error {
	f, ok := rt.b.Resolve(iface, member)
	if !ok || f.Kind != webidl.Method {
		return &ReferenceError{Interface: iface, Member: member}
	}
	rt.dispatch(f, count)
	return nil
}

// dispatch invokes a resolved method feature through its current slot using
// the runtime's scratch context.
func (rt *Runtime) dispatch(f *webidl.Feature, count int) {
	ctx := &rt.scratch
	ctx.Feature, ctx.Count = f, count
	if fn := rt.methods[f.ID]; fn != nil {
		fn(ctx)
		return
	}
	rt.nativeImpl(ctx)
}

// SetProperty dispatches one write to Interface.member. Writes to readonly
// attributes and unknown members fail; writes to watched singleton
// properties notify the watchers (the Object.watch analog). Writes to
// non-singleton properties succeed silently and unobservably.
func (rt *Runtime) SetProperty(iface, member string) error {
	f, ok := rt.b.Resolve(iface, member)
	if !ok || f.Kind != webidl.Attribute {
		return &ReferenceError{Interface: iface, Member: member}
	}
	if f.ReadOnly {
		return fmt.Errorf("webapi: cannot assign to read only property %s", f.Name())
	}
	rt.native[f.ID]++
	for _, w := range rt.watchers[f.ID] {
		w(f, 1)
	}
	return nil
}

// PatchMethod replaces a method slot with wrap(original), giving the
// wrapper closure-private access to the original implementation, exactly
// like the paper's extension shims (§4.2.1). It returns the feature's
// pre-patch implementation indirectly: pages have no way to recover it.
func (rt *Runtime) PatchMethod(f *webidl.Feature, wrap func(original MethodFunc) MethodFunc) error {
	if f.Kind != webidl.Method {
		return fmt.Errorf("webapi: cannot patch non-method %s", f.Name())
	}
	original := rt.methods[f.ID]
	if original == nil {
		original = rt.nativeImpl
	}
	rt.methods[f.ID] = wrap(original)
	return nil
}

// PatchAllMethods applies wrap to every method in the corpus.
func (rt *Runtime) PatchAllMethods(wrap func(f *webidl.Feature, original MethodFunc) MethodFunc) {
	for _, f := range rt.b.reg.Features {
		if f.Kind != webidl.Method {
			continue
		}
		original := rt.methods[f.ID]
		if original == nil {
			original = rt.nativeImpl
		}
		rt.methods[f.ID] = wrap(f, original)
	}
}

// Watch registers a write observer on a property feature. Only writable
// attributes of singleton interfaces are watchable; everything else returns
// a WatchError, reproducing the instrumentation limits of §4.2.2.
func (rt *Runtime) Watch(f *webidl.Feature, w WatchFunc) error {
	if f.Kind != webidl.Attribute {
		return &WatchError{Feature: f, Reason: "not a property"}
	}
	if f.ReadOnly {
		return &WatchError{Feature: f, Reason: "read-only property writes never occur"}
	}
	if !webidl.IsSingletonInterface(f.Interface) {
		return &WatchError{Feature: f, Reason: "Object.watch is only available on singleton objects"}
	}
	if rt.watchers == nil {
		rt.watchers = make(map[int][]WatchFunc)
	}
	rt.watchers[f.ID] = append(rt.watchers[f.ID], w)
	return nil
}

// WatchAllSingletons registers w on every watchable property in the corpus
// and returns how many watchpoints were installed.
func (rt *Runtime) WatchAllSingletons(w WatchFunc) int {
	n := 0
	for _, f := range rt.b.reg.Features {
		if f.Kind == webidl.Attribute && Measurable(f) {
			if err := rt.Watch(f, w); err == nil {
				n++
			}
		}
	}
	return n
}

// NativeCalls reports how many logical invocations (or writes) reached the
// feature's native implementation on this page.
func (rt *Runtime) NativeCalls(f *webidl.Feature) int64 { return rt.native[f.ID] }

// TotalNativeCalls sums native invocations across all features.
func (rt *Runtime) TotalNativeCalls() int64 {
	var sum int64
	for _, n := range rt.native {
		sum += n
	}
	return sum
}

// Bindings returns the shared bindings backing this runtime.
func (rt *Runtime) Bindings() *Bindings { return rt.b }
