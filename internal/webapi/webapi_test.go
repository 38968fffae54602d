package webapi

import (
	"errors"
	"testing"

	"repro/internal/standards"
	"repro/internal/webidl"
)

var sharedBindings *Bindings

func bindings(t testing.TB) *Bindings {
	t.Helper()
	if sharedBindings == nil {
		reg, err := webidl.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		sharedBindings = NewBindings(reg)
	}
	return sharedBindings
}

func TestResolveDirect(t *testing.T) {
	b := bindings(t)
	f, ok := b.Resolve("Document", "createElement")
	if !ok || f.Standard != "DOM1" {
		t.Fatalf("Resolve(Document.createElement) = %+v, %v", f, ok)
	}
}

func TestResolveInherited(t *testing.T) {
	b := bindings(t)
	// HTMLInputElement inherits click from HTMLElement (HTML standard).
	f, ok := b.Resolve("HTMLInputElement", "click")
	if !ok {
		t.Fatal("inherited member not resolved")
	}
	if f.Interface != "HTMLElement" || f.Member != "click" {
		t.Fatalf("resolved to %s, want HTMLElement.click", f.Name())
	}
	// Deep chain: HTMLInputElement → ... → Node.
	f, ok = b.Resolve("HTMLInputElement", "appendChild")
	if !ok || f.Interface != "Node" {
		t.Fatalf("deep inherited member = %+v, %v", f, ok)
	}
}

func TestResolveShadowing(t *testing.T) {
	b := bindings(t)
	// Document defines querySelector itself (SLC); Element does too. A
	// Document reference must resolve to Document's own member.
	f, ok := b.Resolve("Document", "querySelector")
	if !ok || f.Interface != "Document" {
		t.Fatalf("shadowed member resolved to %+v", f)
	}
}

func TestCallCountsNative(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	if err := rt.Call("Document", "createElement", 3); err != nil {
		t.Fatal(err)
	}
	f, _ := b.Resolve("Document", "createElement")
	if got := rt.NativeCalls(f); got != 3 {
		t.Errorf("native calls = %d, want 3", got)
	}
	if got := rt.TotalNativeCalls(); got != 3 {
		t.Errorf("total native calls = %d, want 3", got)
	}
}

func TestCallUnknownIsReferenceError(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	err := rt.Call("Document", "definitelyNotAMethod", 1)
	var re *ReferenceError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want ReferenceError", err)
	}
}

func TestCallAttributeIsError(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	// Window.name is an attribute; calling it is a type error.
	if err := rt.Call("Window", "name", 1); err == nil {
		t.Fatal("calling an attribute should fail")
	}
}

func TestPatchMethodWrapsOriginal(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	f, _ := b.Resolve("Node", "cloneNode")
	var observed int64
	err := rt.PatchMethod(f, func(original MethodFunc) MethodFunc {
		return func(ctx *CallContext) {
			observed += int64(ctx.Count)
			original(ctx) // preserve functionality, like the paper's shims
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Call("Node", "cloneNode", 10); err != nil {
		t.Fatal(err)
	}
	if observed != 10 {
		t.Errorf("shim observed %d, want 10", observed)
	}
	if got := rt.NativeCalls(f); got != 10 {
		t.Errorf("native still ran %d times, want 10 (shim must forward)", got)
	}
}

func TestPatchStacksLikeClosures(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	f, _ := b.Resolve("Document", "createElement")
	order := []string{}
	for _, tag := range []string{"inner", "outer"} {
		tag := tag
		if err := rt.PatchMethod(f, func(original MethodFunc) MethodFunc {
			return func(ctx *CallContext) {
				order = append(order, tag)
				original(ctx)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Call("Document", "createElement", 1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("patch nesting order = %v, want [outer inner]", order)
	}
	if rt.NativeCalls(f) != 1 {
		t.Error("native implementation lost through double patch")
	}
}

func TestPatchNonMethodFails(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	f, _ := b.Resolve("Window", "name")
	if err := rt.PatchMethod(f, func(o MethodFunc) MethodFunc { return o }); err == nil {
		t.Fatal("patching an attribute should fail")
	}
}

func TestSetPropertyAndWatch(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	f, ok := b.Resolve("Window", "name")
	if !ok || f.Kind != webidl.Attribute {
		t.Fatalf("Window.name = %+v", f)
	}
	var writes int
	if err := rt.Watch(f, func(wf *webidl.Feature, count int) {
		if wf.ID != f.ID {
			t.Errorf("watcher got feature %s", wf.Name())
		}
		writes += count
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetProperty("Window", "name"); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetProperty("Window", "name"); err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("watcher saw %d writes, want 2", writes)
	}
	if rt.NativeCalls(f) != 2 {
		t.Errorf("native write count = %d, want 2", rt.NativeCalls(f))
	}
}

func TestSetPropertyReadOnlyFails(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	if err := rt.SetProperty("Window", "localStorage"); err == nil {
		t.Fatal("writing a readonly attribute should fail")
	}
}

func TestWatchLimits(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	noop := func(*webidl.Feature, int) {}

	// Methods cannot be watched.
	f, _ := b.Resolve("Document", "createElement")
	if err := rt.Watch(f, noop); err == nil {
		t.Error("watching a method should fail")
	}
	// Read-only attributes cannot be watched.
	f, _ = b.Resolve("Window", "localStorage")
	if err := rt.Watch(f, noop); err == nil {
		t.Error("watching a readonly attribute should fail")
	}
	// Non-singleton attributes cannot be watched (paper §4.2.2).
	f, _ = b.Resolve("Element", "innerHTML")
	var we *WatchError
	if err := rt.Watch(f, noop); !errors.As(err, &we) {
		t.Errorf("watching a non-singleton attribute = %v, want WatchError", err)
	}
}

func TestMeasurable(t *testing.T) {
	b := bindings(t)
	cases := []struct {
		iface, member string
		want          bool
	}{
		{"Document", "createElement", true}, // method
		{"Window", "name", true},            // writable singleton attr
		{"Window", "localStorage", false},   // readonly attr
		{"Element", "innerHTML", false},     // non-singleton attr
	}
	for _, c := range cases {
		f, ok := b.Resolve(c.iface, c.member)
		if !ok {
			t.Fatalf("%s.%s missing", c.iface, c.member)
		}
		if got := Measurable(f); got != c.want {
			t.Errorf("Measurable(%s.%s) = %v, want %v", c.iface, c.member, got, c.want)
		}
	}
}

func TestEveryStandardTopFeatureMeasurable(t *testing.T) {
	// The synthetic-web calibrator places a standard's usage on its
	// rank-0 feature; for every standard the paper observed in use, that
	// feature must be observable. (Never-used standards — e.g. TPE,
	// whose only members are readonly doNotTrack attributes — may have
	// unmeasurable top features; that is part of why they are never
	// observed.)
	b := bindings(t)
	reg := b.Registry()
	for _, f := range reg.Features {
		if f.Rank != 0 || Measurable(f) {
			continue
		}
		if std := standards.MustByAbbrev(f.Standard); std.Sites > 0 {
			t.Errorf("standard %s (used on %d sites) rank-0 feature %s is unmeasurable",
				f.Standard, std.Sites, f.Name())
		}
	}
}

func TestWatchAllSingletons(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	var writes int
	n := rt.WatchAllSingletons(func(*webidl.Feature, int) { writes++ })
	if n == 0 {
		t.Fatal("no watchpoints installed")
	}
	if err := rt.SetProperty("Window", "name"); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetProperty("Document", "title"); err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("watchers saw %d writes, want 2", writes)
	}
}

func TestPatchAllMethods(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	var calls int64
	rt.PatchAllMethods(func(f *webidl.Feature, original MethodFunc) MethodFunc {
		return func(ctx *CallContext) {
			calls += int64(ctx.Count)
			original(ctx)
		}
	})
	if err := rt.Call("Document", "createElement", 4); err != nil {
		t.Fatal(err)
	}
	if err := rt.Call("Crypto", "getRandomValues", 1); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("patched shims saw %d calls, want 5", calls)
	}
}

func TestRuntimesAreIsolated(t *testing.T) {
	b := bindings(t)
	rt1 := b.NewRuntime()
	rt2 := b.NewRuntime()
	f, _ := b.Resolve("Document", "createElement")
	var shimmed bool
	if err := rt1.PatchMethod(f, func(o MethodFunc) MethodFunc {
		return func(ctx *CallContext) { shimmed = true; o(ctx) }
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Call("Document", "createElement", 1); err != nil {
		t.Fatal(err)
	}
	if shimmed {
		t.Fatal("patch on one runtime leaked into another")
	}
	if rt1.NativeCalls(f) != 0 || rt2.NativeCalls(f) != 1 {
		t.Fatal("native counters shared across runtimes")
	}
}

// TestResetCountsPreservesInstrumentation is the runtime-recycling
// contract: after ResetCounts a runtime reports zero counts everywhere, but
// its patches, watchpoints, and instrumentation marks survive and keep
// observing — the state Browser.Release hands back to the page pool.
func TestResetCountsPreservesInstrumentation(t *testing.T) {
	b := bindings(t)
	rt := b.NewRuntime()
	var patched int64
	rt.PatchAllMethods(func(f *webidl.Feature, original MethodFunc) MethodFunc {
		return func(ctx *CallContext) {
			patched += int64(ctx.Count)
			original(ctx)
		}
	})
	var watched int64
	rt.WatchAllSingletons(func(f *webidl.Feature, count int) { watched += int64(count) })
	owner := &struct{ int }{}
	rt.MarkInstrumented(owner)

	if err := rt.Call("Document", "createElement", 3); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetProperty("Window", "name"); err != nil {
		t.Fatal(err)
	}
	if rt.TotalNativeCalls() == 0 || patched != 3 || watched != 1 {
		t.Fatalf("pre-reset counts: native=%d patched=%d watched=%d", rt.TotalNativeCalls(), patched, watched)
	}

	rt.ResetCounts()
	if got := rt.TotalNativeCalls(); got != 0 {
		t.Fatalf("recycled runtime reports %d native calls, want 0", got)
	}
	if !rt.InstrumentedBy(owner) {
		t.Error("ResetCounts dropped the instrumentation mark")
	}
	if err := rt.Call("Document", "createElement", 2); err != nil {
		t.Fatal(err)
	}
	if patched != 5 {
		t.Errorf("patch stopped observing after ResetCounts: %d, want 5", patched)
	}
	if got := rt.TotalNativeCalls(); got != 2 {
		t.Errorf("post-recycle native calls = %d, want 2", got)
	}
}
