package webapi

import (
	"fmt"
	"testing"

	"repro/internal/webidl"
)

// observed is a runtime instrumented like the measuring extension's pages:
// every method patched and every watchable singleton watched, with the
// observations logged in order.
type observed struct {
	rt      *Runtime
	patched []string
	watched []string
}

func newObserved(b *Bindings) *observed {
	o := &observed{rt: b.NewRuntime()}
	o.rt.PatchAllMethods(func(f *webidl.Feature, original MethodFunc) MethodFunc {
		return func(ctx *CallContext) {
			o.patched = append(o.patched, fmt.Sprintf("%s×%d", ctx.Feature.Name(), ctx.Count))
			original(ctx)
		}
	})
	o.rt.WatchAllSingletons(func(f *webidl.Feature, count int) {
		o.watched = append(o.watched, fmt.Sprintf("%s×%d", f.Name(), count))
	})
	return o
}

// TestDispatchMatchesStringPath holds the interned dispatch path that
// compiled scripts use (CallDispatch, SetDispatch) equal to the
// string-keyed reference (Call, SetProperty) for every corpus feature plus
// each error shape: an unknown interface, an unknown member, an attribute
// invoked as a method, a method written as a property and a read-only
// write. Native counts, patch and watcher notifications and error text must
// match.
func TestDispatchMatchesStringPath(t *testing.T) {
	b := bindings(t)
	type ref struct{ iface, member string }
	refs := []ref{
		{"NoSuchInterface", "createElement"},  // unknown interface
		{"Document", "definitelyNotAMember"},  // unknown member
		{"Window", "name"},                    // attribute invoked as a method
		{"Document", "createElement"},         // method written as a property
		{"Window", "localStorage"},            // read-only write
		{"HTMLInputElement", "click"},         // inherited member
		{"HTMLInputElement", "appendChild"},   // deep inherited member
		{"HTMLInputElement", "noSuchInherit"}, // unknown on a derived interface
	}
	var readOnly, method, attr bool
	for _, f := range b.Registry().Features {
		refs = append(refs, ref{f.Interface, f.Member})
		method = method || f.Kind == webidl.Method
		attr = attr || f.Kind == webidl.Attribute && !f.ReadOnly
		readOnly = readOnly || f.Kind == webidl.Attribute && f.ReadOnly
	}
	if !method || !attr || !readOnly {
		t.Fatalf("corpus lacks a feature kind: method=%v writable=%v read-only=%v", method, attr, readOnly)
	}

	table := b.NewDispatchTable()
	fast, slow := newObserved(b), newObserved(b)
	callErrs, setErrs := 0, 0
	for i, r := range refs {
		id := table.InternRef(r.iface, r.member)
		d := &table.Refs()[id]
		count := 1 + i%4
		ferr, serr := fast.rt.CallDispatch(d, count), slow.rt.Call(r.iface, r.member, count)
		if fmt.Sprint(ferr) != fmt.Sprint(serr) {
			t.Errorf("invoke %s.%s: CallDispatch error %v, Call error %v", r.iface, r.member, ferr, serr)
		}
		if serr != nil {
			callErrs++
		}
		ferr, serr = fast.rt.SetDispatch(d), slow.rt.SetProperty(r.iface, r.member)
		if fmt.Sprint(ferr) != fmt.Sprint(serr) {
			t.Errorf("set %s.%s: SetDispatch error %v, SetProperty error %v", r.iface, r.member, ferr, serr)
		}
		if serr != nil {
			setErrs++
		}
		if len(fast.patched) != len(slow.patched) || len(fast.watched) != len(slow.watched) {
			t.Fatalf("%s.%s: notifications diverge: patched %d vs %d, watched %d vs %d",
				r.iface, r.member, len(fast.patched), len(slow.patched), len(fast.watched), len(slow.watched))
		}
	}
	if callErrs == 0 || callErrs == len(refs) || setErrs == 0 || setErrs == len(refs) {
		t.Fatalf("refs did not exercise both outcomes: %d/%d invoke errors, %d/%d set errors",
			callErrs, len(refs), setErrs, len(refs))
	}
	for _, f := range b.Registry().Features {
		if got, want := fast.rt.NativeCalls(f), slow.rt.NativeCalls(f); got != want {
			t.Errorf("%s: dispatch path %d native calls, string path %d", f.Name(), got, want)
		}
	}
	if fmt.Sprint(fast.patched) != fmt.Sprint(slow.patched) {
		t.Error("patch notifications diverge")
	}
	if fmt.Sprint(fast.watched) != fmt.Sprint(slow.watched) {
		t.Error("watcher notifications diverge")
	}
	if len(slow.watched) == 0 || len(slow.patched) == 0 {
		t.Errorf("no notifications: patched %d, watched %d", len(slow.patched), len(slow.watched))
	}
}
