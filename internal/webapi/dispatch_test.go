package webapi

import (
	"fmt"
	"sync"
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

// TestDispatchTableConcurrentIntern interns overlapping references from
// several goroutines while others index Refs snapshots. Every goroutine must
// see one ID per key, a snapshot taken earlier must read the same entries
// after later interning, and appending to a Refs result must never write
// into the table. Run it under -race: the appends into the table's spare
// capacity must not race with the readers.
func TestDispatchTableConcurrentIntern(t *testing.T) {
	b := bindings(t)
	type ref struct{ iface, member string }
	var refs []ref
	for _, f := range b.Registry().Features[:400] {
		refs = append(refs, ref{f.Interface, f.Member})
	}
	for i := 0; i < 20; i++ {
		refs = append(refs, ref{"NoSuchInterface", fmt.Sprint("m", i)})
	}
	table := b.NewDispatchTable()

	// Intern a prefix first and keep a copy of its snapshot.
	for _, r := range refs[:50] {
		table.InternRef(r.iface, r.member)
	}
	early := table.Refs()
	earlyCopy := append([]Dispatch(nil), early...)

	// Appending to a snapshot copies: cap == len.
	if cap(early) != len(early) {
		t.Fatalf("Refs has spare capacity: len %d cap %d", len(early), cap(early))
	}
	sentinel := fmt.Errorf("written through an appended snapshot")
	_ = append(early, Dispatch{CallErr: sentinel})

	const interners, readers = 4, 2
	ids := make([]map[string]int, interners)
	done := make(chan struct{})
	var internWG, readWG sync.WaitGroup
	for g := 0; g < interners; g++ {
		ids[g] = make(map[string]int, len(refs))
		internWG.Add(1)
		go func(g int) {
			defer internWG.Done()
			// Each goroutine walks the refs from its own offset, so
			// first interns of one key race across goroutines.
			for i := range refs {
				r := refs[(i+g*len(refs)/interners)%len(refs)]
				ids[g][r.iface+"."+r.member] = table.InternRef(r.iface, r.member)
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := table.Refs()
				for i := range snap {
					if snap[i].Feature == nil && snap[i].CallErr == nil {
						t.Errorf("ref %d published without a feature or an error", i)
						return
					}
				}
			}
		}()
	}
	internWG.Wait()
	close(done)
	readWG.Wait()

	all := table.Refs()
	if len(all) != len(refs) {
		t.Fatalf("table holds %d refs, want %d distinct", len(all), len(refs))
	}
	seen := make(map[int]string, len(refs))
	for _, r := range refs {
		key := r.iface + "." + r.member
		id := ids[0][key]
		for g := 1; g < interners; g++ {
			if ids[g][key] != id {
				t.Fatalf("%s: goroutine 0 got ID %d, goroutine %d got %d", key, id, g, ids[g][key])
			}
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("ID %d given to both %s and %s", id, other, key)
		}
		seen[id] = key
		if f, ok := b.Resolve(r.iface, r.member); ok != (all[id].Feature != nil) || ok && all[id].Feature != f {
			t.Errorf("%s: entry %d resolves to %v, want %v", key, id, all[id].Feature, f)
		}
	}
	for i := range earlyCopy {
		if early[i] != earlyCopy[i] || all[i] != earlyCopy[i] {
			t.Fatalf("entry %d of an earlier snapshot changed after later interning", i)
		}
	}
	for i, d := range all {
		if d.CallErr == sentinel {
			t.Fatalf("entry %d was written through an appended snapshot", i)
		}
	}
}

// BenchmarkInternCorpus interns every corpus feature into a fresh table, the
// cold start of every browser cache. Its B/op grows linearly in the number
// of distinct references.
func BenchmarkInternCorpus(b *testing.B) {
	bind := benchBindings(b)
	feats := bind.Registry().Features
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := bind.NewDispatchTable()
		for _, f := range feats {
			table.InternRef(f.Interface, f.Member)
		}
	}
}
