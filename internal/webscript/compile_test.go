package webscript

import (
	"errors"
	"fmt"
	"testing"
)

// testInterner interns string pairs to dense IDs, recording the order.
type testInterner struct {
	ids  map[string]int
	keys []string
}

func newTestInterner() *testInterner { return &testInterner{ids: map[string]int{}} }

func (in *testInterner) InternRef(iface, member string) int {
	key := iface + "." + member
	if id, ok := in.ids[key]; ok {
		return id
	}
	id := len(in.keys)
	in.ids[key] = id
	in.keys = append(in.keys, key)
	return id
}

// testOpHost applies ops against the interner's key table, with optional
// per-ref failures, recording an effect trace.
type testOpHost struct {
	in    *testInterner
	fail  map[string]error
	trace []string
}

func (h *testOpHost) effect(kind, key string, err error) error {
	if err != nil {
		return err
	}
	h.trace = append(h.trace, kind+" "+key)
	return nil
}

func (h *testOpHost) InvokeRef(ref, count int) error {
	key := h.in.keys[ref]
	return h.effect(fmt.Sprintf("invoke×%d", count), key, h.fail[key])
}

func (h *testOpHost) SetRef(ref int) error {
	key := h.in.keys[ref]
	return h.effect("set", key, h.fail[key])
}

func (h *testOpHost) Navigate(path string) {
	h.trace = append(h.trace, "navigate "+path)
}

func TestCompileInternsAndExecutes(t *testing.T) {
	src := `
invoke Document.createElement 3;
set Window.name;
navigate "/next";
on click ".btn" {
  invoke Document.createElement;
  invoke Element.setAttribute 2;
}
on timer 5 {
  navigate "/tick";
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := newTestInterner()
	c := Compile(s, in)
	if c == nil {
		t.Fatal("Compile returned nil for parser output")
	}
	if len(c.Bodies) != len(s.Handlers) {
		t.Fatalf("Bodies = %d blocks, want %d", len(c.Bodies), len(s.Handlers))
	}
	// The same reference compiles to the same ID.
	if c.Immediate[0].Ref != c.Bodies[0][0].Ref {
		t.Fatalf("Document.createElement interned twice: refs %d and %d",
			c.Immediate[0].Ref, c.Bodies[0][0].Ref)
	}

	h := &testOpHost{in: in}
	if err := ExecuteOps(c.Immediate, h); err != nil {
		t.Fatal(err)
	}
	for _, body := range c.Bodies {
		if err := ExecuteOps(body, h); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"invoke×3 Document.createElement",
		"set Window.name",
		"navigate /next",
		"invoke×1 Document.createElement",
		"invoke×2 Element.setAttribute",
		"navigate /tick",
	}
	if len(h.trace) != len(want) {
		t.Fatalf("trace %v, want %v", h.trace, want)
	}
	for i := range want {
		if h.trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, h.trace[i], want[i])
		}
	}
}

// TestExecuteOpsStopsAtFirstError mirrors the interpreter contract: a
// failing statement aborts the block, earlier statements keep their effects,
// later ones never run.
func TestExecuteOpsStopsAtFirstError(t *testing.T) {
	src := `
invoke A.ok;
invoke B.bad;
invoke C.never;
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := newTestInterner()
	c := Compile(s, in)
	boom := errors.New("boom")
	h := &testOpHost{in: in, fail: map[string]error{"B.bad": boom}}
	if err := ExecuteOps(c.Immediate, h); !errors.Is(err, boom) {
		t.Fatalf("ExecuteOps error = %v, want %v", err, boom)
	}
	if len(h.trace) != 1 || h.trace[0] != "invoke×1 A.ok" {
		t.Fatalf("trace = %v, want just A.ok", h.trace)
	}
}

// TestCompileUnknownStmtFallsBack pins the nil (failure) return for
// hand-built ASTs containing statement types the compiler does not know.
func TestCompileUnknownStmtFallsBack(t *testing.T) {
	type weird struct{ Stmt }
	s := &Script{Immediate: []Stmt{Invoke{Interface: "A", Member: "b", Count: 1}, weird{}}}
	if c := Compile(s, newTestInterner()); c != nil {
		t.Fatalf("Compile of unknown statement = %+v, want nil", c)
	}
	s = &Script{Handlers: []*Handler{{Event: EventLoad, Body: []Stmt{weird{}}}}}
	if c := Compile(s, newTestInterner()); c != nil {
		t.Fatalf("Compile of unknown handler statement = %+v, want nil", c)
	}
}

// traceHost is the interpreter-side twin of testOpHost: the same effect
// trace and per-reference failures, addressed by string pair.
type traceHost struct {
	fail  map[string]error
	trace []string
}

func (h *traceHost) Invoke(iface, member string, count int) error {
	key := iface + "." + member
	if err := h.fail[key]; err != nil {
		return err
	}
	h.trace = append(h.trace, fmt.Sprintf("invoke×%d %s", count, key))
	return nil
}

func (h *traceHost) SetProperty(iface, member string) error {
	key := iface + "." + member
	if err := h.fail[key]; err != nil {
		return err
	}
	h.trace = append(h.trace, "set "+key)
	return nil
}

func (h *traceHost) Navigate(path string) {
	h.trace = append(h.trace, "navigate "+path)
}

// FuzzCompileMatchesInterpreter pins the property the browser's single
// execution path relies on: every script Parse accepts compiles (Compile is
// non-nil), and each compiled block produces the reference interpreter's
// effect trace and error. failMask picks the failing references: interned
// ref i fails when bit i%64 is set.
func FuzzCompileMatchesInterpreter(f *testing.F) {
	f.Add(sampleScript, uint64(0))
	f.Add(sampleScript, uint64(0b101))
	f.Add(sampleScript, ^uint64(0))
	f.Add("invoke A.ok;\ninvoke B.bad 2;\nset C.p;\nnavigate \"/x\";", uint64(0b10))
	f.Add("on timer 3 { set Window.name; invoke A.b; }\non click \"#m\" { navigate \"/m\"; }", uint64(1))
	f.Fuzz(func(t *testing.T, src string, failMask uint64) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		in := newTestInterner()
		c := Compile(s, in)
		if c == nil {
			t.Fatalf("Compile returned nil for parser output %q", src)
		}
		if len(c.Bodies) != len(s.Handlers) {
			t.Fatalf("Bodies = %d blocks, want %d", len(c.Bodies), len(s.Handlers))
		}
		fail := make(map[string]error)
		for i, key := range in.keys {
			if failMask>>(i%64)&1 == 1 {
				fail[key] = fmt.Errorf("ReferenceError: %s", key)
			}
		}
		check := func(block string, ops []Op, stmts []Stmt) {
			oh := &testOpHost{in: in, fail: fail}
			ih := &traceHost{fail: fail}
			oerr, ierr := ExecuteOps(ops, oh), execute(stmts, ih)
			if fmt.Sprint(oerr) != fmt.Sprint(ierr) {
				t.Fatalf("%s of %q: compiled error %v, interpreted %v", block, src, oerr, ierr)
			}
			if fmt.Sprint(oh.trace) != fmt.Sprint(ih.trace) {
				t.Fatalf("%s of %q: traces diverge\ncompiled:    %v\ninterpreted: %v", block, src, oh.trace, ih.trace)
			}
		}
		check("immediate block", c.Immediate, s.Immediate)
		for i, h := range s.Handlers {
			check(fmt.Sprintf("handler %d", i), c.Bodies[i], h.Body)
		}
	})
}

// TestEventTypeStringTable pins the slice-backed String lookup over every
// event, including both out-of-range fallback directions.
func TestEventTypeStringTable(t *testing.T) {
	cases := map[EventType]string{
		EventLoad:                     "load",
		EventClick:                    "click",
		EventScroll:                   "scroll",
		EventInput:                    "input",
		EventMove:                     "move",
		EventTimer:                    "timer",
		EventType(99):                 "EventType(99)",
		EventType(-1):                 "EventType(-1)",
		EventType(len(eventNameList)): fmt.Sprintf("EventType(%d)", len(eventNameList)),
	}
	for ev, want := range cases {
		if got := ev.String(); got != want {
			t.Errorf("EventType(%d).String() = %q, want %q", int(ev), got, want)
		}
	}
	// Round trip with the parser's name table.
	for name, ev := range eventNames {
		if ev.String() != name {
			t.Errorf("eventNames[%q] = %v, String() = %q", name, ev, ev.String())
		}
	}
}
