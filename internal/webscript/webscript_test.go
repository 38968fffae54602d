package webscript

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const sampleScript = `
// analytics bootstrap
invoke Document.createElement 3;
set Window.name;
invoke XMLHttpRequest.open;

on load {
  invoke Performance.now 2;
  invoke Navigator.sendBeacon;
}
on click "#menu" {
  invoke Element.getBoundingClientRect;
  navigate "/products";
}
on scroll {
  invoke Window.scrollTo;
}
on timer 5 {
  invoke Storage.setItem;
}
`

func TestParseSample(t *testing.T) {
	s, err := Parse(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Immediate) != 3 {
		t.Fatalf("immediate = %d statements, want 3", len(s.Immediate))
	}
	inv, ok := s.Immediate[0].(Invoke)
	if !ok || inv.Interface != "Document" || inv.Member != "createElement" || inv.Count != 3 {
		t.Errorf("statement 0 = %+v", s.Immediate[0])
	}
	set, ok := s.Immediate[1].(SetProp)
	if !ok || set.Interface != "Window" || set.Member != "name" {
		t.Errorf("statement 1 = %+v", s.Immediate[1])
	}
	if inv2 := s.Immediate[2].(Invoke); inv2.Count != 1 {
		t.Errorf("default count = %d, want 1", inv2.Count)
	}
	if len(s.Handlers) != 4 {
		t.Fatalf("handlers = %d, want 4", len(s.Handlers))
	}
	if s.Handlers[0].Event != EventLoad || len(s.Handlers[0].Body) != 2 {
		t.Errorf("handler 0 = %+v", s.Handlers[0])
	}
	click := s.Handlers[1]
	if click.Event != EventClick || click.Selector != "#menu" {
		t.Errorf("handler 1 = %+v", click)
	}
	if _, ok := click.Body[1].(Navigate); !ok {
		t.Errorf("click body missing navigate: %+v", click.Body)
	}
	timer := s.Handlers[3]
	if timer.Event != EventTimer || timer.Interval != 5 {
		t.Errorf("timer handler = %+v", timer)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"invoke Document.createElement", "expected \";\""},
		{"invoke Document;", "expected \".\""},
		{"frobnicate X.y;", "unknown statement"},
		{"on explode { }", "unknown event"},
		{"on click { invoke A.b; ", "unterminated handler"},
		{"on load { on click { } }", "nested handlers"},
		{`navigate /x;`, "unexpected character"},
		{`navigate "unterminated`, "unterminated string"},
		{"invoke A.b 0;", "bad invoke count"},
		{"on timer 0 { }", "bad timer interval"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Parse("invoke A.b;\ninvoke C.d;\nbogus X.y;\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q lacks line number 3", err)
	}
}

// recordingHost captures executed effects for assertions.
type recordingHost struct {
	invokes []string
	sets    []string
	navs    []string
	failOn  string
}

func (h *recordingHost) Invoke(iface, member string, count int) error {
	name := fmt.Sprintf("%s.%s", iface, member)
	if name == h.failOn {
		return fmt.Errorf("ReferenceError: %s is not defined", name)
	}
	h.invokes = append(h.invokes, fmt.Sprintf("%s x%d", name, count))
	return nil
}

func (h *recordingHost) SetProperty(iface, member string) error {
	h.sets = append(h.sets, iface+"."+member)
	return nil
}

func (h *recordingHost) Navigate(path string) { h.navs = append(h.navs, path) }

func TestExecute(t *testing.T) {
	s, err := Parse(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHost{}
	if err := execute(s.Immediate, h); err != nil {
		t.Fatal(err)
	}
	if len(h.invokes) != 2 || h.invokes[0] != "Document.createElement x3" {
		t.Errorf("invokes = %v", h.invokes)
	}
	if len(h.sets) != 1 || h.sets[0] != "Window.name" {
		t.Errorf("sets = %v", h.sets)
	}
	// Execute a handler body containing a navigation.
	if err := execute(s.Handlers[1].Body, h); err != nil {
		t.Fatal(err)
	}
	if len(h.navs) != 1 || h.navs[0] != "/products" {
		t.Errorf("navs = %v", h.navs)
	}
}

func TestExecuteStopsOnError(t *testing.T) {
	s, err := Parse("invoke A.good;\ninvoke A.bad;\ninvoke A.after;")
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHost{failOn: "A.bad"}
	if err := execute(s.Immediate, h); err == nil {
		t.Fatal("expected execution error")
	}
	if len(h.invokes) != 1 {
		t.Errorf("execution continued past error: %v", h.invokes)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s, err := Parse(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	src := Format(s)
	s2, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, src)
	}
	if len(s2.Immediate) != len(s.Immediate) || len(s2.Handlers) != len(s.Handlers) {
		t.Fatalf("round trip changed shape: %s", src)
	}
	if Format(s2) != src {
		t.Fatalf("format not idempotent:\n%s\nvs\n%s", src, Format(s2))
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	// Property: formatting any synthesized script re-parses to the same
	// statement counts.
	check := func(nInv, nSet uint8, count uint8) bool {
		s := &Script{}
		for i := 0; i < int(nInv%5)+1; i++ {
			s.Immediate = append(s.Immediate, Invoke{Interface: "I", Member: fmt.Sprintf("m%d", i), Count: int(count%9) + 1})
		}
		for i := 0; i < int(nSet%4); i++ {
			s.Immediate = append(s.Immediate, SetProp{Interface: "Window", Member: fmt.Sprintf("p%d", i)})
		}
		s.Handlers = append(s.Handlers, &Handler{Event: EventClick, Selector: "#x", Body: []Stmt{Navigate{Path: "/p"}}})
		out, err := Parse(Format(s))
		if err != nil {
			return false
		}
		return len(out.Immediate) == len(s.Immediate) && len(out.Handlers) == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEventTypeString(t *testing.T) {
	for name, ev := range map[string]EventType{"load": EventLoad, "click": EventClick, "timer": EventTimer} {
		if ev.String() != name {
			t.Errorf("EventType %d String = %q, want %q", ev, ev.String(), name)
		}
	}
	if got := EventType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown event string = %q", got)
	}
}
