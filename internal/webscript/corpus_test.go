package webscript_test

import (
	"fmt"
	"net/url"
	"testing"

	"repro/internal/browser"
	"repro/internal/extension"
	"repro/internal/html"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webscript"
	"repro/internal/webserver"
)

// corpusScript is one distinct script source of the test web.
type corpusScript struct {
	origin string // page URL for inline scripts, script URL otherwise
	src    string
}

// testWebScripts returns every distinct inline and external script of the
// pipeline tests' web (90 sites, synthweb seed 7, corpus webidl.Generate(1)):
// every synthweb.PagePaths page of every site, with each <script src>
// resolved against its page and fetched.
func testWebScripts(t *testing.T) (*webapi.Bindings, []corpusScript) {
	t.Helper()
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 90, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fetcher := webserver.DirectFetcher{Web: web}
	seen := make(map[string]bool)
	var out []corpusScript
	add := func(origin, src string) {
		if !seen[src] {
			seen[src] = true
			out = append(out, corpusScript{origin, src})
		}
	}
	for _, site := range web.Sites {
		for _, path := range synthweb.PagePaths() {
			pageURL := "http://" + site.Domain + path
			res, err := fetcher.Fetch(pageURL)
			if err != nil || res.ContentType != "text/html" {
				continue
			}
			doc, err := html.Parse(res.Body)
			if err != nil {
				continue
			}
			base, err := url.Parse(pageURL)
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range doc.Scripts() {
				if ref.Src == "" {
					add(pageURL, ref.Inline)
					continue
				}
				u, err := url.Parse(ref.Src)
				if err != nil {
					continue
				}
				scriptURL := base.ResolveReference(u).String()
				if res, err := fetcher.Fetch(scriptURL); err == nil {
					add(scriptURL, res.Body)
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("test web yielded no scripts")
	}
	return webapi.NewBindings(reg), out
}

// opHost executes compiled ops through a dispatch table's published refs.
type opHost struct {
	rt   *webapi.Runtime
	refs []webapi.Dispatch
	navs []string
}

func (h *opHost) InvokeRef(ref, count int) error { return h.rt.CallDispatch(&h.refs[ref], count) }
func (h *opHost) SetRef(ref int) error           { return h.rt.SetDispatch(&h.refs[ref]) }
func (h *opHost) Navigate(path string)           { h.navs = append(h.navs, path) }

// stringHost feeds the reference interpreter's statements to the runtime's
// string-keyed entry points.
type stringHost struct {
	rt   *webapi.Runtime
	navs []string
}

func (h *stringHost) Invoke(iface, member string, count int) error {
	return h.rt.Call(iface, member, count)
}
func (h *stringHost) SetProperty(iface, member string) error { return h.rt.SetProperty(iface, member) }
func (h *stringHost) Navigate(path string)                   { h.navs = append(h.navs, path) }

// instrumented returns a fresh runtime carrying a measurer's shims and
// watchpoints, as a browser page does after DOM-ready.
func instrumented(b *webapi.Bindings) (*webapi.Runtime, *extension.Measurer) {
	m := extension.NewMeasurer()
	rt := b.NewRuntime()
	m.OnDOMReady(&browser.Page{Runtime: rt})
	return rt, m
}

// TestCompiledScriptMatchesInterpreter runs every script of the test web
// both ways — ExecuteOps over Compile's output through one shared
// webapi.DispatchTable, and the reference AST interpreter through
// Runtime.Call/SetProperty — on measurer-instrumented runtimes, block by
// block (the immediate statements, then each handler body). Per script,
// native counts, measurer counts, navigation attempts in order and each
// block's error text must match.
func TestCompiledScriptMatchesInterpreter(t *testing.T) {
	bind, scripts := testWebScripts(t)
	feats := bind.Registry().Features
	table := bind.NewDispatchTable()
	crt, cm := instrumented(bind)
	irt, im := instrumented(bind)
	parsed, failed := 0, 0
	for _, sc := range scripts {
		s, err := webscript.Parse(sc.src)
		if err != nil {
			continue // parse errors never reach execution
		}
		parsed++
		c := webscript.Compile(s, table)
		if c == nil {
			t.Fatalf("%s: Compile returned nil for parser output", sc.origin)
		}
		ch := &opHost{rt: crt, refs: table.Refs()}
		ih := &stringHost{rt: irt}
		run := func(block string, ops []webscript.Op, stmts []webscript.Stmt) {
			cerr, ierr := webscript.ExecuteOps(ops, ch), webscript.Execute(stmts, ih)
			if fmt.Sprint(cerr) != fmt.Sprint(ierr) {
				t.Errorf("%s %s: compiled error %v, interpreted %v", sc.origin, block, cerr, ierr)
			}
			if cerr != nil {
				failed++
			}
		}
		run("immediate", c.Immediate, s.Immediate)
		for i, h := range s.Handlers {
			run(fmt.Sprintf("handler %d (%s)", i, h.Event), c.Bodies[i], h.Body)
		}

		if got, want := fmt.Sprint(ch.navs), fmt.Sprint(ih.navs); got != want {
			t.Errorf("%s: nav attempts diverge\ncompiled:    %s\ninterpreted: %s", sc.origin, got, want)
		}
		for _, f := range feats {
			if got, want := crt.NativeCalls(f), irt.NativeCalls(f); got != want {
				t.Errorf("%s: %s: compiled %d native calls, interpreted %d", sc.origin, f.Name(), got, want)
			}
		}
		ccounts, icounts := cm.Take(), im.Take()
		if len(ccounts) != len(icounts) {
			t.Errorf("%s: measurer saw %d features compiled, %d interpreted", sc.origin, len(ccounts), len(icounts))
		}
		for id, n := range ccounts {
			if icounts[id] != n {
				t.Errorf("%s: feature %d: compiled measurer count %d, interpreted %d", sc.origin, id, n, icounts[id])
			}
		}
		crt.ResetCounts()
		irt.ResetCounts()
		if t.Failed() {
			return
		}
	}
	t.Logf("%d distinct scripts, %d parsed, %d failing blocks", len(scripts), parsed, failed)
	if parsed == 0 {
		t.Fatal("no script parsed")
	}
}
