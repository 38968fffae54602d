package browser

import (
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/synthweb"
)

// loadReference is Load without the revisit fast path: fetch, parse, and
// allocate the document, page, and runtime per load, bypassing the template
// cache and the pools. Script parses stay cached and selectors compile once
// per bound handler, so it isolates template cloning and pooling — the
// mechanisms that share state across loads. Pages it returns must not be
// passed to Release.
func loadReference(b *Browser, rawURL string) (*Page, error) {
	doc, u, err := b.fetchDocument(rawURL)
	if err != nil {
		return nil, err
	}
	page := &Page{
		URL:     u,
		DOM:     doc,
		Runtime: b.Bindings.NewRuntime(),
		browser: b,
		urlStr:  rawURL,
	}
	b.finishLoad(page, collectScripts(doc, u))
	return page, nil
}

// driveEvents exercises every handler source: timers via the clock, plus
// each user-style event. Interactive() is derived from the DOM, which must
// itself be identical across the compared pages, so clicking by index is
// deterministic.
func driveEvents(p *Page) {
	p.AdvanceClock(30)
	p.Scroll()
	p.MouseMove()
	for i, el := range p.Interactive() {
		if i >= 3 {
			break
		}
		p.Click(el)
	}
	if fields := p.FormFields(); len(fields) > 0 {
		p.Input(fields[0], "abc")
	}
	p.AdvanceClock(45)
}

// comparePages requires identical observable behavior of two loads of the
// same URL: native-call totals, nav attempts in order, script errors, and
// blocked requests.
func comparePages(t *testing.T, url string, fp, rp *Page) {
	t.Helper()
	if got, want := fp.Runtime.TotalNativeCalls(), rp.Runtime.TotalNativeCalls(); got != want {
		t.Errorf("%s: fast path %d native calls, reference %d", url, got, want)
	}
	if got, want := fmt.Sprint(fp.NavAttempts), fmt.Sprint(rp.NavAttempts); got != want {
		t.Errorf("%s: nav attempts diverge\nfast path: %s\nreference: %s", url, got, want)
	}
	if got, want := len(fp.ScriptErrors), len(rp.ScriptErrors); got != want {
		t.Errorf("%s: fast path %d script errors, reference %d", url, got, want)
	} else {
		for i := range fp.ScriptErrors {
			fe, re := fp.ScriptErrors[i], rp.ScriptErrors[i]
			if fe.URL != re.URL || fmt.Sprint(fe.Err) != fmt.Sprint(re.Err) {
				t.Errorf("%s: script error %d diverges: fast path %v / reference %v", url, i, fe, re)
			}
		}
	}
	if got, want := fmt.Sprint(fp.BlockedRequests), fmt.Sprint(rp.BlockedRequests); got != want {
		t.Errorf("%s: blocked requests diverge\nfast path: %s\nreference: %s", url, got, want)
	}
}

// TestSlowPathMatchesFastPath compares Load against loadReference on every
// page path of the first ten sites, each page driven through the same event
// sequence, with a measurer and an ABP blocker installed on both browsers.
// The fast side loads every page twice, releasing in between, so the
// template-cache hit and the recycled page and runtime are compared too.
func TestSlowPathMatchesFastPath(t *testing.T) {
	e := env(t)
	list, err := blocking.ParseList("easylist", e.web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	abp := blocking.NewEngine(list)
	fm := &benchMeasurer{counts: make(map[int]int64)}
	rm := &benchMeasurer{counts: make(map[int]int64)}
	fast := e.browser(fm, &BlockingExtension{Label: "adblock-plus", Blocker: abp})
	ref := e.browser(rm, &BlockingExtension{Label: "adblock-plus", Blocker: abp})
	pages := 0
	for _, s := range e.web.Sites[:10] {
		for _, path := range synthweb.PagePaths() {
			url := "http://" + s.Domain + path
			fp, ferr := fast.Load(url)
			rp, rerr := loadReference(ref, url)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("%s: fast err=%v reference err=%v", url, ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			driveEvents(fp)
			fast.Release(fp)
			if fp, ferr = fast.Load(url); ferr != nil {
				t.Fatalf("%s: repeat load: %v", url, ferr)
			}
			driveEvents(fp)
			driveEvents(rp)
			comparePages(t, url, fp, rp)
			fast.Release(fp)
			pages++
		}
	}
	if pages == 0 {
		t.Fatal("no page loaded")
	}
	t.Logf("compared %d pages", pages)
	// The fast side ran every page twice, the reference once.
	for id, n := range fm.counts {
		if rm.counts[id]*2 != n {
			t.Errorf("feature %d: fast path measured %d over two loads, reference %d over one", id, n, rm.counts[id])
		}
	}
	if len(fm.counts) != len(rm.counts) {
		t.Errorf("measurer saw %d features on the fast path, %d on the reference", len(fm.counts), len(rm.counts))
	}
}
