package blocking

import (
	"net/url"
	"testing"

	"repro/internal/html"
	"repro/internal/synthweb"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

// TestIndexMatchesLinearOnTestWeb holds the tokenized index equal to the
// linear scan on every ABP decision a survey of the pipeline tests' web
// (90 sites, synthweb seed 7, corpus webidl.Generate(1)) can ask for. The
// browser consults blockers only for external scripts, so the requests are
// every <script src> of every synthweb.PagePaths page of every site,
// resolved against its page, under that page's host — in both the
// precomputed MakeRequest form the browser sends and the lazy Request form.
func TestIndexMatchesLinearOnTestWeb(t *testing.T) {
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 90, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	list, err := ParseList("easylist-synthetic", web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(list)
	fetcher := webserver.DirectFetcher{Web: web}
	requests, blocked := 0, 0
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
			pageHost := base.Hostname()
			for _, ref := range doc.Scripts() {
				if ref.Src == "" {
					continue
				}
				u, err := url.Parse(ref.Src)
				if err != nil {
					continue
				}
				scriptURL := base.ResolveReference(u).String()
				pre := MakeRequest(scriptURL, pageHost, ResourceScript)
				lazy := Request{URL: scriptURL, PageHost: pageHost, Type: ResourceScript}
				want := shouldBlockLinear(e, lazy)
				if got := e.ShouldBlock(pre); got != want {
					t.Errorf("%s on %s (MakeRequest): indexed=%v linear=%v", scriptURL, pageURL, got, want)
				}
				if got := e.ShouldBlock(lazy); got != want {
					t.Errorf("%s on %s: indexed=%v linear=%v", scriptURL, pageURL, got, want)
				}
				if shouldBlockLinear(e, pre) != want {
					t.Errorf("%s on %s: linear scan differs between request forms", scriptURL, pageURL)
				}
				requests++
				if want {
					blocked++
				}
			}
		}
	}
	t.Logf("%d script requests, %d blocked", requests, blocked)
	if blocked == 0 || blocked == requests {
		t.Fatalf("%d of %d requests blocked: the test web does not exercise both verdicts", blocked, requests)
	}
}
