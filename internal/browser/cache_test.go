package browser

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/synthweb"
	"repro/internal/webserver"
)

// countingFetcher counts successful document fetches per URL.
type countingFetcher struct {
	webserver.Fetcher
	mu   sync.Mutex
	docs map[string]int
}

func (f *countingFetcher) Fetch(rawURL string) (synthweb.Resource, error) {
	res, err := f.Fetcher.Fetch(rawURL)
	if err == nil && res.ContentType == "text/html" {
		f.mu.Lock()
		f.docs[rawURL]++
		f.mu.Unlock()
	}
	return res, err
}

// docFetches sums the successful document fetches.
func (f *countingFetcher) docFetches() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.docs {
		n += c
	}
	return n
}

// cachePair is the two browsers a crawl worker runs side by side: a
// measurer-only one and one with AdBlock Plus and Ghostery installed.
type cachePair struct {
	plain, blocked *Browser
}

// newCachePair builds the pair over the given caches (the same cache twice
// for a shared setup) and fetcher.
func newCachePair(t *testing.T, plainCache, blockedCache *Cache, f webserver.Fetcher) cachePair {
	t.Helper()
	e := env(t)
	list, err := blocking.ParseList("easylist", e.web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	db, err := blocking.ParseTrackerDB(e.web.TrackerLibText)
	if err != nil {
		t.Fatal(err)
	}
	return cachePair{
		plain: plainCache.NewBrowser(f, &benchMeasurer{counts: make(map[int]int64)}),
		blocked: blockedCache.NewBrowser(f, &benchMeasurer{counts: make(map[int]int64)},
			&BlockingExtension{Label: "adblock-plus", Blocker: blocking.NewEngine(list)},
			&BlockingExtension{Label: "ghostery", Blocker: db}),
	}
}

// cacheTestURLs lists every page of the first ten sites.
func cacheTestURLs(t *testing.T) []string {
	var urls []string
	for _, s := range env(t).web.Sites[:10] {
		for _, path := range synthweb.PagePaths() {
			urls = append(urls, "http://"+s.Domain+path)
		}
	}
	return urls
}

// pageRecord loads a URL, drives the full event sequence and renders what
// the load observably produced: per-feature native counts, navigation
// attempts, script errors, blocked requests, and the DOM with its hidden
// elements. A failed load records its error.
func pageRecord(b *Browser, url string) string {
	p, err := b.Load(url)
	if err != nil {
		return "error: " + err.Error()
	}
	driveEvents(p)
	var sb strings.Builder
	for _, f := range b.Bindings.Registry().Features {
		if n := p.Runtime.NativeCalls(f); n != 0 {
			fmt.Fprintf(&sb, "%d:%d ", f.ID, n)
		}
	}
	fmt.Fprintf(&sb, "\nnav %v\nblocked %v\nerrors", p.NavAttempts, p.BlockedRequests)
	for _, se := range p.ScriptErrors {
		fmt.Fprintf(&sb, " %s", se)
	}
	sb.WriteString("\nhidden")
	p.DOM.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && !n.Visible() {
			sb.WriteString(" " + n.Path())
		}
		return true
	})
	sb.WriteString("\n" + html.Render(p.DOM))
	b.Release(p)
	return sb.String()
}

// separateRecords loads every URL in a pair whose browsers have a cache
// each: the reference the shared setups must reproduce.
func separateRecords(t *testing.T, urls []string) (plain, blocked map[string]string, docFetches int) {
	e := env(t)
	f := &countingFetcher{Fetcher: webserver.DirectFetcher{Web: e.web}, docs: map[string]int{}}
	pair := newCachePair(t, NewCache(e.bind), NewCache(e.bind), f)
	plain, blocked = map[string]string{}, map[string]string{}
	for _, url := range urls {
		plain[url] = pageRecord(pair.plain, url)
		blocked[url] = pageRecord(pair.blocked, url)
	}
	return plain, blocked, f.docFetches()
}

// TestSharedCacheMatchesSeparateCaches loads every page of ten sites in a
// measurer-only browser and a measurer+ABP+Ghostery browser that share one
// Cache, alternating which of the two loads a page first, and requires
// every page to come out exactly as it does when each browser has a cache
// of its own. The shared pair must fetch each document once.
func TestSharedCacheMatchesSeparateCaches(t *testing.T) {
	e := env(t)
	urls := cacheTestURLs(t)
	wantPlain, wantBlocked, separateFetches := separateRecords(t, urls)

	f := &countingFetcher{Fetcher: webserver.DirectFetcher{Web: e.web}, docs: map[string]int{}}
	shared := NewCache(e.bind)
	pair := newCachePair(t, shared, shared, f)
	differ := 0
	for i, url := range urls {
		var plain, blocked string
		if i%2 == 0 {
			plain = pageRecord(pair.plain, url)
			blocked = pageRecord(pair.blocked, url)
		} else {
			blocked = pageRecord(pair.blocked, url)
			plain = pageRecord(pair.plain, url)
		}
		if plain != wantPlain[url] {
			t.Errorf("%s: measurer-only page differs under a shared cache\nshared:   %.300s\nseparate: %.300s", url, plain, wantPlain[url])
		}
		if blocked != wantBlocked[url] {
			t.Errorf("%s: blocking page differs under a shared cache\nshared:   %.300s\nseparate: %.300s", url, blocked, wantBlocked[url])
		}
		if plain != blocked {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("blockers changed no page; the comparison cannot tell the browsers apart")
	}
	for url, n := range f.docs {
		if n != 1 {
			t.Errorf("%s: fetched %d times by browsers sharing a cache", url, n)
		}
	}
	if got := f.docFetches(); got*2 != separateFetches {
		t.Errorf("shared pair fetched %d documents, separate pair %d; want half", got, separateFetches)
	}
}

// TestSharedCacheConcurrentBrowsers runs the shared pair on two goroutines,
// one walking the pages forward and the other backward, so first loads race
// both ways; under -race this checks the cache's locking and the dispatch
// table's lock-free publication.
func TestSharedCacheConcurrentBrowsers(t *testing.T) {
	e := env(t)
	urls := cacheTestURLs(t)
	wantPlain, wantBlocked, _ := separateRecords(t, urls)

	shared := NewCache(e.bind)
	pair := newCachePair(t, shared, shared, webserver.DirectFetcher{Web: e.web})
	gotPlain, gotBlocked := map[string]string{}, map[string]string{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, url := range urls {
			gotPlain[url] = pageRecord(pair.plain, url)
		}
	}()
	go func() {
		defer wg.Done()
		for i := len(urls) - 1; i >= 0; i-- {
			gotBlocked[urls[i]] = pageRecord(pair.blocked, urls[i])
		}
	}()
	wg.Wait()
	for _, url := range urls {
		if gotPlain[url] != wantPlain[url] {
			t.Errorf("%s: measurer-only page differs under a concurrently shared cache", url)
		}
		if gotBlocked[url] != wantBlocked[url] {
			t.Errorf("%s: blocking page differs under a concurrently shared cache", url)
		}
	}
}
