package pipeline

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

// Shared small study: 90 sites, full methodology, fixed seed. The sequential
// baseline (sequentialCrawl) is computed once and every pipeline variant is
// compared to it.
var (
	setupOnce sync.Once
	setupErr  error

	testWeb   *synthweb.Web
	testBind  *webapi.Bindings
	baseLog   *measure.Log
	baseStats *crawler.Stats
)

const (
	testSites = 90
	testSeed  = 11
)

func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		reg, err := webidl.Generate(1)
		if err != nil {
			setupErr = err
			return
		}
		testWeb, err = synthweb.Generate(reg, synthweb.Config{Sites: testSites, Seed: 7})
		if err != nil {
			setupErr = err
			return
		}
		testBind = webapi.NewBindings(reg)
		baseLog, baseStats, err = sequentialCrawl(sequentialConfig(), false)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
}

// sequentialConfig is the paper methodology of the reference survey.
func sequentialConfig() crawler.Config {
	return crawler.DefaultConfig(testSeed)
}

// sequentialCrawl is the reference survey the engine must reproduce: one
// Visitor per case, every site in index order, every case, every round, each
// visit recorded straight into a measure.Log. A failed visit marks the site
// unmeasured and skips the rest of that case's rounds. With freshVisitors,
// every visit gets a new Visitor instead, so no browser state — caches,
// templates, pooled pages and runtimes — crosses a visit.
func sequentialCrawl(cfg crawler.Config, freshVisitors bool) (*measure.Log, *crawler.Stats, error) {
	if len(cfg.Cases) == 0 {
		cfg.Cases = measure.AllCases()
	}
	c := crawler.New(testWeb, testBind, cfg)
	visitors := make(map[measure.Case]*crawler.Visitor)
	for _, cs := range cfg.Cases {
		v, err := c.NewVisitor(cs)
		if err != nil {
			return nil, nil, err
		}
		visitors[cs] = v
	}
	domains := make([]string, len(testWeb.Sites))
	for i, site := range testWeb.Sites {
		domains[i] = site.Domain
	}
	log := measure.NewLog(len(testWeb.Registry.Features), domains)
	st := &crawler.Stats{}
	failed := make([]bool, len(testWeb.Sites))
	for _, site := range testWeb.Sites {
		for _, cs := range cfg.Cases {
			for round := 0; round < cfg.Rounds; round++ {
				v := visitors[cs]
				if freshVisitors {
					fresh, err := c.NewVisitor(cs)
					if err != nil {
						return nil, nil, err
					}
					v = fresh
				}
				counts, pages, err := v.CrawlOnce(site, crawler.VisitSeed(cfg.Seed, site.Index, cs, round))
				if err != nil {
					failed[site.Index] = true
					break
				}
				log.Record(cs, round, site.Index, counts, pages)
				st.PagesVisited += int64(pages)
				st.InteractionSeconds += float64(pages) * cfg.PageSeconds
				for _, n := range counts {
					st.Invocations += n
				}
			}
		}
	}
	for site, f := range failed {
		if f {
			log.Measured[site] = false
		}
	}
	st.DomainsMeasured = log.MeasuredCount()
	st.DomainsFailed = len(testWeb.Sites) - st.DomainsMeasured
	return log, st, nil
}

func csvBytes(t testing.TB, l *measure.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (logstore.CSV{}).Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineMatchesSequential is the determinism guarantee: the sharded
// engine's aggregate, serialized, is byte-identical to the sequential
// reference loop's log for the same seed, across several shard/worker
// geometries.
func TestPipelineMatchesSequential(t *testing.T) {
	setup(t)
	want := csvBytes(t, baseLog)

	geometries := []struct {
		name    string
		shards  int
		workers int
		batch   int
		stripes int
	}{
		{"1shard-1worker", 1, 1, 1, 1},
		{"1shard-4workers", 1, 4, 4, 8},
		{"4shards-2workers", 4, 2, 16, 16},
		{"8shards-1worker", 8, 1, 3, 4},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			eng := New(testWeb, testBind, Config{
				Shards:          g.shards,
				WorkersPerShard: g.workers,
				BatchSize:       g.batch,
				Stripes:         g.stripes,
				Crawl:           sequentialConfig(),
			})
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := csvBytes(t, res.Log); !bytes.Equal(got, want) {
				t.Errorf("pipeline log differs from sequential baseline (%d vs %d bytes)", len(got), len(want))
			}
			if *res.Stats != *baseStats {
				t.Errorf("pipeline stats = %+v, want %+v", *res.Stats, *baseStats)
			}
		})
	}
}

// TestFastPathMatchesSlowPath pins the browser's revisit fast path (DOM
// template cache, page/runtime pooling, script and URL caches) to visits
// that share no browser state: the same survey with a fresh Visitor — and so
// a fresh browser — per visit must produce the byte-identical log and stats.
// The spill-only and sharded determinism tests compare against the same
// baseline, so transitively every engine mode is pinned to it too.
func TestFastPathMatchesSlowPath(t *testing.T) {
	setup(t)
	slowLog, slowStats, err := sequentialCrawl(sequentialConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csvBytes(t, slowLog), csvBytes(t, baseLog); !bytes.Equal(got, want) {
		t.Errorf("fresh-visitor log differs from fast-path baseline (%d vs %d bytes)", len(got), len(want))
	}
	if *slowStats != *baseStats {
		t.Errorf("fresh-visitor stats = %+v, want %+v", *slowStats, *baseStats)
	}
}

// documentFetches counts the successful document fetches of every fetcher
// it builds, per URL.
type documentFetches struct {
	mu   sync.Mutex
	urls map[string]int
}

func (d *documentFetches) newFetcher() webserver.Fetcher {
	return countingFetcher{d, webserver.DirectFetcher{Web: testWeb}}
}

type countingFetcher struct {
	d *documentFetches
	f webserver.Fetcher
}

func (c countingFetcher) Fetch(rawURL string) (synthweb.Resource, error) {
	res, err := c.f.Fetch(rawURL)
	if err == nil && res.ContentType == "text/html" {
		c.d.mu.Lock()
		c.d.urls[rawURL]++
		c.d.mu.Unlock()
	}
	return res, err
}

// TestWorkerCasesShareOneCache is the mechanism behind the worker's shared
// browser cache: at 1×1 one worker runs all four cases over every round of
// each site, and no document may be fetched successfully twice — every
// case browser after the first, and every later round, is served the
// parsed template. The log must still equal the sequential baseline.
func TestWorkerCasesShareOneCache(t *testing.T) {
	setup(t)
	fetches := &documentFetches{urls: map[string]int{}}
	eng := New(testWeb, testBind, Config{Shards: 1, WorkersPerShard: 1, Crawl: sequentialConfig()})
	eng.NewFetcher = fetches.newFetcher
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, res.Log), csvBytes(t, baseLog)) {
		t.Error("log differs from the sequential baseline")
	}
	if len(fetches.urls) == 0 {
		t.Fatal("no document fetched")
	}
	for url, n := range fetches.urls {
		if n > 1 {
			t.Errorf("%s fetched %d times by one worker", url, n)
		}
	}
}

// TestPipelineConcurrent exercises the multi-shard engine under the race
// detector: many shards, many workers, tiny batches, few stripes — the
// maximum-contention geometry.
func TestPipelineConcurrent(t *testing.T) {
	setup(t)
	cfg := Config{
		Shards:          4,
		WorkersPerShard: 3,
		BatchSize:       1,
		Stripes:         2,
		Crawl:           sequentialConfig(),
	}
	eng := New(testWeb, testBind, cfg)
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DomainsMeasured != baseStats.DomainsMeasured {
		t.Errorf("measured = %d, want %d", res.Stats.DomainsMeasured, baseStats.DomainsMeasured)
	}
	if !bytes.Equal(csvBytes(t, res.Log), csvBytes(t, baseLog)) {
		t.Error("concurrent pipeline log differs from sequential baseline")
	}
}

// TestPipelineCancellation cancels mid-run and requires a prompt, clean
// ctx.Err() return with no goroutine leak (the -race build would flag
// post-return sends).
func TestPipelineCancellation(t *testing.T) {
	setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(testWeb, testBind, Config{
		Shards:          2,
		WorkersPerShard: 2,
		Crawl:           sequentialConfig(),
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestPipelineSpill runs the engine with a spill directory and requires the
// reassembled spill files to be byte-identical to both the engine's own log
// and the sequential baseline: the spilled partial aggregates carry the
// entire survey.
func TestPipelineSpill(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	eng := New(testWeb, testBind, Config{
		Shards:          3,
		WorkersPerShard: 2,
		SpillDir:        dir,
		Crawl:           sequentialConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.spill"))
	if err != nil || len(paths) != 3 {
		t.Fatalf("expected 3 spill files, got %v (%v)", paths, err)
	}
	merged, err := logstore.ReadSpillFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, merged), csvBytes(t, res.Log)) {
		t.Error("merged spill differs from the engine's log")
	}
	if !bytes.Equal(csvBytes(t, merged), csvBytes(t, baseLog)) {
		t.Error("merged spill differs from the sequential baseline")
	}
}

// TestPipelineCache is the caching guarantee: a second run over the same
// config is served from the cache (hit counters prove no visit re-ran) and
// produces a byte-identical log; a run over a superset config reuses the
// overlapping visits and crawls only the new ones.
func TestPipelineCache(t *testing.T) {
	setup(t)
	numFeatures := len(testWeb.Registry.Features)
	dir := t.TempDir()

	runWith := func(cache *logstore.Cache, cfg crawler.Config) *Result {
		t.Helper()
		eng := New(testWeb, testBind, Config{
			Shards:          2,
			WorkersPerShard: 2,
			Cache:           cache,
			Crawl:           cfg,
		})
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cache, err := logstore.OpenCache(dir, numFeatures, "pipeline-test")
	if err != nil {
		t.Fatal(err)
	}
	cold := runWith(cache, sequentialConfig())
	coldStats := cache.Stats()
	if coldStats.Hits != 0 || coldStats.Puts == 0 {
		t.Fatalf("cold run should only populate: %+v", coldStats)
	}
	if !bytes.Equal(csvBytes(t, cold.Log), csvBytes(t, baseLog)) {
		t.Error("cold cached run differs from the sequential baseline")
	}

	warm := runWith(cache, sequentialConfig())
	warmStats := cache.Stats()
	if hits := warmStats.Hits - coldStats.Hits; hits != coldStats.Puts {
		t.Errorf("warm run hit %d of %d cached visits", hits, coldStats.Puts)
	}
	if warmStats.Misses != coldStats.Misses {
		t.Errorf("warm run missed %d times", warmStats.Misses-coldStats.Misses)
	}
	if !bytes.Equal(csvBytes(t, warm.Log), csvBytes(t, baseLog)) {
		t.Error("warm cached run not byte-identical to the uncached log")
	}

	// Overlapping (superset) config: one extra round. Every visit of the
	// original rounds must come from the cache.
	wider := sequentialConfig()
	wider.Rounds++
	res := runWith(cache, wider)
	widerStats := cache.Stats()
	if hits := widerStats.Hits - warmStats.Hits; hits != coldStats.Puts {
		t.Errorf("superset run re-crawled cached visits: %d hits, want %d", hits, coldStats.Puts)
	}
	if got := len(res.Log.Cases[measure.CaseDefault].Rounds); got != wider.Rounds {
		t.Errorf("superset run produced %d rounds, want %d", got, wider.Rounds)
	}
}

// TestPipelineRejectsInvalidConfig requires a zero crawl config to fail.
func TestPipelineRejectsInvalidConfig(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{})
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("Run accepted a zero crawl config")
	}
}
