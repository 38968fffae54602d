package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocking"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dist"
	"repro/internal/dom"
	"repro/internal/extension"
	"repro/internal/gremlins"
	"repro/internal/html"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webscript"
	"repro/internal/webserver"
)

// The traced run spends its time in thirds: two on untraced and traced
// surveys in turn, one on the layer replays.
const traceShares = 3

// fetchTrace is a webserver.Fetcher wrapper that times every fetch and
// keeps the first copy of each resource for the layer replays.
type fetchTrace struct {
	calls, docs atomic.Int64
	nanos       atomic.Int64
	mu          sync.Mutex
	captured    map[string]synthweb.Resource
}

func newFetchTrace() *fetchTrace {
	return &fetchTrace{captured: map[string]synthweb.Resource{}}
}

type timedFetcher struct {
	t    *fetchTrace
	next webserver.Fetcher
}

func (f timedFetcher) Fetch(rawURL string) (synthweb.Resource, error) {
	start := time.Now()
	res, err := f.next.Fetch(rawURL)
	f.t.nanos.Add(int64(time.Since(start)))
	f.t.calls.Add(1)
	if err != nil {
		return res, err
	}
	if res.ContentType == "text/html" {
		f.t.docs.Add(1)
	}
	f.t.mu.Lock()
	if _, ok := f.t.captured[rawURL]; !ok {
		f.t.captured[rawURL] = res
	}
	f.t.mu.Unlock()
	return res, nil
}

func (t *fetchTrace) fetcher(web *synthweb.Web) func() webserver.Fetcher {
	return func() webserver.Fetcher { return timedFetcher{t: t, next: webserver.DirectFetcher{Web: web}} }
}

// crawlConfig is the methodology core.Study gives its engines.
func crawlConfig(study *core.Study) crawler.Config {
	c := crawler.DefaultConfig(study.Cfg.Seed)
	c.Rounds = study.Cfg.Rounds
	c.Cases = study.Cfg.Cases
	return c
}

// traceSetup times the study-generation layers.
func traceSetup(seed int64, sites int, m map[string]float64) error {
	var reg *webidl.Registry
	var err error
	m["webidl.generate_ms"] = timeMedian(setupRepeats, func() {
		if err == nil {
			reg, err = webidl.Generate(seed)
		}
	})
	if err != nil {
		return err
	}
	m["synthweb.generate_ms"] = timeMedian(setupRepeats, func() {
		if err == nil {
			_, err = synthweb.Generate(reg, synthweb.Config{Sites: sites, Seed: seed})
		}
	})
	m["webapi.bindings_ms"] = timeMedian(setupRepeats, func() { webapi.NewBindings(reg) })
	return err
}

// pageDoc is a captured document, parsed.
type pageDoc struct {
	url  *url.URL
	root *dom.Node
}

// layerCosts are per-unit replay costs, kept to estimate coverage.
type layerCosts struct {
	parseUS, compileUS, instantiateUS, shouldBlockNS float64
	unleashMS, takeUS, applyUS, encodeUS             float64
	refsPerPage                                      float64
}

// alternate runs untraced and traced repetitions of a survey in turn
// until twice the share is spent (and each has run minRounds times), so
// both see the same host conditions and warm caches; the ratio of their
// median times is the tracing overhead.
func alternate(share float64, untraced, traced func() error) (plain []job, tracedMS []float64, err error) {
	deadline := time.Now().Add(time.Duration(2 * share * float64(time.Second)))
	for len(tracedMS) < minRounds || time.Now().Before(deadline) {
		j, err := timeJob(untraced)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, j)
		start := time.Now()
		if err := traced(); err != nil {
			return nil, nil, err
		}
		tracedMS = append(tracedMS, ms(time.Since(start)))
	}
	return plain, tracedMS, nil
}

// overhead is untraced over traced throughput: the median traced survey
// time over the median untraced one.
func overhead(plain []job, tracedMS []float64) float64 {
	var walls []float64
	for _, j := range plain {
		walls = append(walls, ms(j.wall))
	}
	return median(tracedMS) / median(walls)
}

func traceSurvey(cfg runConfig, study *core.Study, sites int) (*outcome, error) {
	o := &outcome{checked: true, metrics: map[string]float64{}}
	if err := traceSetup(study.Cfg.Seed, sites, o.metrics); err != nil {
		return nil, err
	}
	share := cfg.seconds / traceShares

	// Both sides run the engine core.Study runs, built through
	// pipeline.New with its spill kept; only the traced side's fetcher is
	// timed. The last survey is a traced one, and its spill and result
	// are replayed and checked.
	ft := newFetchTrace()
	var spill bytes.Buffer
	var res *pipeline.Result
	survey := func(ft *fetchTrace) func() error {
		return func() error {
			spill.Reset()
			w, err := logstore.NewWriter(&spill, len(study.Registry.Features), study.Domains())
			if err != nil {
				return err
			}
			eng := pipeline.New(study.Web, study.Bindings, pipeline.Config{Shards: 1, WorkersPerShard: 1, Spill: w, Crawl: crawlConfig(study)})
			if ft != nil {
				eng.NewFetcher = ft.fetcher(study.Web)
			}
			if res, err = eng.Run(context.Background()); err != nil {
				return err
			}
			return w.Close()
		}
	}
	plain, walls, err := alternate(share, survey(nil), survey(ft))
	if err != nil {
		return nil, err
	}
	gcMetrics([][]job{plain}, o.metrics)
	o.metrics["trace.overhead.sites_per_s"] = overhead(plain, walls)
	o.attempted = int64(len(plain) + len(walls))
	runs := float64(len(walls))

	dc := newDigestCheck(cfg, "crawl-revisit", 1)
	if err := checkRevisit(study, &core.Results{Log: res.Log, Stats: res.Stats, Agg: res.Agg, Analysis: study.AggregateResults(res.Agg).Analysis}, dc, 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		o.checked = false
		o.failed++
	}
	o.notes = append(o.notes, dc.note())

	pages := float64(res.Stats.PagesVisited)
	fetchMetrics(ft, runs, pages, o.metrics)
	costs, err := replayLayers(study, ft, [][]byte{spill.Bytes()}, share, o.metrics)
	if err != nil {
		return nil, err
	}
	// Blocker checks happen on the pages of the blocking cases only.
	var blockedPages float64
	for cs, cl := range res.Log.Cases {
		if cs != measure.CaseDefault {
			blockedPages += float64(cl.PagesVisited)
		}
	}
	coverage(o.metrics, costs, float64(ft.nanos.Load())/1e6/runs, float64(ft.docs.Load())/runs,
		float64(ft.calls.Load()-ft.docs.Load())/runs, pages, blockedPages, spillVisits([][]byte{spill.Bytes()}), float64(sites), median(walls))
	return o, nil
}

func traceDist(cfg runConfig, d *distSurvey) (*outcome, error) {
	o := &outcome{checked: true, metrics: map[string]float64{}}
	sites := len(d.study.Web.Sites)
	if err := traceSetup(d.study.Cfg.Seed, sites, o.metrics); err != nil {
		return nil, err
	}
	share := cfg.seconds / traceShares
	ctx := context.Background()

	// An untimed survey with its lease streams captured: checked, then
	// replayed by the layer replays and served by serveSurvey.
	dc := newDigestCheck(cfg, "dist-firstload", 1)
	first, err := d.captured(ctx, dc, 0, o)
	if err != nil {
		return nil, err
	}

	// Each worker crawls its leases through its own pipeline on both
	// sides; the traced side also times the fetcher and the lease
	// boundaries.
	ft := newFetchTrace()
	var mu sync.Mutex
	var crawlMS, waitMS []float64
	lastEnd := make([]time.Time, len(d.workers))
	crawl := func(worker int, ft *fetchTrace) dist.CrawlFunc {
		st := d.workers[worker]
		return func(ctx context.Context, sites []int, spill io.Writer) error {
			start := time.Now()
			w, err := logstore.NewWriter(spill, len(st.Registry.Features), st.Domains())
			if err != nil {
				return err
			}
			eng := pipeline.New(st.Web, st.Bindings, pipeline.Config{
				Shards: 1, WorkersPerShard: 1, SpillOnly: true, Spill: w, Sites: sites, Crawl: crawlConfig(st),
			})
			if ft != nil {
				eng.NewFetcher = ft.fetcher(st.Web)
			}
			if _, err := eng.Run(ctx); err != nil {
				return err
			}
			err = w.Close()
			if ft == nil {
				return err
			}
			end := time.Now()
			mu.Lock()
			crawlMS = append(crawlMS, ms(end.Sub(start)))
			if !lastEnd[worker].IsZero() {
				waitMS = append(waitMS, ms(start.Sub(lastEnd[worker])))
			}
			lastEnd[worker] = end
			mu.Unlock()
			return err
		}
	}
	var r *distRun
	var issued, requeued, merged int
	survey := func(ft *fetchTrace) func() error {
		return func() error {
			d.crawl = func(worker int) dist.CrawlFunc { return crawl(worker, ft) }
			clear(lastEnd)
			next, err := d.run(ctx)
			if err != nil {
				return err
			}
			issued += next.issued
			requeued += next.requeued
			if ft == nil {
				return os.Remove(next.checkpoint)
			}
			merged += next.merged
			if r != nil {
				_ = os.Remove(r.checkpoint) // the run's directory is removed at exit
			}
			r = next
			return nil
		}
	}
	plain, walls, err := alternate(share, survey(nil), survey(ft))
	if err != nil {
		return nil, err
	}
	gcMetrics([][]job{plain}, o.metrics)
	surveys := float64(len(plain) + len(walls))
	runs := float64(len(walls))
	o.attempted += int64(surveys) + int64(issued)
	o.failed += int64(requeued)
	o.metrics["trace.overhead.sites_per_s"] = overhead(plain, walls)
	o.metrics["dist.lease.count"] = float64(issued) / surveys
	o.metrics["dist.requeues"] = float64(requeued) / surveys
	o.metrics["dist.merge.count"] = float64(merged) / runs
	o.metrics["dist.lease.crawl_p50_ms"] = median(crawlMS)
	o.metrics["dist.lease.wait_ms"] = median(waitMS)
	fi, err := os.Stat(r.checkpoint)
	if err != nil {
		return nil, err
	}
	o.metrics["dist.checkpoint.bytes"] = float64(fi.Size())
	if err := countCheck(d.checkReport(ctx, r, dc, 0), o); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, dc.note())

	_, pages := r.agg.Totals()
	fetchMetrics(ft, runs, float64(pages), o.metrics)
	costs, err := replayLayers(d.study, ft, first.streams, share, o.metrics)
	if err != nil {
		return nil, err
	}
	// Crawl wall time summed over both workers is what the layers share.
	var crawlSum float64
	for _, c := range crawlMS {
		crawlSum += c
	}
	coverage(o.metrics, costs, float64(ft.nanos.Load())/1e6/runs, float64(ft.docs.Load())/runs,
		float64(ft.calls.Load()-ft.docs.Load())/runs, float64(pages), 0, spillVisits(first.streams), float64(sites), crawlSum/runs)

	rate := serveRate
	if cfg.toy {
		rate = serveToyRate
	}
	dur := time.Duration(share * float64(time.Second))
	return o, serveSurvey(d.study, first.streams, dc.first[0], dur, rate, o)
}

func fetchMetrics(ft *fetchTrace, runs, pages float64, m map[string]float64) {
	calls := float64(ft.calls.Load())
	m["webserver.fetch.calls"] = calls / runs
	if calls > 0 {
		m["webserver.fetch.us"] = float64(ft.nanos.Load()) / 1e3 / calls
	}
	if pages > 0 {
		m["browser.first_load_ratio"] = float64(ft.docs.Load()) / runs / pages
	}
}

// coverage is the share of the survey's crawl time that the per-layer
// costs explain: each replayed unit cost times how often the survey paid
// it, plus the fetch time the timed fetcher saw.
func coverage(m map[string]float64, c layerCosts, fetchMS, docs, scripts, pages, blockedPages, visits, sites, wallMS float64) {
	explained := fetchMS +
		docs*c.parseUS/1e3 +
		scripts*c.compileUS/1e3 +
		pages*(c.instantiateUS/1e3+c.unleashMS+c.takeUS/1e3) +
		blockedPages*c.refsPerPage*c.shouldBlockNS/1e6 +
		visits*c.applyUS/1e3 +
		sites*c.encodeUS/1e3
	if wallMS > 0 {
		m["trace.coverage"] = explained / wallMS
	}
}

// spillVisits counts the observations in spill streams.
func spillVisits(streams [][]byte) float64 {
	n := 0
	for _, s := range streams {
		forEachRecord(s, func(rec logstore.SpillRecord) {
			if rec.Kind == logstore.SpillObservation {
				n++
			}
		})
	}
	return float64(n)
}

// forEachRecord decodes one spill stream; the stream was written by this
// process moments ago, so a decode error can only be a short stream and
// ends the walk.
func forEachRecord(data []byte, fn func(logstore.SpillRecord)) {
	s, err := logstore.OpenSpills(bytes.NewReader(data))
	if err != nil {
		return
	}
	for {
		rec, err := s.Next()
		if err != nil {
			return
		}
		fn(rec)
	}
}

// replayLayers replays the public entry points of each layer over the
// documents and scripts the traced survey fetched and the visits it
// spilled, and drives visits one at a time, within budget seconds.
func replayLayers(study *core.Study, ft *fetchTrace, streams [][]byte, budget float64, m map[string]float64) (layerCosts, error) {
	var c layerCosts
	ft.mu.Lock()
	urls := make([]string, 0, len(ft.captured))
	for u := range ft.captured {
		urls = append(urls, u)
	}
	ft.mu.Unlock()
	sort.Strings(urls)
	var docs []pageDoc
	var bodies, scripts []string
	for _, u := range urls {
		res := ft.captured[u]
		if res.ContentType != "text/html" {
			scripts = append(scripts, res.Body)
			continue
		}
		parsed, err := url.Parse(u)
		if err != nil {
			return c, err
		}
		root, err := html.Parse(res.Body)
		if err != nil {
			continue // the survey marks such sites unmeasurable
		}
		docs = append(docs, pageDoc{url: parsed, root: root})
		bodies = append(bodies, res.Body)
	}
	// html.Parse over every captured document.
	c.parseUS = 1e3 * timeMedian(3, func() {
		for _, b := range bodies {
			html.Parse(b)
		}
	}) / float64(max(len(bodies), 1))
	m["html.parse.us_per_doc"] = c.parseUS

	// webscript.Parse + Compile, interning into one dispatch table as a
	// browser does.
	table := study.Bindings.NewDispatchTable()
	c.compileUS = 1e3 * timeMedian(3, func() {
		for _, src := range scripts {
			if s, err := webscript.Parse(src); err == nil {
				webscript.Compile(s, table)
			}
		}
	}) / float64(max(len(scripts), 1))
	m["webscript.parse_compile.us_per_script"] = c.compileUS
	m["webapi.intern.refs"] = float64(len(table.Refs()))

	// dom.NewTemplate(...).Instantiate, the revisit path's page build.
	var tpls []*dom.Template
	for _, d := range docs {
		tpls = append(tpls, dom.NewTemplate(d.root))
	}
	c.instantiateUS = 1e3 * timeMedian(5, func() {
		for _, t := range tpls {
			t.Instantiate()
		}
	}) / float64(max(len(tpls), 1))
	m["dom.instantiate.us_per_page"] = c.instantiateUS

	if err := replayBlocking(study, docs, m, &c); err != nil {
		return c, err
	}
	if err := replayInteraction(study, budget/3, m, &c); err != nil {
		return c, err
	}
	if err := replayVisits(study, budget/3, m); err != nil {
		return c, err
	}
	return c, replaySpill(study, streams, m, &c)
}

// replayBlocking runs each blocking case's blockers over the script
// requests of the captured documents.
func replayBlocking(study *core.Study, docs []pageDoc, m map[string]float64, c *layerCosts) error {
	list, err := blocking.ParseList("easylist-synthetic", study.Web.FilterListText)
	if err != nil {
		return err
	}
	abp := blocking.NewEngine(list)
	trackers, err := blocking.ParseTrackerDB(study.Web.TrackerLibText)
	if err != nil {
		return err
	}
	var blockers []blocking.Blocker
	for _, cs := range study.Cfg.Cases {
		switch cs {
		case measure.CaseBlocking:
			blockers = append(blockers, blocking.NewCombined(abp, trackers))
		case measure.CaseAdBlock:
			blockers = append(blockers, abp)
		case measure.CaseGhostery:
			blockers = append(blockers, trackers)
		}
	}
	var reqs []blocking.Request
	for _, d := range docs {
		for _, ref := range d.root.Scripts() {
			if ref.Src == "" {
				continue
			}
			u, err := d.url.Parse(ref.Src)
			if err != nil {
				continue
			}
			reqs = append(reqs, blocking.MakeRequest(u.String(), d.url.Hostname(), blocking.ResourceScript))
		}
	}
	if len(blockers) == 0 || len(reqs) == 0 {
		return nil
	}
	c.refsPerPage = float64(len(reqs)) / float64(len(docs))
	calls := len(reqs) * len(blockers)
	blocked := 0
	perPass := timeMedian(5, func() {
		blocked = 0
		for _, b := range blockers {
			for _, r := range reqs {
				if b.ShouldBlock(r) {
					blocked++
				}
			}
		}
	})
	c.shouldBlockNS = perPass * 1e6 / float64(calls)
	m["blocking.should_block.ns"] = c.shouldBlockNS
	m["blocking.requests"] = float64(calls)
	m["blocking.block_ratio"] = float64(blocked) / float64(calls)
	return nil
}

// homePages yields the measurable sites' home URLs in rank order, cycling.
func homePages(web *synthweb.Web) []string {
	var out []string
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			out = append(out, "http://"+s.Domain+"/")
		}
	}
	return out
}

// replayInteraction loads home pages in a browser carrying the measurer
// and times the gremlin horde on each, then the measurer drain.
func replayInteraction(study *core.Study, budget float64, m map[string]float64, c *layerCosts) error {
	homes := homePages(study.Web)
	if len(homes) == 0 {
		return fmt.Errorf("no measurable sites")
	}
	meas := extension.NewMeasurer()
	br := browser.New(study.Bindings, webserver.DirectFetcher{Web: study.Web}, meas)
	ccfg := crawlConfig(study)
	horde := gremlins.Default()
	horde.Seconds, horde.ActionsPerSecond = ccfg.PageSeconds, ccfg.ActionsPerSecond
	rng := rand.New(rand.NewSource(study.Cfg.Seed))
	var unleash, take []float64
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for i := 0; len(unleash) < 20 || time.Now().Before(deadline); i++ {
		page, err := br.Load(homes[i%len(homes)])
		if err != nil {
			return err
		}
		start := time.Now()
		horde.Unleash(page, rng)
		unleash = append(unleash, ms(time.Since(start)))
		start = time.Now()
		meas.Take()
		take = append(take, 1e3*ms(time.Since(start)))
		br.Release(page)
	}
	c.unleashMS, c.takeUS = median(unleash), median(take)
	m["gremlins.unleash.ms"] = c.unleashMS
	m["extension.take.us"] = c.takeUS
	return nil
}

// replayVisits drives crawler.Visitor.CrawlOnce per (site, case, round) in
// survey order.
func replayVisits(study *core.Study, budget float64, m map[string]float64) error {
	ccfg := crawlConfig(study)
	cr := crawler.New(study.Web, study.Bindings, ccfg)
	visitors := map[measure.Case]*crawler.Visitor{}
	for _, cs := range ccfg.Cases {
		v, err := cr.NewVisitor(cs)
		if err != nil {
			return err
		}
		visitors[cs] = v
	}
	var walls []float64
	var pages float64
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for _, site := range study.Web.Sites {
		if len(walls) >= 20 && time.Now().After(deadline) {
			break
		}
		for _, cs := range ccfg.Cases {
			for round := 0; round < ccfg.Rounds; round++ {
				start := time.Now()
				_, n, err := visitors[cs].CrawlOnce(site, crawler.VisitSeed(ccfg.Seed, site.Index, cs, round))
				if err != nil {
					break // an unmeasurable site, as in the survey
				}
				walls = append(walls, ms(time.Since(start)))
				pages += float64(n)
			}
		}
	}
	m["crawler.pages_per_visit"] = pages / float64(max(len(walls), 1))
	m["crawler.visit.p50_ms"] = quantile(walls, 0.5)
	m["crawler.visit.p99_ms"] = quantile(walls, 0.99)
	return nil
}

// replaySpill folds the spilled visits into a fresh aggregate in
// pipeline-sized batches and re-encodes them as a spill stream.
func replaySpill(study *core.Study, streams [][]byte, m map[string]float64, c *layerCosts) error {
	var recs []logstore.SpillRecord
	var size int
	for _, s := range streams {
		size += len(s)
		forEachRecord(s, func(r logstore.SpillRecord) { recs = append(recs, r) })
	}
	var batches []stats.Batch
	var b stats.Batch
	visits, sites := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case logstore.SpillObservation:
			o := r.Obs
			b.Visits = append(b.Visits, stats.Visit{Case: o.Case, Round: o.Round, Site: o.Site, Features: o.Features, Invocations: o.Invocations, Pages: o.Pages})
			visits++
		case logstore.SpillFailure:
			b.Fails = append(b.Fails, r.Site)
		case logstore.SpillSiteEnd:
			b.Ends = append(b.Ends, r.Site)
			sites++
		}
		if len(b.Visits) >= 16 || r.Kind == logstore.SpillSiteEnd {
			batches = append(batches, b)
			b = stats.Batch{}
		}
	}
	if visits == 0 || sites == 0 {
		return fmt.Errorf("traced survey spilled no visits")
	}
	cfg := stats.Config{
		NumFeatures: len(study.Registry.Features),
		NumSites:    len(study.Web.Sites),
		Standards:   stats.StandardsOf(study.Registry),
		Cases:       study.Cfg.Cases,
		Rounds:      study.Cfg.Rounds,
	}
	var applyErr error
	perPass := timeMedian(3, func() {
		agg, err := stats.New(cfg)
		if err != nil {
			applyErr = err
			return
		}
		for _, b := range batches {
			if err := agg.Apply(b); err != nil {
				applyErr = err
			}
		}
	})
	if applyErr != nil {
		return applyErr
	}
	c.applyUS = perPass * 1e3 / float64(visits)
	m["stats.apply.us_per_visit"] = c.applyUS

	var encErr error
	perPass = timeMedian(3, func() {
		w, err := logstore.NewWriter(io.Discard, cfg.NumFeatures, study.Domains())
		if err != nil {
			encErr = err
			return
		}
		for _, r := range recs {
			switch r.Kind {
			case logstore.SpillObservation:
				err = w.Append(r.Obs)
			case logstore.SpillFailure:
				err = w.Fail(r.Site)
			case logstore.SpillSiteEnd:
				err = w.EndSite(r.Site)
			}
			if err != nil {
				encErr = err
			}
		}
		if err := w.Close(); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	c.encodeUS = perPass * 1e3 / float64(sites)
	m["logstore.spill.encode_us_per_site"] = c.encodeUS
	m["logstore.spill.bytes_per_site"] = float64(size) / float64(sites)
	return nil
}
