package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The served survey: dist-firstload's traced run serves the survey it just
// crawled through serve.New(...).Handler() on loopback, while a writer
// merges the survey's lease aggregates into the served aggregate one by
// one, the way a coordinator feeds `serve -coordinator`. Every epoch
// change invalidates the query cache, so uncached renders run beside the
// cached reads.
const (
	serveConns = 2
	// serveRate is the open loop's offered rate in requests/s. It is an
	// assumption, not a measured workload: about a tenth of what two
	// closed-loop clients sustain on a 2-core host (13–14k requests/s), so
	// latency is service time rather than queueing. The smoke test, which
	// also runs under the race detector, uses serveToyRate.
	serveRate    = 1000.0
	serveToyRate = 300.0
)

// servePaths and the schedule in request follow the soak harness of
// internal/serve (TestLoadgenSoak in loadgen_test.go): request i asks for
// servePaths[i%len(servePaths)], a request with i%7 == 3 is conditional on
// the last ETag its connection saw, and a /report request with i%5 == 2
// asks for gzip. The soak reads /metrics only after its run; here it is a
// ninth path of the cycle, so scrapes run beside the queries.
var servePaths = []string{
	"/report",
	"/api/top-features?n=25",
	"/api/feature-deltas?profile=abp",
	"/api/standards",
	"/api/headlines",
	"/api/complexity",
	"/api/rounds",
	"/statusz",
	"/metrics",
}

// Request classes, each timed on the server side.
const (
	classAPI = iota
	classReport
	classReportGz
	classCond
	classStatusz
	classMetrics
	numClasses
)

var classNames = [numClasses]string{"api", "report", "report_gz", "cond", "statusz", "metrics"}

// spanHeader marks the requests whose server-side span is recorded: every
// other one, so traced and untraced requests share the host's conditions
// and the aggregate's size, and the ratio of their latencies is the
// tracing overhead.
const spanHeader = "X-Perfbench-Span"

// classOf maps a request of the schedule to its class.
func classOf(r *http.Request) int {
	switch {
	case r.Header.Get("If-None-Match") != "":
		return classCond
	case r.URL.Path == "/report" && r.Header.Get("Accept-Encoding") == "gzip":
		return classReportGz
	case r.URL.Path == "/report":
		return classReport
	case r.URL.Path == "/statusz":
		return classStatusz
	case r.URL.Path == "/metrics":
		return classMetrics
	}
	return classAPI
}

// serveBench is the served survey: the study, the served aggregate, the
// survey's lease aggregates the writer merges in, and the server on a
// loopback port.
type serveBench struct {
	study    *core.Study
	agg      *stats.Aggregate
	leases   []*stats.Aggregate
	srv      *http.Server
	url      string
	client   *http.Client
	httpDone chan struct{}

	// merged and mergeMS belong to the writer until it has reported.
	merged  int
	mergeMS []float64

	spanMu sync.Mutex
	spans  [numClasses][]float64
}

// traceHandler times next for the requests that carry spanHeader.
func (b *serveBench) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(spanHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		d := ms(time.Since(start))
		c := classOf(r)
		b.spanMu.Lock()
		b.spans[c] = append(b.spans[c], d)
		b.spanMu.Unlock()
	})
}

// newServeBench folds each lease's spill stream into a lease aggregate, as
// the coordinator does on commit, and starts a server over an empty
// aggregate of the study.
func newServeBench(study *core.Study, streams [][]byte) (*serveBench, error) {
	agg, err := serve.EmptyAggregate(study)
	if err != nil {
		return nil, err
	}
	b := &serveBench{study: study, agg: agg}
	for _, stream := range streams {
		s, err := logstore.OpenSpills(bytes.NewReader(stream))
		if err != nil {
			return nil, err
		}
		lease, err := stats.FromSpillStream(stats.StandardsOf(study.Registry), study.Cfg.Cases, s)
		if err != nil {
			return nil, err
		}
		b.leases = append(b.leases, lease)
	}
	srv, err := serve.New(serve.Config{Study: study, Agg: agg, Gzip: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: b.traceHandler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	b.httpDone = make(chan struct{})
	go func() {
		defer close(b.httpDone)
		_ = b.srv.Serve(ln) // ErrServerClosed once close shuts it down
	}()
	b.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
	return b, nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		_ = b.srv.Close() // the listener is gone either way
	}
	<-b.httpDone
}

// writer merges one lease per period into the served aggregate until the
// leases run out or stop closes.
func (b *serveBench) writer(period time.Duration, stop <-chan struct{}, done chan<- error) {
	t := time.NewTicker(period)
	defer t.Stop()
	for b.merged < len(b.leases) {
		select {
		case <-stop:
			done <- nil
			return
		case <-t.C:
		}
		start := time.Now()
		if err := b.agg.Merge(b.leases[b.merged]); err != nil {
			done <- err
			return
		}
		b.mergeMS = append(b.mergeMS, ms(time.Since(start)))
		b.merged++
	}
	done <- nil
}

// sample is one request's timing, relative to the phase's start.
type sample struct {
	// ideal is when the schedule wanted the request sent; due is when the
	// pacer released it. Go timers wake with about a millisecond of slack,
	// so the pacer releases every request whose ideal time has passed at
	// each wake, and latency counts from that release.
	ideal, due, done time.Duration
	traced, ok       bool
	// backlog is how many released requests were still waiting for a
	// connection when this one was released.
	backlog int
}

// phase drives an open loop at rate for dur: a pacer releases request i
// once i/rate has passed, serveConns connections send released requests
// in order, and latency counts from the release, so a stall delays
// everything queued behind it. Requests not sent within a second of the
// end are dropped and reported as not ok.
func (b *serveBench) phase(rate float64, dur time.Duration) []sample {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	due := make(chan int, n) // sized to the phase so the pacer never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var etag string
			for i := range due {
				s := &out[i]
				s.traced = i%2 == 1
				if time.Since(start) > dur+time.Second {
					s.done = time.Since(start)
					continue
				}
				s.ok = b.request(i, s.traced, &etag)
				s.done = time.Since(start)
			}
		}()
	}
	for released := 0; released < n; {
		now := time.Since(start)
		for ; released < n && time.Duration(released)*interval <= now; released++ {
			out[released].ideal = time.Duration(released) * interval
			out[released].due = now
			out[released].backlog = len(due)
			due <- released
		}
		time.Sleep(time.Millisecond / 2)
	}
	close(due)
	wg.Wait()
	return out
}

// request sends request i of the schedule and reports whether it was
// answered 200 or 304. etag is the last ETag the connection saw.
func (b *serveBench) request(i int, traced bool, etag *string) bool {
	path := servePaths[i%len(servePaths)]
	req, err := http.NewRequest(http.MethodGet, b.url+path, nil)
	if err != nil {
		return false
	}
	switch {
	case i%7 == 3 && *etag != "":
		req.Header.Set("If-None-Match", *etag)
	case i%5 == 2 && path == "/report":
		req.Header.Set("Accept-Encoding", "gzip")
	default:
		req.Header.Set("Accept-Encoding", "identity")
	}
	if traced {
		req.Header.Set(spanHeader, "1")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return false
	}
	if e := resp.Header.Get("ETag"); e != "" && resp.StatusCode == http.StatusOK {
		*etag = e
	}
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified
}

// latencies are the answered requests' latencies from release.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var xs []float64
	for _, s := range ss {
		if s.ok && keep(s) {
			xs = append(xs, ms(s.done-s.due))
		}
	}
	return xs
}

// serveSurvey serves a crawled survey for dur at the given rate while its
// lease streams are merged in at an even pace, adds the serve-side
// per-layer metrics to o, and checks the served /report against a batch
// render of the same epoch and, once every lease is in, against want, the
// digest of the survey's own report.
func serveSurvey(study *core.Study, streams [][]byte, want string, dur time.Duration, rate float64, o *outcome) error {
	b, err := newServeBench(study, streams)
	if err != nil {
		return err
	}
	defer b.close()
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go b.writer(dur/time.Duration(len(b.leases)+1), stop, werr)
	ss := b.phase(rate, dur)
	close(stop)
	if err := <-werr; err != nil {
		return err
	}

	for _, s := range ss {
		o.attempted++
		if !s.ok {
			o.failed++
		}
	}
	m := o.metrics
	plain := median(latencies(ss, func(s sample) bool { return !s.traced }))
	traced := median(latencies(ss, func(s sample) bool { return s.traced }))
	if plain <= 0 || traced <= 0 {
		return fmt.Errorf("serve: no answered requests to compare (untraced p50 %v, traced %v)", plain, traced)
	}
	m["trace.overhead.req_p50_ms"] = traced / plain
	for c := 0; c < numClasses; c++ {
		if len(b.spans[c]) == 0 {
			return fmt.Errorf("serve: no %s requests were traced", classNames[c])
		}
		m["serve."+classNames[c]+".p50_ms"] = quantile(b.spans[c], 0.5)
		m["serve."+classNames[c]+".p99_ms"] = quantile(b.spans[c], 0.99)
	}
	var lags []float64
	backlog := 0
	for _, s := range ss {
		lags = append(lags, ms(s.due-s.ideal))
		backlog = max(backlog, s.backlog)
	}
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	m["loadgen.backlog_max"] = float64(backlog)
	if err := b.traceLayers(m); err != nil {
		return err
	}
	if err := b.check(want); err != nil {
		if _, ok := err.(checkError); !ok {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		o.checked = false
		o.failed++
	}
	return nil
}

// traceLayers adds the writer-side and render-side layer costs and the
// server's own cache counters, scraped from /metrics.
func (b *serveBench) traceLayers(m map[string]float64) error {
	if len(b.mergeMS) == 0 {
		return fmt.Errorf("serve: the writer merged no lease during the run")
	}
	m["stats.merge.ms"] = median(b.mergeMS)
	m["stats.epochs"] = float64(b.agg.Epoch())
	m["stats.publish.ms"] = timeMedian(5, func() { b.agg.Publish() })
	snap := b.agg.Snapshot()
	m["analysis.from_stats.ms"] = timeMedian(5, func() {
		a := b.study.AggregateResults(snap).Analysis
		a.StandardPopularityCDF()
		a.Complexity()
	})
	var renderErr error
	m["report.render_ms"] = timeMedian(5, func() {
		if err := b.study.WriteAggregateReport(io.Discard, b.study.AggregateResults(snap)); err != nil {
			renderErr = err
		}
	})
	if renderErr != nil {
		return renderErr
	}
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	found := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name, _, _ = strings.Cut(name, "{") // sum serve_renders_total over endpoints
		found[name] += v
	}
	for _, name := range []string{"serve_cache_hits_total", "serve_cache_misses_total", "serve_renders_total"} {
		if _, ok := found[name]; !ok {
			return fmt.Errorf("serve: /metrics has no %s", name)
		}
	}
	hits, misses := found["serve_cache_hits_total"], found["serve_cache_misses_total"]
	if hits+misses == 0 {
		return fmt.Errorf("serve: /metrics counted no cacheable request")
	}
	m["serve.cache_hit_ratio"] = hits / (hits + misses)
	m["serve.renders"] = found["serve_renders_total"]
	return nil
}

// check merges the leases the run did not reach, then compares the served
// /report with a batch render of the same epoch and with want.
func (b *serveBench) check(want string) error {
	for ; b.merged < len(b.leases); b.merged++ {
		if err := b.agg.Merge(b.leases[b.merged]); err != nil {
			return err
		}
	}
	snap := b.agg.Snapshot()
	var batch bytes.Buffer
	if err := b.study.WriteAggregateReport(&batch, b.study.AggregateResults(snap)); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodGet, b.url+"/report", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return checkf("/report answered %s", resp.Status)
	}
	if tag := resp.Header.Get("ETag"); tag != fmt.Sprintf(`W/"e%d"`, snap.Epoch()) {
		return checkf("/report served ETag %s, batch render is of epoch %d", tag, snap.Epoch())
	}
	if !bytes.Equal(got, batch.Bytes()) {
		return checkf("/report differs from a batch render of epoch %d", snap.Epoch())
	}
	if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
		return checkf("served /report of the whole survey differs from the survey's own report")
	}
	return nil
}
