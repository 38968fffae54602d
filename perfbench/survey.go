package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/stats"
)

// Workload sizes. A run surveys its studies, each generated from its own
// seed derived from the workload seed, round-robin and many times over, so
// the median survey time of each shrugs off the host's moment-to-moment
// noise, and together they cover enough sites to cost about the same on
// every seed. dist-firstload keeps one study: each extra one costs three
// resident webs (coordinator and two workers).
const (
	revisitStudies    = 8
	revisitSites      = 40
	revisitToySites   = 6
	firstloadStudies  = 1
	firstloadSites    = 1500
	firstloadToySites = 24
	firstloadLease    = 32
	firstloadToyLease = 4
	distWorkers       = 2
	setupRepeats      = 5
	// minRounds is how many times every study is surveyed at least.
	minRounds = 2
)

// studySeed derives the seed of a run's k-th study.
func studySeed(seed int64, k int) int64 { return seed*100 + int64(k) }

// job is one timed survey repetition.
type job struct {
	wall               time.Duration
	allocBytes, allocs float64
	peakMB             float64
	gcCPU, totalCPU    float64
	gcCycles           uint64
}

// timeJob runs f with the heap sampler and allocation counters around it.
func timeJob(f func() error) (job, error) {
	before := readCounters()
	peak := startHeapPeak()
	start := time.Now()
	err := f()
	wall := time.Since(start)
	peakMB := peak.done()
	after := readCounters()
	return job{
		wall:       wall,
		allocBytes: float64(after.allocBytes - before.allocBytes),
		allocs:     float64(after.allocObjects - before.allocObjects),
		peakMB:     peakMB,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
		gcCycles:   after.gcCycles - before.gcCycles,
	}, err
}

// surveyMetrics folds the timed repetitions of each study (sites sites
// each) into the end-to-end metrics. Throughput divides the sites of all
// studies by the sum of their median survey times. Latency percentiles are
// taken over the studies' median survey times.
func surveyMetrics(per [][]job, sites int, setup float64) map[string]float64 {
	var kb, objs, peaks, studyMS []float64
	total := 0.0
	for _, jobs := range per {
		var walls []float64
		for _, j := range jobs {
			walls = append(walls, ms(j.wall))
			kb = append(kb, j.allocBytes/float64(sites)/1e3)
			objs = append(objs, j.allocs/float64(sites))
			peaks = append(peaks, j.peakMB)
		}
		m := median(walls)
		studyMS = append(studyMS, m)
		total += m
	}
	return map[string]float64{
		"setup_s":          setup,
		"throughput_per_s": float64(len(per)*sites) / (total / 1e3),
		"latency_p50_ms":   quantile(studyMS, 0.5),
		"latency_p99_ms":   quantile(studyMS, 0.99),
		"alloc_kb_per_op":  median(kb),
		"allocs_per_op":    median(objs),
		"peak_heap_mb":     median(peaks),
	}
}

// gcMetrics is the runtime share of the timed repetitions.
func gcMetrics(per [][]job, m map[string]float64) {
	var gc, total float64
	var cycles uint64
	n := 0
	for _, jobs := range per {
		for _, j := range jobs {
			gc += j.gcCPU
			total += j.totalCPU
			cycles += j.gcCycles
			n++
		}
	}
	if total > 0 {
		m["runtime.gc_cpu_frac"] = gc / total
	}
	m["runtime.gc_cycles"] = float64(cycles) / float64(n)
}

// medianSetup builds n times and keeps the last build; set-up time is the
// median.
func medianSetup[T any](n int, build func() (T, error)) (T, float64, error) {
	var v T
	var err error
	s := timeMedian(n, func() {
		if err == nil {
			v, err = build()
		}
	})
	return v, s / 1e3, err
}

// cycleJobs surveys the studies round-robin until the measured time is
// spent and every study has run minRounds times. Each survey is timed;
// verify, when set, checks its output untimed. A wrong output counts as a
// failed repetition; an error running one ends the run.
func cycleJobs(seconds float64, studies int, run func(study, rep int) error, verify func(study int) error) ([][]job, int64, error) {
	per := make([][]job, studies)
	var failed int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < studies*minRounds || time.Now().Before(deadline); i++ {
		k := i % studies
		j, err := timeJob(func() error { return run(k, len(per[k])) })
		if err == nil && verify != nil {
			err = verify(k)
		}
		var bad checkError
		switch {
		case errors.As(err, &bad):
			fmt.Fprintf(os.Stderr, "perfbench: study %d: %v\n", k, err)
			failed++
		case err != nil:
			return nil, 0, err
		}
		per[k] = append(per[k], j)
	}
	return per, failed, nil
}

// checkError marks a wrong output, as opposed to a failure to run.
type checkError struct{ msg string }

func (e checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error { return checkError{fmt.Sprintf(format, args...)} }

// reportDigest is the SHA-256 of the aggregate report, the survey's
// user-visible output.
func reportDigest(study *core.Study, res *core.Results) (string, error) {
	h := sha256.New()
	if err := study.WriteAggregateReport(h, res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestCheck holds each study's report digest from its first
// repetition, checks it against the digest recorded for the workload's
// seed when there is one, and checks every later repetition against it.
type digestCheck struct {
	workload string
	seed     int64
	first    []string
	// recorded is the table for the run's scale.
	recorded map[string]map[int64][]string
}

func newDigestCheck(cfg runConfig, workload string, studies int) *digestCheck {
	d := &digestCheck{workload: workload, seed: cfg.seed, first: make([]string, studies), recorded: recordedDigests}
	if cfg.toy {
		d.recorded = toyDigests
	}
	return d
}

func (d *digestCheck) check(study int, got string) error {
	if d.first[study] == "" {
		d.first[study] = got
		if want, ok := d.recorded[d.workload][d.seed]; ok && (study >= len(want) || want[study] != got) {
			return checkf("study %d report digest %s differs from the one recorded for seed %d", study, got[:12], d.seed)
		}
		return nil
	}
	if got != d.first[study] {
		return checkf("study %d report digest %s differs from its first repetition's %s", study, got[:12], d.first[study][:12])
	}
	return nil
}

// note records the digests in the form recordedDigests takes them.
func (d *digestCheck) note() string {
	status := "no recorded digest for this seed"
	if _, ok := d.recorded[d.workload][d.seed]; ok {
		status = "recorded"
	}
	return fmt.Sprintf("digest %s seed %d %q (%s)", d.workload, d.seed, d.first, status)
}

// visitCount checks the survey's shape: every measured site has exactly
// cases × rounds visits, and the measured count is the aggregate's.
func visitCount(visits map[int]int, failed map[int]bool, measured, cases, rounds int) error {
	n := 0
	for site, v := range visits {
		if failed[site] {
			continue
		}
		n++
		if v != cases*rounds {
			return checkf("site %d has %d visits, want %d cases × %d rounds", site, v, cases, rounds)
		}
	}
	if n != measured {
		return checkf("%d sites have visits, aggregate measured %d", n, measured)
	}
	return nil
}

func newRevisitStudies(seed int64, n, sites int) ([]*core.Study, error) {
	var out []*core.Study
	for k := 0; k < n; k++ {
		st, err := core.NewStudy(core.Config{Sites: sites, Seed: studySeed(seed, k), Shards: 1, ShardWorkers: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func runCrawlRevisit(cfg runConfig) (*outcome, error) {
	sites := revisitSites
	if cfg.toy {
		sites = revisitToySites
	}
	studies, setup, err := medianSetup(setupRepeats, func() ([]*core.Study, error) {
		return newRevisitStudies(cfg.seed, revisitStudies, sites)
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSurvey(cfg, studies[0], sites)
	}

	dc := newDigestCheck(cfg, "crawl-revisit", len(studies))
	last := make([]*core.Results, len(studies))
	per, failed, err := cycleJobs(cfg.seconds, len(studies), func(k, _ int) error {
		res, err := studies[k].RunSurvey()
		last[k] = res
		return err
	}, func(k int) error {
		got, err := reportDigest(studies[k], last[k])
		if err != nil {
			return err
		}
		return dc.check(k, got)
	})
	if err != nil {
		return nil, err
	}
	// A study's survey is crawl-revisit's unit of latency: its median
	// over the repetitions, so p99 is the slowest study's.
	o := &outcome{failed: failed, checked: true, metrics: surveyMetrics(per, sites, setup)}
	for k, st := range studies {
		o.attempted += int64(len(per[k]))
		if err := checkRevisit(st, last[k], dc, k); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			o.checked = false
			o.failed++
		}
	}
	o.notes = append(o.notes, dc.note())
	o.metrics["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	return o, nil
}

// checkRevisit checks a keep-log survey: the report digest, the report
// rebuilt from the log through a fresh aggregate, and the visit grid.
func checkRevisit(study *core.Study, res *core.Results, dc *digestCheck, k int) error {
	got, err := reportDigest(study, res)
	if err != nil {
		return err
	}
	if err := dc.check(k, got); err != nil {
		return err
	}
	agg, err := stats.FromLog(res.Log, stats.StandardsOf(study.Registry), study.Cfg.Cases)
	if err != nil {
		return err
	}
	fromLog, err := reportDigest(study, study.AggregateResults(agg))
	if err != nil {
		return err
	}
	if fromLog != got {
		return checkf("report rebuilt from the log differs from the live aggregate's")
	}
	visits := map[int]int{}
	failed := map[int]bool{}
	for _, cl := range res.Log.Cases {
		for _, rl := range cl.Rounds {
			for site, f := range rl.SiteFeatures {
				if f != nil {
					visits[site]++
				}
			}
		}
	}
	for site, ok := range res.Log.Measured {
		if !ok {
			failed[site] = true
		}
	}
	return visitCount(visits, failed, res.Stats.DomainsMeasured, len(study.Cfg.Cases), study.Cfg.Rounds)
}

// distSurvey is the dist-firstload set-up: the coordinator's study and the
// workers' studies, each rebuilt from the coordinator's spec as a remote
// worker would.
type distSurvey struct {
	study   *core.Study
	spec    []byte
	workers []*core.Study
	lease   int
	dir     string
	// runs numbers the surveys' checkpoint files.
	runs int
	// crawl overrides the workers' crawl function (the traced run crawls
	// through its own pipelines); nil uses core.Study.CrawlSites.
	crawl func(worker int) dist.CrawlFunc
	// capture keeps every lease's spill stream as shipped. Only untimed
	// surveys capture, so the timed ones carry no copy.
	capture bool
}

func newDistSurvey(seed int64, sites, lease int) (*distSurvey, error) {
	study, err := core.NewStudy(core.Config{
		Sites: sites, Seed: seed, Rounds: 1, Cases: []measure.Case{measure.CaseDefault},
		Shards: 1, ShardWorkers: 1,
	})
	if err != nil {
		return nil, err
	}
	spec, err := study.Spec()
	if err != nil {
		return nil, err
	}
	d := &distSurvey{study: study, spec: spec, lease: lease}
	for i := 0; i < distWorkers; i++ {
		w, err := core.StudyFromSpec(spec, core.Config{Shards: 1, ShardWorkers: 1})
		if err != nil {
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	return d, nil
}

func (d *distSurvey) close() {
	d.study.Close()
	for _, w := range d.workers {
		w.Close()
	}
}

// distRun is one completed distributed survey.
type distRun struct {
	agg              *stats.Aggregate
	checkpoint       string
	issued, requeued int
	merged           int
	streams          [][]byte  // every lease's spill stream, when captured
	leaseMS          []float64 // every lease's crawl time on its worker
}

// The coordinator's progress lines that count lease grants and requeues.
const (
	leaseIssuedLine   = "dist: lease %d (%d sites) → %s (attempt %d)"
	leaseRequeuedLine = "dist: lease %d requeued after %v"
)

// run performs one distributed survey: an in-process coordinator with a
// checkpoint journal and distWorkers in-process workers over loopback.
func (d *distSurvey) run(ctx context.Context) (*distRun, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	d.runs++
	r := &distRun{checkpoint: filepath.Join(d.dir, fmt.Sprintf("checkpoint-%d-%d", d.study.Cfg.Seed, d.runs))}
	var mu sync.Mutex
	var issued, requeued, merged atomic.Int64
	c, err := dist.Listen("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:           d.spec,
		NumSites:       len(d.study.Web.Sites),
		NumFeatures:    len(d.study.Registry.Features),
		Standards:      stats.StandardsOf(d.study.Registry),
		Cases:          d.study.Cfg.Cases,
		LeaseSites:     d.lease,
		CheckpointPath: r.checkpoint,
		OnLeaseMerged:  func(int, int) { merged.Add(1) },
		Logf: func(format string, _ ...any) {
			switch format {
			case leaseIssuedLine:
				issued.Add(1)
			case leaseRequeuedLine:
				requeued.Add(1)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(d.workers))
	var wg sync.WaitGroup
	for i, w := range d.workers {
		crawl := dist.CrawlFunc(w.CrawlSites)
		if d.crawl != nil {
			crawl = d.crawl(i)
		}
		wg.Add(1)
		go func(i int, crawl dist.CrawlFunc) {
			defer wg.Done()
			errs[i] = dist.Run(ctx, dist.WorkerConfig{
				Addr: c.Addr(),
				Build: func(spec []byte) (dist.CrawlFunc, error) {
					if !bytes.Equal(spec, d.spec) {
						return nil, fmt.Errorf("worker handed a different spec")
					}
					return func(ctx context.Context, sites []int, spill io.Writer) error {
						var buf *bytes.Buffer
						if d.capture {
							buf = new(bytes.Buffer)
							spill = io.MultiWriter(spill, buf)
						}
						start := time.Now()
						if err := crawl(ctx, sites, spill); err != nil {
							return err
						}
						took := ms(time.Since(start))
						mu.Lock()
						if buf != nil {
							r.streams = append(r.streams, buf.Bytes())
						}
						r.leaseMS = append(r.leaseMS, took)
						mu.Unlock()
						return nil
					}, nil
				},
			})
		}(i, crawl)
	}
	agg, err := c.Serve(ctx)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	r.agg, r.issued, r.requeued, r.merged = agg, int(issued.Load()), int(requeued.Load()), int(merged.Load())
	// Every lease merged, and each grant ended in a merge, a requeue or
	// (only after a requeue) a dropped duplicate commit. Counts that break
	// this mean the progress lines above no longer match the coordinator's.
	if n := r.merged; n != c.Leases() || r.issued < n+r.requeued || (r.requeued == 0 && r.issued != n) {
		return nil, fmt.Errorf("coordinator merged %d of %d leases with %d grants and %d requeues logged: its progress lines changed", n, c.Leases(), r.issued, r.requeued)
	}
	return r, nil
}

// checkReport verifies a distributed survey's report: its digest, and the
// same report from a coordinator restarted over the run's checkpoint
// journal.
func (d *distSurvey) checkReport(ctx context.Context, r *distRun, dc *digestCheck, k int) error {
	got, err := reportDigest(d.study, d.study.AggregateResults(r.agg))
	if err != nil {
		return err
	}
	if err := dc.check(k, got); err != nil {
		return err
	}
	replayed, err := stats.New(stats.Config{
		NumFeatures: len(d.study.Registry.Features),
		NumSites:    len(d.study.Web.Sites),
		Standards:   stats.StandardsOf(d.study.Registry),
		Cases:       d.study.Cfg.Cases,
	})
	if err != nil {
		return err
	}
	c, err := dist.Listen("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:           d.spec,
		NumSites:       len(d.study.Web.Sites),
		NumFeatures:    len(d.study.Registry.Features),
		Standards:      stats.StandardsOf(d.study.Registry),
		Cases:          d.study.Cfg.Cases,
		LeaseSites:     d.lease,
		CheckpointPath: r.checkpoint,
		Agg:            replayed,
	})
	if err != nil {
		return err
	}
	if n, total := c.Completed(), c.Leases(); n != total {
		_, _ = c.Serve(cancelled()) // only shuts the replay coordinator down
		return checkf("checkpoint replays %d of %d leases", n, total)
	}
	if _, err := c.Serve(ctx); err != nil {
		return err
	}
	fromCkpt, err := reportDigest(d.study, d.study.AggregateResults(replayed))
	if err != nil {
		return err
	}
	if fromCkpt != got {
		return checkf("report replayed from the checkpoint differs from the live survey's")
	}
	return nil
}

// checkGrid verifies the visit grid of a survey whose streams were
// captured.
func (d *distSurvey) checkGrid(r *distRun) error {
	visits := map[int]int{}
	failed := map[int]bool{}
	for _, stream := range r.streams {
		s, err := logstore.OpenSpills(bytes.NewReader(stream))
		if err != nil {
			return err
		}
		for {
			rec, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			switch rec.Kind {
			case logstore.SpillObservation:
				visits[rec.Site]++
			case logstore.SpillFailure:
				failed[rec.Site] = true
			}
		}
	}
	return visitCount(visits, failed, r.agg.MeasuredCount(), len(d.study.Cfg.Cases), d.study.Cfg.Rounds)
}

// captured runs the survey once, untimed, with its lease streams captured,
// and checks its report and visit grid. A wrong output is counted in o.
func (d *distSurvey) captured(ctx context.Context, dc *digestCheck, k int, o *outcome) (*distRun, error) {
	d.capture = true
	r, err := d.run(ctx)
	d.capture = false
	if err != nil {
		return nil, err
	}
	o.attempted += 1 + int64(r.issued)
	o.failed += int64(r.requeued)
	err = d.checkReport(ctx, r, dc, k)
	if err == nil {
		err = d.checkGrid(r)
	}
	if err := countCheck(err, o); err != nil {
		return nil, err
	}
	return r, os.Remove(r.checkpoint)
}

// countCheck records a failed output check in o and passes any other
// error on.
func countCheck(err error, o *outcome) error {
	var bad checkError
	if errors.As(err, &bad) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		o.checked = false
		o.failed++
		return nil
	}
	return err
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func runDistFirstload(cfg runConfig) (*outcome, error) {
	sites, lease := firstloadSites, firstloadLease
	if cfg.toy {
		sites, lease = firstloadToySites, firstloadToyLease
	}
	surveys, setup, err := medianSetup(setupRepeats, func() ([]*distSurvey, error) {
		var out []*distSurvey
		for k := 0; k < firstloadStudies; k++ {
			d, err := newDistSurvey(studySeed(cfg.seed, k), sites, lease)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, d := range surveys {
			d.close()
		}
	}()
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, d := range surveys {
		d.dir = dir
	}
	ctx := context.Background()
	if cfg.trace {
		return traceDist(cfg, surveys[0])
	}

	o := &outcome{checked: true}
	dc := newDigestCheck(cfg, "dist-firstload", len(surveys))
	for k, d := range surveys {
		if _, err := d.captured(ctx, dc, k, o); err != nil {
			return nil, err
		}
	}
	var issued, requeued int64
	// A lease is dist-firstload's unit of latency: how long a worker takes
	// to crawl and ship one. Each survey's p50 and p99 lease are kept, and
	// the run reports their medians over the surveys, so one stall of the
	// host moves one survey's figure, not the run's.
	var p50s, p99s []float64
	last := make([]*distRun, len(surveys))
	per, failed, err := cycleJobs(cfg.seconds, len(surveys), func(k, _ int) error {
		r, err := surveys[k].run(ctx)
		if err != nil {
			return err
		}
		issued += int64(r.issued)
		requeued += int64(r.requeued)
		p50s = append(p50s, quantile(r.leaseMS, 0.5))
		p99s = append(p99s, quantile(r.leaseMS, 0.99))
		if last[k] != nil {
			_ = os.Remove(last[k].checkpoint) // the run's directory is removed at exit
		}
		last[k] = r
		return nil
	}, func(k int) error {
		d := surveys[k]
		got, err := reportDigest(d.study, d.study.AggregateResults(last[k].agg))
		if err != nil {
			return err
		}
		return dc.check(k, got)
	})
	if err != nil {
		return nil, err
	}
	o.metrics = surveyMetrics(per, sites, setup)
	o.metrics["latency_p50_ms"] = median(p50s)
	o.metrics["latency_p99_ms"] = median(p99s)
	o.attempted += issued
	o.failed += failed + requeued
	for k, d := range surveys {
		o.attempted += int64(len(per[k]))
		if err := countCheck(d.checkReport(ctx, last[k], dc, k), o); err != nil {
			return nil, err
		}
	}
	o.notes = append(o.notes, dc.note())
	o.metrics["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	return o, nil
}
