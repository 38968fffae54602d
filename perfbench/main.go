// Command perfbench is the repository's end-to-end benchmark. It drives the
// survey and query-server stacks through their public APIs (core.Study,
// pipeline, dist and serve), checks every run's output, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload crawl-revisit --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - crawl-revisit: the paper's 4 cases × 5 rounds, kept in memory, one
//     shard × one worker, over 8 webs of 40 sites surveyed in turn. Every URL
//     is loaded ~20 times per site, so the browser's template and script
//     caches hit and time goes to DOM instantiation, compiled-script
//     dispatch, gremlins, ABP matching and the measurer drain. One worker
//     makes it the single-threaded baseline.
//   - dist-firstload: the default case for one round over 1500 sites,
//     crawled by two in-process dist workers in 32-site leases through a
//     checkpointing coordinator on loopback. Every page is a first load
//     (fetch, parse, compile) and no blocker runs, so it exercises the parse
//     side and the lease, spill, merge and fsync path while bypassing the
//     revisit caches and ABP.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run times the benchmark's own calls into each layer and
// reports the per-layer metrics, each with the end-to-end metric it should
// move (printed as "layer" lines before the result). dist-firstload's
// traced run also serves the survey it crawled through the query server
// (serve.go), so the serve, analysis and report layers are measured there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them, so each is defined for each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "", "median of five set-ups: study generation and, on dist-firstload, the workers' builds"},
	{"throughput_per_s", "1/s", "", "sites over the sum of each study's median survey time"},
	{"latency_p50_ms", "ms", "", "crawl-revisit: a study's median survey time; dist-firstload: a lease's crawl time, median over surveys"},
	{"latency_p99_ms", "ms", "", "the same at p99: the slowest study; a survey's p99 lease, median over surveys"},
	{"alloc_kb_per_op", "kB", "", "heap bytes allocated per site"},
	{"allocs_per_op", "count", "", "heap objects allocated per site"},
	{"peak_heap_mb", "MB", "", "peak heap (live plus unswept), median over survey repetitions"},
	{"success_frac", "frac", "", "operations answered correctly over operations attempted (surveys, leases, output checks)"},
}

// metricDef names one metric. only, when set, is the one workload that
// measures it; the other prints it as 0. about says what an end-to-end
// metric measures, and for a per-layer metric which end-to-end metric on
// which workload a change to the layer should move.
type metricDef struct {
	name, unit, only, about string
}

const (
	revisit   = "crawl-revisit"
	firstload = "dist-firstload"
)

var perLayer = []metricDef{
	{"webidl.generate_ms", "ms", "", "setup_s on both workloads"},
	{"synthweb.generate_ms", "ms", "", "setup_s on both workloads"},
	{"webapi.bindings_ms", "ms", "", "setup_s on both workloads"},
	{"webserver.fetch.calls", "count", "", "throughput_per_s on dist-firstload"},
	{"webserver.fetch.us", "us", "", "throughput_per_s on dist-firstload"},
	{"browser.first_load_ratio", "ratio", "", "throughput_per_s on dist-firstload (near 1); near 0 on crawl-revisit"},
	{"html.parse.us_per_doc", "us", "", "throughput_per_s and allocs_per_op on dist-firstload"},
	{"webscript.parse_compile.us_per_script", "us", "", "throughput_per_s and allocs_per_op on dist-firstload"},
	{"webapi.intern.refs", "count", "", "throughput_per_s and allocs_per_op on dist-firstload"},
	{"dom.instantiate.us_per_page", "us", "", "throughput_per_s and allocs_per_op on crawl-revisit"},
	{"blocking.should_block.ns", "ns", revisit, "throughput_per_s on crawl-revisit only"},
	{"blocking.requests", "count", revisit, "throughput_per_s on crawl-revisit only"},
	{"blocking.block_ratio", "ratio", revisit, "throughput_per_s on crawl-revisit only"},
	{"gremlins.unleash.ms", "ms", "", "throughput_per_s on crawl-revisit"},
	{"extension.take.us", "us", "", "throughput_per_s on crawl-revisit"},
	{"crawler.visit.p50_ms", "ms", "", "throughput_per_s on both workloads"},
	{"crawler.visit.p99_ms", "ms", "", "throughput_per_s on both workloads"},
	{"crawler.pages_per_visit", "count", "", "throughput_per_s on both workloads"},
	{"stats.apply.us_per_visit", "us", "", "throughput_per_s on dist-firstload"},
	{"logstore.spill.bytes_per_site", "B", "", "throughput_per_s on dist-firstload"},
	{"logstore.spill.encode_us_per_site", "us", "", "throughput_per_s on dist-firstload"},
	{"dist.lease.count", "count", firstload, "throughput_per_s and success_frac on dist-firstload"},
	{"dist.lease.crawl_p50_ms", "ms", firstload, "throughput_per_s and latency_p50_ms on dist-firstload"},
	{"dist.lease.wait_ms", "ms", firstload, "throughput_per_s on dist-firstload"},
	{"dist.merge.count", "count", firstload, "throughput_per_s on dist-firstload"},
	{"dist.requeues", "count", firstload, "success_frac on dist-firstload"},
	{"dist.checkpoint.bytes", "B", firstload, "throughput_per_s on dist-firstload"},
	{"serve.api.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.api.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.report.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.report.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.report_gz.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.report_gz.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.cond.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.cond.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.statusz.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.statusz.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.metrics.p50_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.metrics.p99_ms", "ms", firstload, "server-side handler time of the served survey (no end-to-end metric yet)"},
	{"serve.cache_hit_ratio", "ratio", firstload, "the served survey's cache hits over cacheable requests"},
	{"serve.renders", "count", firstload, "renders while serving the survey"},
	{"stats.merge.ms", "ms", firstload, "the coordinator's merge of one lease; throughput_per_s on dist-firstload"},
	{"stats.publish.ms", "ms", firstload, "snapshot publication after each merge; throughput_per_s on dist-firstload"},
	{"stats.epochs", "count", firstload, "epochs published while serving the survey"},
	{"analysis.from_stats.ms", "ms", firstload, "analysis of the survey's final snapshot (uncached serve renders)"},
	{"report.render_ms", "ms", firstload, "the survey's aggregate report; uncached /report renders"},
	{"runtime.gc_cpu_frac", "frac", "", "alloc_kb_per_op and throughput_per_s on both workloads"},
	{"runtime.gc_cycles", "count", "", "alloc_kb_per_op and throughput_per_s on both workloads"},
	{"loadgen.lag_p99_ms", "ms", firstload, "health of the serve load generator: must stay well below the serve p99s"},
	{"loadgen.backlog_max", "count", firstload, "health of the serve load generator at its fixed rate"},
	{"trace.coverage", "ratio", "", "share of the survey's wall time the per-layer self times explain"},
	{"trace.overhead.sites_per_s", "ratio", "", "traced over untraced survey time: the cost of the timed fetcher"},
	{"trace.overhead.req_p50_ms", "ratio", firstload, "traced over untraced median request latency while serving the survey"},
}

// mayReadZero are the per-layer metrics for which 0 is a legitimate
// reading on a workload that measures them.
var mayReadZero = map[string]bool{"dist.requeues": true, "loadgen.backlog_max": true}

// measures reports whether the workload produces the metric.
func (d metricDef) measures(workload string) bool { return d.only == "" || d.only == workload }

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// toy shrinks every workload to smoke-test scale.
	toy bool
}

// outcome is one run's tally before it is printed.
type outcome struct {
	attempted, failed int64
	// checked is false when an output check failed.
	checked bool
	metrics map[string]float64
	// notes are extra stdout lines printed before the result.
	notes []string
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{revisit, runCrawlRevisit},
	{firstload, runDistFirstload},
}

// heldOutSeed is kept out of tuning: a later claim made on other seeds is
// re-checked on it before it is accepted.
const heldOutSeed = 9001

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set the mode reports; a per-layer metric
// the workload does not measure reads 0.
func buildResult(o *outcome, trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{
		Correct:   o.checked && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	return r
}

func main() {
	name := flag.String("workload", "", "crawl-revisit or dist-firstload")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload crawl-revisit|dist-firstload, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	start := time.Now()
	o, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	if *trace == 1 {
		for _, d := range perLayer {
			if d.measures(w.name) {
				fmt.Printf("layer %s -> %s\n", d.name, d.about)
			} else {
				fmt.Printf("layer %s -> not measured on %s (reads 0)\n", d.name, w.name)
			}
		}
	} else {
		for _, d := range endToEnd {
			fmt.Printf("metric %s [%s]: %s\n", d.name, d.unit, d.about)
		}
	}
	host, err := json.Marshal(fingerprint())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", host)
	fmt.Printf("seed %d (held-out seed for re-checking claims: %d)\n", *seed, heldOutSeed)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", w.name, *seed, time.Since(start).Seconds())
	line, err := json.Marshal(buildResult(o, *trace == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
