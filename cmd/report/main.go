// Command report regenerates the paper's tables and figures. It either
// re-runs the survey (default) or reads measurements produced by cmd/crawl
// or cmd/pipeline, then renders the requested artifact (or everything). The
// log's format — CSV, binary, even a spill file — is auto-detected from its
// magic bytes; pointing -log at anything else reports "unknown log format"
// with the bytes found.
//
// -spills takes a glob of per-shard spill files from a spill-only run and
// merges them through the streaming stats layer: the full log is never
// materialized, so memory stays bounded regardless of survey size, and
// every aggregate artifact matches the live run byte for byte. The two
// per-site artifacts (figure5, figure9) need the full log; render them from
// -log (a single spill file works there too, via the auto-detecting
// reader).
//
// Usage:
//
//	report -sites 1000 -seed 42                      # run survey, render all
//	report -sites 1000 -seed 42 -only table2         # one artifact
//	report -sites 1000 -seed 42 -log survey.log      # reuse a saved log
//	report -sites 1000 -seed 42 -spills 'sp/*.spill' # warm-start from spills
//	report -sites 1000 -seed 42 -cache dir           # re-run, skipping cached visits
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/logstore"
)

func main() {
	var names, perSite []string
	for _, a := range core.Artifacts() {
		names = append(names, a.Name)
		if a.PerSite {
			perSite = append(perSite, a.Name)
		}
	}
	var (
		sites       = flag.Int("sites", 1000, "ranking size (must match the log if -log is given)")
		seed        = flag.Int64("seed", 42, "deterministic seed (must match the log if -log is given)")
		parallelism = flag.Int("parallelism", 8, "concurrent site workers when re-running the survey")
		shards      = flag.Int("shards", 4, "site partitions when re-running the survey (values below 1 mean 1)")
		logPath     = flag.String("log", "", "read measurements from this log file (format auto-detected) instead of crawling")
		spillsGlob  = flag.String("spills", "", "merge spill files matching this glob through the streaming stats layer instead of crawling (bounded memory; per-site artifacts unavailable)")
		cacheDir    = flag.String("cache", "", "visit cache directory for survey re-runs")
		cacheLimit  = flag.Int64("cache-limit", 0, "visit cache size cap in bytes; least-recently-used entries are pruned (0 = unbounded)")
		only        = flag.String("only", "", "render one artifact: "+strings.Join(names, "|"))
	)
	flag.Parse()

	if *logPath != "" && *spillsGlob != "" {
		fatal(fmt.Errorf("report: -log and -spills are mutually exclusive"))
	}

	study, err := core.NewStudy(core.Config{
		Sites:         *sites,
		Seed:          *seed,
		Parallelism:   *parallelism,
		Shards:        *shards,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheLimit,
	})
	if err != nil {
		fatal(err)
	}
	defer study.Close()

	var results *core.Results
	switch {
	case *logPath != "":
		log, err := logstore.ReadFile(*logPath)
		if err != nil {
			fatal(err)
		}
		if results, err = study.ResultsFromLog(log); err != nil {
			fatal(err)
		}
	case *spillsGlob != "":
		paths, err := core.SpillGlob(*spillsGlob)
		if err != nil {
			fatal(err)
		}
		results, err = study.ResultsFromSpills(paths...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "warm-started from %d spill files (no log materialized)\n", len(paths))
	default:
		results, err = study.RunSurvey()
		if err != nil {
			fatal(err)
		}
		if study.Cache != nil {
			st := study.Cache.Stats()
			fmt.Fprintf(os.Stderr, "visit cache: %d hits, %d misses, %d stored\n", st.Hits, st.Misses, st.Puts)
		}
	}

	switch {
	case *only != "":
		if results.Log == nil && slices.Contains(perSite, *only) {
			fatal(fmt.Errorf("report: %s is a per-site artifact; it needs -log (or a re-run), not -spills", *only))
		}
		err = study.WriteArtifact(os.Stdout, *only, results)
	case results.Log == nil:
		fmt.Fprintf(os.Stderr, "per-site artifacts (%s) need the full log; rendering the aggregate report\n", strings.Join(perSite, ", "))
		err = study.WriteAggregateReport(os.Stdout, results)
	default:
		err = study.WriteReport(os.Stdout, results)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
