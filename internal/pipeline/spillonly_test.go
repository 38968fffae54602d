package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
)

// renderHeadlines renders every aggregate-statistics artifact the engines
// must agree on, byte for byte: Table 1, the feature popularity and
// blocked-vs-unblocked headline tables, and the standard-level figures and
// tables. (Figure 5 and Figure 9 are per-site artifacts; they need the full
// log and are exercised by the log-backed analyses only.)
func renderHeadlines(a *analysis.Analysis, st *crawler.Stats, db *cve.Database, hist *firefoxhist.History) string {
	var buf bytes.Buffer
	report.Table1(&buf, st)
	for i, row := range a.TopFeatures(measure.CaseDefault, 15) {
		fmt.Fprintf(&buf, "%-8d %-44s %8d %8.1f%%\n", i+1, row.Name, row.Sites, 100*row.Fraction)
	}
	for _, row := range a.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 15) {
		fmt.Fprintf(&buf, "%-44s %8d %8d %6d %7.1f%%\n", row.Name, row.BaseSites, row.BlockedSites, row.Drop, 100*row.DropRate)
	}
	report.Headlines(&buf, a, db)
	report.Figure3(&buf, a)
	report.Figure4(&buf, a)
	report.Figure6(&buf, a.AgeSeries(hist))
	report.Figure7(&buf, a.AdVsTrackerRates())
	report.Table2(&buf, a.Table2(db))
	report.Table3(&buf, a.NewStandardsPerRound())
	report.Figure8(&buf, a.Complexity())
	return buf.String()
}

// logAnalysis rebuilds an analysis from a measurement log alone, the way
// cmd/report -log does: stats.FromLog scans the log into an aggregate,
// and the log stays attached for the per-site queries.
func logAnalysis(t testing.TB, log *measure.Log) *analysis.Analysis {
	t.Helper()
	agg, err := stats.FromLog(log, stats.StandardsOf(testWeb.Registry), sequentialConfig().Cases)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.NewWarm(log, agg, testWeb.Registry)
}

// TestSpillOnlyMatchesInMemory is the spill-only acceptance test: at every
// tested geometry, a spill-only run must render reports byte-identical to
// the sequential baseline's (analysis of the baseline log), whether the
// warm analysis is built from the live merged shard aggregates or from the
// spill files via stats.FromSpills — and the spill files must still
// reassemble into the byte-identical full log.
func TestSpillOnlyMatchesInMemory(t *testing.T) {
	setup(t)
	db := cve.Generate(1)
	hist := firefoxhist.New(testWeb.Registry)
	cold := renderHeadlines(logAnalysis(t, baseLog), baseStats, db, hist)

	geometries := []struct {
		name    string
		shards  int
		workers int
		batch   int
	}{
		{"1shard-1worker", 1, 1, 1},
		{"2shards-2workers", 2, 2, 4},
		{"4shards-2workers", 4, 2, 16},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			eng := New(testWeb, testBind, Config{
				Shards:          g.shards,
				WorkersPerShard: g.workers,
				BatchSize:       g.batch,
				SpillDir:        dir,
				SpillOnly:       true,
				Crawl:           sequentialConfig(),
			})
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Log != nil {
				t.Fatal("spill-only run returned an in-memory log")
			}
			if *res.Stats != *baseStats {
				t.Errorf("spill-only stats = %+v, want %+v", *res.Stats, *baseStats)
			}

			warm := renderHeadlines(analysis.FromStats(res.Agg, testWeb.Registry), res.Stats, db, hist)
			if warm != cold {
				t.Error("live spill-only aggregate renders different reports than the in-memory pipeline")
			}

			paths, err := filepath.Glob(filepath.Join(dir, "shard-*.spill"))
			if err != nil || len(paths) != g.shards {
				t.Fatalf("expected %d spill files, got %v (%v)", g.shards, paths, err)
			}
			merged, err := stats.FromSpills(stats.StandardsOf(testWeb.Registry), sequentialConfig().Cases, paths...)
			if err != nil {
				t.Fatal(err)
			}
			spillStats := SurveyStats(merged, sequentialConfig().PageSeconds)
			if *spillStats != *baseStats {
				t.Errorf("spill-merged stats = %+v, want %+v", *spillStats, *baseStats)
			}
			replayed := renderHeadlines(analysis.FromStats(merged, testWeb.Registry), spillStats, db, hist)
			if replayed != cold {
				t.Error("spill-merged aggregate renders different reports than the in-memory pipeline")
			}

			// The spill files still carry the complete log.
			logFromSpills, err := logstore.ReadSpillFiles(paths...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvBytes(t, logFromSpills), csvBytes(t, baseLog)) {
				t.Error("reassembled spill log differs from the sequential baseline")
			}
		})
	}
}

// TestSpillOnlyConcurrent exercises spill-only mode under the race
// detector: many shards and workers, tiny batches, few stripes, plus the
// post-run shard-aggregate merge.
func TestSpillOnlyConcurrent(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{
		Shards:          4,
		WorkersPerShard: 3,
		BatchSize:       1,
		Stripes:         2,
		SpillOnly:       true,
		Crawl:           sequentialConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *res.Stats != *baseStats {
		t.Errorf("concurrent spill-only stats = %+v, want %+v", *res.Stats, *baseStats)
	}
	cold := logAnalysis(t, baseLog)
	warm := analysis.FromStats(res.Agg, testWeb.Registry)
	if !reflect.DeepEqual(warm.FeatureSites(measure.CaseDefault), cold.FeatureSites(measure.CaseDefault)) {
		t.Error("concurrent spill-only feature-site counts diverge from the baseline")
	}
}

// TestWarmAnalysisMatchesCold is the warm-start acceptance test: an
// analysis built purely from the pipeline's live stats aggregate must
// return identical results to one rebuilt from the sequential baseline log
// (stats.FromLog), across every aggregate method — and an analysis holding
// both sources must agree on the per-site methods too. The aggregate itself
// is checked against direct scans of a log by
// stats.TestAggregateMatchesColdScan.
func TestWarmAnalysisMatchesCold(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{
		Shards:          2,
		WorkersPerShard: 2,
		Crawl:           sequentialConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Log == nil || res.Agg == nil {
		t.Fatal("keep-log run should return both a log and an aggregate")
	}

	reg := testWeb.Registry
	cold := logAnalysis(t, baseLog)
	warm := analysis.FromStats(res.Agg, reg)
	db := cve.Generate(1)
	hist := firefoxhist.New(reg)

	for _, cs := range measure.AllCases() {
		if !reflect.DeepEqual(warm.FeatureSites(cs), cold.FeatureSites(cs)) {
			t.Errorf("FeatureSites(%s) diverges warm vs cold", cs)
		}
		if !reflect.DeepEqual(warm.StandardSites(cs), cold.StandardSites(cs)) {
			t.Errorf("StandardSites(%s) diverges warm vs cold", cs)
		}
		if warm.Bands(cs) != cold.Bands(cs) {
			t.Errorf("Bands(%s) diverges warm vs cold", cs)
		}
		if !reflect.DeepEqual(warm.BlockRates(cs), cold.BlockRates(cs)) {
			t.Errorf("BlockRates(%s) diverges warm vs cold", cs)
		}
		if warm.UsedStandards(cs) != cold.UsedStandards(cs) {
			t.Errorf("UsedStandards(%s) diverges warm vs cold", cs)
		}
	}
	// BlockRates against a case the survey never ran: everything blocked,
	// both paths.
	if !reflect.DeepEqual(warm.BlockRates("never-ran"), cold.BlockRates("never-ran")) {
		t.Error("BlockRates(untracked) diverges warm vs cold")
	}

	coldComplexity := append([]int(nil), cold.Complexity()...)
	sort.Ints(coldComplexity)
	if !reflect.DeepEqual(warm.Complexity(), coldComplexity) {
		t.Error("Complexity multiset diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.StandardPopularityCDF(), cold.StandardPopularityCDF()) {
		t.Error("StandardPopularityCDF diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.NewStandardsPerRound(), cold.NewStandardsPerRound()) {
		t.Error("NewStandardsPerRound diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.Table2(db), cold.Table2(db)) {
		t.Error("Table2 diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.AgeSeries(hist), cold.AgeSeries(hist)) {
		t.Error("AgeSeries diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.AdVsTrackerRates(), cold.AdVsTrackerRates()) {
		t.Error("AdVsTrackerRates diverges warm vs cold")
	}
	if !reflect.DeepEqual(warm.TopFeatures(measure.CaseDefault, 0), cold.TopFeatures(measure.CaseDefault, 0)) {
		t.Error("TopFeatures diverges warm vs cold")
	}
	if !reflect.DeepEqual(
		warm.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 0),
		cold.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 0),
	) {
		t.Error("FeatureDeltas diverges warm vs cold")
	}

	// Per-site methods degrade to nil without a log...
	if warm.SiteStandards(measure.CaseDefault) != nil {
		t.Error("warm-only SiteStandards should be nil")
	}
	if warm.VisitWeightedPopularity(testWeb.Ranking) != nil {
		t.Error("warm-only VisitWeightedPopularity should be nil")
	}
	// ...and an analysis holding both sources matches cold on them.
	both := analysis.NewWarm(res.Log, res.Agg, reg)
	if !reflect.DeepEqual(both.VisitWeightedPopularity(testWeb.Ranking), cold.VisitWeightedPopularity(testWeb.Ranking)) {
		t.Error("VisitWeightedPopularity diverges warm-with-log vs cold")
	}
	if !reflect.DeepEqual(both.Complexity(), cold.Complexity()) {
		t.Error("Complexity diverges warm-with-log vs cold")
	}
}
