package stats

import (
	"path/filepath"
	"testing"

	"repro/internal/logstore"
	"repro/internal/measure"
)

// benchFeed streams one synthetic survey through an aggregate: every site
// visited for both cases and all rounds, ended after its last visit — the
// exact event sequence a pipeline worker produces.
func benchFeed(b *testing.B, agg *Aggregate) {
	b.Helper()
	features := measure.NewBitset(tNumFeatures)
	for _, id := range []int{3, 40, 77, 200} {
		features.Set(id)
	}
	for site := 0; site < tNumSites; site++ {
		for _, cs := range []measure.Case{measure.CaseDefault, measure.CaseBlocking} {
			for round := 0; round < tRounds; round++ {
				if err := agg.AddVisit(Visit{
					Case: cs, Round: round, Site: site,
					Features: features, Invocations: 13, Pages: 13,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := agg.EndSite(site); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateAddVisit measures the spill-only feed path: per-visit
// union folding plus the per-site retirement fold.
func BenchmarkAggregateAddVisit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agg, err := New(tConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchFeed(b, agg)
	}
	visits := float64(tNumSites * 2 * tRounds)
	b.ReportMetric(visits*float64(b.N)/b.Elapsed().Seconds(), "visits/s")
}

// BenchmarkFromSpills measures the post-run merger: streaming a spill file
// into a bounded aggregate.
func BenchmarkFromSpills(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.spill")
	w, err := logstore.CreateAtomic(path, tNumFeatures, make([]string, tNumSites))
	if err != nil {
		b.Fatal(err)
	}
	features := measure.NewBitset(tNumFeatures)
	for _, id := range []int{3, 40, 77, 200} {
		features.Set(id)
	}
	for site := 0; site < tNumSites; site++ {
		for _, cs := range []measure.Case{measure.CaseDefault, measure.CaseBlocking} {
			for round := 0; round < tRounds; round++ {
				if err := w.Append(logstore.Observation{
					Case: cs, Round: round, Site: site,
					Features: features, Invocations: 13, Pages: 13,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.EndSite(site); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	stdOf := tStandards()
	cases := tConfig().Cases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromSpills(stdOf, cases, path); err != nil {
			b.Fatal(err)
		}
	}
}
