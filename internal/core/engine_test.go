package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/measure"
)

// TestSpillAndCacheAtEveryGeometry checks that SpillDir and CacheDir take
// effect whatever the shard count, including the zero value: the spill
// files must rebuild the live survey's report, and a second run over the
// same cache must be served from it.
func TestSpillAndCacheAtEveryGeometry(t *testing.T) {
	base := Config{
		Sites: 30, Seed: 9, Rounds: 2,
		Cases: []measure.Case{measure.CaseDefault, measure.CaseBlocking},
	}
	aggReport := func(t *testing.T, s *Study, r *Results) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.WriteAggregateReport(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, shards := range []int{0, 2} {
		for _, tc := range []struct {
			name  string
			check func(t *testing.T, cfg Config)
		}{
			{"spill", func(t *testing.T, cfg Config) {
				cfg.SpillDir = t.TempDir()
				study, results := smallStudy(t, cfg)
				paths, err := SpillGlob(filepath.Join(cfg.SpillDir, "*.spill"))
				if err != nil {
					t.Fatal(err)
				}
				fromSpills, err := study.ResultsFromSpills(paths...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(aggReport(t, study, fromSpills), aggReport(t, study, results)) {
					t.Error("report rebuilt from the spill files differs from the live survey's")
				}
			}},
			{"cache", func(t *testing.T, cfg Config) {
				cfg.CacheDir = t.TempDir()
				study, first := smallStudy(t, cfg)
				if hits := study.Cache.Stats().Hits; hits != 0 {
					t.Fatalf("first run over an empty cache reported %d hits", hits)
				}
				second, err := study.RunSurvey()
				if err != nil {
					t.Fatal(err)
				}
				if hits := study.Cache.Stats().Hits; hits == 0 {
					t.Error("second run over the same cache reported no hits")
				}
				if !bytes.Equal(aggReport(t, study, second), aggReport(t, study, first)) {
					t.Error("cached run's report differs from the first run's")
				}
			}},
		} {
			cfg := base
			cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) { tc.check(t, cfg) })
		}
	}
}
