package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/logstore"
)

// Golden digests of one small fixed study. They were computed once and are
// independent of the code under test, so every refactor of the survey
// engines or the analysis layer must reproduce them byte for byte.
const (
	// goldenLog is the SHA-256 of the study's CSV measurement log.
	goldenLog = "9cc86b9e604d791ec5c218d3ddcb39f0c881035cbde97af0fd61a4e2ebc0484c"
	// goldenReport is the SHA-256 of WriteReport's output, whether the
	// results come from a live survey or from the CSV log read back.
	goldenReport = "45333775b177d6286ba878a5387b4a844d67ac078745006925103f864bb50ba5"
	// goldenAggReport is the SHA-256 of WriteAggregateReport's output for
	// a spill-only survey.
	goldenAggReport = "501e1e382ac1d6429d21ed61652214d13a0ecfce45a04d6de7b0cabe52d2b1c5"
)

// goldenConfig is the fixed study: every case, two rounds, a short human
// validation sample.
func goldenConfig() Config {
	return Config{Sites: 40, Seed: 5, Rounds: 2, HumanSample: 12}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests pins the log and report bytes at every engine geometry
// and on the report-from-log path.
func TestGoldenDigests(t *testing.T) {
	for _, g := range []struct {
		name            string
		shards, workers int
		spillOnly       bool
	}{
		{name: "shards0"},
		{name: "1x1", shards: 1, workers: 1},
		{name: "4x2", shards: 4, workers: 2},
		{name: "spill-only", shards: 2, workers: 2, spillOnly: true},
	} {
		t.Run(g.name, func(t *testing.T) {
			cfg := goldenConfig()
			cfg.Shards, cfg.ShardWorkers, cfg.SpillOnly = g.shards, g.workers, g.spillOnly
			study, results := smallStudy(t, cfg)

			var rep bytes.Buffer
			if g.spillOnly {
				if err := study.WriteAggregateReport(&rep, results); err != nil {
					t.Fatal(err)
				}
				if got := digest(rep.Bytes()); got != goldenAggReport {
					t.Errorf("aggregate report digest %s, want %s", got, goldenAggReport)
				}
				return
			}
			if err := study.WriteReport(&rep, results); err != nil {
				t.Fatal(err)
			}
			if got := digest(rep.Bytes()); got != goldenReport {
				t.Errorf("report digest %s, want %s", got, goldenReport)
			}

			var csv bytes.Buffer
			if err := study.WriteLog(&csv, results.Log); err != nil {
				t.Fatal(err)
			}
			if got := digest(csv.Bytes()); got != goldenLog {
				t.Errorf("log digest %s, want %s", got, goldenLog)
			}

			log, err := logstore.Read(bytes.NewReader(csv.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var fromLog bytes.Buffer
			if err := study.WriteReport(&fromLog, resultsFromLog(t, study, log)); err != nil {
				t.Fatal(err)
			}
			if got := digest(fromLog.Bytes()); got != goldenReport {
				t.Errorf("report-from-log digest %s, want %s", got, goldenReport)
			}
		})
	}
}
