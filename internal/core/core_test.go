package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/measure"
)

func smallStudy(t testing.TB, cfg Config) (*Study, *Results) {
	t.Helper()
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { study.Close() })
	results, err := study.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	return study, results
}

func TestEndToEndReport(t *testing.T) {
	study, results := smallStudy(t, Config{Sites: 100, Seed: 21, HumanSample: 20})
	var buf bytes.Buffer
	if err := study.WriteReport(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1:", "Table 1:", "Figure 3:", "Figure 4:", "Figure 5:",
		"Figure 6:", "Figure 7:", "Table 2:", "Table 3:", "Figure 8:",
		"Figure 9:", "Headline results",
		"Domains measured", "Feature invocations recorded",
		"never used (default)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The paper-shaped anchors must appear.
	if !strings.Contains(out, "AJAX") || !strings.Contains(out, "DOM1") {
		t.Error("report missing standard abbreviations")
	}
}

// TestArtifactsComposeReport: the artifact table is the report. Every
// artifact rendered alone, joined by the report's blank-line separators,
// reproduces WriteReport byte for byte, and the non-per-site ones
// reproduce WriteAggregateReport.
func TestArtifactsComposeReport(t *testing.T) {
	study, results := smallStudy(t, Config{Sites: 40, Seed: 23, HumanSample: 10})
	var full, agg bytes.Buffer
	if err := study.WriteReport(&full, results); err != nil {
		t.Fatal(err)
	}
	if err := study.WriteAggregateReport(&agg, results); err != nil {
		t.Fatal(err)
	}
	var all, aggOnly [][]byte
	for _, a := range Artifacts() {
		var buf bytes.Buffer
		if err := study.WriteArtifact(&buf, a.Name, results); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		all = append(all, buf.Bytes())
		if !a.PerSite {
			aggOnly = append(aggOnly, buf.Bytes())
		}
	}
	if len(all) != 12 || len(aggOnly) != 10 {
		t.Fatalf("%d artifacts, %d aggregate; want 12 and 10", len(all), len(aggOnly))
	}
	if got := bytes.Join(all, []byte("\n")); !bytes.Equal(got, full.Bytes()) {
		t.Error("artifacts rendered one by one diverge from WriteReport")
	}
	if got := bytes.Join(aggOnly, []byte("\n")); !bytes.Equal(got, agg.Bytes()) {
		t.Error("aggregate artifacts rendered one by one diverge from WriteAggregateReport")
	}

	if err := study.WriteArtifact(io.Discard, "figure2", results); err == nil {
		t.Error("unknown artifact rendered")
	}
	noLog := *results
	noLog.Log = nil
	if err := study.WriteArtifact(io.Discard, "figure5", &noLog); err == nil {
		t.Error("per-site artifact rendered without the full log")
	}
}

func TestExternalValidationMostlyZero(t *testing.T) {
	study, results := smallStudy(t, Config{Sites: 100, Seed: 22, HumanSample: 40})
	deltas, err := study.RunExternalValidation(results)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, d := range deltas {
		if d == 0 {
			zero++
		}
	}
	// Paper §6.2: in 83.7% of cases the human found nothing new.
	share := float64(zero) / float64(len(deltas))
	if share < 0.6 {
		t.Errorf("zero-delta share %.2f, paper 0.837", share)
	}
}

func TestHTTPModeMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP crawl is slow")
	}
	direct, dres := smallStudy(t, Config{
		Sites: 25, Seed: 33, Rounds: 2,
		Cases: []measure.Case{measure.CaseDefault}, Parallelism: 2,
	})
	httpStudy, hres := smallStudy(t, Config{
		Sites: 25, Seed: 33, Rounds: 2,
		Cases: []measure.Case{measure.CaseDefault}, Parallelism: 2,
		UseHTTP: true,
	})
	_ = direct
	_ = httpStudy
	// The HTTP hop must be observationally transparent.
	for site := range dres.Log.Domains {
		a := dres.Log.SiteUnion(measure.CaseDefault, site)
		b := hres.Log.SiteUnion(measure.CaseDefault, site)
		if (a == nil) != (b == nil) {
			t.Fatalf("site %d measured differently over HTTP", site)
		}
		if a != nil && a.Count() != b.Count() {
			t.Fatalf("site %d features differ over HTTP: %d vs %d", site, a.Count(), b.Count())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStudy(Config{}); err == nil {
		t.Fatal("zero-site config accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	study, err := NewStudy(Config{Sites: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if study.Cfg.Rounds != 5 || study.Cfg.Parallelism != 4 || study.Cfg.HumanSample != 92 {
		t.Errorf("defaults not applied: %+v", study.Cfg)
	}
	if len(study.Cfg.Cases) != 4 {
		t.Errorf("default cases = %v", study.Cfg.Cases)
	}
	if study.Ranking() == nil || len(study.StandardsCatalog()) != 75 {
		t.Error("accessors broken")
	}
}
