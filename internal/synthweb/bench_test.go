package synthweb

import (
	"testing"

	"repro/internal/webidl"
)

func testRegistry(tb testing.TB) *webidl.Registry {
	tb.Helper()
	if testReg == nil {
		reg, err := webidl.Generate(1)
		if err != nil {
			tb.Fatal(err)
		}
		testReg = reg
	}
	return testReg
}

func BenchmarkGenerate1k(b *testing.B) {
	reg := testRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(reg, Config{Sites: 1000, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileCalibration(b *testing.B) {
	reg := testRegistry(b)
	sites := make([]int, 1000)
	for i := range sites {
		sites[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewProfile(reg, sites, 1000, int64(i)+1)
	}
}

func BenchmarkResourcePage(b *testing.B) {
	w := testWebOnce(b)
	var site *Site
	for _, s := range w.Sites {
		if s.Failure == FailNone {
			site = s
			break
		}
	}
	url := "http://" + site.Domain + "/"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Resource(url); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBuild(b *testing.B) {
	w := testWebOnce(b)
	var site *Site
	for _, s := range w.Sites {
		if s.Failure == FailNone {
			site = s
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.dropPlan(site.Index)
		w.planOf(site)
	}
}
