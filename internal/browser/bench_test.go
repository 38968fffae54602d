package browser

import (
	"testing"

	"repro/internal/blocking"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

// benchMeasurer replicates the measuring extension's instrumentation
// (extension.Measurer lives downstream of this package and cannot be
// imported from its tests): patch every method, watch every singleton
// property, and skip re-instrumenting a recycled runtime.
type benchMeasurer struct {
	counts map[int]int64
}

func (m *benchMeasurer) Name() string                          { return "bench-measurer" }
func (m *benchMeasurer) OnBeforeRequest(blocking.Request) bool { return false }

func (m *benchMeasurer) OnDOMReady(p *Page) {
	rt := p.Runtime
	if rt.InstrumentedBy(m) {
		return
	}
	rt.PatchAllMethods(func(f *webidl.Feature, original webapi.MethodFunc) webapi.MethodFunc {
		return func(ctx *webapi.CallContext) {
			m.counts[ctx.Feature.ID] += int64(ctx.Count)
			original(ctx)
		}
	})
	rt.WatchAllSingletons(func(f *webidl.Feature, count int) {
		m.counts[f.ID] += int64(count)
	})
	rt.MarkInstrumented(m)
}

// BenchmarkLoadRepeatVisit measures the survey's dominant operation: loading
// a URL the browser has already visited, with measuring instrumentation
// installed — the shape of every visit after the first in an 11-case ×
// 10-round methodology. It exercises the template cache, arena cloning, and
// page/runtime recycling.
func BenchmarkLoadRepeatVisit(b *testing.B) {
	e := env(b)
	url := "http://" + e.site.Domain + "/"
	br := e.browser(&benchMeasurer{counts: make(map[int]int64)})
	// Warm the caches: the steady state under measurement is the repeat
	// visit, not the first.
	p, err := br.Load(url)
	if err != nil {
		b.Fatal(err)
	}
	br.Release(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := br.Load(url)
		if err != nil {
			b.Fatal(err)
		}
		p.AdvanceClock(30)
		br.Release(p)
	}
}

// BenchmarkScriptDispatch isolates the script-execution cost of a warm
// repeat visit plus an event storm, dispatched through interned op lists.
// The interpreter comparison lives at the webscript layer
// (webscript.BenchmarkExecute).
func BenchmarkScriptDispatch(b *testing.B) {
	e := env(b)
	url := "http://" + e.site.Domain + "/"
	br := e.browser(&benchMeasurer{counts: make(map[int]int64)})
	p, err := br.Load(url)
	if err != nil {
		b.Fatal(err)
	}
	br.Release(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := br.Load(url)
		if err != nil {
			b.Fatal(err)
		}
		p.Scroll()
		p.MouseMove()
		p.AdvanceClock(60)
		br.Release(p)
	}
}
