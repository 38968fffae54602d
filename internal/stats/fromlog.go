package stats

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/standards"
)

// FromLog folds a full measurement log into a fresh spill-only Aggregate by
// replaying every recorded visit through the same AddVisit/AddFailure/
// EndSite path a live shard uses, then restoring the log's exact
// invocation/page totals (a log keeps per-case sums, not per-visit ones).
// The resulting aggregate answers every aggregate query identically to the
// live aggregate of the survey that wrote the log — it is how the query
// server and cmd/report -log (core.Study.ResultsFromLog) warm up from a
// saved log instead of spill files.
//
// stdOf is the per-feature standard mapping (see StandardsOf) and must
// match the log's corpus size. cases must cover every case the log holds; a
// superset is always safe.
func FromLog(log *measure.Log, stdOf []standards.Abbrev, cases []measure.Case) (*Aggregate, error) {
	if len(stdOf) != log.NumFeatures {
		return nil, fmt.Errorf("stats: %d standards mappings for a %d-feature log", len(stdOf), log.NumFeatures)
	}
	for c := range log.Cases {
		found := false
		for _, want := range cases {
			if c == want {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("stats: log case %q not in the aggregate's case set", c)
		}
	}
	agg, err := New(Config{
		NumFeatures: log.NumFeatures,
		NumSites:    len(log.Domains),
		Standards:   stdOf,
		Cases:       cases,
		Stripes:     1,
	})
	if err != nil {
		return nil, err
	}
	for site := range log.Domains {
		touched := false
		for _, c := range cases {
			cl := log.Cases[c]
			if cl == nil {
				continue
			}
			for round := range cl.Rounds {
				sf := cl.Rounds[round].SiteFeatures[site]
				if sf == nil {
					continue
				}
				touched = true
				err := agg.AddVisit(Visit{
					Case:     c,
					Round:    round,
					Site:     site,
					Features: sf.Clone(),
				})
				if err != nil {
					return nil, err
				}
			}
		}
		if touched && !log.Measured[site] {
			// Observations but not measured: one of the site's visits
			// failed, exactly what AddFailure records.
			if err := agg.AddFailure(site); err != nil {
				return nil, err
			}
		}
		if touched {
			if err := agg.EndSite(site); err != nil {
				return nil, err
			}
		}
	}
	// Replayed visits carried no invocation/page counts (the log only has
	// per-case totals); restore those sums directly.
	st := &agg.stripes[0]
	st.mu.Lock()
	for ci, c := range agg.cfg.Cases {
		if cl := log.Cases[c]; cl != nil {
			st.invocations[ci] = cl.Invocations
			st.pages[ci] = cl.PagesVisited
		}
	}
	st.mu.Unlock()
	return agg, nil
}
