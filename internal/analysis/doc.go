// Package analysis derives the paper's results (§5, §6 of "Browser Feature
// Usage on the Modern Web", IMC 2016) from survey measurements: popularity
// distributions (§5.1), block rates under the blocking profiles (§5.4,
// Figure 4), site complexity (Figure 8), age/popularity relations (§5.2,
// Figure 6), CVE association (Table 2), and the internal/external
// validation statistics (§6).
//
// Every aggregate statistic is read from a warm stats.Source: the mergeable
// stats.Aggregate the pipeline maintained while the survey ran, one that
// stats.FromSpills folded from spill files or stats.FromLog from a saved
// log, or an epoch snapshot of one — never from a rescan of the log.
// FromStats(src, reg) builds an analysis from that source alone; the
// per-site methods (SiteStandards, VisitWeightedPopularity, HumanDelta),
// which need the full measure.Log, then return nil. NewWarm(log, src, reg)
// attaches the log for them. stats.TestAggregateMatchesColdScan checks
// every aggregate the source maintains against a scan of the log.
//
// Analysis consumes only measured data — never the synthetic web's
// calibration profile — so the same code analyzes a live survey, a CSV
// written by an earlier run, or the merged spill stream of a spill-only
// survey.
// TopFeatures and FeatureDeltas render the headline tables the
// cmd/pipeline binary prints: per-feature popularity and the per-feature
// usage drops caused by content blocking.
package analysis
