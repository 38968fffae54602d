// Package blocking implements the content-blocking extensions of the
// paper's §3.6 ("Browser Feature Usage on the Modern Web", IMC 2016): an
// AdBlock Plus-style filter-list engine (crowd-sourced URL rules plus
// element-hiding rules) and a Ghostery-style tracker database (curated
// cross-domain tracking domains). The crawler installs these as browser
// extensions for the paper's blocking measurement configurations, and §5.4
// measures how site behavior differs under them.
//
// Profile names the user-facing blocking setups (none, adblock, ghostery,
// blocking, all) and expands each to the measure.Case set a survey run must
// crawl so blocked-vs-unblocked deltas are computable from one pass; the
// cmd/pipeline binary selects cases this way. Engine and TrackerDB are
// immutable once parsed and safe to share across concurrent browser
// workers, which is how the sharded pipeline amortizes one parse over every
// worker in every shard.
//
// Engine.ShouldBlock answers through a tokenized rule index built once at
// construction instead of scanning every rule of every list: rules whose
// "||" anchor opens with a well-formed host run bucket by that run's last
// two labels, rules with a bounded literal token (a [a-z0-9] run pinned on
// both sides by literal pattern text) bucket by their longest such token,
// and the small unbucketable remainder scans linearly. Query keys derive
// from the request's raw URL — authority label pairs and alphanumeric runs
// — never from net/url's parse, because "||" anchoring can legitimately
// land inside userinfo that a structured parse would strip. Exception
// buckets are consulted before block buckets, mirroring ABP's
// scan-order-independent semantics. The all-lists × all-rules linear scan
// the index replaced is a test-only reference (linear_test.go); index and
// scan agree on every request of a synthetic web's pages and on fuzzed
// lists and requests.
package blocking
