// Package crawler implements the paper's automated survey methodology
// (§4.3 of "Browser Feature Usage on the Modern Web", IMC 2016): for every
// site, repeated monkey-tested visits of a 13-page breadth-first sample of
// the site's hierarchy (1 home + 3 sections + 9 leaves), in a default
// browser profile and in profiles with content-blocking extensions
// installed, five rounds each, 30 virtual seconds of gremlins-style
// interaction per page. URL selection prefers unseen directory structure
// (§4.3.1), and the §7.3 closed-web mode authenticates members-area
// navigations.
//
// The package holds the per-visit mechanics only. Visitor (via
// Crawler.NewVisitors, one per case over one shared browser cache) builds
// the browser stack, monkey-tests pages and samples the site
// breadth-first; Visitor.CrawlOnce performs one visit.
// Scheduling belongs to internal/pipeline, which drives Visitors across
// shards and worker pools. Every visit draws its randomness from VisitSeed,
// so the log is the same at every engine geometry.
//
// Crawler.HumanVisit implements the paper's external-validation protocol
// (§6.2): 90 seconds of scripted casual browsing across three pages.
package crawler
