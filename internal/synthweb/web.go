package synthweb

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"sync"

	"repro/internal/alexa"
	"repro/internal/standards"
	"repro/internal/webidl"
)

// Config parameterizes web generation.
type Config struct {
	// Sites is the number of ranked sites to generate (10,000 at paper
	// scale).
	Sites int
	// Seed drives all randomness; identical configs yield identical
	// webs.
	Seed int64
	// FailureRate is the fraction of domains that cannot be measured
	// (unresponsive or carrying script syntax errors). The paper lost
	// 267 of 10,000 domains (§4.3.3).
	FailureRate float64
}

// DefaultFailureRate matches the paper's 267/10,000.
const DefaultFailureRate = 0.0267

// FailureMode says why a site cannot be measured.
type FailureMode int

const (
	// FailNone marks measurable sites.
	FailNone FailureMode = iota
	// FailUnresponsive marks domains that never answer.
	FailUnresponsive
	// FailScriptError marks domains whose JavaScript carries syntax
	// errors that prevent execution (paper §4.3.3).
	FailScriptError
)

// Site is one generated website.
type Site struct {
	// Index is the dense site index (rank - 1).
	Index int
	// Rank is the Alexa rank.
	Rank int
	// Domain is the registrable domain.
	Domain string
	// Failure is the site's failure mode, if any.
	Failure FailureMode
}

// Third-party pool sizes.
const (
	adDomainCount      = 30
	trackerDomainCount = 30
	dualDomainCount    = 10
)

// Web is a fully generated synthetic web.
type Web struct {
	Cfg      Config
	Ranking  *alexa.Ranking
	Registry *webidl.Registry
	Profile  *Profile
	Sites    []*Site

	// AdDomains, TrackerDomains and DualDomains are the third-party
	// service domains; dual domains appear in both blocking lists.
	AdDomains      []string
	TrackerDomains []string
	DualDomains    []string

	// FilterListText is the synthetic EasyList consumed by the ABP
	// engine; TrackerLibText is the synthetic Ghostery library.
	FilterListText string
	TrackerLibText string

	assign   [][]Assignment
	byDomain map[string]*Site

	// plans holds the planCacheSize most recently used site plans, the
	// most recent last.
	planMu sync.Mutex
	plans  []*sitePlan
}

// planCacheSize bounds the plans a Web keeps. A pipeline worker runs every
// case and round of one site back to back, so a Web serves at most
// Shards × WorkersPerShard sites at once: 32 at 8×4, the largest geometry
// in use. A plan is a pure function of seed and site, so a miss costs time
// and never changes bytes.
const planCacheSize = 64

// Generate builds the synthetic web for a config.
func Generate(reg *webidl.Registry, cfg Config) (*Web, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("synthweb: non-positive site count %d", cfg.Sites)
	}
	if cfg.FailureRate == 0 {
		cfg.FailureRate = DefaultFailureRate
	}
	if cfg.FailureRate < 0 || cfg.FailureRate >= 1 {
		return nil, fmt.Errorf("synthweb: failure rate %v outside [0,1)", cfg.FailureRate)
	}

	w := &Web{
		Cfg:      cfg,
		Ranking:  alexa.Generate(cfg.Sites, cfg.Seed),
		Registry: reg,
		byDomain: make(map[string]*Site, cfg.Sites),
	}

	for i := 0; i < adDomainCount; i++ {
		w.AdDomains = append(w.AdDomains, fmt.Sprintf("adnet-%02d.example", i))
	}
	for i := 0; i < trackerDomainCount; i++ {
		w.TrackerDomains = append(w.TrackerDomains, fmt.Sprintf("trk-%02d.example", i))
	}
	for i := 0; i < dualDomainCount; i++ {
		w.DualDomains = append(w.DualDomains, fmt.Sprintf("adtrk-%02d.example", i))
	}

	// Sites and failures.
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	w.Sites = make([]*Site, cfg.Sites)
	for i := range w.Sites {
		w.Sites[i] = &Site{Index: i, Rank: i + 1, Domain: w.Ranking.Sites[i].Domain}
		w.byDomain[w.Sites[i].Domain] = w.Sites[i]
	}
	failCount := int(math.Round(cfg.FailureRate * float64(cfg.Sites)))
	failPerm := rng.Perm(cfg.Sites)
	for i := 0; i < failCount && i < len(failPerm); i++ {
		s := w.Sites[failPerm[i]]
		if i%2 == 0 {
			s.Failure = FailUnresponsive
		} else {
			s.Failure = FailScriptError
		}
	}

	// Profile over the measurable sites.
	var measurable []int
	for _, s := range w.Sites {
		if s.Failure == FailNone {
			measurable = append(measurable, s.Index)
		}
	}
	w.Profile = NewProfile(reg, measurable, cfg.Sites, cfg.Seed+202)
	w.assign = w.Profile.Assignments(cfg.Sites)

	w.FilterListText = w.buildFilterList()
	w.TrackerLibText = w.buildTrackerLib()
	return w, nil
}

// buildFilterList emits the synthetic EasyList: domain rules for every ad
// and dual domain, a few path rules, and element-hiding rules.
func (w *Web) buildFilterList() string {
	var b strings.Builder
	b.WriteString("[Adblock Plus 2.0]\n")
	b.WriteString("! Synthetic EasyList for the generated web\n")
	for _, d := range w.AdDomains {
		fmt.Fprintf(&b, "||%s^$third-party\n", d)
	}
	for _, d := range w.DualDomains {
		fmt.Fprintf(&b, "||%s^$third-party\n", d)
	}
	b.WriteString("/ads/banner*\n")
	b.WriteString("/adserve/^$script\n")
	b.WriteString("##.ad-banner\n")
	b.WriteString("##.sponsored\n")
	return b.String()
}

// buildTrackerLib emits the synthetic Ghostery library covering tracker and
// dual domains.
func (w *Web) buildTrackerLib() string {
	cats := []TrackerCategoryName{"site-analytics", "beacon", "fingerprinting", "advertising"}
	var b strings.Builder
	b.WriteString("# Synthetic tracker library\n")
	for i, d := range w.TrackerDomains {
		fmt.Fprintf(&b, "Tracker%02d|%s|%s\n", i, cats[i%len(cats)], d)
	}
	for i, d := range w.DualDomains {
		fmt.Fprintf(&b, "AdTracker%02d|advertising|%s\n", i, d)
	}
	return b.String()
}

// TrackerCategoryName mirrors blocking.TrackerCategory without importing the
// package (the web only emits text).
type TrackerCategoryName string

// SiteByDomain resolves a registrable domain (or www/cdn subdomain) to its
// site.
func (w *Web) SiteByDomain(domain string) (*Site, bool) {
	domain = strings.ToLower(domain)
	if s, ok := w.byDomain[domain]; ok {
		return s, true
	}
	if i := strings.IndexByte(domain, '.'); i >= 0 {
		if s, ok := w.byDomain[domain[i+1:]]; ok {
			return s, true
		}
	}
	return nil, false
}

// AssignmentsOf returns the (feature, party) obligations of a site.
func (w *Web) AssignmentsOf(site *Site) []Assignment { return w.assign[site.Index] }

// GroundTruthSites returns how many measurable sites the profile assigns to
// a standard (for validation against measurements; the analysis pipeline
// does not use it).
func (w *Web) GroundTruthSites(a standards.Abbrev) int {
	return len(w.Profile.SitesUsing(a))
}

// GroundTruthFeatureSites returns the profile's target site count for a
// feature.
func (w *Web) GroundTruthFeatureSites(f *webidl.Feature) int {
	return w.Profile.FeatureSites[f.ID]
}

// Resource is one servable resource.
type Resource struct {
	// ContentType is "text/html" or "application/javascript".
	ContentType string
	// Body is the resource content.
	Body string
}

// ErrNotFound reports a URL no generated resource answers.
type ErrNotFound struct{ URL string }

func (e *ErrNotFound) Error() string { return "synthweb: no resource at " + e.URL }

// ErrUnresponsive reports a domain that never answers (failure injection).
type ErrUnresponsive struct{ Domain string }

func (e *ErrUnresponsive) Error() string { return "synthweb: connection timeout to " + e.Domain }

// Resource resolves a URL to its generated content. Page HTML and scripts
// are materialized lazily and deterministically: the same URL always yields
// the same bytes for a given web.
func (w *Web) Resource(rawURL string) (Resource, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Resource{}, fmt.Errorf("synthweb: bad url %q: %w", rawURL, err)
	}
	host := strings.ToLower(u.Hostname())
	path := u.Path
	if path == "" {
		path = "/"
	}

	// Third-party script hosts.
	if party, ok := w.partyOfHost(host); ok {
		return w.thirdPartyResource(host, party, path)
	}

	site, ok := w.SiteByDomain(host)
	if !ok {
		return Resource{}, &ErrNotFound{URL: rawURL}
	}
	if site.Failure == FailUnresponsive {
		return Resource{}, &ErrUnresponsive{Domain: site.Domain}
	}
	if strings.HasPrefix(path, "/account") {
		return w.closedResource(site, path, u.RawQuery)
	}
	plan := w.planOf(site)

	if strings.HasPrefix(path, "/static/") {
		key := strings.TrimSuffix(strings.TrimPrefix(path, "/static/"), ".js")
		page, ok := plan.pages[key]
		if !ok {
			return Resource{}, &ErrNotFound{URL: rawURL}
		}
		body := page.firstPartySource
		if site.Failure == FailScriptError && page.key == "home" {
			body = corruptScript(body)
		}
		return Resource{ContentType: "application/javascript", Body: body}, nil
	}

	page, ok := plan.byPath[path]
	if !ok {
		return Resource{}, &ErrNotFound{URL: rawURL}
	}
	return Resource{ContentType: "text/html", Body: page.html}, nil
}

// partyOfHost classifies third-party hosts.
func (w *Web) partyOfHost(host string) (Party, bool) {
	switch {
	case strings.HasPrefix(host, "adnet-") && strings.HasSuffix(host, ".example"):
		return PartyAd, true
	case strings.HasPrefix(host, "trk-") && strings.HasSuffix(host, ".example"):
		return PartyTracker, true
	case strings.HasPrefix(host, "adtrk-") && strings.HasSuffix(host, ".example"):
		return PartyDual, true
	}
	return PartyFirst, false
}

// thirdPartyResource serves "/tags/<siteDomain>/<pageKey>.js".
func (w *Web) thirdPartyResource(host string, party Party, path string) (Resource, error) {
	parts := strings.Split(strings.TrimPrefix(path, "/tags/"), "/")
	if len(parts) != 2 || !strings.HasSuffix(parts[1], ".js") {
		return Resource{}, &ErrNotFound{URL: "http://" + host + path}
	}
	site, ok := w.SiteByDomain(parts[0])
	if !ok {
		return Resource{}, &ErrNotFound{URL: "http://" + host + path}
	}
	key := strings.TrimSuffix(parts[1], ".js")
	plan := w.planOf(site)
	page, ok := plan.pages[key]
	if !ok {
		return Resource{}, &ErrNotFound{URL: "http://" + host + path}
	}
	src, ok := page.thirdPartySource[party]
	if !ok {
		return Resource{}, &ErrNotFound{URL: "http://" + host + path}
	}
	return Resource{ContentType: "application/javascript", Body: src}, nil
}

// corruptScript introduces the syntax error that makes FailScriptError
// domains unmeasurable.
func corruptScript(src string) string {
	return "invoke Document.createElement 1 % syntax error\n" + src
}

// planOf returns the site's materialization plan, building and caching it on
// first use. The cache keeps the sites in flight (see planCacheSize) and
// drops the least recently used plan.
func (w *Web) planOf(site *Site) *sitePlan {
	w.planMu.Lock()
	defer w.planMu.Unlock()
	for i := len(w.plans) - 1; i >= 0; i-- {
		if p := w.plans[i]; p.site == site.Index {
			copy(w.plans[i:], w.plans[i+1:])
			w.plans[len(w.plans)-1] = p
			return p
		}
	}
	if len(w.plans) == planCacheSize {
		w.plans = append(w.plans[:0], w.plans[1:]...)
	}
	p := w.buildPlan(site)
	w.plans = append(w.plans, p)
	return p
}
