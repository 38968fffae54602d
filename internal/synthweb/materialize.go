package synthweb

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/html"
	"repro/internal/standards"
	"repro/internal/webidl"
	"repro/internal/webscript"
)

// Gating parameters: a slice of (site, standard) pairs hides all its
// invocations behind interactions or rarely-visited leaf pages, which is
// what gives the paper's Table 3 (new standards per crawl round) and
// Figure 9 (human vs monkey) their non-trivial dynamics.
const (
	gatedShare        = 0.45 // fraction of eligible (site, standard) pairs that are gated
	gatedMinSites     = 10   // standards on fewer target sites are never gated
	humanOnlyShare    = 0.006
	humanOnlyMinSites = 100
)

// sitePlan is the materialized form of one site: page tree, HTML, and the
// per-party scripts every page serves.
type sitePlan struct {
	pages  map[string]*pagePlan // page key → plan
	byPath map[string]*pagePlan // URL path → plan
	// adHost/trackerHost/dualHost are the site's chosen third-party
	// service domains.
	partyHost map[Party]string
	site      int // the site's index
}

// pagePlan is one page of a site.
type pagePlan struct {
	key  string
	path string
	html string
	// firstPartySource is the page's "/static/<key>.js" WebScript.
	firstPartySource string
	// thirdPartySource maps ad/tracker/dual parties to the script their
	// domain serves for this page.
	thirdPartySource map[Party]string
}

// pageKeys lists the fixed site layout: a home page, three sections, and
// five leaves per section. The crawler's 13-page BFS visits home + 3
// sections + 9 of the 15 leaves. Callers only read it and pagePaths.
var pageKeys = []string{
	"home", "sec1", "sec2", "sec3",
	"sec1p1", "sec1p2", "sec1p3", "sec1p4", "sec1p5",
	"sec2p1", "sec2p2", "sec2p3", "sec2p4", "sec2p5",
	"sec3p1", "sec3p2", "sec3p3", "sec3p4", "sec3p5",
}

// pagePaths holds the URL path of each of pageKeys, index for index.
var pagePaths = []string{
	"/", "/sec1", "/sec2", "/sec3",
	"/sec1/p1", "/sec1/p2", "/sec1/p3", "/sec1/p4", "/sec1/p5",
	"/sec2/p1", "/sec2/p2", "/sec2/p3", "/sec2/p4", "/sec2/p5",
	"/sec3/p1", "/sec3/p2", "/sec3/p3", "/sec3/p4", "/sec3/p5",
}

// leafPath returns the URL path of leaf p of section sec, both 1-based.
func leafPath(sec, p int) string { return pagePaths[4+(sec-1)*5+p-1] }

// actionSelectors are the selectors of a page's four action buttons.
var actionSelectors = [4]string{"#act-0", "#act-1", "#act-2", "#act-3"}

// placement is one statement's location in the site.
type placement struct {
	pageKey  string
	event    webscript.EventType
	selector string
	interval int
	load     bool // immediate execution at script parse time
	stmt     webscript.Stmt
}

// buildPlan materializes a site deterministically from its profile
// assignments: its scripts first, then its pages' HTML, all from one rng
// stream.
func (w *Web) buildPlan(site *Site) *sitePlan {
	rng := rand.New(rand.NewSource(w.siteSeed(site)))
	plan := w.planScripts(site, rng)
	// One buffer serves every page; String copies each page out at its
	// exact size, so no page pins a larger backing array.
	var buf bytes.Buffer
	for _, k := range pageKeys {
		page := plan.pages[k]
		buf.Reset()
		w.renderPage(&buf, site, plan, page, rng)
		page.html = buf.String()
	}
	return plan
}

// siteSeed seeds the one rng stream a site's plan draws from.
func (w *Web) siteSeed(site *Site) int64 {
	return w.Cfg.Seed ^ (int64(site.Index)+1)*2654435761
}

// planScripts lays out a site's pages and serializes the scripts each page
// serves, leaving the pages' HTML to renderPage.
func (w *Web) planScripts(site *Site, rng *rand.Rand) *sitePlan {
	plan := &sitePlan{
		site:      site.Index,
		pages:     make(map[string]*pagePlan),
		byPath:    make(map[string]*pagePlan),
		partyHost: make(map[Party]string),
	}
	plan.partyHost[PartyAd] = w.AdDomains[(site.Index*7)%len(w.AdDomains)]
	plan.partyHost[PartyTracker] = w.TrackerDomains[(site.Index*13)%len(w.TrackerDomains)]
	plan.partyHost[PartyDual] = w.DualDomains[(site.Index*17)%len(w.DualDomains)]

	for i, k := range pageKeys {
		plan.pages[k] = &pagePlan{key: k, path: pagePaths[i], thirdPartySource: make(map[Party]string)}
		plan.byPath[plan.pages[k].path] = plan.pages[k]
	}

	placements := w.placeAssignments(site, rng)

	// Assemble per (party, page) scripts.
	type scriptKey struct {
		party Party
		page  string
	}
	scripts := make(map[scriptKey]*webscript.Script)
	scriptOf := func(party Party, page string) *webscript.Script {
		k := scriptKey{party, page}
		if s, ok := scripts[k]; ok {
			return s
		}
		s := &webscript.Script{}
		scripts[k] = s
		return s
	}
	handlerOf := func(s *webscript.Script, ev webscript.EventType, sel string, interval int) *webscript.Handler {
		if interval == 0 {
			interval = 1 // normalize to the parser's default
		}
		for _, h := range s.Handlers {
			if h.Event == ev && h.Selector == sel && h.Interval == interval {
				return h
			}
		}
		h := &webscript.Handler{Event: ev, Selector: sel, Interval: interval}
		s.Handlers = append(s.Handlers, h)
		return h
	}

	for _, party := range []Party{PartyFirst, PartyAd, PartyTracker, PartyDual} {
		pls := placements[party]
		for _, pl := range pls {
			s := scriptOf(party, pl.pageKey)
			if pl.load {
				s.Immediate = append(s.Immediate, pl.stmt)
				continue
			}
			h := handlerOf(s, pl.event, pl.selector, pl.interval)
			h.Body = append(h.Body, pl.stmt)
		}
	}

	// First-party navigation affordances: a click handler per section
	// page driving deeper navigation, plus one on home.
	nav := scriptOf(PartyFirst, "home")
	h := handlerOf(nav, webscript.EventClick, "#act-0", 1)
	h.Body = append(h.Body, webscript.Navigate{Path: "/sec1/p2"})
	for i := 1; i <= 3; i++ {
		s := scriptOf(PartyFirst, pageKeys[i])
		h := handlerOf(s, webscript.EventClick, "#act-1", 1)
		h.Body = append(h.Body, webscript.Navigate{Path: leafPath(i, 1+rng.Intn(5))})
	}
	// Ad popup behaviour: clicking the ad element attempts an external
	// navigation (intercepted by the crawler).
	for _, party := range []Party{PartyAd, PartyDual} {
		for _, k := range []string{"home", "sec1"} {
			if s, ok := scripts[scriptKey{party, k}]; ok {
				h := handlerOf(s, webscript.EventClick, "#ad-link", 1)
				h.Body = append(h.Body, webscript.Navigate{Path: "http://" + plan.partyHost[party] + "/landing"})
			}
		}
	}

	// Serialize scripts.
	for _, k := range pageKeys {
		page := plan.pages[k]
		if s, ok := scripts[scriptKey{PartyFirst, k}]; ok {
			page.firstPartySource = webscript.Format(s)
		} else {
			page.firstPartySource = "// no first-party behaviour on this page\n"
		}
		for _, party := range []Party{PartyAd, PartyTracker, PartyDual} {
			if s, ok := scripts[scriptKey{party, k}]; ok {
				page.thirdPartySource[party] = webscript.Format(s)
			}
		}
	}
	return plan
}

// placeAssignments maps each (feature, party) obligation to a concrete
// placement, honouring the gating rules.
func (w *Web) placeAssignments(site *Site, rng *rand.Rand) map[Party][]placement {
	assigns := w.assign[site.Index]
	out := make(map[Party][]placement)

	// Group by standard, preserving deterministic order.
	type group struct {
		std     standards.Abbrev
		party   Party
		members []Assignment
	}
	var groups []*group
	index := make(map[standards.Abbrev]*group)
	for _, a := range assigns {
		g, ok := index[a.Feature.Standard]
		if !ok {
			g = &group{std: a.Feature.Standard, party: a.Party}
			index[a.Feature.Standard] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, a)
	}

	for _, g := range groups {
		target := len(w.Profile.SitesUsing(g.std))
		gated := target >= gatedMinSites && rng.Float64() < gatedShare
		humanOnly := target >= humanOnlyMinSites && rng.Float64() < humanOnlyShare

		for i, a := range g.members {
			stmt := stmtFor(a, rng)
			var pl placement
			switch {
			case humanOnly:
				// Mouse-movement-gated: the monkey horde does
				// not move the pointer, but human browsing
				// does (Figure 9's outliers).
				pl = placement{pageKey: "home", event: webscript.EventMove, stmt: stmt}
			case gated:
				pl = w.gatedPlacement(stmt, rng)
			case i == 0:
				// The group's first instance loads on the home
				// page, guaranteeing the standard is observable
				// on every assigned site.
				pl = placement{pageKey: "home", load: true, stmt: stmt}
			default:
				pl = w.freePlacement(stmt, rng)
			}
			out[g.party] = append(out[g.party], pl)
		}
	}
	return out
}

// stmtFor converts an assignment into a statement with an invocation
// multiplicity (hot loops batch many calls; Table 1's invocation total
// comes from these counts).
func stmtFor(a Assignment, rng *rand.Rand) webscript.Stmt {
	if a.Feature.Kind == webidl.Method {
		count := 1 + rng.Intn(12)
		if rng.Float64() < 0.08 {
			count += 20 + rng.Intn(220)
		}
		return webscript.Invoke{Interface: a.Feature.Interface, Member: a.Feature.Member, Count: count}
	}
	return webscript.SetProp{Interface: a.Feature.Interface, Member: a.Feature.Member}
}

// gatedPlacement hides a statement deep in the site: on a leaf page (only
// observed in rounds whose BFS sample reaches that leaf) and often behind an
// interaction on top. The per-round discovery probability of a gated
// placement is roughly the leaf-visit rate (~0.6), which produces the
// paper's Table 3 decay.
func (w *Web) gatedPlacement(stmt webscript.Stmt, rng *rand.Rand) placement {
	leaf := pageKeys[4+rng.Intn(len(pageKeys)-4)]
	switch r := rng.Float64(); {
	case r < 0.55:
		// Leaf-page load.
		return placement{pageKey: leaf, load: true, stmt: stmt}
	case r < 0.80:
		// Click on a specific button on a leaf page.
		return placement{
			pageKey:  leaf,
			event:    webscript.EventClick,
			selector: actionSelectors[rng.Intn(4)],
			stmt:     stmt,
		}
	case r < 0.90:
		return placement{pageKey: leaf, event: webscript.EventInput, selector: "#q", stmt: stmt}
	default:
		// A slow timer on a leaf page: fires late in the 30-second
		// dwell.
		return placement{pageKey: leaf, event: webscript.EventTimer, interval: 17, stmt: stmt}
	}
}

// freePlacement spreads non-critical instances across the site.
func (w *Web) freePlacement(stmt webscript.Stmt, rng *rand.Rand) placement {
	var pageKey string
	switch r := rng.Float64(); {
	case r < 0.45:
		pageKey = "home"
	case r < 0.75:
		pageKey = pageKeys[1+rng.Intn(3)] // a section
	default:
		pageKey = pageKeys[4+rng.Intn(len(pageKeys)-4)] // a leaf
	}
	switch r := rng.Float64(); {
	case r < 0.70:
		return placement{pageKey: pageKey, load: true, stmt: stmt}
	case r < 0.82:
		return placement{pageKey: pageKey, event: webscript.EventClick, selector: actionSelectors[rng.Intn(4)], stmt: stmt}
	case r < 0.90:
		return placement{pageKey: pageKey, event: webscript.EventScroll, stmt: stmt}
	case r < 0.96:
		return placement{pageKey: pageKey, event: webscript.EventInput, selector: "#q", stmt: stmt}
	default:
		ivals := []int{3, 7, 11}
		return placement{pageKey: pageKey, event: webscript.EventTimer, interval: ivals[rng.Intn(len(ivals))], stmt: stmt}
	}
}

// pageControls closes a page's content div after its paragraphs: four
// action buttons and the search form.
const pageControls = `<button id="act-0" data-action="action-0">Action 0</button>` +
	`<button id="act-1" data-action="action-1">Action 1</button>` +
	`<button id="act-2" data-action="action-2">Action 2</button>` +
	`<button id="act-3" data-action="action-3">Action 3</button>` +
	`<form><input id="q" type="text" name="q"></form></div>`

// renderPage writes the page's HTML document to buf: a head with the
// page's first-party script, a nav of links, the content with action
// buttons and a search field, then the third-party script tags and the ad
// container. Text and attribute values are escaped as html.Render escapes
// them, so the bytes equal those of the same tree rendered from a DOM.
func (w *Web) renderPage(buf *bytes.Buffer, site *Site, plan *sitePlan, page *pagePlan, rng *rand.Rand) {
	put := func(parts ...string) {
		for _, s := range parts {
			buf.WriteString(s)
		}
	}
	domain, key := html.Escape(site.Domain), html.Escape(page.key)
	put("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>", domain, " — ", key,
		`</title><script src="/static/`, key, `.js"></script></head><body><nav>`)

	// Navigation links.
	for _, href := range w.pageLinks(page.key, rng) {
		put(`<a href="`, html.Escape(href), `">`, html.Escape(linkLabel(href)), "</a>")
	}
	// Member sites advertise their login wall from the home page; the
	// open-web crawl hits the wall, a credentialed crawl goes through
	// (paper §7.3).
	if page.key == "home" && w.HasMembersArea(site) {
		put(`<a href="/account" id="login">Sign in</a>`)
	}
	put(`</nav><div id="content">`)
	// The loop test draws from rng on every pass; keep it as is.
	for i := 0; i < 2+rng.Intn(3); i++ {
		put("<p>")
		writeLorem(buf, rng)
		put("</p>")
	}
	put(pageControls)

	// Third-party script tags and the ad container.
	hasAd := false
	for _, party := range []Party{PartyAd, PartyTracker, PartyDual} {
		if src, ok := page.thirdPartySource[party]; !ok || src == "" {
			continue
		}
		put(`<script src="http://`, html.Escape(plan.partyHost[party]), "/tags/", domain, "/", key, `.js"></script>`)
		hasAd = hasAd || party == PartyAd || party == PartyDual
	}
	if hasAd {
		put(`<div class="ad-banner"><a id="ad-link" href="http://`, html.Escape(plan.partyHost[PartyAd]),
			`/landing">Sponsored offer</a></div>`)
	}
	put("</body></html>")
}

// pageLinks returns the local (and one external) links of a page.
func (w *Web) pageLinks(key string, rng *rand.Rand) []string {
	links := make([]string, 0, 9)
	switch {
	case key == "home":
		links = append(links, "/sec1", "/sec2", "/sec3")
		links = append(links, leafPath(1+rng.Intn(3), 1+rng.Intn(5)))
		links = append(links, leafPath(1+rng.Intn(3), 1+rng.Intn(5)))
	case len(key) == 4: // secN
		sec := int(key[3] - '0')
		for p := 1; p <= 5; p++ {
			links = append(links, leafPath(sec, p))
		}
		links = append(links, "/")
	default: // a leaf: cross-links into other sections keep the BFS
		// candidate pool rich, as real article pages link sideways
		sec := int(key[3] - '0')
		links = append(links, pagePaths[sec], "/", "/sec1", "/sec2", "/sec3")
		links = append(links, leafPath(sec, 1+rng.Intn(5)))
		links = append(links, leafPath(sec, 1+rng.Intn(5)))
		links = append(links, leafPath(1+rng.Intn(3), 1+rng.Intn(5)))
	}
	links = append(links, "http://partner-offers.example/deals")
	return dedupe(links)
}

// dedupe drops repeated links in place, keeping first occurrences. A page
// has at most nine links, so a scan beats a set.
func dedupe(in []string) []string {
	out := in[:0]
	for _, s := range in {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func linkLabel(href string) string {
	href = strings.TrimPrefix(href, "http://")
	href = strings.Trim(href, "/")
	if href == "" {
		return "home"
	}
	return strings.ReplaceAll(href, "/", " ")
}

var loremWords = []string{
	"latency", "budget", "render", "stream", "cache", "signal", "vector",
	"packet", "session", "module", "layout", "metric", "canvas", "widget",
	"origin", "socket", "beacon", "cipher", "frame", "worker",
}

// writeLorem writes a sentence of 8 to 25 filler words. No word needs
// escaping.
func writeLorem(buf *bytes.Buffer, rng *rand.Rand) {
	n := 8 + rng.Intn(18)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(loremWords[rng.Intn(len(loremWords))])
	}
	buf.WriteByte('.')
}

// PagePaths returns the URL paths of the site layout in BFS-friendly order
// (used by tests and the crawler's validation tooling).
func PagePaths() []string {
	out := slices.Clone(pagePaths)
	sort.Strings(out[1:]) // keep "/" first, rest sorted for determinism
	return out
}
