package synthweb

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/html"
)

// countingSource counts the draws taken from a seeded source, so two
// streams from one seed are in equal states exactly when their counts are
// equal.
type countingSource struct {
	rand.Source64
	n int
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source64.Int63() }

func (s *countingSource) Uint64() uint64 { s.n++; return s.Source64.Uint64() }

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// checkRenderMatchesDOM renders every page of a site with renderPage and
// with the DOM reference from equal rng states, in buildPlan's order. The
// pages must be byte-equal, each renderer must leave its stream at the same
// position, and the direct pages must be the ones buildPlan serves.
func checkRenderMatchesDOM(w *Web, site *Site) error {
	rngA, srcA := newCountingRand(w.siteSeed(site))
	rngB, srcB := newCountingRand(w.siteSeed(site))
	plan := w.planScripts(site, rngA)
	w.planScripts(site, rngB)
	served := w.buildPlan(site)
	var buf bytes.Buffer
	for _, k := range pageKeys {
		page := plan.pages[k]
		buf.Reset()
		w.renderPage(&buf, site, plan, page, rngA)
		want := w.renderPageDOM(site, plan, page, rngB)
		if got := buf.String(); got != want {
			return fmt.Errorf("site %d page %s differs from the DOM renderer:\n got %q\nwant %q", site.Index, k, got, want)
		}
		if srcA.n != srcB.n {
			return fmt.Errorf("site %d page %s: direct renderer drew %d times, DOM renderer %d", site.Index, k, srcA.n, srcB.n)
		}
		if served.pages[k].html != want {
			return fmt.Errorf("site %d page %s: buildPlan serves different bytes", site.Index, k)
		}
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		return fmt.Errorf("site %d: next draw %d after the direct renderer, %d after the DOM renderer", site.Index, a, b)
	}
	return nil
}

func TestRenderMatchesDOM(t *testing.T) {
	for _, word := range loremWords {
		if html.Escape(word) != word {
			t.Fatalf("lorem word %q needs escaping; writeLorem writes it raw", word)
		}
	}
	reg := testRegistry(t)
	pages := 0
	for _, seed := range []int64{1, 7, 42, 9001} {
		w, err := Generate(reg, Config{Sites: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range w.Sites {
			if err := checkRenderMatchesDOM(w, site); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			pages += len(pageKeys)
		}
	}
	t.Logf("%d pages byte-equal to the DOM renderer", pages)
}

func FuzzRenderMatchesDOM(f *testing.F) {
	reg := testRegistry(f)
	for _, seed := range []int64{1, 7, 42, 9001} {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(17))
	}
	webs := map[int64]*Web{}
	f.Fuzz(func(t *testing.T, seed int64, index uint16) {
		w, ok := webs[seed]
		if !ok {
			var err error
			if w, err = Generate(reg, Config{Sites: 40, Seed: seed}); err != nil {
				t.Fatal(err)
			}
			if len(webs) >= 8 {
				clear(webs)
			}
			webs[seed] = w
		}
		if err := checkRenderMatchesDOM(w, w.Sites[int(index)%len(w.Sites)]); err != nil {
			t.Fatal(err)
		}
	})
}

// renderPageDOM is the reference renderer: it builds the page as a dom tree
// and serializes it with html.Render.
func (w *Web) renderPageDOM(site *Site, plan *sitePlan, page *pagePlan, rng *rand.Rand) string {
	doc := dom.NewDocument()
	htmlEl := dom.NewElement("html")
	doc.AppendChild(htmlEl)

	head := dom.NewElement("head")
	htmlEl.AppendChild(head)
	meta := dom.NewElement("meta")
	meta.SetAttr("charset", "utf-8")
	head.AppendChild(meta)
	title := dom.NewElement("title")
	title.AppendChild(dom.NewText(fmt.Sprintf("%s — %s", site.Domain, page.key)))
	head.AppendChild(title)

	appScript := dom.NewElement("script")
	appScript.SetAttr("src", "/static/"+page.key+".js")
	head.AppendChild(appScript)

	body := dom.NewElement("body")
	htmlEl.AppendChild(body)

	// Navigation links.
	navEl := dom.NewElement("nav")
	body.AppendChild(navEl)
	for _, href := range w.pageLinksDOM(page.key, rng) {
		a := dom.NewElement("a")
		a.SetAttr("href", href)
		a.AppendChild(dom.NewText(linkLabel(href)))
		navEl.AppendChild(a)
	}
	// Member sites advertise their login wall from the home page; the
	// open-web crawl hits the wall, a credentialed crawl goes through
	// (paper §7.3).
	if page.key == "home" && w.HasMembersArea(site) {
		login := dom.NewElement("a")
		login.SetAttr("href", "/account")
		login.SetAttr("id", "login")
		login.AppendChild(dom.NewText("Sign in"))
		navEl.AppendChild(login)
	}

	// Content with action buttons and a search field.
	mainEl := dom.NewElement("div")
	mainEl.SetAttr("id", "content")
	body.AppendChild(mainEl)
	for i := 0; i < 2+rng.Intn(3); i++ {
		p := dom.NewElement("p")
		p.AppendChild(dom.NewText(loremText(rng)))
		mainEl.AppendChild(p)
	}
	for i := 0; i < 4; i++ {
		btn := dom.NewElement("button")
		btn.SetAttr("id", fmt.Sprintf("act-%d", i))
		btn.SetAttr("data-action", fmt.Sprintf("action-%d", i))
		btn.AppendChild(dom.NewText(fmt.Sprintf("Action %d", i)))
		mainEl.AppendChild(btn)
	}
	form := dom.NewElement("form")
	input := dom.NewElement("input")
	input.SetAttr("id", "q")
	input.SetAttr("type", "text")
	input.SetAttr("name", "q")
	form.AppendChild(input)
	mainEl.AppendChild(form)

	// Third-party script tags and the ad container.
	hasAd := false
	for _, party := range []Party{PartyAd, PartyTracker, PartyDual} {
		src, ok := page.thirdPartySource[party]
		if !ok || src == "" {
			continue
		}
		tag := dom.NewElement("script")
		tag.SetAttr("src", fmt.Sprintf("http://%s/tags/%s/%s.js", plan.partyHost[party], site.Domain, page.key))
		body.AppendChild(tag)
		if party == PartyAd || party == PartyDual {
			hasAd = true
		}
	}
	if hasAd {
		ad := dom.NewElement("div")
		ad.SetAttr("class", "ad-banner")
		adLink := dom.NewElement("a")
		adLink.SetAttr("id", "ad-link")
		adLink.SetAttr("href", "http://"+plan.partyHost[PartyAd]+"/landing")
		adLink.AppendChild(dom.NewText("Sponsored offer"))
		ad.AppendChild(adLink)
		body.AppendChild(ad)
	}

	return html.Render(doc)
}

// pageLinksDOM is the reference for pageLinks.
func (w *Web) pageLinksDOM(key string, rng *rand.Rand) []string {
	var links []string
	switch {
	case key == "home":
		links = append(links, "/sec1", "/sec2", "/sec3")
		links = append(links, fmt.Sprintf("/sec%d/p%d", 1+rng.Intn(3), 1+rng.Intn(5)))
		links = append(links, fmt.Sprintf("/sec%d/p%d", 1+rng.Intn(3), 1+rng.Intn(5)))
	case strings.HasPrefix(key, "sec") && len(key) == 4:
		for p := 1; p <= 5; p++ {
			links = append(links, fmt.Sprintf("/%s/p%d", key, p))
		}
		links = append(links, "/")
	default: // a leaf: cross-links into other sections keep the BFS
		// candidate pool rich, as real article pages link sideways
		sec := key[:4]
		links = append(links, "/"+sec, "/", "/sec1", "/sec2", "/sec3")
		links = append(links, fmt.Sprintf("/%s/p%d", sec, 1+rng.Intn(5)))
		links = append(links, fmt.Sprintf("/%s/p%d", sec, 1+rng.Intn(5)))
		links = append(links, fmt.Sprintf("/sec%d/p%d", 1+rng.Intn(3), 1+rng.Intn(5)))
	}
	links = append(links, "http://partner-offers.example/deals")
	return dedupeDOM(links)
}

// dedupeDOM is the reference for dedupe.
func dedupeDOM(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// loremText is the reference for writeLorem.
func loremText(rng *rand.Rand) string {
	n := 8 + rng.Intn(18)
	words := make([]string, n)
	for i := range words {
		words[i] = loremWords[rng.Intn(len(loremWords))]
	}
	return strings.Join(words, " ") + "."
}
