package synthweb

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/webscript"
)

func TestPageKeysAndPaths(t *testing.T) {
	keys := pageKeys
	if len(keys) != 19 { // home + 3 sections + 15 leaves
		t.Fatalf("page keys = %d, want 19", len(keys))
	}
	if len(pagePaths) != len(keys) {
		t.Fatalf("page paths = %d, want %d", len(pagePaths), len(keys))
	}
	for i, k := range keys {
		// secNpM ↔ /secN/pM, secN ↔ /secN, home ↔ /.
		if want := "/" + strings.Replace(strings.TrimPrefix(k, "home"), "p", "/p", 1); pagePaths[i] != want {
			t.Errorf("path of %s = %q, want %q", k, pagePaths[i], want)
		}
	}
	if leafPath(3, 4) != "/sec3/p4" {
		t.Fatalf("leafPath(3, 4) = %q", leafPath(3, 4))
	}
	paths := PagePaths()
	if len(paths) != 19 || paths[0] != "/" {
		t.Fatalf("PagePaths = %v", paths)
	}
	// The layout is shared package state: building plans and listing
	// paths must leave it as it was.
	keysBefore, pathsBefore := slices.Clone(pageKeys), slices.Clone(pagePaths)
	w := testWebOnce(t)
	w.buildPlan(w.Sites[1])
	PagePaths()
	if !slices.Equal(pageKeys, keysBefore) || !slices.Equal(pagePaths, pathsBefore) {
		t.Fatalf("layout mutated: %v %v", pageKeys, pagePaths)
	}
}

func TestPlacementsCoverGroundTruthParties(t *testing.T) {
	w := testWebOnce(t)
	checked := 0
	for _, site := range w.Sites {
		if site.Failure != FailNone || checked >= 10 {
			continue
		}
		assigns := w.AssignmentsOf(site)
		if len(assigns) == 0 {
			continue
		}
		checked++
		plan := w.planOf(site)
		// Every party with assignments must have at least one script
		// on some page, and no script may exist for absent parties.
		partyHasAssign := map[Party]bool{}
		for _, a := range assigns {
			partyHasAssign[a.Party] = true
		}
		partyHasScript := map[Party]bool{PartyFirst: true} // nav handlers always exist
		for _, page := range plan.pages {
			for party, src := range page.thirdPartySource {
				if strings.TrimSpace(src) != "" {
					partyHasScript[party] = true
				}
			}
		}
		for party := range partyHasAssign {
			if !partyHasScript[party] {
				t.Errorf("site %s: party %s has assignments but no script", site.Domain, party)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sites checked")
	}
}

func TestHomePageLoadGuaranteesFirstInstance(t *testing.T) {
	// Non-gated standards place their first instance as a home-page load
	// statement, so every assigned standard with a home placement is
	// observable on round one. Verify home scripts are non-trivial for
	// sites with assignments.
	w := testWebOnce(t)
	for _, site := range w.Sites[:20] {
		if site.Failure != FailNone || len(w.AssignmentsOf(site)) == 0 {
			continue
		}
		plan := w.planOf(site)
		src := plan.pages["home"].firstPartySource
		s, err := webscript.Parse(src)
		if err != nil {
			t.Fatalf("site %s home script: %v", site.Domain, err)
		}
		if len(s.Immediate)+len(s.Handlers) == 0 {
			t.Errorf("site %s: empty home script despite assignments", site.Domain)
		}
	}
}

func TestStatementCountsPositive(t *testing.T) {
	w := testWebOnce(t)
	var site *Site
	for _, s := range w.Sites {
		if s.Failure == FailNone && len(w.AssignmentsOf(s)) > 0 {
			site = s
			break
		}
	}
	plan := w.planOf(site)
	for key, page := range plan.pages {
		for _, src := range append([]string{page.firstPartySource}, valuesOf(page.thirdPartySource)...) {
			s, err := webscript.Parse(src)
			if err != nil {
				t.Fatalf("page %s script: %v", key, err)
			}
			for _, st := range s.Immediate {
				if inv, ok := st.(webscript.Invoke); ok && inv.Count < 1 {
					t.Fatalf("page %s: non-positive invoke count %d", key, inv.Count)
				}
			}
		}
	}
}

func valuesOf(m map[Party]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func TestLinkLabels(t *testing.T) {
	if linkLabel("/") != "home" {
		t.Errorf("linkLabel(/) = %q", linkLabel("/"))
	}
	if got := linkLabel("/sec1/p2"); got != "sec1 p2" {
		t.Errorf("linkLabel(/sec1/p2) = %q", got)
	}
	if got := linkLabel("http://partner-offers.example/deals"); !strings.Contains(got, "deals") {
		t.Errorf("external label = %q", got)
	}
}
