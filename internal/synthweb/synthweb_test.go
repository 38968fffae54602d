package synthweb

import (
	"math"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/html"
	"repro/internal/standards"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webscript"
)

var (
	testReg *webidl.Registry
	testWeb *Web
)

func testWebOnce(t testing.TB) *Web {
	t.Helper()
	if testWeb == nil {
		reg, err := webidl.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		testReg = reg
		w, err := Generate(reg, Config{Sites: 1000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		testWeb = w
	}
	return testWeb
}

func TestGenerateBasics(t *testing.T) {
	w := testWebOnce(t)
	if len(w.Sites) != 1000 {
		t.Fatalf("sites = %d, want 1000", len(w.Sites))
	}
	failures := 0
	for _, s := range w.Sites {
		if s.Failure != FailNone {
			failures++
		}
	}
	want := int(math.Round(DefaultFailureRate * 1000))
	if failures != want {
		t.Errorf("failures = %d, want %d", failures, want)
	}
}

func TestProfileBands(t *testing.T) {
	w := testWebOnce(t)
	if got := w.Profile.NeverUsed(); got != NeverUsedTarget {
		t.Errorf("never-used features = %d, want %d (paper §5.3: 689)", got, NeverUsedTarget)
	}
	got := w.Profile.UnderOnePct()
	if d := got - UnderOnePctTarget; d < -25 || d > 25 {
		t.Errorf("under-1%% features = %d, want ~%d (paper §5.3: 416)", got, UnderOnePctTarget)
	}
}

func TestProfileStandardTargets(t *testing.T) {
	w := testWebOnce(t)
	for _, std := range standards.Catalog() {
		got := w.GroundTruthSites(std.Abbrev)
		if std.Sites == 0 {
			if got != 0 {
				t.Errorf("standard %s: %d sites assigned, want 0", std.Abbrev, got)
			}
			continue
		}
		want := int(math.Round(float64(std.Sites) / 10.0)) // scaled 10000 → 1000
		if want < 1 {
			want = 1
		}
		if got != want {
			t.Errorf("standard %s: %d sites assigned, want %d", std.Abbrev, got, want)
		}
	}
}

func TestProfilePartySplitMatchesBlockRate(t *testing.T) {
	w := testWebOnce(t)
	for _, std := range standards.Catalog() {
		set := w.Profile.SitesUsing(std.Abbrev)
		if len(set) < 20 {
			continue
		}
		blocked := 0
		for _, site := range set {
			p, ok := w.Profile.PartyOf(std.Abbrev, site)
			if !ok {
				t.Fatalf("standard %s: site %d has no party", std.Abbrev, site)
			}
			if p != PartyFirst {
				blocked++
			}
		}
		got := float64(blocked) / float64(len(set))
		if math.Abs(got-std.BlockRate) > 0.05 {
			t.Errorf("standard %s: blocked share %.3f, want %.3f", std.Abbrev, got, std.BlockRate)
		}
	}
}

func TestAssignmentsConsistent(t *testing.T) {
	w := testWebOnce(t)
	// Per-feature assignment totals must equal profile targets, and a
	// standard's assigned sites must equal its site set.
	perFeature := make(map[int]int)
	perStd := make(map[standards.Abbrev]map[int]bool)
	for _, site := range w.Sites {
		for _, a := range w.AssignmentsOf(site) {
			perFeature[a.Feature.ID]++
			if perStd[a.Feature.Standard] == nil {
				perStd[a.Feature.Standard] = map[int]bool{}
			}
			perStd[a.Feature.Standard][site.Index] = true
		}
	}
	for _, f := range w.Registry.Features {
		if got, want := perFeature[f.ID], w.GroundTruthFeatureSites(f); got != want {
			t.Errorf("feature %s: assigned to %d sites, want %d", f.Name(), got, want)
		}
	}
	for _, std := range standards.Catalog() {
		if got, want := len(perStd[std.Abbrev]), w.GroundTruthSites(std.Abbrev); got != want {
			t.Errorf("standard %s: union of feature sites = %d, want %d", std.Abbrev, got, want)
		}
	}
}

func TestAssignmentsOnlyMeasurable(t *testing.T) {
	w := testWebOnce(t)
	for _, site := range w.Sites[:100] {
		for _, a := range w.AssignmentsOf(site) {
			if !webapi.Measurable(a.Feature) {
				t.Fatalf("unmeasurable feature %s assigned to %s", a.Feature.Name(), site.Domain)
			}
		}
	}
}

func TestFailingSitesGetNoAssignments(t *testing.T) {
	w := testWebOnce(t)
	for _, site := range w.Sites {
		if site.Failure != FailNone && len(w.AssignmentsOf(site)) != 0 {
			t.Fatalf("failing site %s has %d assignments", site.Domain, len(w.AssignmentsOf(site)))
		}
	}
}

func TestResourceHomePage(t *testing.T) {
	w := testWebOnce(t)
	var site *Site
	for _, s := range w.Sites {
		if s.Failure == FailNone {
			site = s
			break
		}
	}
	res, err := w.Resource("http://" + site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentType != "text/html" {
		t.Errorf("content type = %s", res.ContentType)
	}
	doc, err := html.Parse(res.Body)
	if err != nil {
		t.Fatalf("home page does not parse: %v", err)
	}
	if len(doc.Links()) == 0 {
		t.Error("home page has no links")
	}
	if doc.GetElementByID("act-0") == nil || doc.GetElementByID("q") == nil {
		t.Error("home page missing interactive elements")
	}
	scripts := doc.Scripts()
	if len(scripts) == 0 {
		t.Fatal("home page has no scripts")
	}
	// First-party script must exist and parse as WebScript.
	res2, err := w.Resource("http://" + site.Domain + "/static/home.js")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webscript.Parse(res2.Body); err != nil {
		t.Fatalf("home script does not parse: %v\n%s", err, res2.Body)
	}
}

func TestResourceDeterministic(t *testing.T) {
	w := testWebOnce(t)
	site := w.Sites[3]
	a, err := w.Resource("http://" + site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	// Drop the site's plan to force a rebuild.
	w.dropPlan(site.Index)
	b, err := w.Resource("http://" + site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if a.Body != b.Body {
		t.Fatal("resource not deterministic across plan rebuilds")
	}
}

func TestUnresponsiveSites(t *testing.T) {
	w := testWebOnce(t)
	for _, s := range w.Sites {
		if s.Failure != FailUnresponsive {
			continue
		}
		_, err := w.Resource("http://" + s.Domain + "/")
		if _, ok := err.(*ErrUnresponsive); !ok {
			t.Fatalf("unresponsive site returned %v", err)
		}
		break
	}
}

func TestScriptErrorSites(t *testing.T) {
	w := testWebOnce(t)
	for _, s := range w.Sites {
		if s.Failure != FailScriptError {
			continue
		}
		res, err := w.Resource("http://" + s.Domain + "/static/home.js")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := webscript.Parse(res.Body); err == nil {
			t.Fatal("script-error site serves a valid script")
		}
		break
	}
}

func TestThirdPartyScriptsServedAndBlocked(t *testing.T) {
	w := testWebOnce(t)
	// Find a site with an ad-attributed standard.
	var adURL string
	var pageHost string
searching:
	for _, site := range w.Sites {
		if site.Failure != FailNone {
			continue
		}
		res, err := w.Resource("http://" + site.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		doc, err := html.Parse(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range doc.Scripts() {
			if strings.Contains(s.Src, "adnet-") {
				adURL = s.Src
				pageHost = site.Domain
				break searching
			}
		}
	}
	if adURL == "" {
		t.Fatal("no ad script found on any site")
	}
	res, err := w.Resource(adURL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webscript.Parse(res.Body); err != nil {
		t.Fatalf("ad script does not parse: %v", err)
	}
	// The synthetic EasyList must block it.
	list, err := blocking.ParseList("easylist", w.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	eng := blocking.NewEngine(list)
	req := blocking.Request{URL: adURL, PageHost: pageHost, Type: blocking.ResourceScript}
	if !eng.ShouldBlock(req) {
		t.Errorf("filter list does not block ad script %s", adURL)
	}
}

func TestTrackerLibParses(t *testing.T) {
	w := testWebOnce(t)
	db, err := blocking.ParseTrackerDB(w.TrackerLibText)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != trackerDomainCount+dualDomainCount {
		t.Errorf("tracker db size = %d, want %d", db.Size(), trackerDomainCount+dualDomainCount)
	}
	// Dual domains must be in both lists.
	list, err := blocking.ParseList("easylist", w.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	eng := blocking.NewEngine(list)
	dualURL := "http://" + w.DualDomains[0] + "/tags/x.example/home.js"
	req := blocking.Request{URL: dualURL, PageHost: "x.example", Type: blocking.ResourceScript}
	if !eng.ShouldBlock(req) {
		t.Error("ABP list does not block dual domain")
	}
	if !db.ShouldBlock(req) {
		t.Error("tracker DB does not block dual domain")
	}
}

func TestAllPagePathsServable(t *testing.T) {
	w := testWebOnce(t)
	var site *Site
	for _, s := range w.Sites {
		if s.Failure == FailNone {
			site = s
			break
		}
	}
	for _, path := range PagePaths() {
		res, err := w.Resource("http://" + site.Domain + path)
		if err != nil {
			t.Fatalf("path %s: %v", path, err)
		}
		if _, err := html.Parse(res.Body); err != nil {
			t.Fatalf("path %s HTML invalid: %v", path, err)
		}
	}
	if _, err := w.Resource("http://" + site.Domain + "/missing"); err == nil {
		t.Fatal("missing path should 404")
	}
}

func TestEveryAssignmentAppearsInScripts(t *testing.T) {
	w := testWebOnce(t)
	// For a sample of sites, every assigned feature must appear in some
	// script the site's pages serve (so the crawl can observe it).
	checked := 0
	for _, site := range w.Sites {
		if site.Failure != FailNone || checked >= 5 {
			continue
		}
		checked++
		want := map[string]bool{}
		for _, a := range w.AssignmentsOf(site) {
			want[a.Feature.Interface+"."+a.Feature.Member] = false
		}
		plan := w.planOf(site)
		for _, page := range plan.pages {
			sources := []string{page.firstPartySource}
			for _, s := range page.thirdPartySource {
				sources = append(sources, s)
			}
			for _, src := range sources {
				for ref := range want {
					if strings.Contains(src, ref) {
						want[ref] = true
					}
				}
			}
		}
		for ref, found := range want {
			if !found {
				t.Errorf("site %s: assigned feature %s appears in no script", site.Domain, ref)
			}
		}
	}
}

func TestPartyString(t *testing.T) {
	if PartyFirst.String() != "first-party" || PartyDual.String() != "ad+tracker" {
		t.Error("party strings wrong")
	}
	if !strings.Contains(Party(9).String(), "9") {
		t.Error("unknown party string wrong")
	}
}

func TestGenerateErrors(t *testing.T) {
	reg := testReg
	if _, err := Generate(reg, Config{Sites: 0, Seed: 1}); err == nil {
		t.Error("zero sites should fail")
	}
	if _, err := Generate(reg, Config{Sites: 10, Seed: 1, FailureRate: 1.5}); err == nil {
		t.Error("bad failure rate should fail")
	}
}
