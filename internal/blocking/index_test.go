package blocking

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// engineOf builds an engine over the parsed lists; tests compare its
// indexed ShouldBlock with shouldBlockLinear over the same lists.
func engineOf(t testing.TB, texts ...string) *Engine {
	t.Helper()
	e := NewEngine()
	for i, text := range texts {
		l, err := ParseList(fmt.Sprintf("list-%d", i), text)
		if err != nil {
			t.Fatalf("ParseList: %v", err)
		}
		e.AddList(l)
	}
	return e
}

// indexRuleFragments spans every bucket class: domain-anchored rules (safe
// and unsafe for domain bucketing), token-carrying rules, wildcard and
// anchor shapes, exceptions, and option-bearing rules.
var indexRuleFragments = []string{
	"||adnet-01.example^$third-party",
	"||adtrk-07.example^$third-party",
	"||ads.example^",
	"||ads.example^banner",
	"||ads.example/banner",
	"||ads", // single label: not domain-bucketable
	"||ads.example*track",
	"||ads.example",
	"||cdn.ads.example^|",
	"/ads/banner*",
	"/adserve/^$script",
	"banner",
	"banner*1",
	"|http://ads.example/",
	"|http://x.org/p|",
	"path|",
	"||x.org^path^",
	"@@||ads.example^allowed",
	"@@||adnet-01.example^$third-party",
	"@@/adserve/safe",
	"track^",
	"*",
	"^ads^",
	"||tra-cker.example^",
	"||a.b.c.example^$image",
	"x$domain=pub.example",
	"banner$domain=~pub.example",
}

var indexTestURLs = []string{
	"http://adnet-01.example/ads/banner.png",
	"http://adnet-02.example/x",
	"http://ads.example/banner/1",
	"http://cdn.ads.example/",
	"http://notads.example/pathology",
	"http://sub.x.org/p",
	"http://x.org/p",
	"http://site.example/adserve/track.js",
	"http://site.example/ads/banner",
	"http://site.example/",
	"https://a.b.c.example/img.png",
	"http://tra-cker.example/t",
	// Authorities where url.Parse's host differs from what the raw-string
	// matcher sees: userinfo, ports, stray separators.
	"http://ads.example@evil.com/",
	"http://user:pw@ads.example/x",
	"http://ads.example:8080/x",
	"http://ads.example",
	"//ads.example/x",
	"not a url at all",
	"",
}

var indexTestPageHosts = []string{"pub.example", "adnet-01.example", "x.org", ""}

// TestIndexMatchesLinear drives randomized multi-list engines through every
// URL × page-host combination and requires the tokenized index to agree
// with the linear scan decision for decision.
func TestIndexMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []ResourceType{ResourceDocument, ResourceScript, ResourceImage, ResourceOther}
	for trial := 0; trial < 200; trial++ {
		// Sample a random subset of fragments into one or two lists.
		var texts []string
		for lists := 1 + rng.Intn(2); lists > 0; lists-- {
			var b strings.Builder
			for i := 0; i < 1+rng.Intn(10); i++ {
				b.WriteString(indexRuleFragments[rng.Intn(len(indexRuleFragments))])
				b.WriteByte('\n')
			}
			texts = append(texts, b.String())
		}
		e := engineOf(t, texts...)
		for _, u := range indexTestURLs {
			for _, ph := range indexTestPageHosts {
				req := Request{URL: u, PageHost: ph, Type: types[rng.Intn(len(types))]}
				got, want := e.ShouldBlock(req), shouldBlockLinear(e, req)
				if got != want {
					t.Fatalf("trial %d: url=%q pageHost=%q type=%d: indexed=%v linear=%v\nlists:\n%s",
						trial, u, ph, req.Type, got, want, strings.Join(texts, "---\n"))
				}
			}
		}
	}
}

// TestIndexMatchesLinearMakeRequest repeats a slice of the differential
// check through MakeRequest, so the precomputed host/third-party fields
// carry the same decisions as the on-the-fly ones.
func TestIndexMatchesLinearMakeRequest(t *testing.T) {
	e := engineOf(t, strings.Join(indexRuleFragments, "\n"))
	for _, u := range indexTestURLs {
		for _, ph := range indexTestPageHosts {
			pre := MakeRequest(u, ph, ResourceScript)
			lazy := Request{URL: u, PageHost: ph, Type: ResourceScript}
			if pre.Host() != lazy.Host() || pre.ThirdParty() != lazy.ThirdParty() {
				t.Fatalf("MakeRequest(%q,%q) derivations diverge: host %q vs %q, tp %v vs %v",
					u, ph, pre.Host(), lazy.Host(), pre.ThirdParty(), lazy.ThirdParty())
			}
			if got, want := e.ShouldBlock(pre), shouldBlockLinear(e, lazy); got != want {
				t.Fatalf("url=%q pageHost=%q: indexed(MakeRequest)=%v linear=%v", u, ph, got, want)
			}
		}
	}
}

// FuzzShouldBlockIndexMatchesLinear fuzzes arbitrary filter-list text and
// request fields against the index/linear equivalence.
func FuzzShouldBlockIndexMatchesLinear(f *testing.F) {
	f.Add("||ads.example^$third-party\n@@||ads.example^allowed\nbanner",
		"http://ads.example/banner", "pub.example", uint8(1))
	f.Add("||ads.example^", "http://ads.example@evil.com/", "p.example", uint8(0))
	f.Add("||a.b^|\n||a.b", "http://x.a.b", "a.b", uint8(2))
	f.Add("^tok^$script\n@@tok*", "scheme://u:p@h_t.a-b.c:1/tok?q", "", uint8(255))
	f.Fuzz(func(t *testing.T, listText, rawURL, pageHost string, rtype uint8) {
		l, err := ParseList("fuzz", listText)
		if err != nil {
			t.Skip()
		}
		e := NewEngine(l)
		req := Request{URL: rawURL, PageHost: pageHost, Type: ResourceType(rtype)}
		if got, want := e.ShouldBlock(req), shouldBlockLinear(e, req); got != want {
			t.Fatalf("list %q url %q pageHost %q type %d: indexed=%v linear=%v",
				listText, rawURL, pageHost, rtype, got, want)
		}
		pre := MakeRequest(rawURL, pageHost, ResourceType(rtype))
		if got, want := e.ShouldBlock(pre), shouldBlockLinear(e, pre); got != want {
			t.Fatalf("list %q url %q (MakeRequest): indexed=%v linear=%v", listText, rawURL, got, want)
		}
	})
}

// TestDomainKeyClassification pins which rules may enter the domain bucket
// and under which key.
func TestDomainKeyClassification(t *testing.T) {
	cases := []struct {
		rule string
		key  string
		ok   bool
	}{
		{"||ads.example^", "ads.example", true},
		{"||cdn.ads.example^x", "ads.example", true},
		{"||ads.example/banner", "ads.example", true},
		{"||ads.example^|", "ads.example", true},
		{"||ads.example|", "ads.example", true},   // end anchor terminates the host
		{"||ads.example", "", false},              // host may continue in the URL
		{"||ads^", "", false},                     // single label
		{"||ads.example*track", "", false},        // wildcard may extend the host
		{"||ads..example^", "", false},            // empty label
		{"||.ads.example^", "", false},            // leading dot
		{"||AdS.Example^", "ads.example", true},   // case-blind
		{"@@||ads.example^", "ads.example", true}, // exceptions bucket too
		{"banner", "", false},                     // not domain-anchored
	}
	for _, c := range cases {
		r, err := parseRule(c.rule)
		if err != nil {
			t.Fatalf("parseRule(%q): %v", c.rule, err)
		}
		key, ok := domainKey(&r)
		if ok != c.ok || key != c.key {
			t.Errorf("domainKey(%q) = %q,%v; want %q,%v", c.rule, key, ok, c.key, c.ok)
		}
	}
}

// TestPatternTokenClassification pins the bounded-token extraction.
func TestPatternTokenClassification(t *testing.T) {
	cases := []struct {
		rule string
		tok  string
		ok   bool
	}{
		{"/ads/banner*", "ads", true}, // "banner" is unbounded by '*'; "ads" is not
		{"/ads/banner/", "banner", true},
		{"/adserve/^", "adserve", true},
		{"banner", "", false},  // both edges unanchored
		{"banner|", "", false}, // left edge unanchored
		{"|banner", "", false}, // right edge unanchored
		{"|banner|", "banner", true},
		{"||banner^", "banner", true}, // domain anchor pins the left edge
		{"track^", "", false},         // left edge unanchored
		{"^track^", "track", true},
		{"*x/token^y*", "token", true},
		{"**", "", false},
	}
	for _, c := range cases {
		r, err := parseRule(c.rule)
		if err != nil {
			t.Fatalf("parseRule(%q): %v", c.rule, err)
		}
		tok, ok := patternToken(&r)
		if ok != c.ok || (ok && tok != c.tok) {
			t.Errorf("patternToken(%q) = %q,%v; want %q,%v", c.rule, tok, ok, c.tok, c.ok)
		}
	}
}

// TestAuthorityKeysUserinfo pins the soundness trap that rules out keying
// the domain bucket by url.Parse's Hostname: the raw-string matcher anchors
// "||ads.example^" inside the userinfo of http://ads.example@evil.com/
// (the '^' matches '@'), while Hostname() reports evil.com. The raw
// authority enumeration must produce both label pairs.
func TestAuthorityKeysUserinfo(t *testing.T) {
	keys := appendAuthorityKeys("http://ads.example@evil.com/", nil)
	want := map[string]bool{"ads.example": true, "evil.com": true}
	for _, k := range keys {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("appendAuthorityKeys missing %v (got %v)", want, keys)
	}

	r, err := parseRule("||ads.example^")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{URL: "http://ads.example@evil.com/", PageHost: "p.example"}
	if !r.Matches(req) {
		t.Fatal("matcher no longer anchors into userinfo; update the index key derivation notes")
	}
	e := engineOf(t, "||ads.example^")
	if got, want := e.ShouldBlock(req), shouldBlockLinear(e, req); got != want {
		t.Fatalf("userinfo URL: indexed=%v linear=%v", got, want)
	}
}

// benchFilterList mirrors the synthetic web's generated list shape: mostly
// third-party domain-anchor rules plus a few path rules and exceptions.
func benchFilterList() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "||adnet-%02d.example^$third-party\n", i)
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "||adtrk-%02d.example^$third-party\n", i)
	}
	b.WriteString("/ads/banner*\n/adserve/^$script\n@@||adnet-00.example^allowed\n")
	return b.String()
}

var benchRequests = []Request{
	MakeRequest("http://adnet-07.example/ads/banner.png", "pub-01.example", ResourceImage),
	MakeRequest("http://static-03.example/lib.js", "pub-01.example", ResourceScript),
	MakeRequest("http://pub-01.example/section/page", "pub-01.example", ResourceDocument),
	MakeRequest("http://adtrk-11.example/adserve/t.js", "pub-02.example", ResourceScript),
	MakeRequest("http://cdn-02.example/style.css", "pub-02.example", ResourceStylesheet),
}

// BenchmarkShouldBlock times the tokenized index on a synthetic-shaped list
// (bench-smoke in CI).
func BenchmarkShouldBlock(b *testing.B) {
	l, err := ParseList("bench", benchFilterList())
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ShouldBlock(benchRequests[i%len(benchRequests)])
	}
}
