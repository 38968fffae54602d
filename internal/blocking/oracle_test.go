package blocking

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// ruleToRegexp compiles an ABP pattern into the reference regexp AdBlock
// Plus documents: * → .*, ^ → separator class (or end), || → scheme +
// optional subdomains anchor, | → string anchors. The hand-rolled matcher
// must agree with this oracle on every generated case.
func ruleToRegexp(r *Rule) *regexp.Regexp {
	var b strings.Builder
	pat := strings.ToLower(r.Pattern)
	switch {
	case r.DomainAnchor:
		b.WriteString(`^[a-z]+://([^/?#]*\.)?`)
	case r.StartAnchor:
		b.WriteString(`^`)
	}
	for i := 0; i < len(pat); i++ {
		switch c := pat[i]; c {
		case '*':
			b.WriteString(`.*`)
		case '^':
			b.WriteString(`([^a-z0-9_\-.%]|$)`)
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	if r.EndAnchor {
		b.WriteString(`$`)
	}
	return regexp.MustCompile(b.String())
}

// TestMatcherAgreesWithRegexpOracle cross-checks the matcher against the
// regexp reference on randomized rules and URLs.
func TestMatcherAgreesWithRegexpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	hosts := []string{"ads.example", "cdn.ads.example", "notads.example", "x.org", "sub.x.org"}
	paths := []string{"/", "/banner/1", "/a/banner", "/pathology", "/path", "/p?q=1", "/p%20x"}
	patterns := []string{
		"||ads.example^",
		"||ads.example^banner",
		"|http://ads.example/",
		"banner",
		"/banner/*",
		"banner*1",
		"||x.org^path^",
		"path|",
		"|http://x.org/p|",
	}
	for trial := 0; trial < 2000; trial++ {
		patText := patterns[rng.Intn(len(patterns))]
		rule, err := parseRule(patText)
		if err != nil {
			t.Fatalf("parseRule(%q): %v", patText, err)
		}
		oracle := ruleToRegexp(&rule)
		u := "http://" + hosts[rng.Intn(len(hosts))] + paths[rng.Intn(len(paths))]
		req := Request{URL: u, PageHost: "page.example"}
		got := rule.Matches(req)
		want := oracle.MatchString(u)
		if got != want {
			t.Fatalf("rule %q vs url %q: matcher=%v oracle=%v (oracle regexp %s)",
				patText, u, got, want, oracle)
		}
		// The tokenized index and the linear scan must agree with the
		// oracle too: a one-rule engine blocks exactly when the rule
		// matches.
		e := NewEngine(&List{Name: "oracle", Rules: []Rule{rule}})
		if ib := e.ShouldBlock(req); ib != want {
			t.Fatalf("rule %q vs url %q: indexed engine=%v oracle=%v", patText, u, ib, want)
		}
		if lb := shouldBlockLinear(e, req); lb != want {
			t.Fatalf("rule %q vs url %q: linear engine=%v oracle=%v", patText, u, lb, want)
		}
	}
}

// TestDomainAnchorOracleEdgeCases pins the subtle "||" boundary semantics.
func TestDomainAnchorOracleEdgeCases(t *testing.T) {
	rule, err := parseRule("||ads.example^")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		url  string
		want bool
	}{
		{"http://ads.example/x", true},
		{"https://a.b.ads.example/x", true},
		{"http://badads.example/x", false},       // not at a label boundary
		{"http://ads.example.evil.com/x", false}, // ^ must match after the domain
		{"http://ads.example", true},             // ^ matches end of URL
		{"http://ads.example:8080/x", true},      // ^ matches ':'
	}
	for _, c := range cases {
		req := Request{URL: c.url, PageHost: "p.example"}
		if got := rule.Matches(req); got != c.want {
			t.Errorf("||ads.example^ vs %q = %v, want %v", c.url, got, c.want)
		}
	}
}
