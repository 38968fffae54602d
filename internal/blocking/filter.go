package blocking

import (
	"fmt"
	"net/url"
	"strings"
)

// ResourceType classifies a request for $type filter options.
type ResourceType int

const (
	ResourceDocument ResourceType = iota
	ResourceScript
	ResourceImage
	ResourceStylesheet
	ResourceSubdocument
	ResourceOther
)

var resourceTypeNames = map[string]ResourceType{
	"document":    ResourceDocument,
	"script":      ResourceScript,
	"image":       ResourceImage,
	"stylesheet":  ResourceStylesheet,
	"subdocument": ResourceSubdocument,
	"other":       ResourceOther,
}

// Request describes one resource fetch for filter evaluation.
type Request struct {
	// URL is the full resource URL.
	URL string
	// PageHost is the host of the page initiating the request.
	PageHost string
	// Type is the resource class.
	Type ResourceType

	// host and thirdParty memoize Host and ThirdParty. Every blocker in an
	// extension stack re-derives both (URL parse plus registrable-domain
	// comparison), so MakeRequest computes them once per request instead
	// of once per blocker per rule. A zero-value Request still works —
	// the accessors fall back to deriving on the fly.
	host         string
	hostOK       bool
	thirdParty   bool
	thirdPartyOK bool
}

// MakeRequest builds a Request with its host and third-party derivations
// precomputed. The browser's webRequest layer uses this for every
// subresource so the whole blocking stack (ABP engine, tracker database,
// their combination) shares one derivation.
func MakeRequest(rawURL, pageHost string, t ResourceType) Request {
	r := Request{URL: rawURL, PageHost: pageHost, Type: t}
	r.host = r.hostSlow()
	r.hostOK = true
	r.thirdParty = !sameRegistrableDomain(r.host, strings.ToLower(pageHost))
	r.thirdPartyOK = true
	return r
}

// Host returns the request URL's host (lower-cased, without port).
func (r Request) Host() string {
	if r.hostOK {
		return r.host
	}
	return r.hostSlow()
}

func (r Request) hostSlow() string {
	u, err := url.Parse(r.URL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// ThirdParty reports whether the request crosses registrable-domain
// boundaries relative to the initiating page.
func (r Request) ThirdParty() bool {
	if r.thirdPartyOK {
		return r.thirdParty
	}
	return !sameRegistrableDomain(r.Host(), strings.ToLower(r.PageHost))
}

// sameRegistrableDomain approximates eTLD+1 comparison: hosts are same-site
// when one is a suffix of the other at a label boundary, or when they share
// their last two labels.
func sameRegistrableDomain(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	if a == b {
		return true
	}
	ra, rb := lastLabels(a, 2), lastLabels(b, 2)
	return ra == rb
}

// lastLabels returns the suffix of host holding its final n labels (the
// whole host when it has n or fewer). It slices instead of splitting — this
// runs once per request per blocker, and Split/Join cost two allocations.
func lastLabels(host string, n int) string {
	i := len(host)
	for dots := 0; i > 0; i-- {
		if host[i-1] == '.' {
			dots++
			if dots == n {
				return host[i:]
			}
		}
	}
	return host
}

// Rule is one parsed ABP filter rule.
type Rule struct {
	// Raw is the original rule text.
	Raw string
	// Exception marks "@@" allow rules.
	Exception bool
	// DomainAnchor marks "||" rules (match at a domain-label boundary).
	DomainAnchor bool
	// StartAnchor marks "|" rules (match at URL start).
	StartAnchor bool
	// EndAnchor marks rules ending in "|".
	EndAnchor bool
	// Pattern is the body with wildcards (*) and separators (^).
	Pattern string
	// Types restricts matching to resource types; empty means all.
	Types map[ResourceType]bool
	// ThirdPartyOnly / FirstPartyOnly implement $third-party and
	// $~third-party.
	ThirdPartyOnly bool
	FirstPartyOnly bool
	// IncludeDomains/ExcludeDomains implement $domain=a|~b against the
	// initiating page host.
	IncludeDomains []string
	ExcludeDomains []string

	// patLower caches strings.ToLower(Pattern). Matching is case-blind, and
	// lowering the pattern on every candidate (rules × requests) dominated
	// the old scan's allocations; parseRule fills this once.
	patLower string
}

// patternLower returns the cached lower-cased pattern, lowering on the fly
// for hand-built rules that never went through parseRule.
func (r *Rule) patternLower() string {
	if r.patLower != "" || r.Pattern == "" {
		return r.patLower
	}
	return strings.ToLower(r.Pattern)
}

// HidingRule is one element-hiding ("##") rule.
type HidingRule struct {
	// Domains restricts the rule to pages on these registrable domains;
	// empty means all pages.
	Domains []string
	// Selector is the dom selector of elements to hide.
	Selector string
}

// List is a parsed filter list.
type List struct {
	// Name identifies the list (e.g. "easylist-synthetic").
	Name string
	// Rules are the URL-blocking and exception rules.
	Rules []Rule
	// Hiding are the element-hiding rules.
	Hiding []HidingRule
}

// ParseList parses ABP filter-list text. Unsupported option values make the
// individual rule fail with an error identifying its line.
func ParseList(name, text string) (*List, error) {
	l := &List{Name: name}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			continue // comment or list header
		}
		if idx := strings.Index(line, "##"); idx >= 0 {
			h := HidingRule{Selector: strings.TrimSpace(line[idx+2:])}
			if h.Selector == "" {
				return nil, fmt.Errorf("%s:%d: empty hiding selector", name, i+1)
			}
			for _, d := range strings.Split(line[:idx], ",") {
				d = strings.TrimSpace(d)
				if d != "" {
					h.Domains = append(h.Domains, strings.ToLower(d))
				}
			}
			l.Hiding = append(l.Hiding, h)
			continue
		}
		r, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, i+1, err)
		}
		l.Rules = append(l.Rules, r)
	}
	return l, nil
}

func parseRule(line string) (Rule, error) {
	r := Rule{Raw: line}
	body := line
	if strings.HasPrefix(body, "@@") {
		r.Exception = true
		body = body[2:]
	}
	// $options suffix.
	if idx := strings.LastIndexByte(body, '$'); idx >= 0 {
		opts := strings.Split(body[idx+1:], ",")
		body = body[:idx]
		for _, opt := range opts {
			opt = strings.TrimSpace(opt)
			switch {
			case opt == "third-party":
				r.ThirdPartyOnly = true
			case opt == "~third-party":
				r.FirstPartyOnly = true
			case strings.HasPrefix(opt, "domain="):
				for _, d := range strings.Split(opt[len("domain="):], "|") {
					d = strings.ToLower(strings.TrimSpace(d))
					if strings.HasPrefix(d, "~") {
						r.ExcludeDomains = append(r.ExcludeDomains, d[1:])
					} else if d != "" {
						r.IncludeDomains = append(r.IncludeDomains, d)
					}
				}
			default:
				t, ok := resourceTypeNames[opt]
				if !ok {
					return r, fmt.Errorf("unsupported filter option %q", opt)
				}
				if r.Types == nil {
					r.Types = make(map[ResourceType]bool)
				}
				r.Types[t] = true
			}
		}
	}
	if strings.HasPrefix(body, "||") {
		r.DomainAnchor = true
		body = body[2:]
	} else if strings.HasPrefix(body, "|") {
		r.StartAnchor = true
		body = body[1:]
	}
	if strings.HasSuffix(body, "|") {
		r.EndAnchor = true
		body = body[:len(body)-1]
	}
	if body == "" {
		return r, fmt.Errorf("empty rule pattern")
	}
	r.Pattern = body
	r.patLower = strings.ToLower(body)
	return r, nil
}

// Matches reports whether the rule matches the request (ignoring
// exception-ness, which the engine layers on top).
func (r *Rule) Matches(req Request) bool {
	m := newMatchCtx(&req)
	return r.matches(&m)
}

// matchCtx carries the per-request derivations every candidate rule needs —
// the lowered URL and page host — so a scan computes them once instead of
// once per rule.
type matchCtx struct {
	req      *Request
	urlLower string
	pageHost string // lower-cased
}

func newMatchCtx(req *Request) matchCtx {
	return matchCtx{
		req:      req,
		urlLower: strings.ToLower(req.URL),
		pageHost: strings.ToLower(req.PageHost),
	}
}

func (r *Rule) matches(m *matchCtx) bool {
	if r.Types != nil && !r.Types[m.req.Type] {
		return false
	}
	if r.ThirdPartyOnly && !m.req.ThirdParty() {
		return false
	}
	if r.FirstPartyOnly && m.req.ThirdParty() {
		return false
	}
	if len(r.IncludeDomains) > 0 && !lowerHostInDomains(m.pageHost, r.IncludeDomains) {
		return false
	}
	if lowerHostInDomains(m.pageHost, r.ExcludeDomains) {
		return false
	}
	u := m.urlLower
	pat := r.patternLower()
	switch {
	case r.DomainAnchor:
		return domainAnchorMatch(u, pat, r.EndAnchor)
	case r.StartAnchor:
		return patternMatch(u, pat, true, r.EndAnchor)
	default:
		return patternMatch(u, pat, false, r.EndAnchor)
	}
}

func hostInDomains(host string, domains []string) bool {
	return lowerHostInDomains(strings.ToLower(host), domains)
}

// lowerHostInDomains is hostInDomains for a host the caller already lowered.
func lowerHostInDomains(host string, domains []string) bool {
	for _, d := range domains {
		if host == d || len(host) > len(d) && host[len(host)-len(d)-1] == '.' && strings.HasSuffix(host, d) {
			return true
		}
	}
	return false
}

// domainAnchorMatch implements "||": the pattern must match starting at the
// beginning of a host label within the URL's authority.
func domainAnchorMatch(u, pat string, endAnchor bool) bool {
	// Find the start of the host in the URL.
	rest := u
	if idx := strings.Index(rest, "://"); idx >= 0 {
		rest = rest[idx+3:]
	}
	// Candidate anchor positions: host start and after each dot within
	// the authority.
	authEnd := len(rest)
	if idx := strings.IndexAny(rest, "/?"); idx >= 0 {
		authEnd = idx
	}
	for pos := 0; pos <= authEnd; {
		if patternMatch(rest[pos:], pat, true, endAnchor) {
			return true
		}
		next := strings.IndexByte(rest[pos:authEnd], '.')
		if next < 0 {
			return false
		}
		pos += next + 1
	}
	return false
}

// patternMatch matches pat (with * wildcards and ^ separators) against s.
// anchored requires the match to start at s[0]; endAnchor requires it to end
// at len(s).
func patternMatch(s, pat string, anchored, endAnchor bool) bool {
	if anchored {
		return matchHere(s, pat, endAnchor)
	}
	for i := 0; i <= len(s); i++ {
		if matchHere(s[i:], pat, endAnchor) {
			return true
		}
	}
	return false
}

// matchHere matches pat at the start of s.
func matchHere(s, pat string, endAnchor bool) bool {
	for pat != "" {
		switch pat[0] {
		case '*':
			pat = pat[1:]
			if pat == "" {
				// A trailing star consumes the rest of the URL,
				// satisfying any end anchor.
				return true
			}
			for i := 0; i <= len(s); i++ {
				if matchHere(s[i:], pat, endAnchor) {
					return true
				}
			}
			return false
		case '^':
			// Separator: any char that is not letter, digit, or
			// one of _-.% — or the end of the URL.
			if s == "" {
				pat = pat[1:]
				continue
			}
			if isSeparator(s[0]) {
				s, pat = s[1:], pat[1:]
				continue
			}
			return false
		default:
			if s == "" || s[0] != pat[0] {
				return false
			}
			s, pat = s[1:], pat[1:]
		}
	}
	if endAnchor {
		return s == ""
	}
	return true
}

func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}

// Engine evaluates one or more filter lists, exceptions first, as AdBlock
// Plus does. Lists must not be mutated after they are handed to the engine:
// the token index built at AddList time points into their rule slices.
type Engine struct {
	lists []*List
	idx   ruleIndex
}

// NewEngine builds an engine over the given lists.
func NewEngine(lists ...*List) *Engine {
	e := &Engine{}
	e.idx.init()
	for _, l := range lists {
		e.AddList(l)
	}
	return e
}

// AddList appends another list to the engine and indexes its rules.
func (e *Engine) AddList(l *List) {
	if e.idx.exc.byDomain == nil {
		e.idx.init() // zero-value Engine
	}
	e.lists = append(e.lists, l)
	e.idx.addList(l)
}

// ShouldBlock reports whether the request is blocked: some block rule
// matches and no exception rule does. The result is scan-order independent —
// any matching exception wins outright — which is what lets the indexed path
// consult exception buckets first and block buckets second while agreeing
// with the all-rules linear scan (the test-only reference) on every request.
func (e *Engine) ShouldBlock(req Request) bool {
	m := newMatchCtx(&req)
	return e.idx.shouldBlock(&m)
}

// HideSelectors returns the element-hiding selectors applicable to a page
// host, in list order.
func (e *Engine) HideSelectors(pageHost string) []string {
	return e.AppendHideSelectors(pageHost, nil)
}

// AppendHideSelectors appends the applicable selectors to out and returns the
// extended slice, letting per-page callers reuse one scratch buffer instead
// of allocating a fresh result for every page.
func (e *Engine) AppendHideSelectors(pageHost string, out []string) []string {
	host := strings.ToLower(pageHost)
	for _, l := range e.lists {
		for _, h := range l.Hiding {
			if len(h.Domains) == 0 || lowerHostInDomains(host, h.Domains) {
				out = append(out, h.Selector)
			}
		}
	}
	return out
}

// RuleCount returns the total number of URL rules across lists.
func (e *Engine) RuleCount() int {
	n := 0
	for _, l := range e.lists {
		n += len(l.Rules)
	}
	return n
}
