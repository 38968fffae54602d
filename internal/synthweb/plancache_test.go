package synthweb

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// dropPlan evicts a site's plan so the next lookup rebuilds it.
func (w *Web) dropPlan(index int) {
	w.planMu.Lock()
	w.plans = slices.DeleteFunc(w.plans, func(p *sitePlan) bool { return p.site == index })
	w.planMu.Unlock()
}

// planBytes is everything a plan serves, in a fixed order.
func planBytes(p *sitePlan) string {
	var out string
	for _, k := range pageKeys {
		page := p.pages[k]
		out += page.html + page.firstPartySource
		for _, party := range []Party{PartyAd, PartyTracker, PartyDual} {
			out += page.thirdPartySource[party]
		}
	}
	return out
}

// TestPlanCacheKeepsInFlightSites requests 32 sites in interleaved order,
// as 8 shards × 4 workers do; each must keep its one plan.
func TestPlanCacheKeepsInFlightSites(t *testing.T) {
	w := testWebOnce(t)
	const inFlight = 32
	first := make([]*sitePlan, inFlight)
	for round := 0; round < 5; round++ {
		for i := 0; i < inFlight; i++ {
			// Stride through the sites so neighbours in the request
			// order are far apart in index order.
			site := w.Sites[(i*7)%inFlight+100]
			p := w.planOf(site)
			if round == 0 {
				first[i] = p
			} else if p != first[i] {
				t.Fatalf("round %d: site %d got a rebuilt plan", round, site.Index)
			}
		}
	}
	// A slow site stays in flight while many short ones pass through;
	// recency, not age, must keep it.
	slow := w.Sites[200]
	want := w.planOf(slow)
	for i := 0; i < 2*planCacheSize; i++ {
		w.planOf(w.Sites[300+i])
		if w.planOf(slow) != want {
			t.Fatalf("slow site evicted after %d newer sites", i+1)
		}
	}
}

// TestPlanCacheRebuildsEvictedSite pushes a site out with planCacheSize newer
// sites; its rebuilt plan must serve the same bytes.
func TestPlanCacheRebuildsEvictedSite(t *testing.T) {
	w := testWebOnce(t)
	site := w.Sites[500]
	old := w.planOf(site)
	want := planBytes(old)
	for i := 0; i < planCacheSize; i++ {
		w.planOf(w.Sites[600+i])
	}
	w.planMu.Lock()
	n := len(w.plans)
	w.planMu.Unlock()
	if n > planCacheSize {
		t.Fatalf("cache holds %d plans, bound is %d", n, planCacheSize)
	}
	p := w.planOf(site)
	if p == old {
		t.Fatal("site survived planCacheSize newer sites")
	}
	if planBytes(p) != want {
		t.Fatal("rebuilt plan serves different bytes")
	}
}

// TestPlanCacheConcurrentResource has goroutines fetch overlapping sites
// through one Web, with enough sites to force evictions; every body must
// equal the one a fresh Web serves.
func TestPlanCacheConcurrentResource(t *testing.T) {
	reg := testRegistry(t)
	cfg := Config{Sites: 2 * planCacheSize, Seed: 5}
	fresh, err := Generate(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	want := map[string]string{}
	for _, site := range fresh.Sites {
		if site.Failure == FailUnresponsive {
			continue
		}
		for _, u := range []string{"http://" + site.Domain + "/", "http://" + site.Domain + "/static/sec2.js"} {
			res, err := fresh.Resource(u)
			if err != nil {
				t.Fatal(err)
			}
			urls = append(urls, u)
			want[u] = res.Body
		}
	}

	shared, err := Generate(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker starts a quarter further in and wraps, so
			// the workers overlap on every site.
			for i := range urls {
				u := urls[(i+g*len(urls)/workers)%len(urls)]
				res, err := shared.Resource(u)
				if err != nil {
					errs <- err
					return
				}
				if res.Body != want[u] {
					errs <- fmt.Errorf("%s: body differs from a fresh web's", u)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
