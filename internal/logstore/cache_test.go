package logstore

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/measure"
)

func testOutcome() VisitOutcome {
	sf := measure.NewBitset(100)
	sf.Set(3)
	sf.Set(4)
	sf.Set(99)
	return VisitOutcome{Features: sf, Invocations: 42, Pages: 13}
}

func TestCachePutGet(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(7, measure.CaseDefault); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := testOutcome()
	if err := c.Put(7, measure.CaseDefault, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(7, measure.CaseDefault)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cache round trip: got %+v, want %+v", got, want)
	}
	// Different case or seed: distinct keys.
	if _, ok := c.Get(7, measure.CaseBlocking); ok {
		t.Error("hit under the wrong case")
	}
	if _, ok := c.Get(8, measure.CaseDefault); ok {
		t.Error("hit under the wrong seed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit, 1 put, 3 misses", st)
	}
}

func TestCacheFailedOutcome(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(-3, measure.CaseGhostery, VisitOutcome{Failed: true}); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(-3, measure.CaseGhostery)
	if !ok || !got.Failed {
		t.Fatalf("failed outcome lost: %+v ok=%v", got, ok)
	}
}

// TestCacheCorpusMismatch: a cache populated under one corpus size must
// never serve entries to a study with another.
func TestCacheCorpusMismatch(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir, 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(1, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 200, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(1, measure.CaseDefault); ok {
		t.Fatal("entry served across corpus sizes")
	}
	if st := c2.Stats(); st.Errors != 1 {
		t.Errorf("mismatch should count as an error, stats = %+v", st)
	}
}

// TestCacheScopeMismatch: entries recorded under one study scope (site
// count, generation seed, methodology) must never serve another, even with
// the same visit seed, case, and corpus size.
func TestCacheScopeMismatch(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir, 100, "sites=1000 seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(1, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 100, "sites=10000 seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(1, measure.CaseDefault); ok {
		t.Fatal("entry served across study scopes")
	}
	// Same scope again: still a hit.
	c3, err := OpenCache(dir, 100, "sites=1000 seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(1, measure.CaseDefault); !ok {
		t.Fatal("entry lost for its own scope")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(5, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.visit"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one entry, got %v (%v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(5, measure.CaseDefault); ok {
		t.Fatal("corrupt entry served")
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("corruption should count as an error, stats = %+v", st)
	}
}

func TestOpenCacheValidation(t *testing.T) {
	if _, err := OpenCache(t.TempDir(), 0, ""); err == nil {
		t.Error("zero-feature cache accepted")
	}
	// dir is created if missing.
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	if _, err := OpenCache(dir, 10, ""); err != nil {
		t.Errorf("OpenCache did not create %s: %v", dir, err)
	}
}

// entrySize measures one encoded entry so the eviction tests can set caps
// in exact entry multiples.
func entrySize(t *testing.T) int64 {
	t.Helper()
	c, err := OpenCache(t.TempDir(), 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(c.Dir(), "*.visit"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected 1 entry, got %v (%v)", entries, err)
	}
	info, err := os.Stat(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestCacheEvictsLRU(t *testing.T) {
	size := entrySize(t)
	c, err := OpenCacheLimited(t.TempDir(), 100, "study-a", 3*size)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		if err := c.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 1 so entry 2 is the least recently used.
	if _, ok := c.Get(1, measure.CaseDefault); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	if err := c.Put(4, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction", st)
	}
	if _, ok := c.Get(2, measure.CaseDefault); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	for _, seed := range []int64{1, 3, 4} {
		if _, ok := c.Get(seed, measure.CaseDefault); !ok {
			t.Errorf("recently used entry %d was evicted", seed)
		}
	}
}

// onlyEntries fails the test unless dir holds nothing but *.visit
// entries (plus the named extra files): the cache keeps no side files.
func onlyEntries(t *testing.T, dir string, extra ...string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) != ".visit" && !slices.Contains(extra, de.Name()) {
			t.Errorf("cache wrote %s besides its entries", de.Name())
		}
	}
}

// TestCacheRecencySurvivesReopen proves recency persists in the entries'
// mtimes: after reopening, eviction removes entries in exactly the
// least-recently-used order of the previous run. That order matches
// neither the entries' names nor their write order, and the whole run
// usually fits in one filesystem timestamp tick, so it can only come from
// the cache's own strictly increasing stamps.
func TestCacheRecencySurvivesReopen(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	c1, err := OpenCacheLimited(dir, 100, "study-a", 3*size)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{2, 3, 1} {
		if err := c1.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c1.Get(2, measure.CaseDefault); !ok { // LRU first: 3, 1, 2
		t.Fatal("entry 2 missing")
	}
	onlyEntries(t, dir)

	c2, err := OpenCacheLimited(dir, 100, "study-a", 3*size)
	if err != nil {
		t.Fatal(err)
	}
	lru := []int64{3, 1, 2}
	for i, evicted := range lru {
		if err := c2.Put(int64(10+i), measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, c2.entryName(evicted, measure.CaseDefault))); !os.IsNotExist(err) {
			t.Fatalf("put %d: reopened cache kept entry %d, want it evicted (recency lost)", i, evicted)
		}
		for _, later := range lru[i+1:] {
			if _, err := os.Stat(filepath.Join(dir, c2.entryName(later, measure.CaseDefault))); err != nil {
				t.Fatalf("put %d: entry %d evicted out of LRU order", i, later)
			}
		}
	}
	if st := c2.Stats(); st.Evictions != 3 {
		t.Errorf("stats = %+v, want 3 evictions", st)
	}
	onlyEntries(t, dir)
}

// TestCacheCapSeedsFromDirectory applies a cap to a directory populated by
// an uncapped cache: the one-time seeding scan must pick the pre-existing
// entries up so they count against the cap and can be evicted.
func TestCacheCapSeedsFromDirectory(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	c1, err := OpenCache(dir, 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if err := c1.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := OpenCacheLimited(dir, 100, "study-a", 2*size)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(5, measure.CaseDefault, testOutcome()); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.visit"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Errorf("cap of 2 entries left %d entry files", len(entries))
	}
	if _, ok := c2.Get(5, measure.CaseDefault); !ok {
		t.Error("most recent entry was evicted")
	}
}

// TestCacheUnboundedWritesNoManifest pins that the uncapped cache stays
// zero-overhead: it writes nothing but entries, and never evicts.
func TestCacheUnboundedWritesNoManifest(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 100, "study-a")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		if err := c.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
	}
	onlyEntries(t, dir)
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("unbounded cache evicted: %+v", st)
	}
}

// TestCacheManifestCannotEscapeDirectory: eviction never removes a file
// that is not one of the cache directory's *.visit entries — not a file
// outside the directory, not a manifest left by an older build (which is
// ignored, however hostile its contents), not a directory that happens to
// carry the .visit suffix.
func TestCacheManifestCannotEscapeDirectory(t *testing.T) {
	size := entrySize(t)
	parent := t.TempDir()
	dir := filepath.Join(parent, "cache")
	victim := filepath.Join(parent, "victim.visit")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sub.visit"), 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := []byte("p 999999999 ../victim.visit\np 1 manifest\n")
	if err := os.WriteFile(filepath.Join(dir, "manifest"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCacheLimited(dir, 100, "study-a", size)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if err := c.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Fatalf("stats = %+v, want 3 evictions", st)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("eviction escaped the cache directory: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "manifest")); err != nil || string(got) != string(manifest) {
		t.Fatalf("old manifest was touched: %q, %v", got, err)
	}
	for _, keep := range []string{"notes.txt", "sub.visit"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("eviction removed %s: %v", keep, err)
		}
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.visit"))
	if len(entries) != 2 { // sub.visit plus the one entry that fits
		t.Errorf("capped cache left %v", entries)
	}
}

// TestCacheCappedConcurrentUse drives one capped cache from several
// goroutines at once, as a pipeline's workers do: the stamp clock and the
// recency state must stay consistent (run under -race), and the cap must
// hold on disk afterwards.
func TestCacheCappedConcurrentUse(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	c, err := OpenCacheLimited(dir, 100, "study-a", 8*size)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 20; i++ {
				seed := g*100 + i
				if err := c.Put(seed, measure.CaseDefault, testOutcome()); err != nil {
					t.Error(err)
					return
				}
				c.Get(seed, measure.CaseDefault)
				c.Get(seed-1, measure.CaseDefault)
			}
		}()
	}
	wg.Wait()
	entries, err := filepath.Glob(filepath.Join(dir, "*.visit"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(entries))*size > 8*size {
		t.Errorf("%d entries on disk exceed the 8-entry cap", len(entries))
	}
	if st := c.Stats(); st.Evictions != 80-int64(len(entries)) || st.Errors != 0 {
		t.Errorf("stats = %+v with %d entries on disk, want 80 puts less the survivors evicted", st, len(entries))
	}
	onlyEntries(t, dir)
}
