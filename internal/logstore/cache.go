package logstore

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/measure"
)

// cacheMagic identifies one cached visit outcome on disk.
const cacheMagic = "\xF1VCH1"

// VisitOutcome is everything one visit contributes to the survey log: the
// feature set, invocation and page totals — or the fact that the visit
// failed and made the site unmeasurable. Failures are cached too, because
// they are as deterministic as successes.
type VisitOutcome struct {
	Failed      bool
	Features    measure.Bitset
	Invocations int64
	Pages       int
}

// CacheStats counts cache traffic. Errors counts unreadable or mismatched
// entries, which degrade to misses rather than failing a run; Evictions
// counts entries pruned to honor the size cap.
type CacheStats struct {
	Hits, Misses, Puts, Errors, Evictions int64
}

// Cache memoizes visit outcomes on disk, keyed by the visit's deterministic
// seed and its browser configuration (the blocking profile of the visit).
// Because crawler.VisitSeed derives a visit's randomness purely from
// (base seed, site, case, round), a re-run with an overlapping config can
// skip every visit the cache already holds and still produce the identical
// log.
//
// VisitSeed does not encode the study itself — a different site count or
// generation seed builds a different synthetic web whose visits must never
// be replayed across runs — so every entry also records the corpus size and
// the caller's scope string (the study parameters that shape visit
// outcomes). Entries from another scope degrade to misses.
//
// A capped cache (OpenCacheLimited with maxBytes > 0) prunes
// least-recently-used entries once their total size exceeds the cap.
// Recency lives in the entry files themselves: every Put and every hit
// stamps the entry's mtime from a per-cache clock that strictly increases,
// so opening a capped cache recovers the exact LRU order from one
// directory scan (by mtime, then name), and neither lookups nor eviction
// scan the directory after that. Only *.visit entries are ever tracked or
// evicted; any other file in the directory is left alone.
//
// A Cache is safe for concurrent use; entries are written to a temp file
// and renamed into place so a crashed run never leaves a torn entry.
type Cache struct {
	dir         string
	numFeatures int
	scope       string

	hits, misses, puts, errors, evictions atomic.Int64

	// Eviction state, active only when maxBytes > 0.
	mu         sync.Mutex
	maxBytes   int64
	totalBytes int64
	entries    map[string]*list.Element // entry filename → lru element
	lru        *list.List               // front = most recently used
	clock      int64                    // last recency stamp, Unix nanoseconds
}

// cacheEntry is one tracked entry file.
type cacheEntry struct {
	name string
	size int64
}

// OpenCache opens (creating if needed) an unbounded visit cache rooted at
// dir for a study with the given corpus size. scope fingerprints everything
// beyond (VisitSeed, case) that determines a visit's outcome — the site
// count, generation seed, and crawl methodology; cache entries only ever
// serve a cache opened with the identical scope.
func OpenCache(dir string, numFeatures int, scope string) (*Cache, error) {
	return OpenCacheLimited(dir, numFeatures, scope, 0)
}

// OpenCacheLimited is OpenCache with a size cap: once the entries exceed
// maxBytes in total, the least-recently-used are deleted. maxBytes <= 0
// means unbounded (no recency is kept and nothing but entries is written).
func OpenCacheLimited(dir string, numFeatures int, scope string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: opening cache: %w", err)
	}
	if numFeatures <= 0 || numFeatures > maxFeatures {
		return nil, fmt.Errorf("logstore: cache corpus size %d out of range", numFeatures)
	}
	c := &Cache{dir: dir, numFeatures: numFeatures, scope: scope}
	if maxBytes > 0 {
		c.maxBytes = maxBytes
		c.entries = make(map[string]*list.Element)
		c.lru = list.New()
		if err := c.seedFromDirectory(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// entryName maps a (visit seed, case, scope) key to its entry file. Case
// and scope are user-influenced strings, so they are hashed rather than
// embedded in the filename; the entry body stores both verbatim for
// collision safety.
func (c *Cache) entryName(seed int64, cs measure.Case) string {
	h := fnv.New64a()
	h.Write([]byte(cs))
	h.Write([]byte{0})
	h.Write([]byte(c.scope))
	return fmt.Sprintf("%016x-%016x.visit", uint64(seed), h.Sum64())
}

// Get looks up the outcome of the visit keyed by (seed, cs). A missing,
// corrupt, or mismatched entry is a miss.
func (c *Cache) Get(seed int64, cs measure.Case) (VisitOutcome, bool) {
	name := c.entryName(seed, cs)
	data, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		c.misses.Add(1)
		c.forget(name)
		return VisitOutcome{}, false
	}
	out, err := c.decode(data, cs)
	if err != nil {
		c.errors.Add(1)
		c.misses.Add(1)
		return VisitOutcome{}, false
	}
	c.hits.Add(1)
	c.use(name, int64(len(data)))
	return out, true
}

// Put stores the outcome of the visit keyed by (seed, cs). Write failures
// are counted and reported but a caller may treat them as non-fatal: the
// cache is an accelerator, not a correctness dependency.
func (c *Cache) Put(seed int64, cs measure.Case, out VisitOutcome) error {
	var buf bytes.Buffer
	w := newBinWriter(&buf)
	w.bytes([]byte(cacheMagic))
	w.uvarint(uint64(c.numFeatures))
	w.str(c.scope)
	w.str(string(cs))
	if out.Failed {
		w.bytes([]byte{1})
	} else {
		w.bytes([]byte{0})
		w.uvarint(uint64(out.Invocations))
		w.uvarint(uint64(out.Pages))
		w.bitset(out.Features, c.numFeatures)
	}
	if err := w.flush(); err != nil {
		c.errors.Add(1)
		return err
	}

	// Unlike the durable files (DurableFile), an entry is renamed into
	// place without an fsync: the cache only accelerates a run and every
	// entry is validated on read, while an fsync per visit would cost
	// ~200k fsyncs at paper scale. An entry torn by a power loss decodes
	// as a miss, never as a wrong outcome.
	name := c.entryName(seed, cs)
	tmp, err := os.CreateTemp(c.dir, ".visit-*")
	if err == nil {
		_, err = tmp.Write(buf.Bytes())
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), filepath.Join(c.dir, name))
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		c.errors.Add(1)
		return fmt.Errorf("logstore: writing cache entry: %w", err)
	}
	c.puts.Add(1)
	c.use(name, int64(len(buf.Bytes())))
	return nil
}

// decode parses one entry, validating it against the cache's corpus and
// the case it was looked up under.
func (c *Cache) decode(data []byte, cs measure.Case) (VisitOutcome, error) {
	r := newBinReader(bytes.NewReader(data))
	if err := r.expectMagic(cacheMagic, "cache entry"); err != nil {
		return VisitOutcome{}, err
	}
	nf, err := r.count(maxFeatures, "feature count")
	if err != nil {
		return VisitOutcome{}, err
	}
	if nf != c.numFeatures {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for a %d-feature corpus, want %d", nf, c.numFeatures)
	}
	storedScope, err := r.str(4096, "scope")
	if err != nil {
		return VisitOutcome{}, err
	}
	if storedScope != c.scope {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for scope %q, want %q", storedScope, c.scope)
	}
	storedCase, err := r.str(256, "case name")
	if err != nil {
		return VisitOutcome{}, err
	}
	if storedCase != string(cs) {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for case %q, want %q", storedCase, cs)
	}
	flag, err := r.br.ReadByte()
	if err != nil {
		return VisitOutcome{}, err
	}
	if flag == 1 {
		return VisitOutcome{Failed: true}, nil
	}
	var out VisitOutcome
	if out.Invocations, err = r.int64Val("invocations"); err != nil {
		return VisitOutcome{}, err
	}
	pages, err := r.count(1<<30, "pages")
	if err != nil {
		return VisitOutcome{}, err
	}
	out.Pages = pages
	if out.Features, err = r.bitset(c.numFeatures); err != nil {
		return VisitOutcome{}, err
	}
	return out, nil
}

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Errors:    c.errors.Load(),
		Evictions: c.evictions.Load(),
	}
}

// --- eviction state ---------------------------------------------------

// seedFromDirectory registers the existing entries in recency order
// (oldest mtime first, ties by name) and starts the stamp clock after the
// newest mtime seen, so every later stamp sorts after every existing one.
func (c *Cache) seedFromDirectory() error {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.visit"))
	if err != nil {
		return fmt.Errorf("logstore: scanning cache: %w", err)
	}
	type aged struct {
		name        string
		size, mtime int64
	}
	var found []aged
	for _, p := range names {
		info, err := os.Lstat(p)
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		found = append(found, aged{filepath.Base(p), info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		return a.mtime < b.mtime || a.mtime == b.mtime && a.name < b.name
	})
	for _, e := range found {
		c.registerLocked(e.name, e.size)
		c.clock = max(c.clock, e.mtime)
	}
	return nil
}

// stampLocked marks an entry most recently used on disk by setting its
// mtime from the cache clock, which never repeats or runs backwards even
// when the wall clock does. An error means the entry is gone.
func (c *Cache) stampLocked(name string) error {
	c.clock = max(c.clock+1, time.Now().UnixNano())
	t := time.Unix(0, c.clock)
	return os.Chtimes(filepath.Join(c.dir, name), t, t)
}

// registerLocked inserts or refreshes an entry at the recency front.
func (c *Cache) registerLocked(name string, size int64) {
	if el, ok := c.entries[name]; ok {
		c.totalBytes += size - el.Value.(cacheEntry).size
		el.Value = cacheEntry{name, size}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[name] = c.lru.PushFront(cacheEntry{name, size})
	c.totalBytes += size
}

// dropLocked removes an entry from the recency state (not from disk).
func (c *Cache) dropLocked(name string) {
	if el, ok := c.entries[name]; ok {
		c.totalBytes -= el.Value.(cacheEntry).size
		c.lru.Remove(el)
		delete(c.entries, name)
	}
}

// use marks an entry just written or hit as most recently used —
// registering it if untracked — and prunes until the cache fits its cap.
// Get and Put touch the file outside the lock, so a concurrent eviction
// may have deleted it since; evictions run under this lock, so a failed
// stamp settles it — registering a ghost would inflate totalBytes and
// evict a live entry in its place.
func (c *Cache) use(name string, size int64) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.stampLocked(name); err != nil {
		c.dropLocked(name)
		return
	}
	c.registerLocked(name, size)
	c.evictLocked()
}

// forget removes a vanished entry from the recency state.
func (c *Cache) forget(name string) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(name)
}

// evictLocked deletes from the recency back until under the cap. Tracked
// names are only ever entryName results or *.visit files listed in the
// cache directory, so eviction cannot reach outside it.
func (c *Cache) evictLocked() {
	for c.totalBytes > c.maxBytes && c.lru.Len() > 0 {
		e := c.lru.Back().Value.(cacheEntry)
		if err := os.Remove(filepath.Join(c.dir, e.name)); err != nil && !os.IsNotExist(err) {
			c.errors.Add(1)
		}
		c.dropLocked(e.name)
		c.evictions.Add(1)
	}
}
