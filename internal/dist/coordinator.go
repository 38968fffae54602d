package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
)

// CoordinatorConfig parameterizes a survey coordinator. Spec, NumSites,
// NumFeatures, Standards, and Cases describe the study; everything else has
// a usable default.
type CoordinatorConfig struct {
	// Spec is the opaque study specification forwarded to every worker in
	// the Welcome frame (core.Study.Spec produces it). Workers rebuild
	// the identical synthetic web and methodology from it, which is what
	// makes their visits deterministic and the merged result
	// byte-identical to a single-machine run.
	Spec []byte
	// NumSites is the survey's full site-list size; leases partition
	// [0, NumSites).
	NumSites int
	// NumFeatures is the corpus size; worker spill streams must declare
	// exactly this many features.
	NumFeatures int
	// Standards is the per-feature standard mapping
	// (stats.StandardsOf).
	Standards []standards.Abbrev
	// Cases are the browser configurations of the survey, in canonical
	// order.
	Cases []measure.Case
	// LeaseSites is the number of sites per lease. Smaller leases spread
	// better over heterogeneous workers and lose less work on a crash;
	// larger ones amortize per-lease overhead (each lease's spill stream
	// repeats the site-list header). Default 64.
	LeaseSites int
	// HeartbeatTimeout is how long a worker may stay silent before its
	// connection is declared dead and its in-flight lease re-issued.
	// Workers heartbeat at a third of this. Default 10s.
	HeartbeatTimeout time.Duration
	// Agg, when non-nil, is the merge target for committed leases instead
	// of a coordinator-private aggregate. The query server passes its
	// resident aggregate here so HTTP readers watch tables fill in
	// mid-survey: every lease commit merges — and therefore publishes a
	// fresh snapshot epoch — into the aggregate the server reads. It must
	// describe the same study (NumFeatures, NumSites, Cases) and start
	// with no open sites.
	Agg *stats.Aggregate
	// CheckpointPath, when non-empty, journals every committed lease —
	// ID plus its complete spill stream — to an append-only checkpoint
	// file, fsynced per commit. A coordinator restarted over the same
	// checkpoint re-merges the journaled leases and re-issues only the
	// rest, so a coordinator kill loses at most the leases in flight.
	// The checkpoint pins the survey (sites, corpus, lease size, spec);
	// reusing it with a different study is an error.
	CheckpointPath string
	// SeedSpills, when non-empty, names spill files from a crashed
	// single-machine run of the same study (typically its spill
	// directory's shard and .partial files). Every lease whose sites all
	// committed durably in them is merged — and journaled, when
	// checkpointing — before any worker connects, so a local run
	// promotes to a distributed one without redoing finished work.
	// Leases only partially covered are re-crawled whole. Requires
	// Domains.
	SeedSpills []string
	// Domains is the survey's site list, index-aligned with the site
	// indices leases carry. Required when SeedSpills is set (seed
	// streams must prove they describe this exact study).
	Domains []string
	// OnLeaseMerged, when non-nil, is called after each lease commit
	// merges, with the number of merged leases so far and the total lease
	// count. Called under the coordinator's lock; keep it quick.
	OnLeaseMerged func(merged, total int)
	// Logf, when non-nil, receives progress lines (worker arrivals, lease
	// grants, requeues).
	Logf func(format string, args ...any)
}

func (cfg CoordinatorConfig) normalized() CoordinatorConfig {
	if cfg.LeaseSites <= 0 {
		cfg.LeaseSites = 64
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Coordinator owns one distributed survey: it partitions the site list into
// leases, hands leases to connecting workers, folds each completed lease's
// spill stream into the survey aggregate, and re-issues the leases of
// workers that die. Create one with Listen, run it with Serve.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	leases  [][]int  // lease ID → site indices
	pending chan int // lease IDs awaiting a worker

	mu        sync.Mutex
	agg       *stats.Aggregate
	ckpt      *checkpoint  // nil when not checkpointing
	completed map[int]bool // lease ID → merged
	attempts  []int        // lease ID → times issued
	conns     map[net.Conn]bool
	closed    bool

	allDone chan struct{} // closed when every lease has merged
	stop    chan struct{} // closed on any shutdown: wakes idle handlers
	fatal   chan error    // first unrecoverable error
	wg      sync.WaitGroup
}

// Listen binds the coordinator to addr (host:port; port 0 picks a free
// port — Addr reports the choice) and prepares the lease table. Serve
// starts the survey.
func Listen(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.normalized()
	if cfg.NumSites <= 0 {
		return nil, fmt.Errorf("dist: coordinator requires a positive site count")
	}
	agg := cfg.Agg
	if agg == nil {
		var err error
		agg, err = stats.New(stats.Config{
			NumFeatures: cfg.NumFeatures,
			NumSites:    cfg.NumSites,
			Standards:   cfg.Standards,
			Cases:       cfg.Cases,
			Stripes:     1,
		})
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
	} else {
		if agg.NumFeatures() != cfg.NumFeatures || agg.NumSites() != cfg.NumSites {
			return nil, fmt.Errorf("dist: external aggregate is %d features × %d sites, survey is %d × %d",
				agg.NumFeatures(), agg.NumSites(), cfg.NumFeatures, cfg.NumSites)
		}
		if n := agg.OpenSites(); n > 0 {
			return nil, fmt.Errorf("dist: external aggregate has %d open sites", n)
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		agg:       agg,
		completed: make(map[int]bool),
		conns:     make(map[net.Conn]bool),
		allDone:   make(chan struct{}),
		stop:      make(chan struct{}),
		fatal:     make(chan error, 1),
	}
	for start := 0; start < cfg.NumSites; start += cfg.LeaseSites {
		end := start + cfg.LeaseSites
		if end > cfg.NumSites {
			end = cfg.NumSites
		}
		sites := make([]int, 0, end-start)
		for s := start; s < end; s++ {
			sites = append(sites, s)
		}
		c.leases = append(c.leases, sites)
	}
	c.attempts = make([]int, len(c.leases))

	// A previous life's checkpoint replays first: its journaled leases
	// merge exactly as they did before the crash. Then, optionally, a
	// crashed single-machine run's spills seed every lease they fully
	// cover. Both happen before the listener opens, so the first worker
	// already sees only the remaining work.
	if cfg.CheckpointPath != "" {
		ck, commits, err := loadCheckpoint(cfg.CheckpointPath, cfg)
		if err != nil {
			return nil, err
		}
		c.ckpt = ck
		ids := make([]int, 0, len(commits))
		for id := range commits {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if id >= len(c.leases) {
				ck.close()
				return nil, fmt.Errorf("dist: checkpoint commits lease %d, survey has %d leases", id, len(c.leases))
			}
			if err := c.adopt(id, commits[id], false); err != nil {
				ck.close()
				return nil, fmt.Errorf("dist: replaying checkpoint: %w", err)
			}
		}
		if len(commits) > 0 {
			cfg.Logf("dist: checkpoint replayed %d/%d committed leases", len(commits), len(c.leases))
		}
	}
	if len(cfg.SeedSpills) > 0 {
		if err := c.seedFromSpills(); err != nil {
			c.ckpt.close()
			return nil, err
		}
	}

	// Each lease ID lives either in the channel or in exactly one
	// handler, so the channel never overflows on requeue.
	c.pending = make(chan int, len(c.leases))
	for id := range c.leases {
		if !c.completed[id] {
			c.pending <- id
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.ckpt.close()
		return nil, fmt.Errorf("dist: %w", err)
	}
	c.ln = ln
	return c, nil
}

// seedFromSpills promotes a crashed single-machine run: every lease
// whose sites all committed durably in the seed spill files merges (and
// journals) as if a worker had crawled it.
func (c *Coordinator) seedFromSpills() error {
	cfg := c.cfg
	if len(cfg.Domains) != cfg.NumSites {
		return fmt.Errorf("dist: seeding from spills needs the %d-site domain list, got %d", cfg.NumSites, len(cfg.Domains))
	}
	scan, err := logstore.ScanCommittedFiles(cfg.NumFeatures, cfg.Domains, cfg.SeedSpills...)
	if err != nil {
		return fmt.Errorf("dist: scanning seed spills: %w", err)
	}
	seeded := 0
	for id, sites := range c.leases {
		if c.completed[id] {
			continue
		}
		covered := true
		for _, site := range sites {
			if !scan.Has(site) {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		var buf bytes.Buffer
		w, err := logstore.NewWriter(&buf, cfg.NumFeatures, cfg.Domains)
		if err != nil {
			return fmt.Errorf("dist: seeding lease %d: %w", id, err)
		}
		for _, site := range sites {
			if err := scan.AppendSite(w, site); err != nil {
				return fmt.Errorf("dist: seeding lease %d: %w", id, err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("dist: seeding lease %d: %w", id, err)
		}
		if err := c.adopt(id, buf.Bytes(), true); err != nil {
			return fmt.Errorf("dist: seeding lease %d: %w", id, err)
		}
		seeded++
	}
	if seeded > 0 {
		cfg.Logf("dist: seeded %d/%d leases from local spills", seeded, len(c.leases))
	}
	return nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Leases reports how many leases the site list was partitioned into.
func (c *Coordinator) Leases() int { return len(c.leases) }

// Serve accepts workers and runs the survey to completion, returning the
// merged aggregate — statistic for statistic identical to a single-machine
// spill-only run of the same study. It returns when every lease has merged,
// when ctx is canceled, or when a lease exhausts maxLeaseAttempts.
func (c *Coordinator) Serve(ctx context.Context) (*stats.Aggregate, error) {
	go c.accept()

	select {
	case <-c.allDone:
		// Graceful: handlers are all idle (every lease merged), so let
		// each send its worker the Shutdown frame before hanging up.
		c.shutdown(false)
		return c.agg, nil
	case err := <-c.fatal:
		c.shutdown(true)
		return nil, err
	case <-ctx.Done():
		c.shutdown(true)
		return nil, ctx.Err()
	}
}

// shutdown closes the listener, wakes every handler idling in its
// grant/collect select, optionally force-closes live connections
// (unblocking handlers mid-read), and waits for the handlers to drain. On
// the graceful path handlers close their own connections after sending
// Shutdown.
func (c *Coordinator) shutdown(force bool) {
	c.mu.Lock()
	c.closed = true
	c.ln.Close()
	close(c.stop)
	if force {
		for cn := range c.conns {
			cn.Close()
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	c.ckpt.close()
	c.ckpt = nil
	c.mu.Unlock()
}

func (c *Coordinator) accept() {
	for {
		cn, err := c.ln.Accept()
		if err != nil {
			return // listener closed: Serve is exiting
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			cn.Close()
			return
		}
		c.conns[cn] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go c.handle(cn)
	}
}

// forget drops a finished connection from the close set.
func (c *Coordinator) forget(cn net.Conn) {
	c.mu.Lock()
	delete(c.conns, cn)
	c.mu.Unlock()
	cn.Close()
}

// handle runs one worker session: handshake, then a grant/collect loop
// until the survey completes or the worker dies.
func (c *Coordinator) handle(raw net.Conn) {
	defer c.wg.Done()
	defer c.forget(raw)
	cn := newConn(raw)

	raw.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	f, err := cn.readFrame()
	if err != nil || f.Type != frameHello || decodeHello(f.Payload) != nil {
		c.cfg.Logf("dist: rejecting %s: bad hello", raw.RemoteAddr())
		return
	}
	if err := cn.writeFrame(frameWelcome, encodeWelcome(c.cfg.Spec, c.cfg.HeartbeatTimeout)); err != nil {
		return
	}
	c.cfg.Logf("dist: worker %s joined", raw.RemoteAddr())

	for {
		select {
		case id := <-c.pending:
			if err := c.runLease(cn, id); err != nil {
				c.requeue(id, err)
				return
			}
		case <-c.allDone:
			cn.writeFrame(frameShutdown, nil)
			return
		case <-c.stop:
			// Wake-up from shutdown(). If the survey completed (stop
			// and allDone can race into this select together), the
			// worker still deserves its clean Shutdown; otherwise the
			// run was aborted and the connection just drops.
			select {
			case <-c.allDone:
				cn.writeFrame(frameShutdown, nil)
			default:
			}
			return
		}
	}
}

// runLease grants one lease to the worker and collects its result: spill
// chunks buffer until the worker commits the lease with LeaseDone, at which
// point the buffered stream — a complete, self-describing spill stream for
// exactly the lease's sites — folds into the survey aggregate. Any error
// (timeout, disconnect, corrupt stream) discards the buffer whole: a lease
// merges atomically or not at all, which is what keeps re-issued leases
// from double-counting.
func (c *Coordinator) runLease(cn *conn, id int) error {
	c.mu.Lock()
	c.attempts[id]++
	attempt := c.attempts[id]
	c.mu.Unlock()
	c.cfg.Logf("dist: lease %d (%d sites) → %s (attempt %d)",
		id, len(c.leases[id]), cn.c.RemoteAddr(), attempt)

	if err := cn.writeFrame(frameLease, encodeLease(id, c.leases[id])); err != nil {
		return err
	}
	var buf bytes.Buffer
	for {
		cn.c.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		f, err := cn.readFrame()
		if err != nil {
			return err
		}
		switch f.Type {
		case frameHeartbeat:
			// Liveness only; the deadline reset above is the point.
		case frameSpillData:
			buf.Write(f.Payload)
		case frameLeaseDone:
			done, err := decodeLeaseDone(f.Payload)
			if err != nil {
				return err
			}
			if done != id {
				return fmt.Errorf("dist: worker committed lease %d while holding %d", done, id)
			}
			return c.mergeLease(id, buf.Bytes())
		default:
			return fmt.Errorf("dist: unexpected frame type %#x during lease", f.Type)
		}
	}
}

// mergeLease folds a committed lease's spill stream into the survey
// aggregate: the stream replays through stats.FromSpillStream into a
// per-lease aggregate, which then merges — the same FromSpills +
// Aggregate.Merge path a spill-only single-machine run uses, so the merged
// totals cannot diverge from it. Already-completed leases are dropped
// (duplicate commits double-count; see TestMergeOverlappingSites), which
// makes a lease that was re-issued after a slow — not dead — worker
// finally commits harmless.
func (c *Coordinator) mergeLease(id int, stream []byte) error {
	return c.adopt(id, stream, true)
}

// adopt is the single commit path for a lease stream, whatever its
// source: a live worker (journal=true), a checkpoint replay
// (journal=false — the stream is already durable), or a seed spill
// promotion (journal=true). When checkpointing, the journal append —
// fsynced — happens under the lock before the merge and before the
// lease is marked complete, so a crash at any instant leaves the
// checkpoint describing either the pre-commit or post-commit world,
// never a merged-but-unjournaled lease that a restart would lose.
func (c *Coordinator) adopt(id int, stream []byte, journal bool) error {
	c.mu.Lock()
	already := c.completed[id]
	c.mu.Unlock()
	if already {
		c.cfg.Logf("dist: lease %d committed twice; dropping duplicate", id)
		return nil
	}

	s, err := logstore.OpenSpills(bytes.NewReader(stream))
	if err != nil {
		return fmt.Errorf("dist: lease %d stream: %w", id, err)
	}
	if got := len(s.Domains()); got != c.cfg.NumSites {
		return fmt.Errorf("dist: lease %d stream declares %d sites, survey has %d", id, got, c.cfg.NumSites)
	}
	leaseAgg, err := stats.FromSpillStream(c.cfg.Standards, c.cfg.Cases, s)
	if err != nil {
		return fmt.Errorf("dist: lease %d stream: %w", id, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.completed[id] { // re-check under the lock: two commits can race
		c.cfg.Logf("dist: lease %d committed twice; dropping duplicate", id)
		return nil
	}
	if journal && c.ckpt != nil {
		if err := c.ckpt.commit(id, stream); err != nil {
			return err
		}
	}
	if err := c.agg.Merge(leaseAgg); err != nil {
		return fmt.Errorf("dist: merging lease %d: %w", id, err)
	}
	c.completed[id] = true
	c.cfg.Logf("dist: lease %d merged (%d/%d)", id, len(c.completed), len(c.leases))
	if c.cfg.OnLeaseMerged != nil {
		c.cfg.OnLeaseMerged(len(c.completed), len(c.leases))
	}
	if len(c.completed) == len(c.leases) {
		close(c.allDone)
	}
	return nil
}

// Completed reports how many leases have merged so far.
func (c *Coordinator) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.completed)
}

// maxLeaseAttempts caps how many times one lease may be issued before the
// survey fails — the brake that turns a deterministically crashing lease
// (bad worker build, corrupt stream) into an error instead of an infinite
// requeue loop.
const maxLeaseAttempts = 5

// requeue returns a failed lease to the pending queue — unless it has been
// issued maxLeaseAttempts times already, in which case the survey fails.
func (c *Coordinator) requeue(id int, cause error) {
	c.mu.Lock()
	attempts := c.attempts[id]
	done := c.completed[id]
	c.mu.Unlock()
	if done {
		// The lease merged before the connection died; nothing to redo.
		return
	}
	if attempts >= maxLeaseAttempts {
		err := fmt.Errorf("dist: lease %d failed %d times, giving up: %w", id, attempts, cause)
		select {
		case c.fatal <- err:
		default:
		}
		return
	}
	c.cfg.Logf("dist: lease %d requeued after %v", id, cause)
	c.pending <- id
}
