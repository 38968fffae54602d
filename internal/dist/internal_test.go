package dist

// White-box tests for the coordinator's commit bookkeeping: the loopback
// protocol tests live in dist_test.go; these drive mergeLease and requeue
// directly to pin the duplicate-commit and give-up edges that are hard to
// hit reliably through real connections.

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
)

const (
	wbSites    = 8
	wbFeatures = 16
	wbLease    = 4 // sites per lease → 2 leases
)

func wbStandards() []standards.Abbrev {
	catalog := standards.Catalog()
	out := make([]standards.Abbrev, wbFeatures)
	for i := range out {
		out[i] = catalog[i%len(catalog)].Abbrev
	}
	return out
}

func wbCoordinator(t *testing.T, onMerged func(merged, total int)) *Coordinator {
	t.Helper()
	c, err := Listen("127.0.0.1:0", CoordinatorConfig{
		Spec:          []byte("spec"),
		NumSites:      wbSites,
		NumFeatures:   wbFeatures,
		Standards:     wbStandards(),
		Cases:         []measure.Case{measure.CaseDefault, measure.CaseBlocking},
		LeaseSites:    wbLease,
		OnLeaseMerged: onMerged,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.ln.Close() })
	return c
}

// wbLeaseStream builds the spill bytes a worker would stream home for one
// lease: observations and end markers for the lease's sites, over the full
// site-list header.
func wbLeaseStream(t *testing.T, sites []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := logstore.NewWriter(&buf, wbFeatures, make([]string, wbSites))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		sf := measure.NewBitset(wbFeatures)
		sf.Set(site % wbFeatures)
		if err := w.Append(logstore.Observation{
			Case: measure.CaseDefault, Round: 0, Site: site,
			Features: sf, Invocations: 3, Pages: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.EndSite(site); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeLeaseDedupConcurrent commits the same lease from many
// goroutines at once — the re-issued-lease race, where a slow worker and
// its replacement both finish. Exactly one commit may merge: the tallies
// count each site once, and OnLeaseMerged fires once per lease.
func TestMergeLeaseDedupConcurrent(t *testing.T) {
	var merges atomic.Int32
	c := wbCoordinator(t, func(merged, total int) {
		merges.Add(1)
		if total != 2 {
			t.Errorf("OnLeaseMerged total = %d, want 2", total)
		}
	})

	stream := wbLeaseStream(t, c.leases[0])
	const committers = 8
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.mergeLease(0, stream); err != nil {
				t.Errorf("mergeLease: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := c.agg.MeasuredCount(); got != wbLease {
		t.Errorf("MeasuredCount after %d duplicate commits = %d, want %d (merged once)", committers, got, wbLease)
	}
	inv, _ := c.agg.Totals()
	if want := int64(wbLease * 3); inv != want {
		t.Errorf("invocations after duplicate commits = %d, want %d", inv, want)
	}
	if got := merges.Load(); got != 1 {
		t.Errorf("OnLeaseMerged fired %d times, want 1", got)
	}

	// The second lease completes the survey: allDone closes and the
	// external-visible aggregate holds every site exactly once.
	if err := c.mergeLease(1, wbLeaseStream(t, c.leases[1])); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.allDone:
	default:
		t.Error("allDone not closed after every lease merged")
	}
	if got := c.agg.MeasuredCount(); got != wbSites {
		t.Errorf("final MeasuredCount = %d, want %d", got, wbSites)
	}
	if got := merges.Load(); got != 2 {
		t.Errorf("OnLeaseMerged fired %d times, want 2", got)
	}
}

// TestMergeLeaseRejectsCorruptStream: a truncated or mismatched stream
// fails the commit without marking the lease complete, so it can be
// re-issued.
func TestMergeLeaseRejectsCorruptStream(t *testing.T) {
	c := wbCoordinator(t, nil)
	stream := wbLeaseStream(t, c.leases[0])
	if err := c.mergeLease(0, stream[:len(stream)-3]); err == nil {
		t.Error("mergeLease accepted a truncated stream")
	}
	var buf bytes.Buffer
	w, err := logstore.NewWriter(&buf, wbFeatures, make([]string, wbSites+1))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := c.mergeLease(0, buf.Bytes()); err == nil {
		t.Error("mergeLease accepted a stream with the wrong site count")
	}
	if c.completed[0] {
		t.Error("failed commits marked the lease complete")
	}
	if err := c.mergeLease(0, stream); err != nil {
		t.Errorf("valid commit after failed ones: %v", err)
	}
}

// TestRequeueGivesUpAfterMaxAttempts pins the requeue brake: below the
// attempt cap a dead worker's lease goes back to pending; at the cap the
// survey fails with a fatal error; and a lease that merged before its
// worker died is not re-issued at all.
func TestRequeueGivesUpAfterMaxAttempts(t *testing.T) {
	c := wbCoordinator(t, nil)
	cause := errors.New("connection lost")

	// Drain the initial pending queue so requeue effects are visible.
	for range c.leases {
		<-c.pending
	}

	c.attempts[0] = maxLeaseAttempts - 1
	c.requeue(0, cause)
	select {
	case id := <-c.pending:
		if id != 0 {
			t.Fatalf("requeued lease %d, want 0", id)
		}
	default:
		t.Fatal("lease below the attempt cap was not requeued")
	}
	select {
	case err := <-c.fatal:
		t.Fatalf("requeue below the cap reported fatal: %v", err)
	default:
	}

	c.attempts[0] = maxLeaseAttempts
	c.requeue(0, cause)
	select {
	case <-c.pending:
		t.Fatal("lease at the attempt cap was requeued")
	default:
	}
	select {
	case err := <-c.fatal:
		if !errors.Is(err, cause) {
			t.Errorf("fatal error %v does not wrap the cause", err)
		}
	default:
		t.Fatal("no fatal error after the attempt cap")
	}

	// A completed lease is never re-issued, whatever the attempt count.
	c.completed[1] = true
	c.attempts[1] = 1
	c.requeue(1, cause)
	select {
	case <-c.pending:
		t.Fatal("completed lease was requeued")
	default:
	}
}
