package dist_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logstore"
)

// spillDirWorker runs one worker that keeps lease copies in spillDir,
// with its crawl optionally wrapped.
func spillDirWorker(ctx context.Context, addr, spillDir string, wrap func(dist.CrawlFunc) dist.CrawlFunc) error {
	return dist.Run(ctx, dist.WorkerConfig{
		Addr:              addr,
		HeartbeatInterval: 50 * time.Millisecond,
		SpillDir:          spillDir,
		Build: func(spec []byte) (dist.CrawlFunc, error) {
			s, err := core.StudyFromSpec(spec, core.Config{Shards: 1, ShardWorkers: 2})
			if err != nil {
				return nil, err
			}
			crawl := dist.CrawlFunc(s.CrawlSites)
			if wrap != nil {
				crawl = wrap(crawl)
			}
			return crawl, nil
		},
	})
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// spillSites returns the sorted sites a spill file ends, failing the
// test if any record names a site that never ends.
func spillSites(t *testing.T, path string) []int {
	t.Helper()
	s, err := logstore.OpenSpillFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ended := map[int]bool{}
	var seen []int
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Kind == logstore.SpillSiteEnd {
			ended[rec.Site] = true
		} else {
			seen = append(seen, rec.Site)
		}
	}
	for _, site := range seen {
		if !ended[site] {
			t.Errorf("%s: site %d has records but no end marker", path, site)
		}
	}
	var sites []int
	for site := range ended {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	return sites
}

// TestWorkerSpillDirKeepsLeaseCopies: a worker with a SpillDir publishes
// one complete lease-NNN.spill per committed lease, holding exactly that
// lease's sites, while a lease whose crawl fails leaves only its .partial.
func TestWorkerSpillDirKeepsLeaseCopies(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	c := coordinator(t, study, 9, 5*time.Second)
	if c.Leases() != 2 {
		t.Fatalf("survey split into %d leases, want 2", c.Leases())
	}
	served := make(chan error, 1)
	go func() {
		_, err := c.Serve(ctx)
		served <- err
	}()

	// The first worker alone takes lease 0, streams one site of it, and
	// fails: nothing may appear under the lease copy's final name.
	failDir := t.TempDir()
	errInjected := errors.New("injected crawl failure")
	err = spillDirWorker(ctx, c.Addr(), failDir, func(crawl dist.CrawlFunc) dist.CrawlFunc {
		return func(ctx context.Context, sites []int, spill io.Writer) error {
			if err := crawl(ctx, sites[:1], spill); err != nil {
				return err
			}
			return errInjected
		}
	})
	if !errors.Is(err, errInjected) {
		t.Fatalf("failing worker exit = %v, want the injected failure", err)
	}
	if got, want := dirNames(t, failDir), []string{"lease-000.spill.partial"}; !reflect.DeepEqual(got, want) {
		t.Errorf("failed lease left %v, want %v", got, want)
	}

	// The second worker commits both leases, the requeued one included.
	okDir := t.TempDir()
	if err := spillDirWorker(ctx, c.Addr(), okDir, nil); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, okDir), []string{"lease-000.spill", "lease-001.spill"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("committed leases left %v, want %v", got, want)
	}
	for name, want := range map[string][]int{
		"lease-000.spill": {0, 1, 2, 3, 4, 5, 6, 7, 8},
		"lease-001.spill": {9, 10, 11, 12, 13, 14, 15, 16, 17},
	} {
		if got := spillSites(t, filepath.Join(okDir, name)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s holds sites %v, want %v", name, got, want)
		}
	}
}
