package logstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// CommittedName is the file a spill-directory compaction writes: one
// clean stream holding every site that was durably committed before a
// crash. Resume replays it and crawls only the remaining sites.
const CommittedName = "committed.spill"

// ScanResult is the durable portion of one or more (possibly torn)
// spill files: every site whose end marker survived in a valid stream
// prefix, with the records that preceded it.
type ScanResult struct {
	numFeatures int
	domains     []string
	sites       []int
	records     map[int][]SpillRecord
	scanned     []string
}

// Sites returns the committed site indices in ascending order.
func (r *ScanResult) Sites() []int {
	return append([]int(nil), r.sites...)
}

// Has reports whether site was durably committed.
func (r *ScanResult) Has(site int) bool {
	_, ok := r.records[site]
	return ok
}

// AppendSite re-appends every record of a committed site to w,
// finishing with the site's end marker. It is a no-op for sites the
// scan did not commit.
func (r *ScanResult) AppendSite(w *Writer, site int) error {
	recs, ok := r.records[site]
	if !ok {
		return nil
	}
	for _, rec := range recs {
		var err error
		switch rec.Kind {
		case SpillObservation:
			err = w.Append(rec.Obs)
		case SpillFailure:
			err = w.Fail(rec.Site)
		}
		if err != nil {
			return err
		}
	}
	return w.EndSite(site)
}

// ScanCommittedFiles scans the valid prefix of each named spill file
// and collects the records of every committed site: a site counts as
// committed only when its SpillSiteEnd marker decodes before the first
// torn or corrupt byte of its file. Records past the last marker, or
// of sites whose marker never made it to disk, are treated as
// uncommitted work to redo.
//
// A file whose header cannot be read contributes nothing (a crash
// during header write commits no sites). A file with a valid header
// describing a different study is an error — mixing studies in one
// spill directory loses data silently otherwise. When the same site is
// committed by several files (a crash mid-compaction leaves overlap),
// the earliest file in the given order wins.
func ScanCommittedFiles(numFeatures int, domains []string, paths ...string) (*ScanResult, error) {
	expect := &spillHeader{numFeatures: numFeatures, domains: domains}
	res := &ScanResult{
		numFeatures: numFeatures,
		domains:     append([]string(nil), domains...),
		records:     make(map[int][]SpillRecord),
	}
	for _, path := range paths {
		if err := scanOneCommitted(path, expect, res); err != nil {
			return nil, err
		}
	}
	sort.Ints(res.sites)
	return res, nil
}

func scanOneCommitted(path string, expect *spillHeader, res *ScanResult) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := OpenSpills(f)
	if err != nil {
		// Torn or unreadable header: the crash predates the first
		// record, so the file holds no committed work.
		res.scanned = append(res.scanned, path)
		return nil
	}
	if err := s.header.sameStudy(expect); err != nil {
		return fmt.Errorf("logstore: spill file %s %w", path, err)
	}
	res.scanned = append(res.scanned, path)
	pending := make(map[int][]SpillRecord)
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: everything from here on is uncommitted.
			break
		}
		switch rec.Kind {
		case SpillObservation, SpillFailure:
			pending[rec.Site] = append(pending[rec.Site], rec)
		case SpillSiteEnd:
			if _, dup := res.records[rec.Site]; !dup {
				res.records[rec.Site] = pending[rec.Site]
				res.sites = append(res.sites, rec.Site)
			}
			delete(pending, rec.Site)
		}
	}
	return nil
}

// Compaction is the outcome of compacting a spill directory.
type Compaction struct {
	// Path names the compacted stream of committed sites; it is empty
	// when the directory held no committed work.
	Path string
	// Committed lists the durably committed site indices, ascending.
	Committed []int
}

// CompactSpillDir folds every spill file in dir — including .partial
// files a crash left behind — into one clean CommittedName stream of
// the durably committed sites, then removes the inputs. The write is
// published through CreateAtomic (a DurableFile), so a crash during
// compaction never loses committed work: the originals survive until
// the compacted stream is durable, and the duplicate-site scan makes a
// re-run converge. The expected study (numFeatures, domains) guards
// against resuming into the wrong directory.
func CompactSpillDir(dir string, numFeatures int, domains []string) (*Compaction, error) {
	whole, err := filepath.Glob(filepath.Join(dir, "*.spill"))
	if err != nil {
		return nil, err
	}
	partial, err := filepath.Glob(filepath.Join(dir, "*.spill.partial"))
	if err != nil {
		return nil, err
	}
	paths := append(whole, partial...)
	sort.Strings(paths)
	if len(paths) == 0 {
		return &Compaction{}, nil
	}
	res, err := ScanCommittedFiles(numFeatures, domains, paths...)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, CommittedName)
	if len(res.sites) > 0 {
		w, err := CreateAtomic(out, numFeatures, domains)
		if err != nil {
			return nil, err
		}
		for _, site := range res.sites {
			if err := res.AppendSite(w, site); err != nil {
				w.Discard()
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	for _, p := range res.scanned {
		if p == out {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	c := &Compaction{Committed: res.Sites()}
	if len(res.sites) > 0 {
		c.Path = out
	}
	return c, nil
}
