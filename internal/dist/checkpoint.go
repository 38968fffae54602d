package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/logstore"
)

// The coordinator checkpoint is an append-only journal of committed
// leases, framed with the same length-prefixed codec as the wire
// protocol (logstore.WriteFrame). One header frame pins the study and
// lease geometry; every commit frame carries a lease ID and the
// complete spill stream that merged for it. A restarted coordinator
// replays the valid prefix — a torn tail (the crash hit mid-append) is
// truncated, and the leases it lost are simply re-issued — so committed
// work survives any kill while uncommitted work is redone, never
// double-counted.
const (
	ckptVersion = 1

	// frameCkptHeader pins (version, numSites, numFeatures, leaseSites,
	// spec); a checkpoint replays only into the identical survey.
	frameCkptHeader = 0x41
	// frameCkptCommit carries uvarint(leaseID) followed by the lease's
	// raw spill stream bytes.
	frameCkptCommit = 0x42
)

// maxCheckpointPayload bounds one checkpoint frame. A commit frame
// holds a whole lease's spill stream, whose header repeats the full
// site list — far beyond the wire protocol's 1 MiB chunk bound — so
// the checkpoint reader allows what a million-site survey needs while
// still refusing absurd lengths from a corrupt length prefix.
const maxCheckpointPayload = 1 << 28

// checkpoint is an open coordinator journal positioned for appending.
type checkpoint struct {
	f *os.File
}

// ckptHeaderPayload encodes the header frame for the given survey.
func ckptHeaderPayload(cfg CoordinatorConfig) []byte {
	buf := putUvarint(nil, ckptVersion, uint64(cfg.NumSites), uint64(cfg.NumFeatures),
		uint64(cfg.LeaseSites), uint64(len(cfg.Spec)))
	return append(buf, cfg.Spec...)
}

// loadCheckpoint opens (or atomically creates) the checkpoint at path
// and returns the journal positioned for appending plus the committed
// lease streams its valid prefix holds, first commit per lease winning.
// A header that pins a different survey is an error; a torn tail is
// truncated in place so the next append starts on a frame boundary.
func loadCheckpoint(path string, cfg CoordinatorConfig) (*checkpoint, map[int][]byte, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := createCheckpoint(path, cfg); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: opening checkpoint: %w", err)
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)

	// The header must be fully intact: atomic creation guarantees a
	// durable checkpoint never has a torn one, so any mismatch here
	// means the file belongs to a different survey or is not a
	// checkpoint at all.
	hf, err := logstore.ReadFrame(br, maxCheckpointPayload)
	if err != nil || hf.Type != frameCkptHeader {
		f.Close()
		return nil, nil, fmt.Errorf("dist: %s is not a coordinator checkpoint", path)
	}
	if !bytes.Equal(hf.Payload, ckptHeaderPayload(cfg)) {
		f.Close()
		return nil, nil, fmt.Errorf("dist: checkpoint %s describes a different survey (sites, corpus, lease size, or spec changed)", path)
	}

	commits := make(map[int][]byte)
	good := cr.n - int64(br.Buffered())
	for {
		fr, err := logstore.ReadFrame(br, maxCheckpointPayload)
		if err == io.EOF {
			break
		}
		if err != nil || fr.Type != frameCkptCommit {
			// Torn tail (the crash hit mid-append) or trailing garbage:
			// everything before it is intact, everything from here on
			// is uncommitted. Truncate so appends restart on a frame
			// boundary.
			if terr := f.Truncate(good); terr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("dist: truncating torn checkpoint tail: %w", terr)
			}
			break
		}
		r := bytes.NewReader(fr.Payload)
		id, err := readUvarint(r, "checkpoint lease id")
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		stream := fr.Payload[len(fr.Payload)-r.Len():]
		if _, dup := commits[int(id)]; !dup {
			commits[int(id)] = stream
		}
		good = cr.n - int64(br.Buffered())
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("dist: seeking checkpoint append point: %w", err)
	}
	return &checkpoint{f: f}, commits, nil
}

// createCheckpoint publishes a fresh header-only checkpoint through a
// logstore.DurableFile, so a crash during creation leaves either no
// checkpoint or a complete one — never a torn header a later open would
// misread.
func createCheckpoint(path string, cfg CoordinatorConfig) error {
	f, err := logstore.CreateDurable(path)
	if err != nil {
		return fmt.Errorf("dist: creating checkpoint: %w", err)
	}
	defer f.Abort()
	if err := logstore.WriteFrame(f, frameCkptHeader, ckptHeaderPayload(cfg)); err != nil {
		return fmt.Errorf("dist: creating checkpoint: %w", err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("dist: creating checkpoint: %w", err)
	}
	return nil
}

// commit journals one merged lease and fsyncs before returning: once
// the coordinator reports a lease merged, no later crash can lose it.
// The journal is appended in place, not published, so this Sync is its
// own rather than logstore.DurableFile's.
func (ck *checkpoint) commit(id int, stream []byte) error {
	payload := putUvarint(nil, uint64(id))
	payload = append(payload, stream...)
	if err := logstore.WriteFrame(ck.f, frameCkptCommit, payload); err != nil {
		return fmt.Errorf("dist: journaling lease %d: %w", id, err)
	}
	if err := ck.f.Sync(); err != nil {
		return fmt.Errorf("dist: syncing checkpoint: %w", err)
	}
	return nil
}

func (ck *checkpoint) close() error {
	if ck == nil || ck.f == nil {
		return nil
	}
	err := ck.f.Close()
	ck.f = nil
	return err
}

// countingReader counts consumed bytes so replay can locate the last
// intact frame boundary (count minus whatever the bufio layer still
// buffers).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
