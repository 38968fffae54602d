package logstore

import (
	"os"
	"path/filepath"
)

// DurableFile is the one way a file that must survive a crash reaches
// disk: its bytes go to path+".partial", and only Commit makes them
// appear at path — after the file and the rename are both fsynced. A
// crash, a failed write, or an Abort leaves at most the .partial file,
// so a reader that opens the final name never sees a torn file, and a
// file already at path stays intact until its replacement is durable.
//
// Spill files, -out logs, coordinator checkpoints and worker lease
// copies are all published this way. The visit cache is not: its
// entries are validated on read, so a torn entry costs a miss.
type DurableFile struct {
	*os.File
	path string
	done bool
}

// CreateDurable starts a durable file that Commit will publish at path.
// An earlier .partial of the same name is truncated.
func CreateDurable(path string) (*DurableFile, error) {
	f, err := os.Create(path + ".partial")
	if err != nil {
		return nil, err
	}
	return &DurableFile{File: f, path: path}, nil
}

// Commit fsyncs and closes the file, renames it to its final path, and
// fsyncs the directory so the rename itself survives a crash. On error
// the final path is untouched (unless only the directory fsync failed).
func (d *DurableFile) Commit() error {
	d.done = true
	err := d.File.Sync()
	if cerr := d.File.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(d.File.Name(), d.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(d.path))
}

// Abort closes the file without publishing it; the .partial stays for
// whoever can salvage it (resume scanning, an operator). It is a no-op
// after Commit or an earlier Abort, so it can be deferred.
func (d *DurableFile) Abort() error {
	if d.done {
		return nil
	}
	d.done = true
	return d.File.Close()
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
