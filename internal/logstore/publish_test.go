package logstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
)

func TestDurableFileCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	d, err := CreateDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteString("complete"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final name exists before Commit: %v", err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(); err != nil {
		t.Errorf("Abort after Commit: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "complete" {
		t.Fatalf("committed file = %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".partial"); !os.IsNotExist(err) {
		t.Errorf(".partial survives Commit: %v", err)
	}

	d, err = CreateDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteString("torn"); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "complete" {
		t.Errorf("Abort replaced the published file with %q", got)
	}
	if got, _ := os.ReadFile(path + ".partial"); string(got) != "torn" {
		t.Errorf("Abort did not keep the .partial (got %q)", got)
	}
}

// failingCodec writes part of a log and then fails, like an encoder that
// hits a full disk halfway through.
type failingCodec struct{ CSV }

func (failingCodec) Encode(w io.Writer, l *measure.Log) error {
	if _, err := io.WriteString(w, csvMagic+"100\n#domains,3\n"); err != nil {
		return err
	}
	return errors.New("disk full")
}

// TestWriteFileFailureKeepsOldLog: a failed -out write must leave the
// previous log byte-identical and nothing else behind.
func TestWriteFileFailureKeepsOldLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "survey.csv")
	if err := WriteFile(path, CSV{}, buildLog()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, failingCodec{}, denseLog()); err == nil {
		t.Fatal("WriteFile swallowed the encode error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed WriteFile changed the existing log")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Errorf("failed WriteFile left %v, want only survey.csv", names)
	}
}

// TestCSVCutAtLineBoundaryDecodesShorter records why WriteFile must be
// atomic: a CSV log torn at a line boundary is not detectably corrupt —
// it decodes cleanly as a smaller survey, with every site still measured.
func TestCSVCutAtLineBoundaryDecodesShorter(t *testing.T) {
	l := buildLog()
	var buf bytes.Buffer
	if err := (CSV{}).Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	got, err := CSV{}.Decode(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatalf("torn CSV failed to decode (%v); the writer could rely on that, but it does not", err)
	}
	if !reflect.DeepEqual(got.Measured, l.Measured) {
		t.Errorf("Measured changed: %v, want %v", got.Measured, l.Measured)
	}
	if reflect.DeepEqual(got, l) {
		t.Fatal("cut removed nothing")
	}
}
