package logstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/measure"
)

// Codec serializes a complete measure.Log to one on-disk format and back.
// Every format is self-identifying: its first bytes are enough for Detect
// to pick the right decoder, so readers never need to be told what they are
// loading.
//
// Codec implementations must round-trip: Decode(Encode(l)) is deep-equal to
// l for every log built through the measure API. Encoders must also be
// deterministic — the same log always produces the same bytes — because the
// repository's whole verification strategy compares serialized logs.
type Codec interface {
	// Name is the codec's registry key (the -format flag value).
	Name() string
	// Encode writes the log to w.
	Encode(w io.Writer, l *measure.Log) error
	// Decode reads one log from r.
	Decode(r io.Reader) (*measure.Log, error)
}

// Sanity caps applied by every decoder. They bound what a corrupt or
// hostile input can make a decoder allocate, and are far above anything the
// study produces (the paper: 1,392 features, 10,000 domains, 5 rounds).
const (
	maxFeatures = 1 << 20
	maxDomains  = 1 << 21
	maxRounds   = 1 << 14
	maxCases    = 1 << 10
	// maxCells bounds the total number of (case, round, site) slots a
	// decoder will materialize, so a header claiming both huge domain and
	// round counts cannot multiply into an unbounded allocation.
	maxCells = 1 << 24
)

// codecs is the format registry, in preference order.
var codecs = []Codec{CSV{}, Binary{}}

// Names lists the registered codec names (the valid -format values).
func Names() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.Name()
	}
	return out
}

// ByName returns the named codec.
func ByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("logstore: unknown log format %q (want %s)", name, strings.Join(Names(), " or "))
}

// detectPeek is how many leading bytes Detect needs: enough for the longest
// magic, the CSV header prefix, and the spill magic.
const detectPeek = len(csvMagic)

// Detect identifies the format of a log from its first bytes and returns
// the codec that reads it. It recognizes every registered codec plus spill
// files (which decode by merging, see ReadSpills). Unknown leading bytes
// produce an error quoting the offending magic so a user pointed at the
// wrong file sees what was actually there.
func Detect(prefix []byte) (Codec, error) {
	switch {
	case bytes.HasPrefix(prefix, []byte(binaryMagic)):
		return Binary{}, nil
	case bytes.HasPrefix(prefix, []byte(spillMagic)):
		return spillCodec{}, nil
	case bytes.HasPrefix(prefix, []byte(csvMagic)):
		return CSV{}, nil
	}
	n := len(prefix)
	if n > 8 {
		n = 8
	}
	return nil, fmt.Errorf("logstore: unknown log format (magic bytes %q)", prefix[:n])
}

// Read decodes a log from r, auto-detecting its format from the leading
// magic bytes. It accepts everything Detect does: CSV, binary, and spill
// files (a single spill file decodes to the log of its observations).
func Read(r io.Reader) (*measure.Log, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, err := br.Peek(detectPeek)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("logstore: reading log header: %w", err)
	}
	c, err := Detect(prefix)
	if err != nil {
		return nil, err
	}
	return c.Decode(br)
}

// ReadFile decodes the log in the named file, auto-detecting its format.
func ReadFile(path string) (*measure.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// WriteFile encodes the log to the named file with the given codec,
// publishing it through a DurableFile: the file at path is replaced only
// once the new log is complete and on disk. A torn log must never reach
// path, because a CSV log cut at a line boundary decodes cleanly as a
// shorter survey. On an encode error the .partial is removed too.
func WriteFile(path string, c Codec, l *measure.Log) error {
	f, err := CreateDurable(path)
	if err != nil {
		return err
	}
	if err := c.Encode(f, l); err != nil {
		f.Abort()
		os.Remove(f.Name())
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// sortedCases returns a log's case names in canonical (sorted) order; every
// encoder iterates cases this way so output is deterministic.
func sortedCases(l *measure.Log) []string {
	cases := make([]string, 0, len(l.Cases))
	for c := range l.Cases {
		cases = append(cases, string(c))
	}
	sort.Strings(cases)
	return cases
}
