package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
)

// fuzzEntryKey names the entry file every FuzzStoreEntry input is written
// to; the valid seed's header carries the same key.
var fuzzEntryKey = strings.Repeat("5e", 32)

// fuzzStoreSeed and fuzzStoreThreads are the daemon configuration the
// fuzzed store runs under; the valid seed entry is bound to it.
const (
	fuzzStoreSeed    = 42
	fuzzStoreThreads = 2
)

// FuzzStoreEntry holds the store's entry decoder (scanEntry, then
// loadEntry) to its recovery contract on arbitrary file contents, the
// shape a crash or a disk fault can leave: every input ends in a
// quarantine reason, or in an entry whose payload SHA-256, shape and
// permutation all verify and whose payload re-encodes to the bytes on
// disk. Never a panic, never an accepted wrong payload. The seed corpus
// (testdata/fuzz/FuzzStoreEntry) holds one valid entry and hand-built
// damage cases: truncation, a flipped payload byte, a garbage header, a
// future version, a different seed, a mismatched key and a shape whose
// payload length overflows int64.
func FuzzStoreEntry(f *testing.F) {
	s, err := openStore(f.TempDir(), fuzzStoreSeed, fuzzStoreThreads, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validStoreEntry(f, s))
	path := s.entryPath(fuzzEntryKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, reason, _ := s.scanEntry(path)
		if reason != "" {
			return
		}
		e, reason, detail := s.loadEntry(c)
		if reason != "" {
			if e != nil {
				t.Fatalf("quarantined (%s: %s) but returned an entry", reason, detail)
			}
			return
		}
		payload := data[bytes.IndexByte(data, '\n')+1:]
		sum := sha256.Sum256(payload)
		if hex.EncodeToString(sum[:]) != c.header.PayloadSHA256 {
			t.Fatal("accepted a payload whose SHA-256 differs from the header's")
		}
		h := c.header
		if e.key != fuzzEntryKey || e.rows != h.Rows || e.cols != h.Cols || e.nnz != h.NNZ ||
			e.mat.Rows != h.Rows || e.mat.Cols != h.Cols || e.mat.NNZ() != h.NNZ {
			t.Fatalf("accepted entry %s %dx%d nnz %d, header declares %s %dx%d nnz %d",
				e.key, e.rows, e.cols, e.nnz, h.Key, h.Rows, h.Cols, h.NNZ)
		}
		if err := e.mat.Validate(); err != nil {
			t.Fatalf("accepted an invalid matrix: %v", err)
		}
		if len(e.perm) != e.rows || e.perm.Validate() != nil {
			t.Fatalf("accepted an invalid permutation of length %d for %d rows", len(e.perm), e.rows)
		}
		re := s.encodeEntry(e, h.SavedUnixNano)
		if !bytes.Equal(re[bytes.IndexByte(re, '\n')+1:], payload) {
			t.Fatal("the accepted entry's payload re-encodes to different bytes")
		}
	})
}

// validStoreEntry encodes one entry as the daemon persists it: an RCM
// ordering of a small banded matrix, under the fuzzed store's binding.
func validStoreEntry(tb testing.TB, s *store) []byte {
	tb.Helper()
	a := gen.Banded(24, 2, 1, 7)
	b, p, err := reorder.Apply(reorder.RCM, a, reorder.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := newEntry(fuzzEntryKey, reorder.RCM, b, p, 0.001, s.threads)
	if err != nil {
		tb.Fatal(err)
	}
	return s.encodeEntry(e, 1_700_000_000_000_000_000)
}
