package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"sparseorder/internal/faultinject"
)

// checkDirClean asserts the directory holds exactly the named files — in
// particular, no leftover ".name.tmp-*" debris from a failed atomic write.
func checkDirClean(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("dir holds %v, want exactly %v", keys(got), want)
	}
	for _, name := range want {
		if !got[name] {
			t.Fatalf("dir holds %v, want exactly %v", keys(got), want)
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWriteFileAtomicFaultPaths drives every injectable failure of the
// atomic write — short write, fsync error, rename error — and asserts the
// torn-write contract each time: the destination keeps its previous
// content byte for byte and no temp file survives the failure.
func TestWriteFileAtomicFaultPaths(t *testing.T) {
	cases := []struct {
		name  string
		rule  faultinject.Rule
		cause error
	}{
		{"short write", faultinject.Rule{Point: faultinject.FileWrite, Mode: faultinject.ModeShortWrite, Rate: 1}, io.ErrShortWrite},
		{"fsync enospc", faultinject.Rule{Point: faultinject.FileSync, Mode: faultinject.ModeENOSPC, Rate: 1}, syscall.ENOSPC},
		{"rename error", faultinject.Rule{Point: faultinject.FileRename, Mode: faultinject.ModeError, Rate: 1}, faultinject.ErrInjected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "artifact.txt")
			prev := []byte("previous complete content\n")
			if err := WriteFileAtomic(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}

			faultinject.Activate(faultinject.NewPlan(1, tc.rule))
			t.Cleanup(func() { faultinject.Activate(nil) })
			err := WriteFileAtomic(path, []byte("new content that must never land partially\n"), 0o644)
			if !errors.Is(err, tc.cause) {
				t.Fatalf("err = %v, want wrapping %v", err, tc.cause)
			}

			// Destination untouched, no temp debris.
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if string(got) != string(prev) {
				t.Errorf("destination changed after failed write: %q", got)
			}
			checkDirClean(t, dir, "artifact.txt")

			// The same write succeeds once the fault plan is disarmed.
			faultinject.Activate(nil)
			next := []byte("new content that must never land partially\n")
			if err := WriteFileAtomic(path, next, 0o644); err != nil {
				t.Fatal(err)
			}
			got, rerr = os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if string(got) != string(next) {
				t.Errorf("post-fault write landed %q", got)
			}
			checkDirClean(t, dir, "artifact.txt")
		})
	}
}

// TestWriteFileAtomicDirSyncFault covers the durability gap the parent
// directory fsync closes: when fsutil/dirsync fires, the rename has
// already happened — the destination holds the NEW content and no temp
// debris remains — but WriteFileAtomic must report the error, because a
// rename whose directory entry was never flushed can vanish on power
// loss and the caller must not record the write as durable.
func TestWriteFileAtomicDirSyncFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.txt")
	if err := WriteFileAtomic(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.FileDirSync, Mode: faultinject.ModeENOSPC, Rate: 1}))
	t.Cleanup(func() { faultinject.Activate(nil) })
	next := []byte("renamed but possibly not durable\n")
	err := WriteFileAtomic(path, next, 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want wrapping ENOSPC", err)
	}

	// Unlike the pre-rename faults, the new content IS in place (the
	// rename completed); only its durability is in doubt.
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != string(next) {
		t.Errorf("destination = %q after dirsync fault, want the renamed content", got)
	}
	checkDirClean(t, dir, "artifact.txt")

	// Disarmed, the same write succeeds and reports durable.
	faultinject.Activate(nil)
	if err := WriteFileAtomic(path, next, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSyncDirMissing pins the error path: syncing a directory that does
// not exist reports the open failure instead of swallowing it.
func TestSyncDirMissing(t *testing.T) {
	if err := SyncDir(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

// TestWriteFileAtomicFreshFileFault checks the failure contract when no
// previous file exists: a failed atomic write must leave the directory
// empty, not a half-written destination.
func TestWriteFileAtomicFreshFileFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.txt")
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.FileWrite, Mode: faultinject.ModeShortWrite, Rate: 1}))
	t.Cleanup(func() { faultinject.Activate(nil) })
	if err := WriteFileAtomic(path, []byte("payload"), 0o644); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("destination exists after failed first write: %v", err)
	}
	checkDirClean(t, dir)
}

// TestWriteFileAtomicDisabledZeroAlloc pins the hot-path cost of the fault
// hooks themselves: with no plan armed, Enabled() short-circuits before
// any key is built.
func TestWriteFileAtomicDisabledZeroAlloc(t *testing.T) {
	faultinject.Activate(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if faultinject.Enabled() {
			t.Fatal("armed")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled guard allocates %v per call", allocs)
	}
}
