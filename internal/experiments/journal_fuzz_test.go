package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparseorder/internal/failure"
)

// journalLines renders records as journal lines, each ending in '\n'.
func journalLines(t testing.TB, recs ...journalRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func resultRec(name string) journalRecord {
	return journalRecord{Kind: "result", Result: &MatrixResult{Name: name, Rows: 4, NNZ: 10}}
}

func failureRec(name string) journalRecord {
	return journalRecord{Kind: "failure", Failure: &journalFailure{
		Name: name, Ordering: "RCM", Class: failure.FailError, Attempts: 1, Message: "boom"}}
}

// writeJournal writes a journal for journalConfig: its header line, then
// body as given.
func writeJournal(t testing.TB, body []byte) string {
	t.Helper()
	header, err := json.Marshal(headerFor(journalConfig()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, append(append(header, '\n'), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalRejectsRepeatedOrEmptyName checks that a journal naming one
// matrix twice, across the result and failure kinds as well as within one,
// or naming none, is rejected as corrupt. Lookup used to answer such a
// name with whichever record it checked first.
func TestJournalRejectsRepeatedOrEmptyName(t *testing.T) {
	cases := []struct {
		name string
		recs []journalRecord
		want string
	}{
		{"result then failure", []journalRecord{resultRec("m1"), failureRec("m1")}, "records m1 twice"},
		{"failure then result", []journalRecord{failureRec("m1"), resultRec("m1")}, "records m1 twice"},
		{"two results", []journalRecord{resultRec("m1"), resultRec("m1")}, "records m1 twice"},
		{"two failures", []journalRecord{failureRec("m1"), failureRec("m1")}, "records m1 twice"},
		{"empty result name", []journalRecord{resultRec("m1"), resultRec("")}, "empty matrix name"},
		{"empty failure name", []journalRecord{failureRec("")}, "empty matrix name"},
	}
	for _, c := range cases {
		path := writeJournal(t, journalLines(t, c.recs...))
		j, err := LoadJournal(path, journalConfig())
		if err == nil {
			t.Errorf("%s: accepted, %d matrices", c.name, j.Len())
			j.Close()
			continue
		}
		if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want a corrupt-journal error naming %q", c.name, err, c.want)
		}
	}
}

// FuzzLoadJournal feeds arbitrary bytes after a valid header. LoadJournal
// must either fail with an error or return a journal holding exactly the
// records of the complete lines, one per distinct name, with the file cut
// back to those lines; it must never panic. The seeds in
// testdata/fuzz/FuzzLoadJournal cover valid records, a torn tail, corrupt
// and unknown lines, and names repeated across kinds or left empty.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		path := writeJournal(t, body)
		j, err := LoadJournal(path, journalConfig())
		if err != nil {
			return
		}
		defer j.Close()
		// The complete lines are everything up to the last newline; a
		// trailing fragment is a torn append and must be cut away.
		complete := body[:bytes.LastIndexByte(body, '\n')+1]
		var lines [][]byte
		if len(complete) > 0 {
			lines = bytes.Split(complete[:len(complete)-1], []byte{'\n'})
		}
		names := map[string]bool{}
		for i, line := range lines {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("line %d %q loaded but does not parse: %v", i, line, err)
			}
			switch {
			case rec.Kind == "result" && rec.Result != nil:
				names[rec.Result.Name] = true
				r, fl, ok := j.Lookup(rec.Result.Name)
				if !ok || fl != nil || !reflect.DeepEqual(r, rec.Result) {
					t.Fatalf("line %d: Lookup(%q) = %+v, %v, %v; want the line's result", i, rec.Result.Name, r, fl, ok)
				}
			case rec.Kind == "failure" && rec.Failure != nil:
				want := rec.Failure
				names[want.Name] = true
				r, fl, ok := j.Lookup(want.Name)
				if !ok || r != nil || fl == nil || fl.Name != want.Name || fl.Ordering != want.Ordering ||
					fl.Class != want.Class || fl.Attempts != want.Attempts || fl.Err.Error() != want.Message {
					t.Fatalf("line %d: Lookup(%q) = %+v, %+v, %v; want the line's failure", i, want.Name, r, fl, ok)
				}
			default:
				t.Fatalf("line %d %q loaded but is no result or failure", i, line)
			}
		}
		if j.Len() != len(names) || len(names) != len(lines) {
			t.Fatalf("Len() = %d for %d distinct names on %d complete lines", j.Len(), len(names), len(lines))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(data, complete) || len(data) != bytes.IndexByte(data, '\n')+1+len(complete) {
			t.Fatalf("file holds %q after load, want the header and %q", data, complete)
		}
	})
}
