package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestBenchDocumentKeys pins the shape of the committed benchmark
// documents: each document type, rendered by RenderBench with every
// top-level field set, lists the same top-level keys in the same order as
// its committed BENCH_*.json, once the keys documented as merged in by
// hand are dropped. The shared header must come first in every one.
func TestBenchDocumentKeys(t *testing.T) {
	for _, c := range []struct {
		file    string
		doc     any
		handKey string // merged in by hand, never rendered
	}{
		{"BENCH_reorder.json", &ReorderBench{
			BenchHeader: newBenchHeader(1), Matrices: []ReorderBenchMatrix{{}}}, ""},
		{"BENCH_ingest.json", &IngestBench{
			BenchHeader: newBenchHeader(1), Matrices: []IngestBenchMatrix{{}}}, ""},
		{"BENCH_obs.json", &ObsBench{
			BenchHeader: newBenchHeader(1), Micro: []ObsMicroResult{{}}, Pipeline: []ObsPipelineRun{{}},
			Serving: []ObsMicroResult{{}}, ServingPhases: []ObsServingPhases{{}}}, "serving_phases_parent"},
		{"BENCH_solve.json", &SolveBench{
			BenchHeader: newBenchHeader(1), Seed: 1, Rows: 1, NNZ: 1, Kernel: "2D", Threads: 1, Tol: 1,
			MultiplyReps: 1, Orderings: []SolveBenchOrdering{{}}}, "parent"},
	} {
		v := reflect.ValueOf(c.doc).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s: the test leaves field %s unset", c.file, v.Type().Field(i).Name)
			}
		}
		text, err := RenderBench(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		got := topLevelKeys(t, []byte(text))
		committed, err := os.ReadFile(filepath.Join("..", "..", c.file))
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(topLevelKeys(t, committed), func(k string) bool { return k == c.handKey })
		if !slices.Equal(got, want) {
			t.Errorf("%s: rendered keys %v, committed %v", c.file, got, want)
		}
		if !slices.Equal(got[:3], []string{"host_cpus", "gomaxprocs", "repeats"}) {
			t.Errorf("%s: document opens with %v, want the bench header", c.file, got[:3])
		}
	}
}

// topLevelKeys lists the keys of the JSON object in doc, in order.
func topLevelKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("document does not open an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
