package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spy"
)

// checkReport holds every view of out to the matrix a: the header, the
// per-ordering features and fill (fill of fillOf under each symmetric
// ordering), the machine-model table at the CacheScale run left set, and
// the spy panels.
func checkReport(t *testing.T, out, name string, a, fillOf *sparse.CSR) {
	t.Helper()
	lines := strings.Split(out, "\n")
	if want := fmt.Sprintf("%s: %dx%d, %d nonzeros", name, a.Rows, a.Cols, a.NNZ()); lines[0] != want {
		t.Fatalf("header %q, want %q", lines[0], want)
	}
	table := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "order ") {
			table = i
			break
		}
	}
	if table < 0 || table+len(reorder.AllOrderings) >= len(lines) {
		t.Fatalf("no ordering table in:\n%s", out)
	}
	var bs []*sparse.CSR
	for i, alg := range reorder.AllOrderings {
		b, p, err := reorder.Apply(alg, a, reorder.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
		f := metrics.ComputeWorkers(b, 128, 128, 1)
		want := fmt.Sprintf("%s %d %d %d %.3f - -", alg, f.Bandwidth, f.Profile, f.OffDiagNNZ, f.Imbalance1D)
		if alg.Symmetric() {
			s, err := sparse.PermuteSymmetricWorkers(fillOf, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			l, err := cholesky.FactorNNZ(s)
			if err != nil {
				t.Fatal(err)
			}
			want = fmt.Sprintf("%s %d %d %d %.3f %d %.3f", alg, f.Bandwidth, f.Profile, f.OffDiagNNZ, f.Imbalance1D,
				l, float64(l)/float64(s.NNZ()))
		}
		row := strings.Fields(lines[table+1+i])
		if len(row) != 11 {
			t.Fatalf("ordering row %q: want 11 fields", lines[table+1+i])
		}
		if got := strings.Join(append(row[:1:1], row[2:8]...), " "); got != want {
			t.Errorf("%s: row reads %q, want %q", alg, got, want)
		}
		for _, m := range machine.Table2 {
			e1, e2 := machine.EstimateSpMV(b, m, machine.Kernel1D), machine.EstimateSpMV(b, m, machine.Kernel2D)
			model := fmt.Sprintf("%-9s %-10s %7d %10.2f %10.2f %8.3f\n", alg, m.Name, m.Cores, e1.Gflops, e2.Gflops, e1.Imbalance)
			if !strings.Contains(out, model) {
				t.Errorf("no model row %q", model)
			}
		}
	}
	for i := 0; i < len(bs); i += 4 {
		j := min(i+4, len(bs))
		var labels []string
		for _, alg := range reorder.AllOrderings[i:j] {
			labels = append(labels, string(alg))
		}
		if panels := spy.SideBySide(labels, bs[i:j], 24); !strings.Contains(out, panels) {
			t.Errorf("spy panels %v missing or drawn from another matrix", labels)
		}
	}
}

// TestInspectGen reports a collection matrix: every view, spy included,
// reads the -scale test matrix of that name and the models run at the
// test scale's CacheScale.
func TestInspectGen(t *testing.T) {
	defer func(s float64) { machine.CacheScale = s }(machine.CacheScale)
	var out bytes.Buffer
	if err := run(&out, []string{"-gen", "grid2d_perm", "-scale", "test", "-repeats", "1"}); err != nil {
		t.Fatal(err)
	}
	if want := machine.CacheScaleFor(gen.ScaleTest.Factor()); machine.CacheScale != want {
		t.Errorf("CacheScale %g after a -scale test run, want %g", machine.CacheScale, want)
	}
	for _, m := range gen.Collection(gen.ScaleTest, 42) {
		if m.Name == "grid2d_perm" {
			checkReport(t, out.String(), m.Name, m.A, m.A)
			return
		}
	}
	t.Fatal("grid2d_perm is not in the test collection")
}

// TestInspectFile reports a Matrix Market file with an unsymmetric
// pattern, whose fill is that of A+Aᵀ, and writes one PGM per ordering.
func TestInspectFile(t *testing.T) {
	defer func(s float64) { machine.CacheScale = s }(machine.CacheScale)
	// A 12x12 grid's Laplacian less the upper entries with i+j divisible by 5.
	g := gen.Grid2D(12, 12)
	var mm strings.Builder
	var entries []string
	for i := range g.Rows {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			if j := int(g.ColIdx[k]); j <= i || (i+j)%5 != 0 {
				entries = append(entries, fmt.Sprintf("%d %d %g", i+1, j+1, g.Val[k]))
			}
		}
	}
	fmt.Fprintf(&mm, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n%s\n",
		g.Rows, g.Cols, len(entries), strings.Join(entries, "\n"))
	dir := t.TempDir()
	path := filepath.Join(dir, "unsym.mtx")
	if err := os.WriteFile(path, []byte(mm.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := sparse.ReadMatrixMarketWorkers(strings.NewReader(mm.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsStructurallySymmetric() {
		t.Fatal("test matrix should be unsymmetric")
	}
	var out bytes.Buffer
	pgm := filepath.Join(dir, "pgm")
	if err := run(&out, []string{"-repeats", "1", "-pgm", pgm, path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pattern is unsymmetric; fill is of A+Aᵀ") {
		t.Error("no note that fill is of A+Aᵀ")
	}
	sym, err := sparse.Symmetrize(a)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, out.String(), "unsym.mtx", a, sym)
	for _, alg := range reorder.AllOrderings {
		if _, err := os.Stat(filepath.Join(pgm, "unsym.mtx_"+string(alg)+".pgm")); err != nil {
			t.Error(err)
		}
	}
}

// TestInspectUnknownName fails with a message naming the matrix.
func TestInspectUnknownName(t *testing.T) {
	err := run(&bytes.Buffer{}, []string{"-gen", "no_such_matrix", "-scale", "test"})
	if err == nil || !strings.Contains(err.Error(), `"no_such_matrix"`) {
		t.Fatalf("err = %v, want one naming no_such_matrix", err)
	}
}
