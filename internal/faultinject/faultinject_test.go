package faultinject

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// arm installs a plan for the duration of the test; tests that arm the
// process-wide plan must not run in parallel.
func arm(t *testing.T, p *Plan) {
	t.Helper()
	Activate(p)
	t.Cleanup(func() { Activate(nil) })
}

func TestCheckDisabledReturnsNil(t *testing.T) {
	Activate(nil)
	if err := Check(JournalSync, "m1"); err != nil {
		t.Fatalf("disabled Check = %v", err)
	}
	if Enabled() {
		t.Fatal("Enabled() with no plan armed")
	}
}

// TestCheckDisabledZeroAlloc is the hot-path contract: with no plan armed
// a hook is a nil check and allocates nothing.
func TestCheckDisabledZeroAlloc(t *testing.T) {
	Activate(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			t.Fatal("armed")
		}
		if err := Check(ReorderOrder, "RCM/100x100/500"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Check allocates %v per call, want 0", allocs)
	}
}

func BenchmarkFaultDisabled(b *testing.B) {
	Activate(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Check(ReorderOrder, "k") != nil {
			b.Fatal("fired while disabled")
		}
	}
}

// TestKeyedDecisionDeterministic checks the resume-critical property: the
// same (seed, point, key) always decides the same way, regardless of hit
// order or plan instance.
func TestKeyedDecisionDeterministic(t *testing.T) {
	keys := []string{"RCM/10/50", "AMD/10/50", "ND/99/400", "HP/7/21", "Gray/64/128"}
	outcome := func(p *Plan) []bool {
		arm(t, p)
		var out []bool
		for _, k := range keys {
			out = append(out, Check(ReorderOrder, k) != nil)
		}
		return out
	}
	first := outcome(NewPlan(7, Rule{Point: ReorderOrder, Mode: ModeError, Rate: 0.5}))
	for run := 0; run < 3; run++ {
		// Fresh plan, reversed visiting order: decisions must not move.
		p := NewPlan(7, Rule{Point: ReorderOrder, Mode: ModeError, Rate: 0.5})
		arm(t, p)
		for i := len(keys) - 1; i >= 0; i-- {
			fired := Check(ReorderOrder, keys[i]) != nil
			if fired != first[i] {
				t.Fatalf("run %d: key %q fired=%v, first run said %v", run, keys[i], fired, first[i])
			}
		}
	}
	// A different seed must (for this key set) produce a different pattern.
	other := outcome(NewPlan(8, Rule{Point: ReorderOrder, Mode: ModeError, Rate: 0.5}))
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("seed change did not move any decision (suspicious hash)")
	}
	// Rate 0.5 over 5 keys should neither fire always nor never.
	fired := 0
	for _, f := range first {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(first) {
		t.Errorf("rate 0.5 fired %d/%d keys", fired, len(first))
	}
}

func TestAfterSuppressesEarlyHits(t *testing.T) {
	arm(t, NewPlan(1, Rule{Point: JournalSync, Mode: ModeError, Rate: 1, After: 3}))
	for i := 0; i < 3; i++ {
		if err := Check(JournalSync, "m"); err != nil {
			t.Fatalf("hit %d fired, want suppressed by After", i)
		}
	}
	if err := Check(JournalSync, "m"); err == nil {
		t.Fatal("hit 3 did not fire")
	}
	if got := Fired()[JournalSync]; got != 1 {
		t.Fatalf("fired counter = %d, want 1", got)
	}
}

func TestModesProduceTypedErrors(t *testing.T) {
	arm(t, NewPlan(0,
		Rule{Point: FileSync, Mode: ModeENOSPC, Rate: 1},
		Rule{Point: FileWrite, Mode: ModeShortWrite, Rate: 1},
		Rule{Point: JournalAppend, Mode: ModeError, Rate: 1},
	))
	if err := Check(FileSync, "a"); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Errorf("enospc fault = %v", err)
	}
	if err := Check(FileWrite, "a"); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("shortwrite fault = %v", err)
	}
	err := Check(JournalAppend, "a")
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error fault = %v", err)
	}
	if !strings.Contains(err.Error(), "journal/append[a]") {
		t.Errorf("error text %q does not name point and key", err)
	}
}

func TestPanicMode(t *testing.T) {
	arm(t, NewPlan(0, Rule{Point: ReorderGraph, Mode: ModePanic, Rate: 1}))
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *InjectedPanic", r, r)
		}
		if ip.Point != ReorderGraph || ip.Key != "k" {
			t.Errorf("panic value = %+v", ip)
		}
	}()
	Check(ReorderGraph, "k")
	t.Fatal("ModePanic did not panic")
}

func TestDelayAndAllocModesReturnNil(t *testing.T) {
	arm(t, NewPlan(0,
		Rule{Point: MatrixRead, Mode: ModeDelay, Rate: 1, Param: 1},
		Rule{Point: ReorderPermute, Mode: ModeAlloc, Rate: 1, Param: 1},
	))
	if err := Check(MatrixRead, ""); err != nil {
		t.Errorf("delay fault = %v", err)
	}
	if err := Check(ReorderPermute, "k"); err != nil {
		t.Errorf("alloc fault = %v", err)
	}
	f := Fired()
	if f[MatrixRead] != 1 || f[ReorderPermute] != 1 {
		t.Errorf("fired counters = %v", f)
	}
}

func TestKeylessHitsAreRateSampled(t *testing.T) {
	arm(t, NewPlan(3, Rule{Point: MatrixRead, Mode: ModeError, Rate: 0.5}))
	fired := 0
	for i := 0; i < 200; i++ {
		if Check(MatrixRead, "") != nil {
			fired++
		}
	}
	if fired < 50 || fired > 150 {
		t.Errorf("keyless rate 0.5 fired %d/200", fired)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=7; reorder/order=error:0.4 ;journal/sync=enospc:1:5;fsutil/write=shortwrite;matrix/read=delay:1:0:25;")
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 7 {
		t.Errorf("seed = %d", p.seed)
	}
	want := map[Point]Rule{
		ReorderOrder: {Point: ReorderOrder, Mode: ModeError, Rate: 0.4},
		JournalSync:  {Point: JournalSync, Mode: ModeENOSPC, Rate: 1, After: 5},
		FileWrite:    {Point: FileWrite, Mode: ModeShortWrite, Rate: 1},
		MatrixRead:   {Point: MatrixRead, Mode: ModeDelay, Rate: 1, Param: 25},
	}
	for pt, w := range want {
		rs := p.rules[pt]
		if len(rs) != 1 || rs[0] != w {
			t.Errorf("%s: rules = %+v, want %+v", pt, rs, w)
		}
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	if p, err := ParseSpec("  "); p != nil || err != nil {
		t.Errorf("empty spec = %v, %v", p, err)
	}
	for _, bad := range []string{
		"reorder/order",             // no mode
		"reorder/order=explode",     // unknown mode
		"reorder/order=error:1.5",   // rate out of range
		"reorder/order=error:1:x",   // bad after
		"reorder/order=error:1:0:y", // bad param
		"seed=abc",                  // bad seed
		"seed=7",                    // no rules
		"a=error:1:0:5:9",           // too many fields
		"reorder/order=error:1:0:5:9",
		"reorder/odrer=error",            // misspelt point
		"reorder/order =error",           // point with a trailing blank
		"reorder/order=error:NaN",        // NaN passes neither end of 0..1
		"seed=1;reorder/odrer=error:NaN", // both
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	Activate(nil)
	if err := WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("disabled WritePrometheus = %q, %v", buf.String(), err)
	}
	arm(t, NewPlan(0, Rule{Point: JournalSync, Mode: ModeError, Rate: 1},
		Rule{Point: FileWrite, Mode: ModeError, Rate: 0}))
	Check(JournalSync, "a")
	Check(JournalSync, "b")
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sparseorder_faultinject_fired_total counter",
		`sparseorder_faultinject_fired_total{point="journal/sync"} 2`,
		`sparseorder_faultinject_fired_total{point="fsutil/write"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParseSpecPointsAreTheConstants: the points ParseSpec accepts are
// exactly the Point constants declared in faultinject.go, so a new site
// cannot be wired without becoming nameable in a spec, nor a name be
// accepted that no site checks.
func TestParseSpecPointsAreTheConstants(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Point" {
				continue
			}
			for _, v := range vs.Values {
				lit, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				declared = append(declared, lit)
			}
		}
	}
	var accepted []string
	for _, pt := range points {
		accepted = append(accepted, string(pt))
		if _, err := ParseSpec(string(pt) + "=error"); err != nil {
			t.Errorf("ParseSpec rejects the wired point %s: %v", pt, err)
		}
	}
	slices.Sort(declared)
	slices.Sort(accepted)
	if !slices.Equal(declared, accepted) {
		t.Errorf("declared Point constants %v, ParseSpec accepts %v", declared, accepted)
	}
}

// specOf renders a plan back into ParseSpec's syntax, every field spelled.
func specOf(p *Plan) string {
	parts := []string{"seed=" + strconv.FormatInt(p.seed, 10)}
	for _, pt := range points {
		for _, r := range p.rules[pt] {
			parts = append(parts, string(pt)+"="+r.Mode.String()+":"+
				strconv.FormatFloat(r.Rate, 'g', -1, 64)+":"+
				strconv.FormatUint(r.After, 10)+":"+strconv.Itoa(r.Param))
		}
	}
	return strings.Join(parts, ";")
}

// FuzzParseSpec: any spec is a clean error, the nil plan of a blank spec,
// or a plan over wired points with rates in [0, 1] whose rules, written
// back out, parse to the same plan. Never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"seed=7;reorder/order=error:0.4;journal/sync=enospc:1:5",
		"seed=7;server/cache=error:1:1;server/reorder=delay:1:0:1500",
		"seed=1;reorder/odrer=error:NaN",
		"matrix/read=alloc:0.5::8;",
		" ; ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if p == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("%q: nil plan without an error", spec)
			}
			return
		}
		for pt, rs := range p.rules {
			if !slices.Contains(points, pt) {
				t.Fatalf("%q armed the unknown point %q", spec, pt)
			}
			for _, r := range rs {
				if !(r.Rate >= 0 && r.Rate <= 1) {
					t.Fatalf("%q armed %s at rate %v", spec, pt, r.Rate)
				}
			}
		}
		back, err := ParseSpec(specOf(p))
		if err != nil {
			t.Fatalf("%q re-rendered as %q, which fails: %v", spec, specOf(p), err)
		}
		if back.seed != p.seed || !reflect.DeepEqual(back.rules, p.rules) {
			t.Fatalf("%q re-parsed as seed %d %+v, want seed %d %+v", spec, back.seed, back.rules, p.seed, p.rules)
		}
	})
}
