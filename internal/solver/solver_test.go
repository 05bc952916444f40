package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

func systemFor(t *testing.T, a *sparse.CSR, seed int64) (xTrue, b []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xTrue = make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, a.Rows)
	spmv.Serial(a, xTrue, b)
	return xTrue, b
}

func TestCGSolvesGrid(t *testing.T) {
	a := gen.Grid2D(20, 20)
	xTrue, b := systemFor(t, a, 1)
	res, err := CG(a, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (residual %g)", res.Iterations, res.Residual)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xTrue[i])
		}
	}
	if res.SpMVCount != res.Iterations {
		t.Errorf("SpMV count %d != iterations %d", res.SpMVCount, res.Iterations)
	}
}

func TestCGJacobiConvergesFasterOnSkewedDiagonal(t *testing.T) {
	// A badly scaled SPD system: Jacobi preconditioning must cut the
	// iteration count substantially.
	base := gen.Grid2D(16, 16)
	coo := sparse.FromCSR(base)
	for k := range coo.Val {
		if coo.Row[k] == coo.Col[k] && coo.Row[k]%7 == 0 {
			coo.Val[k] *= 1000
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	_, b := systemFor(t, a, 2)
	plain, err := CG(a, b, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := CG(a, b, Options{Tol: 1e-8, MaxIter: 5000, Jacobi: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatal("preconditioned CG did not converge")
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("Jacobi iterations %d not below plain %d", pre.Iterations, plain.Iterations)
	}
}

func TestCGParallelThreadsAgree(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(14, 14), 3)
	xTrue, b := systemFor(t, a, 3)
	for _, threads := range []int{1, 4} {
		res, err := CG(a, b, Options{Tol: 1e-10, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for i := range xTrue {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("threads=%d: wrong solution at %d", threads, i)
			}
		}
	}
}

// TestCGKernelsAgree checks that each SpMV kernel drives CG to the same
// solution — the amortization experiment of §4.7 requires swapping the 2D
// and merge kernels into the solve.
func TestCGKernelsAgree(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(14, 14), 5)
	xTrue, b := systemFor(t, a, 5)
	for _, k := range []Kernel{Kernel1D, Kernel2D, KernelMerge} {
		for _, threads := range []int{1, 4} {
			res, err := CG(a, b, Options{Tol: 1e-10, Threads: threads, Kernel: k})
			if err != nil {
				t.Fatalf("kernel=%s threads=%d: %v", k, threads, err)
			}
			if !res.Converged {
				t.Fatalf("kernel=%s threads=%d did not converge", k, threads)
			}
			for i := range xTrue {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
					t.Fatalf("kernel=%s threads=%d: wrong solution at %d", k, threads, i)
				}
			}
		}
	}
}

func TestCGRejectsUnknownKernel(t *testing.T) {
	a := gen.Grid2D(4, 4)
	if _, err := CG(a, make([]float64, a.Rows), Options{Kernel: Kernel(99)}); err == nil {
		t.Error("accepted unknown kernel")
	}
}

func TestKernelStrings(t *testing.T) {
	for k, want := range map[Kernel]string{Kernel1D: "1D", Kernel2D: "2D", KernelMerge: "merge"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestSolveReorderedMatchesDirect(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(15, 15), 4)
	xTrue, b := systemFor(t, a, 4)
	perm, err := reorder.Compute(reorder.RCM, a, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := sparse.PermuteSymmetricWorkers(a, perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveReordered(pa, perm, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("reordered solve wrong at %d: %v vs %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestCGRejectsBadInput(t *testing.T) {
	a := gen.Grid2D(4, 4)
	if _, err := CG(a, make([]float64, 3), Options{}); err == nil {
		t.Error("accepted wrong-length rhs")
	}
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 0, 1)
	rect, _ := coo.ToCSR()
	if _, err := CG(rect, make([]float64, 2), Options{}); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 5)
	coo.Append(1, 0, 5)
	coo.Append(1, 1, 1)
	a, _ := coo.ToCSR()
	// b = [1, -1] lies in the negative eigenspace (eigenvalue 1-5 = -4),
	// so the very first pᵀAp is negative.
	if _, err := CG(a, []float64{1, -1}, Options{MaxIter: 100}); err == nil {
		t.Error("CG accepted an indefinite matrix without complaint")
	}
}

func TestCGJacobiRequiresDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	a, _ := coo.ToCSR()
	if _, err := CG(a, []float64{1, 1}, Options{Jacobi: true}); err == nil {
		t.Error("Jacobi accepted a matrix with missing diagonal")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := gen.Grid2D(6, 6)
	res, err := CG(a, make([]float64, a.Rows), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs should converge immediately, got %d iterations", res.Iterations)
	}
}

// refSpMV is the plain serial row loop, independent of internal/spmv.
func refSpMV(a *sparse.CSR, x, y []float64) {
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// refCG is the textbook CG loop, computing r·r afresh at the top of every
// iteration and pᵀAp, r·z and the final residual as separate dot products,
// multiplying with mul. CG must reproduce its X bits, iteration count and
// residual bits when both run the same kernel at the same thread count.
func refCG(a *sparse.CSR, b []float64, tol float64, maxIter int, jacobi bool, mul func(x, y []float64)) ([]float64, int, float64) {
	n := a.Rows
	var diagInv []float64
	if jacobi {
		diagInv = make([]float64, n)
		for i := 0; i < n; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if int(a.ColIdx[k]) == i {
					diagInv[i] = 1 / a.Val[k]
				}
			}
		}
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := r
	if jacobi {
		z = make([]float64, n)
		for i := range z {
			z[i] = diagInv[i] * r[i]
		}
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dot(r, z)
	it := 0
	for ; it < maxIter; it++ {
		if math.Sqrt(dot(r, r)) < tol {
			break
		}
		mul(p, ap)
		alpha := rz / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if jacobi {
			for i := range z {
				z[i] = diagInv[i] * r[i]
			}
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rzNew
	}
	return x, it, math.Sqrt(dot(r, r))
}

// TestCGMatchesReference checks that CG is bit-identical to the reference
// loop: reusing r·z as r·r without Jacobi and the shared row kernel must
// not change a single bit of X or the iteration count.
func TestCGMatchesReference(t *testing.T) {
	scrambled := gen.Scramble(gen.Grid2D(24, 24), 8)
	rcm, _, err := reorder.Apply(reorder.RCM, scrambled, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*sparse.CSR{"scrambled": scrambled, "rcm": rcm} {
		_, b := systemFor(t, a, 8)
		for _, jacobi := range []bool{false, true} {
			wantX, wantIters, _ := refCG(a, b, 1e-10, 10*a.Rows, jacobi, func(x, y []float64) { refSpMV(a, x, y) })
			for _, k := range []Kernel{Kernel1D, Kernel2D, KernelMerge} {
				res, err := CG(a, b, Options{Tol: 1e-10, Threads: 1, Kernel: k, Jacobi: jacobi})
				if err != nil {
					t.Fatalf("%s jacobi=%v kernel=%s: %v", name, jacobi, k, err)
				}
				if res.Iterations != wantIters {
					t.Errorf("%s jacobi=%v kernel=%s: %d iterations, reference %d", name, jacobi, k, res.Iterations, wantIters)
				}
				for i := range wantX {
					if math.Float64bits(res.X[i]) != math.Float64bits(wantX[i]) {
						t.Errorf("%s jacobi=%v kernel=%s: X[%d] = %v, reference %v", name, jacobi, k, i, res.X[i], wantX[i])
						break
					}
				}
			}
		}
	}
}

// refKernel returns the y = A·x multiply the reference CG runs to match
// CG's kernel and thread count: the same exported kernel, with its plan
// built once.
func refKernel(t *testing.T, a *sparse.CSR, k Kernel, threads int) func(x, y []float64) {
	t.Helper()
	var mul func(x, y []float64) error
	switch k {
	case Kernel1D:
		mul = func(x, y []float64) error { return spmv.Mul1D(a, x, y, threads) }
	case Kernel2D:
		p, err := spmv.NewPlan2D(a, threads)
		if err != nil {
			t.Fatal(err)
		}
		mul = func(x, y []float64) error { return spmv.Mul2D(a, x, y, p) }
	case KernelMerge:
		p, err := spmv.NewPlanMerge(a, threads)
		if err != nil {
			t.Fatal(err)
		}
		mul = func(x, y []float64) error { return spmv.MulMerge(a, x, y, p) }
	}
	return func(x, y []float64) {
		if err := mul(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCGMatchesReferenceEveryKernel pins CG's bit identity at every kernel
// and thread count: with pᵀAp summed inside the one-thread multiply and
// r·r and r·z summed in the x/r sweep, CG must still give the reference's
// X bits, iteration count, multiply count and residual bits when the
// reference runs the same kernel at the same thread count. Above one
// thread the 2D and merge kernels sum the rows their split points cut in
// another order than the serial loop, so each thread count has its own
// reference.
func TestCGMatchesReferenceEveryKernel(t *testing.T) {
	scrambled := gen.Scramble(gen.Grid2D(24, 24), 8)
	rcm, _, err := reorder.Apply(reorder.RCM, scrambled, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mesh := gen.Scramble(gen.Grid3D(10, 10, 10), 9)
	for name, a := range map[string]*sparse.CSR{"scrambled": scrambled, "rcm": rcm, "mesh": mesh} {
		_, b := systemFor(t, a, 8)
		for _, jacobi := range []bool{false, true} {
			for _, k := range []Kernel{Kernel1D, Kernel2D, KernelMerge} {
				for _, threads := range []int{1, 2, 4} {
					calls := 0
					mul := refKernel(t, a, k, threads)
					wantX, wantIters, wantRes := refCG(a, b, 1e-10, 10*a.Rows, jacobi, func(x, y []float64) {
						calls++
						mul(x, y)
					})
					res, err := CG(a, b, Options{Tol: 1e-10, Threads: threads, Kernel: k, Jacobi: jacobi})
					if err != nil {
						t.Fatalf("%s jacobi=%v kernel=%s threads=%d: %v", name, jacobi, k, threads, err)
					}
					where := fmt.Sprintf("%s jacobi=%v kernel=%s threads=%d", name, jacobi, k, threads)
					if res.Iterations != wantIters || res.SpMVCount != calls {
						t.Errorf("%s: %d iterations and %d multiplies, reference %d and %d", where, res.Iterations, res.SpMVCount, wantIters, calls)
					}
					if math.Float64bits(res.Residual) != math.Float64bits(wantRes) {
						t.Errorf("%s: residual %v, reference %v", where, res.Residual, wantRes)
					}
					for i := range wantX {
						if math.Float64bits(res.X[i]) != math.Float64bits(wantX[i]) {
							t.Errorf("%s: X[%d] = %v, reference %v", where, i, res.X[i], wantX[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestCGRejectsBadOptions checks that options CG cannot honour fail up
// front with their own error. A NaN or negative tolerance used to run all
// 10·n iterations and then blame the matrix, +Inf reported convergence at
// iteration 0, a negative thread count failed only with the planned
// kernels, and a negative MaxIter returned an unconverged result with no
// error.
func TestCGRejectsBadOptions(t *testing.T) {
	a := gen.Grid2D(30, 30)
	_, b := systemFor(t, a, 11)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"Tol NaN", Options{Tol: math.NaN()}, "solver: tolerance"},
		{"Tol -1", Options{Tol: -1}, "solver: tolerance"},
		{"Tol +Inf", Options{Tol: math.Inf(1)}, "solver: tolerance"},
		{"Tol -Inf", Options{Tol: math.Inf(-1)}, "solver: tolerance"},
		{"Threads -1 1D", Options{Threads: -1, Kernel: Kernel1D}, "solver: Threads"},
		{"Threads -1 2D", Options{Threads: -1, Kernel: Kernel2D}, "solver: Threads"},
		{"Threads -1 merge", Options{Threads: -1, Kernel: KernelMerge}, "solver: Threads"},
		{"MaxIter -5", Options{MaxIter: -5}, "solver: MaxIter"},
	}
	for _, c := range cases {
		res, err := CG(a, b, c.opts)
		if err == nil {
			t.Errorf("%s: accepted, result %+v", c.name, res)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %q, want one starting %q", c.name, err, c.want)
		}
	}
	// Zero values still take their defaults.
	res, err := CG(a, b, Options{})
	if err != nil || !res.Converged || res.Iterations == 0 {
		t.Errorf("zero options: result %+v, error %v; want a converged solve", res, err)
	}
}

// TestCGStopsOnNonFinite checks that a NaN or Inf in b or A fails the
// solve within a few iterations instead of running all 10·n of them.
func TestCGStopsOnNonFinite(t *testing.T) {
	a := gen.Grid2D(60, 60)
	_, b := systemFor(t, a, 9)
	withB := func(v float64) (*sparse.CSR, []float64) {
		bb := append([]float64(nil), b...)
		bb[1234] = v
		return a, bb
	}
	withA := func(k int) (*sparse.CSR, []float64) {
		aa := a.Clone()
		aa.Val[k] = math.NaN()
		return aa, b
	}
	// Row 700's first entry is off-diagonal; find its diagonal entry.
	diag := -1
	for k := a.RowPtr[700]; k < a.RowPtr[701]; k++ {
		if a.ColIdx[k] == 700 {
			diag = k
		}
	}
	iterRE := regexp.MustCompile(`at iteration (\d+)`)
	cases := map[string]func() (*sparse.CSR, []float64){
		"NaN in b":              func() (*sparse.CSR, []float64) { return withB(math.NaN()) },
		"+Inf in b":             func() (*sparse.CSR, []float64) { return withB(math.Inf(1)) },
		"NaN in A off-diagonal": func() (*sparse.CSR, []float64) { return withA(a.RowPtr[700]) },
		"NaN in A diagonal":     func() (*sparse.CSR, []float64) { return withA(diag) },
	}
	for name, mk := range cases {
		for _, jacobi := range []bool{false, true} {
			m, rhs := mk()
			res, err := CG(m, rhs, Options{Jacobi: jacobi})
			if err == nil {
				t.Errorf("%s jacobi=%v: no error after %d iterations (residual %g)", name, jacobi, res.Iterations, res.Residual)
				continue
			}
			sub := iterRE.FindStringSubmatch(err.Error())
			if sub == nil {
				t.Errorf("%s jacobi=%v: error %q does not name the iteration", name, jacobi, err)
				continue
			}
			if it, _ := strconv.Atoi(sub[1]); it > 2 {
				t.Errorf("%s jacobi=%v: failed only at iteration %d: %v", name, jacobi, it, err)
			}
		}
	}
}

// TestSolveReorderedRejectsBadPerm checks that SolveReordered validates
// its permutation: a duplicate entry used to solve the wrong system
// silently, and an out-of-range entry used to panic.
func TestSolveReorderedRejectsBadPerm(t *testing.T) {
	a := gen.Grid2D(5, 5)
	_, b := systemFor(t, a, 10)
	dup := sparse.Identity(a.Rows)
	dup[3] = 4
	high := sparse.Identity(a.Rows)
	high[3] = a.Rows
	neg := sparse.Identity(a.Rows)
	neg[0] = -1
	for name, perm := range map[string]sparse.Perm{"duplicate": dup, "out of range": high, "negative": neg} {
		res, err := SolveReordered(a, perm, b, Options{})
		var pe *sparse.PermError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got result %v, error %v; want a *sparse.PermError", name, res, err)
		}
	}
}
