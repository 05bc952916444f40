// Package solver provides the iterative solvers that motivate the study's
// amortization argument (paper §4.7): conjugate gradients performs one
// SpMV per iteration with a fixed matrix, so a reordering that speeds up
// SpMV pays for itself over the course of a solve. Plain CG and
// Jacobi-preconditioned CG are provided, both built on the library's
// parallel SpMV kernels. At one thread every kernel runs spmv.SerialDot,
// which sums pᵀAp inside the multiply's row loop, so an iteration is that
// multiply plus two sweeps over the vectors.
package solver

import (
	"fmt"
	"math"

	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// Kernel selects the SpMV kernel CG uses for the A·p product of each
// iteration above one thread. The 2D and merge kernels build their
// execution plan once per solve and reuse it every iteration, so the
// planning cost is amortised over the whole solve exactly as the paper's
// §4.7 argues for reordering cost. At one thread every kernel runs the
// same serial row loop, so CG runs spmv.SerialDot for each of them and
// builds no plan.
type Kernel int

const (
	// Kernel1D is the study's 1D row-split kernel (the default).
	Kernel1D Kernel = iota
	// Kernel2D is the study's 2D nonzero-balanced kernel.
	Kernel2D
	// KernelMerge is the merge-based kernel of Merrill and Garland.
	KernelMerge
)

// String returns the kernel's short name.
func (k Kernel) String() string {
	switch k {
	case Kernel1D:
		return "1D"
	case Kernel2D:
		return "2D"
	case KernelMerge:
		return "merge"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Options configure a CG solve; zero values take the documented defaults,
// and negative or non-finite ones are rejected.
type Options struct {
	// Tol is the absolute residual 2-norm tolerance. Default 1e-8.
	Tol float64
	// MaxIter bounds the iteration count. Default 10·n.
	MaxIter int
	// Threads is the SpMV thread count. Default 1.
	Threads int
	// Jacobi enables diagonal (Jacobi) preconditioning.
	Jacobi bool
	// Kernel is the SpMV kernel used for every iteration's A·p product.
	// Default Kernel1D. Above one thread, Kernel2D and KernelMerge build
	// their plan once at the start of the solve and reuse it for every
	// iteration; at one thread every kernel runs spmv.SerialDot.
	Kernel Kernel
}

func (o Options) withDefaults(n int) (Options, error) {
	// A NaN or negative tolerance can never be met, so the solve would run
	// all MaxIter iterations and then blame the matrix; +Inf would be met
	// before the first iteration.
	if math.IsNaN(o.Tol) || math.IsInf(o.Tol, 0) || o.Tol < 0 {
		return o, fmt.Errorf("solver: tolerance must be finite and non-negative, got %g", o.Tol)
	}
	if o.MaxIter < 0 {
		return o, fmt.Errorf("solver: MaxIter must be non-negative, got %d", o.MaxIter)
	}
	if o.Threads < 0 {
		return o, fmt.Errorf("solver: Threads must be non-negative, got %d", o.Threads)
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	return o, nil
}

// Result reports the outcome of a solve.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64 // final residual 2-norm
	Converged  bool
	SpMVCount  int
}

// CG solves A·x = b for a symmetric positive definite matrix with the
// conjugate-gradient method.
//
// An iteration is one multiply, which also returns pᵀAp, and two sweeps
// over the vectors: the first updates x and r, sets z = D⁻¹r under Jacobi,
// and sums r·r (and r·z) in index order; the second sets p = z + βp. Every
// sum keeps the textbook loop's order, so X, the iteration count and the
// residual are bitwise those of separate dot products.
func CG(a *sparse.CSR, b []float64, opts Options) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("solver: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("solver: rhs length %d, want %d", len(b), a.Rows)
	}
	n := a.Rows
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}

	// Build the per-iteration multiply once: for the planned kernels this
	// constructs the plan a single time and reuses it every iteration.
	mul, err := multiplier(a, opts)
	if err != nil {
		return nil, err
	}

	var diagInv []float64
	if opts.Jacobi {
		diagInv = make([]float64, n)
		for i := 0; i < n; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if int(a.ColIdx[k]) == i {
					if a.Val[k] == 0 {
						return nil, fmt.Errorf("solver: zero diagonal at %d; Jacobi preconditioner undefined", i)
					}
					diagInv[i] = 1 / a.Val[k]
				}
			}
			if diagInv[i] == 0 {
				return nil, fmt.Errorf("solver: missing diagonal at %d; Jacobi preconditioner undefined", i)
			}
		}
	}

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := r
	if opts.Jacobi {
		z = make([]float64, n)
		for i := range z {
			z[i] = diagInv[i] * r[i]
		}
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dot(r, z)
	// Without Jacobi z aliases r, so r·z is already r·r.
	rr := rz
	if opts.Jacobi {
		rr = dot(r, r)
	}
	res := &Result{}

	for res.Iterations = 0; res.Iterations < opts.MaxIter; res.Iterations++ {
		if math.Sqrt(rr) < opts.Tol {
			res.Converged = true
			break
		}
		pap, err := mul(p, ap)
		if err != nil {
			return nil, fmt.Errorf("solver: SpMV at iteration %d: %w", res.Iterations, err)
		}
		res.SpMVCount++
		// Negated so a NaN from a non-finite entry of A or b stops the
		// solve here instead of running all MaxIter iterations.
		if !(pap > 0) {
			return nil, fmt.Errorf("solver: matrix not positive definite, or A or b not finite (pᵀAp = %g at iteration %d)", pap, res.Iterations)
		}
		alpha := rz / pap
		rr = 0
		rzNew := 0.0
		if opts.Jacobi {
			for i := range x {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*ap[i]
				r[i] = ri
				rr += ri * ri
				zi := diagInv[i] * ri
				z[i] = zi
				rzNew += ri * zi
			}
		} else {
			for i := range x {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*ap[i]
				r[i] = ri
				rr += ri * ri
			}
			rzNew = rr
		}
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rzNew
	}
	res.X = x
	res.Residual = math.Sqrt(rr)
	if res.Residual < opts.Tol {
		res.Converged = true
	}
	return res, nil
}

// SolveReordered applies alg-style amortization: it permutes the system by
// the given (new-to-old) permutation, solves, and permutes the solution
// back. The permuted matrix must be supplied by the caller (so its
// construction cost can be measured separately).
func SolveReordered(pa *sparse.CSR, perm sparse.Perm, b []float64, opts Options) (*Result, error) {
	n := pa.Rows
	if len(perm) != n || len(b) != n {
		return nil, fmt.Errorf("solver: inconsistent sizes (n=%d, perm=%d, b=%d)", n, len(perm), len(b))
	}
	// A duplicate entry would silently solve the wrong system, and an
	// out-of-range one would panic in the gather below.
	if err := perm.Validate(); err != nil {
		return nil, fmt.Errorf("solver: %w", err)
	}
	pb := make([]float64, n)
	for newI, oldI := range perm {
		pb[newI] = b[oldI]
	}
	res, err := CG(pa, pb, opts)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for newI, oldI := range perm {
		x[oldI] = res.X[newI]
	}
	res.X = x
	return res, nil
}

// multiplier returns the routine that sets y = A·x and returns xᵀy for the
// selected kernel. At one thread every kernel runs the serial row loop, so
// the routine is spmv.SerialDot, whose sum rides in that loop. Above one
// thread it is the kernel followed by a serial dot; plans for the 2D and
// merge kernels are built here, exactly once per solve.
func multiplier(a *sparse.CSR, opts Options) (func(x, y []float64) (float64, error), error) {
	switch opts.Kernel {
	case Kernel1D, Kernel2D, KernelMerge:
	default:
		return nil, fmt.Errorf("solver: unknown SpMV kernel %d", int(opts.Kernel))
	}
	if opts.Threads == 1 {
		return func(x, y []float64) (float64, error) { return spmv.SerialDot(a, x, y) }, nil
	}
	var mul func(x, y []float64) error
	switch opts.Kernel {
	case Kernel1D:
		mul = func(x, y []float64) error { return spmv.Mul1D(a, x, y, opts.Threads) }
	case Kernel2D:
		p, err := spmv.NewPlan2D(a, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("solver: building 2D plan: %w", err)
		}
		mul = func(x, y []float64) error { return spmv.Mul2D(a, x, y, p) }
	case KernelMerge:
		p, err := spmv.NewPlanMerge(a, opts.Threads)
		if err != nil {
			return nil, fmt.Errorf("solver: building merge plan: %w", err)
		}
		mul = func(x, y []float64) error { return spmv.MulMerge(a, x, y, p) }
	}
	return func(x, y []float64) (float64, error) {
		if err := mul(x, y); err != nil {
			return 0, err
		}
		return dot(x, y), nil
	}, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
