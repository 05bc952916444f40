// Package partition implements a multilevel graph partitioner in the style
// of METIS: heavy-edge-matching coarsening, greedy-graph-growing initial
// bisection, Fiduccia-Mattheyses boundary refinement during uncoarsening,
// recursive bisection to k parts with the edge-cut objective, and
// vertex-separator extraction for nested dissection.
package partition

import (
	"context"
	"fmt"
	"math/rand"

	"sparseorder/internal/graph"
	"sparseorder/internal/obs"
	"sparseorder/internal/par"
)

// Options control the partitioner. The zero value is usable; fields set to
// zero assume the documented defaults.
type Options struct {
	// Seed drives the randomized matching and initial-partition trials so
	// results are reproducible.
	Seed int64
	// Imbalance is the allowed relative imbalance ε: every part may weigh
	// at most (1+ε)·(total/parts). Default 0.03, matching METIS' default
	// load-balance tolerance.
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Default 64.
	CoarsenTo int
	// InitTrials is the number of greedy-graph-growing attempts for the
	// initial bisection; the lowest-cut balanced attempt wins. Default 6:
	// the balanced-attempt preference (see initialBisection) discards
	// overweight trials, so a few extra attempts keep the candidate pool
	// for the cut comparison as large as it was when every trial competed.
	InitTrials int
	// RefinePasses bounds the number of FM passes per level. Default 8.
	RefinePasses int
	// Matching selects the coarsening matching strategy; HeavyEdgeMatching
	// (default) is what METIS uses, RandomMatching is kept as an ablation.
	Matching MatchingStrategy
	// Workers bounds the goroutines of the parallel recursive bisection:
	// the two branches of each bisection above parallelMinVerts vertices
	// run as par.Limiter fork-join tasks, so at most Workers goroutines
	// are live regardless of recursion depth (0 = GOMAXPROCS, 1 = the
	// exact serial recursion). Results are identical at every worker
	// count because each branch derives its own deterministic RNG seed
	// and writes a disjoint slice of the part assignment. The paper notes
	// (§4.7) that its reordering implementations are serial and sees
	// parallelisation as an avenue for improvement; this is that avenue.
	Workers int
	// Cancel, when non-nil, is polled at every bisection branch, coarsening
	// level, initial-bisection trial and refinement pass; once it is closed
	// the partitioner unwinds promptly. The part assignment returned after
	// a cancellation is incomplete and must be discarded — the context-
	// aware entry point reorder.ComputeTimedCtx does so and surfaces
	// the context's error instead. A nil channel never cancels, and an
	// uncancelled run is byte-identical with or without the field set.
	Cancel <-chan struct{}
	// Obs, when non-nil, receives per-level phase timings from every
	// bisection — partition/coarsen, partition/initial and
	// partition/refine histogram observations — the multilevel breakdown
	// of where a GP/ND ordering's time goes. Metrics only; no event-log
	// traffic, so deep recursions stay cheap. Nil disables timing
	// entirely (the clock is not even read).
	Obs *obs.Obs
}

// MatchingStrategy selects how vertices are matched during coarsening.
type MatchingStrategy int

// Coarsening matching strategies.
const (
	HeavyEdgeMatching MatchingStrategy = iota
	RandomMatching
)

func (o Options) withDefaults() Options {
	if o.Imbalance == 0 {
		o.Imbalance = 0.03
	}
	if o.CoarsenTo == 0 {
		o.CoarsenTo = 64
	}
	if o.InitTrials == 0 {
		o.InitTrials = 6
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 8
	}
	return o
}

// KWay partitions g into k parts by recursive bisection, minimising edge
// cut subject to the balance tolerance. It returns the part id of every
// vertex and the achieved edge cut (sum of weights of edges whose
// endpoints land in different parts). A graph whose total edge weight
// fails CheckEdgeWeights is rejected with an error.
func KWay(g *graph.Graph, k int, opts Options) ([]int32, int, error) {
	parts, cuts, err := KWayMulti(g, []int{k}, opts)
	if err != nil {
		return nil, 0, err
	}
	return parts[0], cuts[0], nil
}

// KWayMulti partitions g once for every part count in ks, returning the
// part assignments and edge cuts in ks order. Each result is
// byte-identical to KWay(g, ks[i], opts), but the part counts share the
// recursion nodes they have in common: a node's bisection depends only on
// its vertex set, its seed and its split fraction, so it runs once for
// every part count that reaches it with the same fraction (64 and 128
// parts agree on every node of the 64-part recursion, 48 and 64 parts on
// the first four levels).
func KWayMulti(g *graph.Graph, ks []int, opts Options) ([][]int32, []int, error) {
	for _, k := range ks {
		if k < 1 {
			return nil, nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
		}
	}
	if err := CheckEdgeWeights(g); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	parts := make([][]int32, len(ks))
	var jobs []kwayJob
	for i, k := range ks {
		parts[i] = make([]int32, g.N)
		jobs = append(jobs, kwayJob{part: parts[i], k: k})
	}
	orig := make([]int32, g.N)
	for i := range orig {
		orig[i] = int32(i)
	}
	recursiveBisect(g, orig, jobs, opts, opts.Seed, par.NewLimiter(opts.Workers))
	if par.Canceled(opts.Cancel) {
		return nil, nil, context.Canceled
	}
	cuts := make([]int, len(ks))
	for i, k := range ks {
		if k > 1 {
			cuts[i] = EdgeCut(g, parts[i])
		}
	}
	return parts, cuts, nil
}

// parallelMinVerts is the branch size below which recursiveBisect stops
// forking: small subproblems recurse inline because the fork bookkeeping
// costs more than it recovers.
const parallelMinVerts = 4096

// kwayJob is one part count's share of a recursion node: the node's
// vertices go to parts firstPart … firstPart+k-1 of part.
type kwayJob struct {
	part      []int32
	firstPart int
	k         int
}

// recursiveBisect partitions sub, whose vertex i is vertex orig[i] of the
// input graph, for every job. Each branch is induced from sub, not from
// the input graph, so inducing costs time and memory in proportion to the
// branch, as in nested dissection; a branch's vertex list ascends, so its
// subgraph is the one the input graph induces on the same vertices. Jobs
// that split with the same fraction share one bisection, and each
// bisection derives its RNG from seed alone, so a job's result does not
// depend on which other jobs ran beside it, nor on scheduling. The two
// branches of a bisection write disjoint entries of each job's part, and
// different jobs write different part arrays, which keeps the parallel
// recursion race-free; lim bounds the live goroutines to the configured
// worker count (a nil lim recurses serially).
func recursiveBisect(sub *graph.Graph, orig []int32, jobs []kwayJob, opts Options, seed int64, lim *par.Limiter) {
	if par.Canceled(opts.Cancel) {
		return
	}
	var live []kwayJob
	for _, j := range jobs {
		if j.k > 1 {
			live = append(live, j)
			continue
		}
		for _, v := range orig {
			j.part[v] = int32(j.firstPart)
		}
	}
	if len(live) == 0 {
		return
	}
	leftSeed := seed*2654435761 + 1
	rightSeed := seed*2654435761 + 2
	var branches []func()
	for len(live) > 0 {
		frac := splitFraction(live[0].k)
		var leftJobs, rightJobs, rest []kwayJob
		for _, j := range live {
			if splitFraction(j.k) != frac {
				rest = append(rest, j)
				continue
			}
			kLeft := (j.k + 1) / 2
			leftJobs = append(leftJobs, kwayJob{j.part, j.firstPart, kLeft})
			rightJobs = append(rightJobs, kwayJob{j.part, j.firstPart + kLeft, j.k - kLeft})
		}
		live = rest
		side := Bisect(sub, frac, opts, rand.New(rand.NewSource(seed)))
		var left, right []int32
		for i, s := range side {
			if s == 0 {
				left = append(left, int32(i))
			} else {
				right = append(right, int32(i))
			}
		}
		branches = append(branches,
			func() {
				lsub, lorig := induce(sub, orig, left)
				recursiveBisect(lsub, lorig, leftJobs, opts, leftSeed, lim)
			},
			func() {
				rsub, rorig := induce(sub, orig, right)
				recursiveBisect(rsub, rorig, rightJobs, opts, rightSeed, lim)
			})
	}
	fork := lim
	if sub.N <= parallelMinVerts {
		fork = nil
	}
	forkAll(fork, branches)
}

// induce returns the subgraph of sub induced by verts and the input graph
// vertex of each of its vertices, given sub's mapping orig.
func induce(sub *graph.Graph, orig, verts []int32) (*graph.Graph, []int32) {
	child, _ := graph.InducedSubgraph(sub, verts)
	childOrig := make([]int32, len(verts))
	for i, v := range verts {
		childOrig[i] = orig[v]
	}
	return child, childOrig
}

// splitFraction is the share of the vertex weight that a k-part
// recursion node sends to its left branch.
func splitFraction(k int) float64 {
	return float64((k+1)/2) / float64(k)
}

// forkAll runs every branch and returns when all are done, forking
// through lim (nil runs them in order).
func forkAll(lim *par.Limiter, branches []func()) {
	if len(branches) == 1 {
		branches[0]()
		return
	}
	lim.Fork(branches[0], func() { forkAll(lim, branches[1:]) })
}

// EdgeCut returns the total weight of edges crossing between different
// parts under the given assignment.
func EdgeCut(g *graph.Graph, part []int32) int {
	cut := 0
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if part[g.Adj[k]] != part[u] {
				cut += g.EdgeWeight(k)
			}
		}
	}
	return cut / 2
}
