package reorder

import (
	"math/rand"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/partition"
	"sparseorder/internal/sparse"
)

// ndForkMinVerts is the subproblem size below which dissect stops forking
// and recurses inline; tiny branches cost more to schedule than to order.
const ndForkMinVerts = 1024

// ndLeafSize is the study's nested-dissection cutoff: subgraphs of at most
// this many vertices are ordered by minimum degree.
const ndLeafSize = 128

// nestedDissection orders g by recursive vertex dissection (paper §2.1.2):
// a vertex separator splits the graph, the two halves are ordered first
// (recursively) and the separator vertices are placed last, so that
// eliminating them late keeps Cholesky fill low. Subgraphs of at most
// leafSize vertices (production passes ndLeafSize) are ordered by minimum
// degree instead — the same small-subproblem strategy METIS' node
// dissection applies.
//
// The two halves of every dissection run as fork-join tasks bounded by
// opts.Workers: each branch derives its own deterministic RNG seed and
// writes a disjoint segment of the permutation (left half first, right
// half next, separator last), so the ordering is byte-identical at every
// worker count. A graph whose total edge weight fails
// partition.CheckEdgeWeights is rejected with an error.
//
// done is polled at every dissection branch and threaded into the
// separator's multilevel machinery and the small-subproblem AMD (nil
// never cancels). A cancelled call returns a partial permutation the
// caller must discard. The edge-weight check runs once here, on the
// top-level graph: every dissected subgraph is induced from it and weighs
// no more.
func nestedDissection(g *graph.Graph, leafSize int, opts Options, done <-chan struct{}) (sparse.Perm, error) {
	if err := partition.CheckEdgeWeights(g); err != nil {
		return nil, err
	}
	perm := make(sparse.Perm, g.N)
	verts := make([]int32, g.N)
	for i := range verts {
		verts[i] = int32(i)
	}
	popts := partition.Options{Workers: opts.Workers, Cancel: done, Obs: opts.obs}
	dissect(g, verts, verts, perm, leafSize, popts, opts.Seed, par.NewLimiter(opts.Workers))
	return perm, nil
}

// dissect orders the subgraph of parent induced by verts into out
// (len(out) == len(verts)): positions [0, |left|) hold the left half,
// [|left|, |left|+|right|) the right half, and the tail the separator.
// parentOrig maps parent's vertices to the input graph's, and out holds
// input graph vertices. Each branch induces its halves from its own
// subgraph, not from the input graph, so inducing costs time in
// proportion to the subgraphs' size. seed is this branch's RNG seed;
// children derive theirs with the same multiplicative derivation
// recursiveBisect uses, so the ordering is a pure function of (graph,
// leafSize, opts.Seed) regardless of scheduling.
func dissect(parent *graph.Graph, parentOrig, verts []int32, out sparse.Perm, leafSize int, popts partition.Options, seed int64, lim *par.Limiter) {
	if len(verts) == 0 || par.Canceled(popts.Cancel) {
		return
	}
	sub, _ := graph.InducedSubgraph(parent, verts)
	orig := make([]int32, len(verts))
	for i, v := range verts {
		orig[i] = parentOrig[v]
	}
	if len(verts) <= leafSize {
		dissectLeaf(sub, orig, out, popts.Cancel)
		return
	}
	popts.Seed = seed
	label := partition.VertexSeparator(sub, popts, rand.New(rand.NewSource(seed)))
	var left, right, sep []int32
	for i, l := range label {
		switch l {
		case 0:
			left = append(left, int32(i))
		case 1:
			right = append(right, int32(i))
		default:
			sep = append(sep, orig[i])
		}
	}
	// Degenerate separators (everything on one side) would recurse forever;
	// fall back to minimum degree for this subgraph. A cancellation mid-
	// separator also lands here (the partial label puts everything on one
	// side) and unwinds through the AMD core's own done check.
	if len(left) == 0 || len(right) == 0 {
		dissectLeaf(sub, orig, out, popts.Cancel)
		return
	}
	leftOut := out[:len(left)]
	rightOut := out[len(left) : len(left)+len(right)]
	leftSeed := seed*2654435761 + 1
	rightSeed := seed*2654435761 + 2
	if lim != nil && len(verts) > ndForkMinVerts {
		lim.Fork(
			func() { dissect(sub, orig, left, leftOut, leafSize, popts, leftSeed, lim) },
			func() { dissect(sub, orig, right, rightOut, leafSize, popts, rightSeed, lim) })
	} else {
		dissect(sub, orig, left, leftOut, leafSize, popts, leftSeed, lim)
		dissect(sub, orig, right, rightOut, leafSize, popts, rightSeed, lim)
	}
	tail := out[len(left)+len(right):]
	for i, v := range sep {
		tail[i] = int(v)
	}
}

// dissectLeaf orders a small (or degenerate) subproblem with the serial
// AMD core, mapping its local ordering back through orig into out. After
// a cancellation the partial AMD order fills only a prefix; the caller
// discards the whole permutation once it observes the cancel.
func dissectLeaf(sub *graph.Graph, orig []int32, out sparse.Perm, done <-chan struct{}) {
	local := approxMinimumDegree(sub, done)
	for i, v := range local {
		out[i] = int(orig[v])
	}
}
