package hypergraph

import (
	"context"
	"fmt"
	"math/rand"

	"sparseorder/internal/par"
)

// KWay partitions the hypergraph into k parts by recursive bisection under
// the cut-net objective. Following the standard recursive scheme for the
// cut-net metric, nets cut by a bisection are already paid for and are
// excluded from the subproblems. It returns the part of each vertex;
// CutNet measures the result.
func KWay(h *Hypergraph, k int, opts Options) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("hypergraph: k must be >= 1, got %d", k)
	}
	part := make([]int32, h.V)
	if k == 1 {
		return part, nil
	}
	verts := make([]int32, h.V)
	for i := range verts {
		verts[i] = int32(i)
	}
	recursive(h, verts, 0, k, part, opts, opts.Seed, par.NewLimiter(opts.Workers))
	if par.Canceled(opts.Cancel) {
		return nil, context.Canceled
	}
	return part, nil
}

// forkMinVerts is the branch size below which the recursive bisections
// stop forking and recurse inline.
const forkMinVerts = 4096

// recursive splits verts into parts firstPart … firstPart+k-1. Each
// branch derives its own RNG seed (the same multiplicative derivation as
// internal/partition), so the serial and parallel executions produce
// identical partitions; the two branches write disjoint entries of part,
// and lim bounds the live goroutines to the configured worker count.
func recursive(root *Hypergraph, verts []int32, firstPart, k int, part []int32, opts Options, seed int64, lim *par.Limiter) {
	if par.Canceled(opts.Cancel) {
		return
	}
	if k == 1 || len(verts) == 0 {
		for _, v := range verts {
			part[v] = int32(firstPart)
		}
		return
	}
	sub, orig := induced(root, verts)
	kLeft := (k + 1) / 2
	frac := float64(kLeft) / float64(k)
	side := Bisect(sub, frac, opts, rand.New(rand.NewSource(seed)))
	var left, right []int32
	for i, s := range side {
		if s == 0 {
			left = append(left, orig[i])
		} else {
			right = append(right, orig[i])
		}
	}
	// Record the split so that induced() at deeper levels can identify nets
	// already cut at this level (pins spanning both children).
	for _, v := range left {
		part[v] = int32(firstPart)
	}
	for _, v := range right {
		part[v] = int32(firstPart + kLeft)
	}
	leftSeed := seed*2654435761 + 1
	rightSeed := seed*2654435761 + 2
	if lim != nil && len(verts) > forkMinVerts {
		lim.Fork(
			func() { recursive(root, left, firstPart, kLeft, part, opts, leftSeed, lim) },
			func() { recursive(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim) })
		return
	}
	recursive(root, left, firstPart, kLeft, part, opts, leftSeed, lim)
	recursive(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim)
}

// induced builds the sub-hypergraph on verts. Nets of the root hypergraph
// are restricted to pins within verts; nets that already have a pin outside
// the current vertex set (i.e. were cut by an earlier bisection) are
// dropped, implementing the cut-net exclusion rule. Nets left with fewer
// than two pins are dropped as well.
func induced(root *Hypergraph, verts []int32) (*Hypergraph, []int32) {
	local := make([]int32, root.V)
	for i := range local {
		local[i] = -1
	}
	for i, v := range verts {
		local[v] = int32(i)
	}
	sub := &Hypergraph{V: len(verts)}
	sub.VWgt = make([]int32, len(verts))
	for i, v := range verts {
		sub.VWgt[i] = int32(root.VertexWeight(int(v)))
	}
	netSeen := make([]bool, root.Nets)
	var nptr []int
	var npins []int32
	nptr = append(nptr, 0)
	for _, v := range verts {
		for _, n := range root.NetsOf(int(v)) {
			if netSeen[n] {
				continue
			}
			netSeen[n] = true
			pins := root.Pins(int(n))
			start := len(npins)
			outside := false
			for _, u := range pins {
				if local[u] < 0 {
					outside = true
					break
				}
				npins = append(npins, local[u])
			}
			if outside || len(npins)-start < 2 {
				npins = npins[:start]
				continue
			}
			nptr = append(nptr, len(npins))
		}
	}
	sub.Nets = len(nptr) - 1
	sub.NPtr = nptr
	sub.NPins = npins
	sub.BuildVertexIncidence()
	orig := make([]int32, len(verts))
	copy(orig, verts)
	return sub, orig
}
