package hypergraph

import (
	"context"
	"fmt"
	"math/rand"

	"sparseorder/internal/par"
)

// KWayConnectivity partitions the hypergraph into k parts by recursive
// bisection under the connectivity-1 objective — PaToH's other metric
// (paper §3.3), which for the column-net model equals the communication
// volume of parallel SpMV. Unlike the cut-net recursion, a net cut by a
// bisection is not discarded: its pins on each side form a restricted net
// in the corresponding subproblem, because every additional part the net
// touches costs one more unit. Within a single bisection the two
// objectives coincide (a cut net spans exactly two parts), so the
// multilevel bisection engine is shared.
func KWayConnectivity(h *Hypergraph, k int, opts Options) ([]int32, int, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("hypergraph: k must be >= 1, got %d", k)
	}
	opts = opts.withDefaults()
	part := make([]int32, h.V)
	if k == 1 {
		return part, 0, nil
	}
	verts := make([]int32, h.V)
	for i := range verts {
		verts[i] = int32(i)
	}
	recursiveConn(h, verts, 0, k, part, opts, opts.Seed, par.NewLimiter(opts.Workers))
	if par.Canceled(opts.Cancel) {
		return nil, 0, context.Canceled
	}
	return part, ConnectivityMinusOne(h, part, k), nil
}

// recursiveConn mirrors recursive (kway.go) under the connectivity-1
// subproblem rule: per-branch deterministic seeds, disjoint part writes,
// goroutines bounded by lim.
func recursiveConn(root *Hypergraph, verts []int32, firstPart, k int, part []int32, opts Options, seed int64, lim *par.Limiter) {
	if par.Canceled(opts.Cancel) {
		return
	}
	if k == 1 || len(verts) == 0 {
		for _, v := range verts {
			part[v] = int32(firstPart)
		}
		return
	}
	sub, orig := inducedSplit(root, verts)
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
			func() { recursiveConn(root, left, firstPart, kLeft, part, opts, leftSeed, lim) },
			func() { recursiveConn(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim) })
		return
	}
	recursiveConn(root, left, firstPart, kLeft, part, opts, leftSeed, lim)
	recursiveConn(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim)
}

// inducedSplit builds the sub-hypergraph on verts with net SPLITTING:
// every net is restricted to its pins inside verts and kept if at least
// two pins remain, regardless of whether it was already cut — the
// connectivity-1 recursion rule.
func inducedSplit(root *Hypergraph, verts []int32) (*Hypergraph, []int32) {
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
			start := len(npins)
			for _, u := range root.Pins(int(n)) {
				if local[u] >= 0 {
					npins = append(npins, local[u])
				}
			}
			if len(npins)-start < 2 {
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
