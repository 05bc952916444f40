package reorder

import (
	"sparseorder/internal/graph"
	"sparseorder/internal/hypergraph"
	"sparseorder/internal/partition"
	"sparseorder/internal/sparse"
)

// graphPartitionOrder computes the GP ordering of the study (paper §3.3):
// the graph of A+Aᵀ is partitioned into opts.Parts parts with the edge-cut
// objective and unweighted vertices (balancing rows per part), and rows and
// columns are grouped by their part id, preserving the original relative
// order within each part.
//
// done is threaded into the partitioner's coarsening, initial-bisection
// and refinement loops; a cancellation surfaces as a partitioner error
// (context.Canceled).
func graphPartitionOrder(g *graph.Graph, opts Options, done <-chan struct{}) (sparse.Perm, error) {
	perms, err := graphPartitionOrders(g, []int{opts.withDefaults().Parts}, opts, done)
	if err != nil {
		return nil, err
	}
	return perms[0], nil
}

// graphPartitionOrders is graphPartitionOrder for several part counts,
// which share their common bisections.
func graphPartitionOrders(g *graph.Graph, parts []int, opts Options, done <-chan struct{}) ([]sparse.Perm, error) {
	assign, err := partition.KWayMulti(g, parts, partition.Options{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Cancel:  done,
		Obs:     opts.obs,
	})
	if err != nil {
		return nil, err
	}
	perms := make([]sparse.Perm, len(assign))
	for i, part := range assign {
		perms[i] = orderByPart(part)
	}
	return perms, nil
}

// hypergraphPartitionOrder computes the HP ordering of the study: the
// column-net hypergraph of A is partitioned into opts.Parts parts under the
// cut-net metric with the same (row-count) balance criterion as GP, and
// rows/columns are grouped by part. The paper fixes 128 parts for HP. done
// reaches the hypergraph partitioner as it does for graphPartitionOrder.
func hypergraphPartitionOrder(a *sparse.CSR, opts Options, done <-chan struct{}) (sparse.Perm, error) {
	opts = opts.withDefaults()
	h := hypergraph.ColumnNet(a)
	part, err := hypergraph.KWay(h, opts.Parts, hypergraph.Options{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Cancel:  done,
		Obs:     opts.obs,
	})
	if err != nil {
		return nil, err
	}
	return orderByPart(part), nil
}

// orderByPart converts a part assignment into a new-to-old permutation
// that groups vertices by ascending part id and keeps their original
// relative order within each part, the order a stable sort on part id
// gives. It is a counting sort: one pass counts each part's vertices, a
// prefix sum turns the counts into the parts' first positions, and a
// second pass in vertex order places every vertex.
func orderByPart(part []int32) sparse.Perm {
	nparts := int32(0)
	for _, q := range part {
		nparts = max(nparts, q+1)
	}
	next := make([]int, nparts+1)
	for _, q := range part {
		next[q+1]++
	}
	for q := int32(1); q <= nparts; q++ {
		next[q] += next[q-1]
	}
	p := make(sparse.Perm, len(part))
	for v, q := range part {
		p[next[q]] = v
		next[q]++
	}
	return p
}
