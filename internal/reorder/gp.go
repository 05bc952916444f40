package reorder

import (
	"sort"

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
	assign, _, err := partition.KWayMulti(g, parts, partition.Options{
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
	hopts := hypergraph.Options{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Cancel:  done,
		Obs:     opts.obs,
	}
	var part []int32
	var err error
	if opts.HPObjective == Connectivity {
		part, _, err = hypergraph.KWayConnectivity(h, opts.Parts, hopts)
	} else {
		part, _, err = hypergraph.KWay(h, opts.Parts, hopts)
	}
	if err != nil {
		return nil, err
	}
	return orderByPart(part), nil
}

// orderByPart converts a part assignment into a new-to-old permutation by a
// stable sort on part id.
func orderByPart(part []int32) sparse.Perm {
	p := make(sparse.Perm, len(part))
	for i := range p {
		p[i] = i
	}
	sort.SliceStable(p, func(i, j int) bool { return part[p[i]] < part[p[j]] })
	return p
}
