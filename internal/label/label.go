// Package label implements the final phase of ROCK's pipeline (Figure 2 and
// Section 4.6, "Labeling Data on Disk"): after the sampled points have been
// clustered, every remaining point is assigned to the cluster in whose
// labeled subset L_i it has the most neighbors, normalized by the expected
// neighbor count (|L_i| + 1)^f(theta).
package label

import (
	"fmt"
	"math/rand"

	"rock/internal/rockcore"
	"rock/internal/sample"
)

// Set is the labeled subset L_i drawn from one cluster, together with the
// normalization constant the assignment divides by.
type Set struct {
	// Cluster identifies the cluster this set labels for.
	Cluster int
	// Points are the indices (in the caller's point space) of the labeled
	// points.
	Points []int
	// norm is (|L_i| + 1)^f(theta).
	norm float64
}

// Config controls labeled-set construction.
type Config struct {
	// Fraction of each cluster to draw into its labeled set (0 < Fraction
	// <= 1). The paper labels with "a fraction of points from each
	// cluster".
	Fraction float64
	// MinPerCluster floors the labeled-set size so tiny clusters still get
	// representation.
	MinPerCluster int
	// F is the f(theta) value used for normalization.
	F float64
}

// BuildSets draws the labeled subsets from the final clusters. clusters maps
// cluster index to member point indices; rng drives the uniform draw.
func BuildSets(clusters [][]int, cfg Config, rng *rand.Rand) ([]Set, error) {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("label: fraction %v out of (0,1]", cfg.Fraction)
	}
	minPer := cfg.MinPerCluster
	if minPer < 1 {
		minPer = 1
	}
	sets := make([]Set, 0, len(clusters))
	for ci, members := range clusters {
		k := int(cfg.Fraction * float64(len(members)))
		if k < minPer {
			k = minPer
		}
		if k > len(members) {
			k = len(members)
		}
		idx := sample.Indices(len(members), k, rng)
		pts := make([]int, len(idx))
		for i, ix := range idx {
			pts[i] = members[ix]
		}
		sets = append(sets, Set{
			Cluster: ci,
			Points:  pts,
			norm:    rockcore.ExpectedNeighbors(len(pts), cfg.F),
		})
	}
	return sets, nil
}

// NewSet reconstructs a labeled set from its persisted parts: the cluster it
// labels for, the labeled point indices, and the stored normalization
// constant. Model snapshots (internal/model) use this to rebuild sets without
// re-drawing or re-deriving norms.
func NewSet(cluster int, points []int, norm float64) Set {
	return Set{Cluster: cluster, Points: points, norm: norm}
}

// Norm returns the set's normalization constant (|L_i| + 1)^f(theta).
func (s Set) Norm() float64 { return s.norm }

// NeighborFunc reports whether the point being labeled is a neighbor of the
// labeled point with index q.
type NeighborFunc func(q int) bool

// Outlier is the cluster index AssignScore returns for a point with no
// neighbors in any labeled set.
const Outlier = -1

// AssignScore labels one point: it returns the cluster whose labeled set
// contains the most neighbors of the point after dividing by
// (|L_i| + 1)^f(theta), together with that winning normalized neighbor
// count — the quantity the serving layer reports as the assignment's
// confidence score. It returns (Outlier, 0) when the point has no neighbors
// in any set.
//
// Ties keep the FIRST best-scoring set in iteration order (the comparison is
// strictly score > best), so the winner on a tie depends on the order of
// sets. BuildSets emits sets in increasing cluster order and model.Compile
// rejects snapshots whose sets are not cluster-sorted, so in practice — and
// as the serving layer guarantees — ties break toward the lower cluster
// index, keeping the phase deterministic.
//
// This is §4.6 as written: one neighbor test per labeled point. Production
// labeling goes through model.Assigner, whose compiled path is
// property-tested against this scan (model.Assigner.AssignScan).
func AssignScore(sets []Set, isNeighbor NeighborFunc) (int, float64) {
	best, bestScore := Outlier, 0.0
	for si := range sets {
		s := &sets[si]
		n := 0
		for _, q := range s.Points {
			if isNeighbor(q) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		score := float64(n) / s.norm
		if score > bestScore {
			best, bestScore = s.Cluster, score
		}
	}
	return best, bestScore
}
