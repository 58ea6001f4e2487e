package rockcore

import (
	"math/rand"
	"reflect"
	"testing"

	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/sim"
)

// countStats returns s without its phase timings, which vary from run to
// run: the fields two runs of the same input must agree on.
func countStats(s Stats) Stats {
	s.LinkTime, s.MergeTime = 0, 0
	return s
}

// TestWorkersDoNotChangeResult is the worker-count oracle for the merge
// loop: the link table is built by striping rows across workers, and the
// clustering must not depend on how many there are. Over a grid of theta,
// K and both outlier mechanisms, Workers=1 and Workers=N return identical
// clusters, outliers, cluster stats, criterion, merge trace and counts.
func TestWorkersDoNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, theta := range []float64{0.2, 0.4, 0.6} {
		n := 60 + rng.Intn(140)
		txns := make([]dataset.Transaction, n)
		for i := range txns {
			items := make([]dataset.Item, 1+rng.Intn(7))
			for k := range items {
				items[k] = dataset.Item(rng.Intn(30))
			}
			txns[i] = dataset.NewTransaction(items...)
		}
		nb := links.ComputeNeighbors(n, sim.ByIndex(txns, sim.Jaccard), links.Config{Theta: theta, Workers: 1})
		for _, k := range []int{1, 3, 6} {
			for _, minNbrs := range []int{0, 2} {
				for _, stop := range []float64{0, 2} {
					cfg := Config{K: k, Theta: theta, MinNeighbors: minNbrs, StopMultiple: stop, MinClusterSize: 3, TraceMerges: true, Workers: 1}
					want, err := ClusterNeighbors(nb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want.Stats.LinkTime <= 0 || want.Stats.MergeTime <= 0 {
						t.Fatalf("phase times not recorded: %+v", want.Stats)
					}
					for _, workers := range []int{2, 3, 8} {
						cfg.Workers = workers
						got, err := ClusterNeighbors(nb, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got.Stats, want.Stats = countStats(got.Stats), countStats(want.Stats)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("theta=%v K=%d MinNeighbors=%d StopMultiple=%v: Workers=%d result differs from Workers=1\ngot  %+v\nwant %+v",
								theta, k, minNbrs, stop, workers, got, want)
						}
					}
				}
			}
		}
	}
}
