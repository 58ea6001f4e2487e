package label

import (
	"math"
	"math/rand"
	"testing"

	"rock/internal/rockcore"
)

func TestBuildSetsSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clusters := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{10, 11},
		make([]int, 0),
	}
	for i := 20; i < 120; i++ {
		clusters[2] = append(clusters[2], i)
	}
	sets, err := BuildSets(clusters, Config{Fraction: 0.3, MinPerCluster: 3, F: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("sets = %d", len(sets))
	}
	if got := len(sets[0].Points); got != 3 {
		t.Errorf("set 0 size = %d, want 3 (30%% of 10)", got)
	}
	if got := len(sets[1].Points); got != 2 {
		t.Errorf("set 1 size = %d, want 2 (min floors at cluster size)", got)
	}
	if got := len(sets[2].Points); got != 30 {
		t.Errorf("set 2 size = %d, want 30", got)
	}
	// Labeled points must come from their cluster.
	in := make(map[int]bool)
	for _, p := range clusters[2] {
		in[p] = true
	}
	for _, p := range sets[2].Points {
		if !in[p] {
			t.Fatalf("labeled point %d not in cluster", p)
		}
	}
}

func TestBuildSetsValidatesFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildSets(nil, Config{Fraction: 0}, rng); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := BuildSets(nil, Config{Fraction: 1.5}, rng); err == nil {
		t.Error("fraction 1.5 accepted")
	}
}

func TestAssignPicksMostNeighbors(t *testing.T) {
	sets := []Set{
		{Cluster: 0, Points: []int{0, 1, 2, 3}, norm: 1},
		{Cluster: 1, Points: []int{4, 5, 6, 7}, norm: 1},
	}
	// Point is a neighbor of 3 members of cluster 1 and 1 of cluster 0.
	got, score := AssignScore(sets, func(q int) bool { return q == 0 || q >= 5 })
	if got != 1 || score != 3 {
		t.Fatalf("assigned to (%d, %v), want (1, 3)", got, score)
	}
}

func TestAssignNormalization(t *testing.T) {
	// Same raw neighbor count, but cluster 1's labeled set is much larger,
	// so its normalized score is lower — the paper's (|Li|+1)^f rule.
	f := 0.8
	sets := []Set{
		{Cluster: 0, Points: []int{0, 1}, norm: rockcore.ExpectedNeighbors(2, f)},
		{Cluster: 1, Points: []int{2, 3, 4, 5, 6, 7, 8, 9}, norm: rockcore.ExpectedNeighbors(8, f)},
	}
	got, score := AssignScore(sets, func(q int) bool { return q == 0 || q == 1 || q == 2 || q == 3 })
	// Scores: 2/3^0.8 = 0.83 vs 2/9^0.8 = 0.34.
	if want := 2 / rockcore.ExpectedNeighbors(2, f); got != 0 || score != want {
		t.Fatalf("assigned to (%d, %v), want (0, %v) (normalization)", got, score, want)
	}
}

func TestAssignOutlierWhenNoNeighbors(t *testing.T) {
	sets := []Set{{Cluster: 0, Points: []int{0, 1}, norm: 1}}
	if got, score := AssignScore(sets, func(q int) bool { return false }); got != Outlier || score != 0 {
		t.Fatalf("assigned to (%d, %v), want (Outlier, 0)", got, score)
	}
}

func TestAssignTieBreaksLowCluster(t *testing.T) {
	sets := []Set{
		{Cluster: 1, Points: []int{0}, norm: 1},
		{Cluster: 0, Points: []int{1}, norm: 1},
	}
	// Both sets contribute exactly one neighbor with equal normalization;
	// the first strictly-greater score wins, so the earlier set keeps it.
	if got, _ := AssignScore(sets, func(q int) bool { return true }); got != 1 {
		t.Fatalf("assigned to %d, want the first maximal set's cluster (1)", got)
	}
}

func TestExpectedNeighborsMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, f := range []float64{0, 0.33, 1} {
			want := math.Pow(float64(n+1), f)
			if got := rockcore.ExpectedNeighbors(n, f); math.Abs(got-want) > 1e-12 {
				t.Errorf("ExpectedNeighbors(%d, %v) = %v, want %v", n, f, got, want)
			}
		}
	}
}
