package rock_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/store"
)

func TestLabelerAssignsNewTransactions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Majority true label per found cluster, for scoring.
	maj := make([]map[int]int, len(res.Clusters))
	for c := range maj {
		maj[c] = map[int]int{}
	}
	for c, members := range res.Clusters {
		for _, p := range members {
			if data.Labels[p] >= 0 {
				maj[c][data.Labels[p]]++
			}
		}
	}
	majorityOf := make([]int, len(res.Clusters))
	for c, m := range maj {
		best, bestN := -1, -1
		for l, n := range m {
			if n > bestN {
				best, bestN = l, n
			}
		}
		majorityOf[c] = best
	}

	// Generate FRESH transactions from the same defining item sets and
	// check the labeler routes them to matching clusters.
	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77)))
	agree, total := 0, 0
	for i, tx := range fresh.Txns {
		if fresh.Labels[i] < 0 {
			continue
		}
		c := lab.Assign(tx)
		if c == rock.OutlierCluster {
			continue
		}
		total++
		if majorityOf[c] == fresh.Labels[i] {
			agree++
		}
	}
	if total < len(fresh.Txns)/2 {
		t.Fatalf("labeler assigned only %d transactions", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("only %.1f%% of fresh transactions labeled consistently", 100*frac)
	}

	// Batch form agrees with single assignments.
	batch := lab.AssignAll(fresh.Txns[:50])
	for i, c := range batch {
		if c != lab.Assign(fresh.Txns[i]) {
			t.Fatal("AssignAll disagrees with Assign")
		}
	}
}

func TestLabelerNoNeighborsIsOutlier(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
		rock.NewTransaction(1, 3, 4),
	}
	cfg := rock.Config{K: 1, Theta: 0.5}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Assign(rock.NewTransaction(99, 100, 101)); got != rock.OutlierCluster {
		t.Fatalf("alien transaction assigned to %d", got)
	}
	if got := lab.Assign(rock.NewTransaction(1, 2, 3)); got != 0 {
		t.Fatalf("member transaction assigned to %d", got)
	}
}

func TestLabelerValidation(t *testing.T) {
	if _, err := rock.NewLabeler(nil, nil, rock.Config{}, rock.LabelerConfig{}); err == nil {
		t.Fatal("nil result accepted")
	}
}

// TestLabelerConfigValidation: every entry point that trains a Labeler —
// NewLabeler and both pipelines — rejects the same bad label settings with
// the same error, and accepts the defaults and the boundary values.
func TestLabelerConfigValidation(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
	}
	cfg := rock.Config{K: 1, Theta: 0.5}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "txns.bin")
	if err := store.SaveBinary(path, txns); err != nil {
		t.Fatal(err)
	}
	pipeline := func(lcfg rock.LabelerConfig) rock.PipelineConfig {
		return rock.PipelineConfig{
			Cluster: cfg, SampleSize: len(txns),
			LabelFraction: lcfg.Fraction, MinLabelPerCluster: lcfg.MinPerCluster,
		}
	}
	opens := 0
	entries := []struct {
		name string
		run  func(rock.LabelerConfig) error
	}{
		{"NewLabeler", func(lcfg rock.LabelerConfig) error {
			_, err := rock.NewLabeler(txns, res, cfg, lcfg)
			return err
		}},
		{"ClusterLarge", func(lcfg rock.LabelerConfig) error {
			_, err := rock.ClusterLarge(txns, pipeline(lcfg))
			return err
		}},
		{"ClusterScanner", func(lcfg rock.LabelerConfig) error {
			open := func() (store.Scanner, io.Closer, error) {
				opens++
				return store.OpenBinary(path)
			}
			_, err := rock.ClusterScanner(open, pipeline(lcfg))
			return err
		}},
	}
	bad := []rock.LabelerConfig{
		{Fraction: -0.1},
		{Fraction: 1.5},
		{MinPerCluster: -3},
	}
	for _, lcfg := range bad {
		want := entries[0].run(lcfg)
		if want == nil {
			t.Fatalf("NewLabeler accepted %+v", lcfg)
		}
		for _, e := range entries[1:] {
			if err := e.run(lcfg); err == nil || err.Error() != want.Error() {
				t.Errorf("%s with %+v: err = %v, want %q as from NewLabeler", e.name, lcfg, err, want)
			}
		}
	}
	// The pipelines reject bad settings up front, before a pass over the data.
	if opens != 0 {
		t.Errorf("ClusterScanner opened the stream %d times before rejecting bad label settings", opens)
	}
	for _, e := range entries {
		// Zero values still select the documented defaults.
		if err := e.run(rock.LabelerConfig{}); err != nil {
			t.Errorf("%s: zero config rejected: %v", e.name, err)
		}
		// Boundary values are legal.
		if err := e.run(rock.LabelerConfig{Fraction: 1}); err != nil {
			t.Errorf("%s: fraction 1 rejected: %v", e.name, err)
		}
	}
}

// TestLabelerRejectsMismatchedTransactions: a Result whose point indices
// run past the transaction slice must fail at construction, not panic in
// a later Assign.
func TestLabelerRejectsMismatchedTransactions(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
		rock.NewTransaction(1, 3, 4),
		rock.NewTransaction(2, 3, 4),
	}
	cfg := rock.Config{K: 1, Theta: 0.5}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0]) != len(txns) {
		t.Fatalf("fixture: want one cluster of all %d points, got %v", len(txns), res.Clusters)
	}
	if _, err := rock.NewLabeler(txns[:2], res, cfg, rock.LabelerConfig{Fraction: 1}); err == nil {
		t.Fatal("labeler accepted a result indexing past its transaction slice")
	}
}

// TestLabelerConcurrentAssign drives one Labeler from many goroutines and
// checks every concurrent answer against the serial one. Run under -race
// (make race) this doubles as the parallel-safety proof for the serving
// layer, which shares a Labeler-equivalent model across its worker pool.
func TestLabelerConcurrentAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	want := lab.AssignAll(probes)

	const goroutines = 8
	var wg sync.WaitGroup
	mismatch := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(probes); i += goroutines {
				if got := lab.Assign(probes[i]); got != want[i] {
					mismatch <- fmt.Sprintf("probe %d: concurrent %d vs serial %d", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-mismatch:
		t.Fatal(msg)
	default:
	}
}

// TestLabelerSnapshotRoundTrip is the persistence acceptance path: a
// snapshotted-and-revived Labeler must assign every probe identically,
// scores included.
func TestLabelerSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := lab.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rock.LoadLabeler(&buf)
	if err != nil {
		t.Fatal(err)
	}

	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	for _, p := range probes {
		wantC, wantS := lab.AssignScore(p)
		gotC, gotS := back.AssignScore(p)
		if gotC != wantC || gotS != wantS {
			t.Fatalf("probe %v: revived (%d, %v), original (%d, %v)", p, gotC, gotS, wantC, wantS)
		}
	}

	// File-based round trip with a schema attached.
	lab.SetSchema(&rock.Schema{Attrs: []rock.Attribute{{Name: "a", Domain: []string{"x", "y"}}}})
	path := filepath.Join(t.TempDir(), "m.rockm")
	if err := lab.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err = rock.LoadLabelerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema() == nil || back.Schema().Attrs[0].Name != "a" {
		t.Fatal("schema lost in round trip")
	}
}

// TestLabelerSnapshotRejectsCustomSimilarity: function values cannot be
// serialized, so snapshotting a custom similarity must fail loudly.
func TestLabelerSnapshotRejectsCustomSimilarity(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
	}
	custom := func(a, b rock.Transaction) float64 { return rock.Jaccard(a, b) }
	cfg := rock.Config{K: 1, Theta: 0.5, Similarity: custom}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Snapshot(); err == nil {
		t.Fatal("custom similarity snapshotted")
	}
}
