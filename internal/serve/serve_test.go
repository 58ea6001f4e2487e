package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rock/internal/dataset"
	"rock/internal/model"
)

// twoClusterSnapshot builds a tiny model with two well-separated clusters:
// low items (1..5) label cluster 0, high items (100..105) label cluster 1.
// shift relabels the clusters (cluster c becomes c+shift), which the
// hot-swap test uses to tell two models apart.
func twoClusterSnapshot(shift int) *model.Snapshot {
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  1.0 / 3,
		SimName: "jaccard",
		Sets: []model.Set{
			{Cluster: 0 + shift, Norm: 1.5, Points: []int{0, 1, 2}},
			{Cluster: 1 + shift, Norm: 1.5, Points: []int{3, 4, 5}},
		},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(1, 2, 3),
			dataset.NewTransaction(1, 2, 4),
			dataset.NewTransaction(1, 3, 5),
			dataset.NewTransaction(100, 101, 102),
			dataset.NewTransaction(100, 101, 103),
			dataset.NewTransaction(100, 102, 105),
		},
	}
}

func compile(t testing.TB, shift int) *model.Assigner {
	t.Helper()
	a, err := model.Compile(twoClusterSnapshot(shift))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randomProbes(n int, rng *rand.Rand) []dataset.Transaction {
	out := make([]dataset.Transaction, n)
	for i := range out {
		var items []dataset.Item
		base := dataset.Item(1)
		if rng.Intn(2) == 1 {
			base = 100
		}
		for k := 0; k < 3; k++ {
			items = append(items, base+dataset.Item(rng.Intn(6)))
		}
		out[i] = dataset.NewTransaction(items...)
	}
	return out
}

// assignAll runs one batch through the engine's production entry point,
// AssignAllContextInto, under the captured model a. A background context
// never cancels, so an error here is a bug.
func assignAll(e *Engine, a *model.Assigner, ts []dataset.Transaction) []Assignment {
	out := make([]Assignment, len(ts))
	if err := e.AssignAllContextInto(context.Background(), a, ts, out); err != nil {
		panic(err)
	}
	return out
}

// assignOne labels a single transaction as a batch of one.
func assignOne(e *Engine, t dataset.Transaction) Assignment {
	return assignAll(e, e.Model(), []dataset.Transaction{t})[0]
}

func TestAssignAllMatchesSingleAssign(t *testing.T) {
	e, err := New(compile(t, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	probes := randomProbes(500, rand.New(rand.NewSource(7)))
	batch := assignAll(e, e.Model(), probes)
	for i, p := range probes {
		if got := assignOne(e, p); got != batch[i] {
			t.Fatalf("probe %d: batch %+v vs single %+v", i, batch[i], got)
		}
	}
}

func TestAssignAllMatchesAssigner(t *testing.T) {
	a := compile(t, 0)
	e, err := New(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	probes := randomProbes(300, rand.New(rand.NewSource(8)))
	batch := assignAll(e, e.Model(), probes)
	for i, p := range probes {
		c, s := a.Assign(p)
		if batch[i].Cluster != c || batch[i].Score != s {
			t.Fatalf("probe %d: engine %+v vs assigner (%d, %v)", i, batch[i], c, s)
		}
	}
}

// TestHotSwapBatchConsistency hammers AssignAll from many goroutines while
// the model is swapped continuously. Every batch must be served entirely by
// one model: with model A clusters are {0,1}, with model B {10,11}, so a
// batch mixing low and high cluster ids would prove a torn read.
func TestHotSwapBatchConsistency(t *testing.T) {
	a0, a1 := compile(t, 0), compile(t, 10)
	e, err := New(a0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const (
		clients = 8
		batches = 40
	)
	stop := make(chan struct{})
	errs := make(chan string, clients+1)
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := a1
			if i%2 == 1 {
				next = a0
			}
			if _, err := e.Swap(next); err != nil {
				errs <- err.Error()
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				probes := randomProbes(150, rng)
				res := assignAll(e, e.Model(), probes)
				shift := -1
				for i, r := range res {
					if r.Cluster == Outlier {
						continue
					}
					s := 0
					if r.Cluster >= 10 {
						s = 10
					}
					if shift == -1 {
						shift = s
					} else if s != shift {
						errs <- "batch mixed models"
						return
					}
					_ = i
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if m := e.Metrics(); m.Reloads == 0 {
		t.Fatal("swapper never swapped")
	}
}

func TestMetricsCounters(t *testing.T) {
	e, err := New(compile(t, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	probes := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),    // cluster 0
		dataset.NewTransaction(100, 101),   // cluster 1
		dataset.NewTransaction(7777, 8888), // outlier
	}
	assignAll(e, e.Model(), probes)
	assignOne(e, probes[2])
	m := e.Metrics()
	if m.Requests != 2 {
		t.Fatalf("requests = %d, want 2", m.Requests)
	}
	if m.Assignments != 4 {
		t.Fatalf("assignments = %d, want 4", m.Assignments)
	}
	if m.Outliers != 2 {
		t.Fatalf("outliers = %d, want 2", m.Outliers)
	}
	if m.P50Millis <= 0 || m.P99Millis < m.P50Millis {
		t.Fatalf("implausible latency quantiles: %+v", m)
	}
}

func TestNewRejectsNilAssigner(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil assigner accepted")
	}
}

// TestSwapRejectsNilAssigner: installing nil would crash the next Assign,
// so Swap must refuse it and leave the current model serving.
func TestSwapRejectsNilAssigner(t *testing.T) {
	e, err := New(compile(t, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Swap(nil); err == nil {
		t.Fatal("nil assigner swapped in")
	}
	if e.Model() == nil {
		t.Fatal("refused swap still cleared the model")
	}
	// The engine must still answer.
	if got := assignOne(e, dataset.NewTransaction(1, 2, 3)); got.Cluster != 0 {
		t.Fatalf("assign after refused swap: %+v", got)
	}
}

func TestIdleEngineBecomesReadyOnSwap(t *testing.T) {
	e := NewIdle(2)
	defer e.Close()
	if e.Ready() || e.Model() != nil {
		t.Fatal("idle engine claims a model")
	}
	if _, err := e.Swap(compile(t, 0)); err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Fatal("engine not ready after swap")
	}
	if got := assignOne(e, dataset.NewTransaction(1, 2, 3)); got.Cluster != 0 {
		t.Fatalf("assign after first swap: %+v", got)
	}
}

// TestAssignAllWithCapturedModel: a batch assigned under a captured model must be
// served by the captured model even when the engine's current model has
// moved on — the invariant the rockd encode-then-assign path leans on.
func TestAssignAllWithCapturedModel(t *testing.T) {
	a0, a1 := compile(t, 0), compile(t, 10)
	e, err := New(a0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	captured := e.Model()
	if _, err := e.Swap(a1); err != nil {
		t.Fatal(err)
	}
	probes := randomProbes(200, rand.New(rand.NewSource(3)))
	res := assignAll(e, captured, probes)
	for i, r := range res {
		if r.Cluster >= 10 {
			t.Fatalf("probe %d served by the swapped-in model: %+v", i, r)
		}
	}
}

func TestAssignAllContextHonorsCancellation(t *testing.T) {
	e, err := New(compile(t, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	probes := randomProbes(500, rand.New(rand.NewSource(4)))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]Assignment, len(probes))
	if err := e.AssignAllContextInto(ctx, e.Model(), probes, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v", err)
	}
	if m := e.Metrics(); m.Requests != 0 {
		t.Fatalf("cancelled batch counted as %d requests", m.Requests)
	}

	if err := e.AssignAllContextInto(context.Background(), e.Model(), probes, out); err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		c, s := e.Model().Assign(p)
		if out[i] != (Assignment{Cluster: c, Score: s}) {
			t.Fatalf("probe %d: %+v, want (%d, %v)", i, out[i], c, s)
		}
	}
}

// TestCloseAfterDrainAndMetricsConsistency is the Engine.Close regression
// test: concurrent mixed single and batch traffic, then a drain (all calls
// returned), then Close — which must be safe — and the counters must add
// up exactly: requests == calls, assignments == sum of batch sizes.
func TestCloseAfterDrainAndMetricsConsistency(t *testing.T) {
	e, err := New(compile(t, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 30
	var calls, txns atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				if rng.Intn(2) == 0 {
					assignOne(e, randomProbes(1, rng)[0])
					calls.Add(1)
					txns.Add(1)
				} else {
					n := 1 + rng.Intn(200)
					probes := randomProbes(n, rng)
					assignAll(e, e.Model(), probes)
					calls.Add(1)
					txns.Add(uint64(n))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Traffic fully drained: Close must be safe and must not lose counts.
	e.Close()
	m := e.Metrics()
	if m.Requests != calls.Load() {
		t.Fatalf("requests = %d, want %d", m.Requests, calls.Load())
	}
	if m.Assignments != txns.Load() {
		t.Fatalf("assignments = %d, want %d", m.Assignments, txns.Load())
	}
	if m.Outliers > m.Assignments {
		t.Fatalf("outliers %d exceed assignments %d", m.Outliers, m.Assignments)
	}
}
