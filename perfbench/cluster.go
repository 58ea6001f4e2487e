package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rock"
	"rock/internal/datagen"
	"rock/internal/experiments"
	"rock/internal/label"
	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/sample"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// cluster-basket: rock.ClusterLarge on the paper's Table 5 corpus with the
// Table 6 settings at the default DenseLimit. Links, merge and label
// dominate and no serving layer runs.
//
// End-to-end metrics on this workload:
//   - txn_s: corpus transactions over the median time of the
//     rock.ClusterLarge passes at the reference pace (pace.go),
//     cluster_s = corpus size / txn_s;
//   - peak_rss_mb: the median over passes of each pass's peak RSS.
//
// The traced run reports the per-transaction latency of the trained
// rock.Labeler classifying a held-out draw (p50_ms, p90_ms, p99_ms), the
// library's way of labeling arrivals after the run, and
// misclassified_ratio: the Table 6 count (optimal found↔true matching)
// over the true-cluster transactions scored; every run fails when it
// reaches 1%.

// clusterSample is the reservoir sample size. It must leave more than
// links.DefaultDenseLimit points after MinNeighbors pruning (≈4,180 here),
// so the run takes the sparse link path production-size samples take.
const clusterSample = 4400

// clusterHeldOut divides the Table 5 corpus for the held-out labeling
// draw: ≈14,300 transactions, about two seconds of labeling and over ten
// samples beyond the per-layer p99.
const clusterHeldOut = 8

// clusterPasses is the fewest ClusterLarge passes of an untraced run.
// cluster_s is their median, and every pass must reproduce the first
// one's counts (clusters, merges, link pairs, pruned, weeded, labeled,
// outliers, misclassified), so every untraced run checks determinism. One
// pass takes 15-31 s on a shared 2-vCPU Xeon VM at the benchmark's first
// commit, so a run with two takes 40-65 s; a third would not leave time
// for the other workloads. A traced run makes one pass and checks it
// against the traced replay instead.
const clusterPasses = 2

type clusterInputs struct {
	data    *datagen.BasketData
	heldOut *datagen.BasketData
	cfg     rock.PipelineConfig
}

// clusterOutcome is what one clustering pass must reproduce exactly.
type clusterOutcome struct {
	clusters, merges, linkPairs, pruned, weeded, kept int
	misclassified, scored, labeled, outliers          int
}

func runClusterBasket(e *env) (*result, error) {
	res := newResult()
	inputs, setups, err := timedSetups(e, func(int) (*clusterInputs, error) {
		return clusterSetup(e), nil
	}, func(*clusterInputs) {})
	if err != nil {
		return nil, err
	}

	// Measured phase: at least minPasses whole ClusterLarge passes, more
	// while the time allows. Each pass starts from the same heap (the
	// previous result is dropped and the garbage returned to the OS) and
	// has its own peak RSS; after pass i the run labels the i-th share of
	// the held-out draw, so the labeling latencies too are sampled across
	// the run rather than in one stretch.
	minPasses := clusterPasses
	if e.trace {
		minPasses = 1
	}
	heldOut := inputs.heldOut.Txns
	var (
		passS, peaks []float64
		passes       []interval
		lat          []float64
		first        clusterOutcome
		lr           *rock.LargeResult
	)
	start := time.Now()
	for len(passS) < minPasses || time.Since(start).Seconds()+median(passS) <= e.seconds {
		lr = nil
		resetPeakRSS()
		t0 := time.Now()
		lr, err = rock.ClusterLarge(inputs.data.Txns, inputs.cfg)
		if err != nil {
			return nil, fmt.Errorf("ClusterLarge: %w", err)
		}
		passes = append(passes, interval{t0, time.Now()})
		passS = append(passS, passes[len(passes)-1].seconds())
		peaks = append(peaks, peakRSSMiB())
		out := outcomeOf(lr, inputs.data)
		if len(passS) == 1 {
			first = out
		} else {
			res.check(out == first, "pass %d outcome %+v differs from pass 1 %+v", len(passS), out, first)
		}
		if i := len(passS) - 1; i < minPasses {
			for _, t := range heldOut[i*len(heldOut)/minPasses : (i+1)*len(heldOut)/minPasses] {
				t0 := time.Now()
				lr.Labeler.Assign(t)
				lat = append(lat, float64(time.Since(t0))/1e6)
			}
		}
	}
	e.pace.halt()
	setSetup(res, e, setups)
	var scaledS []float64
	for _, iv := range passes {
		scaledS = append(scaledS, e.pace.seconds(iv))
	}
	clusterS := median(passS)
	sum := summarize(lat)
	res.set("peak_rss_mb", median(peaks), "MiB")
	res.set("txn_s", float64(len(inputs.data.Txns))/median(scaledS), "txn/s")
	sum.set(res)
	res.set("misclassified_ratio", float64(first.misclassified)/float64(first.scored), "ratio")
	res.attempted = len(passS) + len(lat)
	clusterGates(res, e, first)
	res.check(e.tiny || sum.Tail.Q >= 0.99, "held-out labeling: %d samples cannot support a p99", sum.N)
	logf("cluster-basket: cluster_s %.3f at the reference pace (passes %.3v; raw %.3v), peak RSS %.1f MiB (median of %.4v), %+v, held-out labeling p50 %.4f ms p99 %.4f ms over %d (highest supported percentile p%g)",
		median(scaledS), scaledS, passS, median(peaks), peaks, first, sum.P50, sum.P99, sum.N, sum.Tail.Q*100)

	if e.trace {
		replay, spans, err := clusterReplay(inputs)
		if err != nil {
			return nil, err
		}
		res.spans = spans
		res.check(replay.outcome == first, "traced replay outcome %+v differs from ClusterLarge %+v", replay.outcome, first)
		clusterLayerMetrics(res, replay, spans, clusterS)
	}
	return res, nil
}

func clusterSetup(e *env) *clusterInputs {
	cfg := datagen.DefaultBasketConfig()
	sampleSize := clusterSample
	if e.tiny {
		cfg = datagen.ScaledBasketConfig(40)
		sampleSize = 300
	}
	data := datagen.Basket(cfg, rand.New(rand.NewSource(e.seed)))
	held := datagen.Basket(datagen.ScaledBasketConfig(clusterHeldOut), rand.New(rand.NewSource(e.seed+1)))
	pc := experiments.SyntheticPipelineConfig(sampleSize, 0.5, e.seed)
	pc.Cluster.DenseLimit = 0 // the default table choice, not the Figure 5 override
	return &clusterInputs{data: data, heldOut: held, cfg: pc}
}

func outcomeOf(lr *rock.LargeResult, d *datagen.BasketData) clusterOutcome {
	st := lr.SampleResult.Stats
	out := clusterOutcome{
		clusters:  len(lr.SampleResult.Clusters),
		merges:    st.Merges,
		linkPairs: st.LinkPairs,
		pruned:    st.Pruned,
		weeded:    st.Weeded,
		kept:      st.Points - st.Pruned,
		labeled:   lr.Labeled,
	}
	for _, c := range lr.Assign {
		if c == rock.OutlierCluster {
			out.outliers++
		}
	}
	out.misclassified, out.scored = misclassified(lr.Assign, d.Labels, out.clusters, d.NumClusters())
	return out
}

// misclassified is experiments.CountMisclassified with its base: the
// number of true-cluster transactions scored.
func misclassified(assign, labels []int, found, trueK int) (mis, scored int) {
	for _, l := range labels {
		if l != datagen.OutlierLabel {
			scored++
		}
	}
	return experiments.CountMisclassified(assign, labels, found, trueK), scored
}

func clusterGates(res *result, e *env, o clusterOutcome) {
	res.check(o.clusters == 10, "found %d clusters, want 10", o.clusters)
	if !e.tiny {
		res.check(o.kept > links.DefaultDenseLimit, "pruned sample has %d points, not above DenseLimit %d: the sparse link path did not run", o.kept, links.DefaultDenseLimit)
	}
	res.check(o.scored > 0 && o.misclassified*100 < o.scored, "misclassified %d of %d true-cluster transactions (≥1%%)", o.misclassified, o.scored)
}

// clusterReplayResult is the traced replay of ClusterLarge.
type clusterReplayResult struct {
	outcome    clusterOutcome
	nb         *links.Neighbors
	linksAlloc uint64
}

// clusterReplay re-runs ClusterLarge's Figure 2 pipeline through each
// layer's public functions, in ClusterLarge's order and with its random
// draws, inside spans. The link table is also built once on its own
// (links.table) so its time can be split out of rockcore.ClusterNeighbors,
// which builds it internally; that extra build is excluded from
// trace.pipeline_s.
func clusterReplay(in *clusterInputs) (clusterReplayResult, []span, error) {
	tr := newTracer()
	cfg := in.cfg
	txns := in.data.Txns
	var out clusterReplayResult
	const req = 1
	root, rootStart := tr.begin()

	rng := rand.New(rand.NewSource(cfg.Seed))
	var idx []int
	tr.do("sample.indices", root, req, func() { idx = sample.Indices(len(txns), cfg.SampleSize, rng) })
	sub := make([]rock.Transaction, len(idx))
	for i, p := range idx {
		sub[i] = txns[p]
	}
	var nb *links.Neighbors
	tr.do("simjoin.join", root, req, func() {
		nb = simjoin.NewSource(sub, nil).ComputeNeighbors(links.Config{Theta: cfg.Cluster.Theta, Workers: cfg.Cluster.Workers})
	})
	out.nb = nb

	var pruned *links.Neighbors
	tr.do("bench.prune", root, req, func() {
		keep, _ := nb.FilterMinDegree(cfg.Cluster.MinNeighbors)
		pruned = nb.Subset(keep)
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	tr.do("links.table", root, req, func() {
		links.ComputeParallel(pruned, links.DefaultDenseLimit, cfg.Cluster.Workers)
	})
	runtime.ReadMemStats(&ms)
	out.linksAlloc = ms.TotalAlloc - allocBefore

	core := rockcore.Config{
		K: cfg.Cluster.K, Theta: cfg.Cluster.Theta, MinNeighbors: cfg.Cluster.MinNeighbors,
		StopMultiple: cfg.Cluster.StopMultiple, MinClusterSize: cfg.Cluster.MinClusterSize,
		DenseLimit: cfg.Cluster.DenseLimit, Workers: cfg.Cluster.Workers,
	}
	var cres *rockcore.Result
	var cerr error
	tr.do("rockcore.cluster_neighbors", root, req, func() { cres, cerr = rockcore.ClusterNeighbors(nb, core) })
	if cerr != nil {
		return out, nil, fmt.Errorf("replay ClusterNeighbors: %w", cerr)
	}
	fTheta := rockcore.DefaultF(cfg.Cluster.Theta)
	var sets []label.Set
	var lerr error
	tr.do("label.build_sets", root, req, func() {
		sets, lerr = label.BuildSets(cres.Clusters, label.Config{Fraction: cfg.LabelFraction, MinPerCluster: 5, F: fTheta}, rng)
	})
	if lerr != nil {
		return out, nil, fmt.Errorf("replay BuildSets: %w", lerr)
	}

	assign := make([]int, len(txns))
	for i := range assign {
		assign[i] = rock.OutlierCluster
	}
	inSample := make(map[int]bool, len(idx))
	for _, p := range idx {
		inSample[p] = true
	}
	for c, members := range cres.Clusters {
		for _, m := range members {
			assign[idx[m]] = c
		}
	}
	var todo []int
	for p := range txns {
		if !inSample[p] {
			todo = append(todo, p)
		}
	}
	theta := cfg.Cluster.Theta
	tr.do("label.assign", root, req, func() {
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(todo); i += workers {
					t := txns[todo[i]]
					assign[todo[i]], _ = label.AssignScore(sets, func(q int) bool { return sim.Jaccard(t, sub[q]) >= theta })
				}
			}(g)
		}
		wg.Wait()
	})
	tr.finish(root, rootStart, 0, req, "cluster.pipeline")

	st := cres.Stats
	out.outcome = clusterOutcome{
		clusters: len(cres.Clusters), merges: st.Merges, linkPairs: st.LinkPairs,
		pruned: st.Pruned, weeded: st.Weeded, kept: st.Points - st.Pruned, labeled: len(todo),
	}
	for _, c := range assign {
		if c == rock.OutlierCluster {
			out.outcome.outliers++
		}
	}
	out.outcome.misclassified, out.outcome.scored = misclassified(assign, in.data.Labels, out.outcome.clusters, in.data.NumClusters())
	return out, tr.all(), nil
}

// clusterLayerMetrics derives the per-layer breakdown. The layer times add
// up to trace.pipeline_s: sample + join + links + merge + label +
// unattributed, where merge is ClusterNeighbors minus the link table.
func clusterLayerMetrics(res *result, r clusterReplayResult, spans []span, clusterS float64) {
	st := selfTimes(spans)
	s := func(name string) float64 { return float64(st[name].SelfNS) / 1e9 }
	pipeline := s("cluster.pipeline") + s("sample.indices") + s("simjoin.join") + s("rockcore.cluster_neighbors") + s("label.build_sets") + s("label.assign")
	linksS := s("links.table")
	mergeS := s("rockcore.cluster_neighbors") - linksS
	labelS := s("label.build_sets") + s("label.assign")
	attributed := s("sample.indices") + s("simjoin.join") + linksS + mergeS + labelS
	pairs := 0
	for _, l := range r.nb.Lists {
		pairs += len(l)
	}
	res.set("sample.s", s("sample.indices"), "s")
	res.set("simjoin.join_s", s("simjoin.join"), "s")
	res.set("simjoin.neighbor_pairs", float64(pairs/2), "count")
	res.set("simjoin.avg_degree", r.nb.AvgDegree(), "count")
	res.set("simjoin.max_degree", float64(r.nb.MaxDegree()), "count")
	res.set("links.table_s", linksS, "s")
	res.set("links.pairs", float64(r.outcome.linkPairs), "count")
	res.set("links.alloc_mb", float64(r.linksAlloc)/(1<<20), "MiB")
	res.set("rockcore.merge_s", mergeS, "s")
	res.set("rockcore.merges", float64(r.outcome.merges), "count")
	res.set("rockcore.pruned", float64(r.outcome.pruned), "count")
	res.set("rockcore.weeded", float64(r.outcome.weeded), "count")
	res.set("label.assign_s", labelS, "s")
	res.set("label.outliers", float64(r.outcome.outliers), "count")
	res.set("trace.pipeline_s", pipeline, "s")
	res.set("trace.unattributed_s", pipeline-attributed, "s")
	res.set("trace.overhead_s", pipeline-clusterS, "s")
	res.set("trace.spans", float64(len(spans)), "count")
	res.set("quality.misclassified", float64(r.outcome.misclassified), "count")
	res.set("quality.found_clusters", float64(r.outcome.clusters), "count")
	logf("cluster-basket trace: pipeline %.3f s = sample %.3f + join %.3f + links %.3f + merge %.3f + label %.3f + unattributed %.3f; untraced ClusterLarge %.3f s",
		pipeline, s("sample.indices"), s("simjoin.join"), linksS, mergeS, labelS, pipeline-attributed, clusterS)
	logLayers(st)
}
