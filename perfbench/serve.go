package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rock"
	"rock/internal/daemon"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/experiments"
	"rock/internal/gate"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
	"rock/internal/wire"
)

// serve-churn drives /v1/assign/{model} over loopback in two
// phases: an open loop at a fixed offered rate (the per-layer p50_ms,
// p90_ms and p99_ms, timed from each request's due time), then a closed
// loop on every connection (txn_s: transactions answered correctly per
// second, the median of one-second windows at the reference pace). Every
// answer is checked bit for bit against an in-process model.Compile of the
// generation its X-Rock-Model-Seq header names, and a generation older
// than the newest one fully rolled out before the request was sent counts
// as stale (wrong). misclassified_ratio scores the answers served in the
// open loop against the generator's true clusters, per served model.

const (
	// serveBatch is the transactions per assign request.
	serveBatch = 32
	// cacheCap is each tenant's answer-cache capacity.
	cacheCap = 65536
	// churnOpenRate is the open loop's offered rate in requests per
	// second. It is a constant, never derived from the commit under test:
	// about a quarter of the closed-loop capacity measured on the
	// benchmark's first commit (≈1.6k requests/s with the load generator
	// in the same process). At half capacity the generator itself ran late
	// and on a shared 2-CPU host a 15% slowdown moved p50 by 40% between
	// runs.
	churnOpenRate = 300
	// churnPublishEvery is serve-churn's write cadence.
	churnPublishEvery = 2 * time.Second
	// churnWarmSeconds is the unmeasured warm-up at the open-loop rate:
	// without it the first second's requests, on fresh connections and a
	// heap just returned to the OS, had a 90th percentile of 4 to 7 ms
	// against about 2.7 ms for the rest of the open loop.
	churnWarmSeconds = 1
)

// conns is the load's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }

// churnTenants are serve-churn's models and their request weights.
var churnTenants = []struct {
	name   string
	weight float64
}{{"alpha", 0.5}, {"beta", 0.3}, {"gamma", 0.2}}

// trainSnapshot trains a serving model with the library pipeline on a
// scaled Table 5 corpus.
func trainSnapshot(seed int64, tiny bool) (*model.Snapshot, error) {
	cfg, sampleSize := datagen.ScaledBasketConfig(10), 1000
	if tiny {
		cfg, sampleSize = datagen.ScaledBasketConfig(100), 300
	}
	d := datagen.Basket(cfg, rand.New(rand.NewSource(seed)))
	lr, err := rock.ClusterLarge(d.Txns, experiments.SyntheticPipelineConfig(sampleSize, 0.5, seed))
	if err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	return lr.Labeler.Snapshot()
}

// uniqueBaskets draws n distinct labeled baskets from the Table 5
// generator (distinct as normalized item sets; a 64-bit hash decides, so a
// collision can only drop a basket, never repeat one).
func uniqueBaskets(rng *rand.Rand, n int, seen map[uint64]bool) ([]dataset.Transaction, []int) {
	if seen == nil {
		seen = make(map[uint64]bool)
	}
	txns := make([]dataset.Transaction, 0, n)
	labels := make([]int, 0, n)
	for len(txns) < n {
		d := datagen.Basket(datagen.ScaledBasketConfig(10), rng)
		for i, t := range d.Txns {
			if len(txns) == n {
				break
			}
			h := fnv.New64a()
			for _, it := range t {
				h.Write([]byte{byte(it), byte(it >> 8), byte(it >> 16), byte(it >> 24)})
			}
			k := h.Sum64()
			if seen[k] {
				continue
			}
			seen[k] = true
			// Copy out, so the kept baskets do not pin whole corpora.
			txns = append(txns, append(dataset.Transaction(nil), t...))
			labels = append(labels, d.Labels[i])
		}
	}
	return txns, labels
}

// replica is one registry-mode daemon on a loopback listener.
type replica struct {
	reg    *registry.Registry
	engine *serve.Engine
	srv    *http.Server
	url    string
	done   chan struct{}
}

func startReplica(root string, maxModels int, tr *tracer) (*replica, error) {
	reg, err := registry.Open(registry.Config{Root: root, MaxModels: maxModels, CacheCap: cacheCap})
	if err != nil {
		return nil, err
	}
	engine := serve.NewIdle(0)
	h := daemon.New(engine, log.New(io.Discard, "", 0), daemon.Config{Registry: reg})
	r := &replica{reg: reg, engine: engine}
	r.srv, r.url, r.done, err = listen(spanHandler(tr, "daemon.handler", h))
	if err != nil {
		engine.Close()
		return nil, err
	}
	return r, nil
}

func (r *replica) stop() {
	r.srv.Close()
	<-r.done
	r.engine.Close()
}

// listen serves h on a fresh loopback port; done closes when Serve returns.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	return srv, "http://" + l.Addr().String(), done, nil
}

// scrape sums a server's /metrics samples by name.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}

// oracle knows every generation a tenant may serve and checks answers.
type oracle struct {
	mu sync.Mutex
	// variant maps tenant → seq → the snapshot variant saved as that seq.
	variant map[string]map[uint64]int
	// rolled lists, per tenant, each generation whose rollout finished and
	// when: a request sent after that must not be served an older one.
	rolled map[string][]rollout
}

type rollout struct {
	at  time.Time
	seq uint64
}

func newOracle() *oracle {
	return &oracle{variant: make(map[string]map[uint64]int), rolled: make(map[string][]rollout)}
}

// reset forgets every generation, for a fleet whose sequence numbers
// start over.
func (o *oracle) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.variant = make(map[string]map[uint64]int)
	o.rolled = make(map[string][]rollout)
}

func (o *oracle) saved(tenant string, seq uint64, variant int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.variant[tenant] == nil {
		o.variant[tenant] = make(map[uint64]int)
	}
	o.variant[tenant][seq] = variant
}

func (o *oracle) rolledOut(tenant string, seq uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rolled[tenant] = append(o.rolled[tenant], rollout{at: time.Now(), seq: seq})
}

// lookup returns the variant behind a served seq, or -1 when the seq is
// unknown or stale for a request sent at sent.
func (o *oracle) lookup(tenant string, seq uint64, sent time.Time) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.variant[tenant][seq]
	if !ok {
		return -1
	}
	for _, r := range o.rolled[tenant] {
		if r.at.Before(sent) && seq < r.seq {
			return -1
		}
	}
	return v
}

// batch is one prepared assign request and the answers each snapshot
// variant must give for it.
type batch struct {
	tenant string
	txns   []dataset.Transaction
	labels []int
	want   [][]serve.Assignment // by variant
	op     op
	// served is the variant that answered the last successful send.
	served int
}

// makeBatch prepares the request body and answer check of one batch.
func makeBatch(tenant string, txns []dataset.Transaction, labels []int, variants []*model.Assigner, binary bool, orc *oracle) *batch {
	b := &batch{tenant: tenant, txns: txns, labels: labels, served: -1}
	for _, a := range variants {
		want := make([]serve.Assignment, len(txns))
		for i, t := range txns {
			c, s := a.Assign(t)
			want[i] = serve.Assignment{Cluster: c, Score: s}
		}
		b.want = append(b.want, want)
	}
	b.op = op{path: "/v1/assign/" + tenant, txns: len(txns)}
	if binary {
		b.op.contentType = wire.ContentType
		b.op.body = wire.AppendRequest(nil, txns)
	} else {
		req := daemon.AssignRequest{Transactions: make([][]int64, len(txns))}
		for i, t := range txns {
			for _, it := range t {
				req.Transactions[i] = append(req.Transactions[i], int64(it))
			}
		}
		b.op.contentType = "application/json"
		b.op.body, _ = json.Marshal(req) // a [][]int64 always marshals
	}
	b.op.check = func(h http.Header, body []byte, sent time.Time) opResult {
		seq, err := strconv.ParseUint(h.Get(daemon.ModelSeqHeader), 10, 64)
		if err != nil {
			return resultWrong
		}
		v := orc.lookup(tenant, seq, sent)
		if v < 0 {
			return resultWrong
		}
		var got []serve.Assignment
		if binary {
			got, err = wire.DecodeResponse(body, nil)
		} else {
			var resp daemon.AssignResponse
			err = json.Unmarshal(body, &resp)
			got = resp.Assignments
		}
		if err != nil || len(got) != len(b.want[v]) {
			return resultWrong
		}
		for i, g := range got {
			w := b.want[v][i]
			if g.Cluster != w.Cluster || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				return resultWrong
			}
		}
		b.served = v
		return resultOK
	}
	return b
}

// servedQuality scores the answers of the batches served successfully,
// per (tenant, variant) model, against the true clusters.
func servedQuality(batches []*batch, trueK int) (mis, scored int) {
	type group struct {
		assign, labels []int
		clusters       int
	}
	groups := make(map[string]*group)
	for _, b := range batches {
		if b.served < 0 {
			continue
		}
		key := b.tenant + "/" + strconv.Itoa(b.served)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		for i, w := range b.want[b.served] {
			g.assign = append(g.assign, w.Cluster)
			g.labels = append(g.labels, b.labels[i])
			g.clusters = max(g.clusters, w.Cluster+1)
		}
	}
	for _, g := range groups {
		m, s := misclassified(g.assign, g.labels, g.clusters, trueK)
		mis += m
		scored += s
	}
	return mis, scored
}

// serveRun is one serving workload's measured phases and its replay.
type serveRun struct {
	name string
	lg   *loadgen
	// warmOps run at the open-loop rate before the measured phases, so
	// connections, caches and the heap the measurement finds are warm.
	warmOps   []*batch
	openOps   []*batch
	closedOps func() *batch
	replicas  []*replica
	gwURL     string // "" without a gateway
	// replay is the recorded request order of the traced run.
	recMu  sync.Mutex
	replay []*batch
}

type phaseResult struct {
	warm        opCounts
	open        *recorder
	closed      *recorder
	closedDur   time.Duration
	closedStart time.Time
	txnS        float64
	lat         latencySummary
	counters    map[string]float64 // deltas of replica + gateway counters
	regLoads    uint64
	regEvicts   uint64
	openBatches []*batch
}

// phases runs the open then the closed loop and collects the servers'
// counter deltas. With a tracer it records the requests sent, in order,
// for the in-process replay.
func (s *serveRun) phases(e *env, tr *tracer) (*phaseResult, error) {
	s.lg.tr, s.lg.onDone = nil, nil
	warm := s.lg.open(len(s.warmOps), openRate(e), func(i int) *op { return &s.warmOps[i].op })
	before, err := s.counters()
	if err != nil {
		return nil, err
	}
	loads0, evicts0 := s.registryCounts()
	byOp := make(map[*op]*batch)
	for _, b := range s.openOps {
		byOp[&b.op] = b
	}
	s.lg.tr = tr
	s.lg.onDone = nil
	if tr != nil {
		s.lg.onDone = func(o *op, res opResult) {
			s.recMu.Lock()
			if b := byOp[o]; b != nil {
				s.replay = append(s.replay, b)
			}
			s.recMu.Unlock()
		}
	}
	open := s.lg.open(len(s.openOps), openRate(e), func(i int) *op { return &s.openOps[i].op })
	var closedMu sync.Mutex
	rec, start, dur := s.lg.closed(time.Duration(e.seconds/2*float64(time.Second)), func() *op {
		closedMu.Lock()
		defer closedMu.Unlock()
		b := s.closedOps()
		if b == nil {
			return nil
		}
		if tr != nil {
			s.recMu.Lock()
			byOp[&b.op] = b
			s.recMu.Unlock()
		}
		return &b.op
	})
	after, err := s.counters()
	if err != nil {
		return nil, err
	}
	loads1, evicts1 := s.registryCounts()
	p := &phaseResult{warm: warm.counts, open: open, closed: rec, closedDur: dur, closedStart: start, counters: make(map[string]float64), openBatches: s.openOps}
	for k, v := range after {
		p.counters[k] = v - before[k]
	}
	p.regLoads, p.regEvicts = loads1-loads0, evicts1-evicts0
	p.txnS = windowRate(start, rec.doneAt, rec.doneTxns, dur, wall)
	p.lat = summarize(open.latency)
	return p, nil
}

func openRate(e *env) float64 {
	if e.tiny {
		return 200
	}
	return churnOpenRate
}

// openCount is the number of open-loop requests: half the run at the rate.
func openCount(e *env) int {
	return int(openRate(e) * e.seconds / 2)
}

func (s *serveRun) counters() (map[string]float64, error) {
	out := make(map[string]float64)
	urls := []string{}
	for _, r := range s.replicas {
		urls = append(urls, r.url)
	}
	if s.gwURL != "" {
		urls = append(urls, s.gwURL)
	}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

func (s *serveRun) registryCounts() (loads, evicts uint64) {
	for _, r := range s.replicas {
		for _, in := range r.reg.List() {
			loads += in.Loads
			evicts += in.Evictions
		}
	}
	return loads, evicts
}

func (s *serveRun) stop() {
	s.lg.close()
	for _, r := range s.replicas {
		r.stop()
	}
}

// report sets the metrics, txn_s at the reference pace of the halted
// pacer, and the serving gates.
func (s *serveRun) report(res *result, e *env, p *phaseResult, trueK int) {
	txnS := windowRate(p.closedStart, p.closed.doneAt, p.closed.doneTxns, p.closedDur, e.pace.scaled)
	var all opCounts
	all.add(p.warm)
	all.add(p.open.counts)
	all.add(p.closed.counts)
	res.attempted += all.Sent
	res.failed += all.bad()
	res.check(all.bad() == 0, "%s: %d of %d requests failed (failed %d, shed %d, wrong or stale %d)", s.name, all.bad(), all.Sent, all.Failed, all.Shed, all.Wrong)
	res.check(e.tiny || p.lat.Tail.Q >= 0.99, "%s: %d open-loop samples cannot support a p99", s.name, p.lat.N)
	mis, scored := servedQuality(p.openBatches, trueK)
	res.check(scored > 0 && (e.tiny || mis*100 < scored), "%s: misclassified %d of %d served true-cluster transactions (≥1%%)", s.name, mis, scored)
	res.set("quality.misclassified", float64(mis), "count")
	res.set("txn_s", txnS, "txn/s")
	p.lat.set(res)
	res.set("misclassified_ratio", float64(mis)/float64(scored), "ratio")
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")
	logf("%s: assign_txn_s %.0f at the reference pace, %.0f raw (closed loop, median of 1 s windows, %d conns, %.2f s, %d requests); assign p50 %.3f ms, p99 %.3f ms (median of %d windows) over %d open-loop requests at %g/s (highest supported percentile overall p%g); fail_ratio %.6f (%d/%d); misclassified %d/%d; late p50 %.3f ms",
		s.name, txnS, p.txnS, len(s.lg.clients), p.closedDur.Seconds(), p.closed.counts.Sent, p.lat.P50, p.lat.P99, p.lat.Windows, p.lat.N, openRate(e), p.lat.Tail.Q*100,
		all.failRatio(), all.bad(), all.Sent, mis, scored, median(p.open.late))
}

// loadgenMetrics sets the load generator's per-layer counts.
func loadgenMetrics(res *result, p *phaseResult) {
	var all opCounts
	all.add(p.warm)
	all.add(p.open.counts)
	all.add(p.closed.counts)
	res.set("loadgen.sent", float64(all.Sent), "count")
	res.set("loadgen.ok", float64(all.OK), "count")
	res.set("loadgen.failed", float64(all.Failed), "count")
	res.set("loadgen.shed", float64(all.Shed), "count")
	res.set("loadgen.wrong", float64(all.Wrong), "count")
	res.set("loadgen.late_ms", median(p.open.late), "ms")
	res.set("fail_ratio", all.failRatio(), "ratio")
}

// replayStats accumulates the in-process replay of recorded requests
// through the serving layers' public functions.
type replayStats struct {
	requests, txns, binaryTxns, lookups, hits             int
	decodeNS, acquireNS, getNS, assignNS, putNS, encodeNS int64
	misses                                                int
}

// replayServe pushes the recorded requests through wire.DecodeRequest →
// registry.Acquire → serve.Cache Get/Put → model.Assigner.Assign →
// wire.AppendResponse on a fresh registry over the same root, timing each
// stage.
func replayServe(root string, maxModels int, recorded []*batch) (replayStats, error) {
	reg, err := registry.Open(registry.Config{Root: root, MaxModels: maxModels, CacheCap: cacheCap})
	if err != nil {
		return replayStats{}, err
	}
	var st replayStats
	var (
		txns  []dataset.Transaction
		items []dataset.Item
		out   []serve.Assignment
		resp  []byte
		miss  []int
	)
	for _, b := range recorded {
		t0 := time.Now()
		if b.op.contentType == wire.ContentType {
			txns, items, err = wire.DecodeRequest(b.op.body, txns, items)
			if err != nil {
				return st, fmt.Errorf("replay decode: %w", err)
			}
			for i := range txns {
				txns[i].Normalize()
			}
		} else {
			txns = append(txns[:0], b.txns...)
		}
		t1 := time.Now()
		lease, err := reg.Acquire(b.tenant)
		if err != nil {
			return st, fmt.Errorf("replay acquire %s: %w", b.tenant, err)
		}
		t2 := time.Now()
		out = append(out[:0], make([]serve.Assignment, len(txns))...)
		miss = miss[:0]
		for i, t := range txns {
			if a, ok := lease.Cache.Get(t); ok {
				out[i] = a
			} else {
				miss = append(miss, i)
			}
		}
		t3 := time.Now()
		for _, i := range miss {
			c, s := lease.Assigner.Assign(txns[i])
			out[i] = serve.Assignment{Cluster: c, Score: s}
		}
		t4 := time.Now()
		for _, i := range miss {
			lease.Cache.Put(txns[i], out[i])
		}
		t5 := time.Now()
		if b.op.contentType == wire.ContentType {
			resp = wire.AppendResponse(resp[:0], out)
		}
		t6 := time.Now()
		lease.Release()
		st.requests++
		st.txns += len(txns)
		st.lookups += len(txns)
		st.misses += len(miss)
		st.hits += len(txns) - len(miss)
		st.acquireNS += int64(t2.Sub(t1))
		st.getNS += int64(t3.Sub(t2))
		st.assignNS += int64(t4.Sub(t3))
		st.putNS += int64(t5.Sub(t4))
		if b.op.contentType == wire.ContentType {
			st.binaryTxns += len(txns)
			st.decodeNS += int64(t1.Sub(t0))
			st.encodeNS += int64(t6.Sub(t5))
		}
	}
	return st, nil
}

// serveLayerMetrics derives the per-layer serving metrics from the traced
// phase's spans, counters and the replay.
func serveLayerMetrics(res *result, spans []span, p *phaseResult, rp replayStats) {
	st := selfTimes(spans)
	meanUS := func(name string) float64 {
		s := st[name]
		if s.Count == 0 {
			return 0
		}
		return float64(s.DurNS) / float64(s.Count) / 1e3
	}
	selfUS := func(name string) float64 {
		s := st[name]
		if s.Count == 0 {
			return 0
		}
		return float64(s.SelfNS) / float64(s.Count) / 1e3
	}
	perTxn := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	perReqUS := func(ns int64) float64 {
		if rp.requests == 0 {
			return 0
		}
		return float64(ns) / float64(rp.requests) / 1e3
	}
	stagesUS := perReqUS(rp.decodeNS + rp.acquireNS + rp.getNS + rp.assignNS + rp.putNS + rp.encodeNS)
	res.set("http.roundtrip_us", meanUS("http.roundtrip"), "us")
	res.set("http.transport_us", selfUS("http.roundtrip"), "us")
	res.set("daemon.handler_us", meanUS("daemon.handler"), "us")
	res.set("daemon.glue_us", meanUS("daemon.handler")-stagesUS, "us")
	res.set("wire.decode_ns_txn", perTxn(rp.decodeNS, rp.binaryTxns), "ns")
	res.set("wire.encode_ns_txn", perTxn(rp.encodeNS, rp.binaryTxns), "ns")
	hits, misses := p.counters["rockd_cache_hits_total"], p.counters["rockd_cache_misses_total"]
	if hits+misses > 0 {
		res.set("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	res.set("serve.cache_lookups", hits+misses, "count")
	res.set("serve.cache_get_ns", perTxn(rp.getNS, rp.lookups), "ns")
	res.set("serve.cache_put_ns", perTxn(rp.putNS, rp.misses), "ns")
	res.set("model.assign_ns_txn", perTxn(rp.assignNS, rp.misses), "ns")
	res.set("registry.acquire_ns", perTxn(rp.acquireNS, rp.requests), "ns")
	res.set("registry.loads", float64(p.regLoads), "count")
	res.set("registry.evictions", float64(p.regEvicts), "count")
	// The gateway does not forward the trace header, so replica spans
	// carry no request id: the gate's own time is the difference of the
	// mean handler times (hedged attempts add replica spans).
	res.set("gate.proxy_us", meanUS("gate.handler")-meanUS("daemon.handler"), "us")
	res.set("gate.hedges", p.counters["rockgate_hedges_total"], "count")
	res.set("gate.retries", p.counters["rockgate_retries_total"], "count")
	res.set("trace.spans", float64(len(spans)), "count")
	logf("replay: %d requests, %d txns, %d lookups (%d hits), stages per request %.2f us; handler %.2f us; round trip %.2f us",
		rp.requests, rp.txns, rp.lookups, rp.hits, stagesUS, meanUS("daemon.handler"), meanUS("http.roundtrip"))
	logLayers(st)
}

// compileTimes times model.Compile on each snapshot, in ms (median).
func compileTimes(snaps []*model.Snapshot) (float64, error) {
	var ms []float64
	for _, s := range snaps {
		t0 := time.Now()
		if _, err := model.Compile(s); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// publish saves snap as the tenant's next generation under root.
func publish(root, tenant string, snap *model.Snapshot) (uint64, error) {
	path := filepath.Join(root, tenant)
	if err := os.MkdirAll(path, 0o755); err != nil {
		return 0, err
	}
	d, err := model.OpenDir(store.OS, path, "model", 0)
	if err != nil {
		return 0, err
	}
	e, err := d.Save(snap)
	if err != nil {
		return 0, err
	}
	return e.Seq, nil
}

// serve-churn: client → gate.Gateway → 2 registry-mode replicas. Three
// tenants in a weighted mix with MaxModels one below the tenant count, so
// cold tenants are evicted and lazily reloaded and recompiled; a new
// generation of one tenant is published and rolled out through the
// gateway's per-model reload every churnPublishEvery beside the reads;
// every basket is drawn once, so the cache misses, and half the requests
// use the JSON codec.
//
// setup_s covers training the models, publishing and starting the fleet.
// The request pool (never-repeated baskets and the answers every model
// generation must give for them) is the load generator's input; it is
// prepared once per run, after setup, and is not part of setup_s.

const churnReplicas = 2

// churnClosedRequests bounds serve-churn's closed loop: every basket is
// drawn once, so the requests are prepared up front. The loop ends at the
// time limit or when they run out; the latter is logged. 24,000 requests
// of 32 baskets last a 16 s run's 8 s closed loop up to 96k txn/s, about
// the 99k txn/s the benchmark's first commit reached on a fast host
// (16,000 ran out after 5.3 s there). The prepared pool is most of the
// process's memory, so it is not made larger.
const churnClosedRequests = 24000

// churnModels are each tenant's two snapshot variants; generations
// alternate between them.
type churnModels struct {
	variants map[string][]*model.Snapshot
	compiled map[string][]*model.Assigner
}

func trainChurnModels(e *env) (*churnModels, error) {
	m := &churnModels{variants: make(map[string][]*model.Snapshot), compiled: make(map[string][]*model.Assigner)}
	for ti, t := range churnTenants {
		for v := 0; v < 2; v++ {
			snap, err := trainSnapshot(e.seed*100+int64(ti*2+v), e.tiny)
			if err != nil {
				return nil, err
			}
			a, err := model.Compile(snap)
			if err != nil {
				return nil, err
			}
			m.variants[t.name] = append(m.variants[t.name], snap)
			m.compiled[t.name] = append(m.compiled[t.name], a)
		}
	}
	return m, nil
}

type churnSetup struct {
	models *churnModels
	run    *serveRun
	root   string
	orc    *oracle
	order  []string // the publish schedule's tenant order
	gw     *gate.Gateway
	gwSrv  *http.Server
	gwDone chan struct{}
	posted int
	seqs   map[string]uint64 // each tenant's newest published generation
}

func runServeChurn(e *env) (*result, error) {
	res := newResult()
	orc := newOracle()
	cs, setups, err := timedSetups(e, func(rep int) (*churnSetup, error) {
		models, err := trainChurnModels(e)
		if err != nil {
			return nil, err
		}
		return startChurnFleet(e, filepath.Join(e.dir, fmt.Sprintf("churn-%d", rep)), models, orc, nil)
	}, func(c *churnSetup) { c.stop() })
	if err != nil {
		return nil, err
	}
	warm, open, closed := churnRequests(e, cs.models, orc)
	cs.attach(warm, open, closed)
	resetPeakRSS()
	p, err := cs.phasesWithWrites(e, nil)
	cs.stop()
	if err != nil {
		return nil, err
	}
	e.pace.halt()
	setSetup(res, e, setups)
	cs.run.report(res, e, p, 10)
	res.check(p.regEvicts > 0 && p.regLoads > 0, "serve-churn: no eviction and lazy reload happened (loads %d, evictions %d)", p.regLoads, p.regEvicts)
	if !e.trace {
		return res, nil
	}
	// The traced run: a fresh fleet with span handlers, the same models
	// and requests.
	tr := newTracer()
	tc, err := startChurnFleet(e, filepath.Join(e.dir, "churn-traced"), cs.models, orc, tr)
	if err != nil {
		return nil, err
	}
	tc.attach(warm, open, closed)
	tp, err := tc.phasesWithWrites(e, tr)
	tc.stop()
	if err != nil {
		return nil, err
	}
	if bad := tp.warm.bad() + tp.open.counts.bad() + tp.closed.counts.bad(); bad > 0 {
		res.check(false, "serve-churn traced run: %d bad requests", bad)
	}
	spans := tr.all()
	rp, err := replayServe(tc.root, len(churnTenants)-1, tc.run.replay)
	if err != nil {
		return nil, err
	}
	res.spans = spans
	loadgenMetrics(res, p)
	serveLayerMetrics(res, spans, tp, rp)
	var snaps []*model.Snapshot
	for _, t := range churnTenants {
		snaps = append(snaps, cs.models.variants[t.name]...)
	}
	ms, err := compileTimes(snaps)
	if err != nil {
		return nil, err
	}
	res.set("model.compile_ms", ms, "ms")
	reloadMS, err := replayReloads(tc.root, len(churnTenants)-1)
	if err != nil {
		return nil, err
	}
	res.set("registry.reload_ms", reloadMS, "ms")
	logf("serve-churn trace: %d rolling reloads posted", tc.posted)
	res.set("trace.overhead_txn_s", tp.txnS-p.txnS, "txn/s")
	res.set("trace.overhead_p50_ms", tp.lat.P50-p.lat.P50, "ms")
	return res, nil
}

// replayReloads times registry.Reload of every tenant on a fresh registry
// (median, ms).
func replayReloads(root string, maxModels int) (float64, error) {
	reg, err := registry.Open(registry.Config{Root: root, MaxModels: maxModels, CacheCap: cacheCap})
	if err != nil {
		return 0, err
	}
	var ms []float64
	for _, t := range churnTenants {
		t0 := time.Now()
		if _, err := reg.Reload(t.name); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// startChurnFleet publishes each tenant's first variant under root and
// starts two replicas behind a gateway. The oracle starts over: sequence
// numbers restart in every root.
func startChurnFleet(e *env, root string, models *churnModels, orc *oracle, tr *tracer) (*churnSetup, error) {
	orc.reset()
	cs := &churnSetup{models: models, root: root, orc: orc, seqs: make(map[string]uint64)}
	for _, t := range churnTenants {
		seq, err := publish(root, t.name, models.variants[t.name][0])
		if err != nil {
			return nil, err
		}
		orc.saved(t.name, seq, 0)
		cs.seqs[t.name] = seq
	}
	rng := rand.New(rand.NewSource(e.seed + 3000))
	for i := 0; i < 64; i++ {
		cs.order = append(cs.order, churnTenants[rng.Intn(len(churnTenants))].name)
	}
	var urls []string
	cs.run = &serveRun{name: "serve-churn"}
	for i := 0; i < churnReplicas; i++ {
		r, err := startReplica(root, len(churnTenants)-1, tr)
		if err != nil {
			cs.run.stop()
			return nil, err
		}
		cs.run.replicas = append(cs.run.replicas, r)
		urls = append(urls, r.url)
	}
	cs.gw = gate.New(gate.Config{Backends: urls, ProbeInterval: 50 * time.Millisecond}, log.New(io.Discard, "", 0))
	var err error
	cs.gwSrv, cs.run.gwURL, cs.gwDone, err = listen(spanHandler(tr, "gate.handler", cs.gw))
	if err != nil {
		cs.gw.Close()
		cs.run.stop()
		return nil, err
	}
	cs.run.lg = newLoadgen(cs.run.gwURL, conns(), nil)
	if err := waitLive(cs.run.gwURL, churnReplicas); err != nil {
		cs.stop()
		return nil, err
	}
	return cs, nil
}

// churnRequests prepares the warm-up, open- and closed-loop requests:
// weighted tenant choice, never-repeated baskets, binary and JSON
// alternating.
func churnRequests(e *env, models *churnModels, orc *oracle) (warm, open, closed []*batch) {
	rng := rand.New(rand.NewSource(e.seed + 2000))
	nWarm, nOpen, nClosed := int(openRate(e)*churnWarmSeconds), openCount(e), churnClosedRequests
	if e.tiny {
		nClosed = 64
	}
	n := nWarm + nOpen + nClosed
	txns, labels := uniqueBaskets(rng, n*serveBatch, nil)
	tenants := make([]string, n)
	for i := range tenants {
		u := rng.Float64()
		tenants[i] = churnTenants[len(churnTenants)-1].name
		for _, t := range churnTenants {
			if u < t.weight {
				tenants[i] = t.name
				break
			}
			u -= t.weight
		}
	}
	// Every request's answers come from in-process Assign calls (the
	// Assigner is safe for concurrent use); preparing them on every CPU
	// halves the unmeasured part of the run.
	all := make([]*batch, n)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				lo := i * serveBatch
				all[i] = makeBatch(tenants[i], txns[lo:lo+serveBatch], labels[lo:lo+serveBatch], models.compiled[tenants[i]], i%2 == 0, orc)
			}
		}(g)
	}
	wg.Wait()
	return all[:nWarm], all[nWarm : nWarm+nOpen], all[nWarm+nOpen:]
}

// attach gives the fleet its requests; the closed loop hands each out once.
func (cs *churnSetup) attach(warm, open, closed []*batch) {
	cs.run.warmOps = warm
	cs.run.openOps = open
	next := 0
	cs.run.closedOps = func() *batch {
		if next == len(closed) {
			return nil
		}
		next++
		return closed[next-1]
	}
}

func (cs *churnSetup) stop() {
	if cs.gwSrv != nil {
		cs.gwSrv.Close()
		<-cs.gwDone
		cs.gw.Close()
	}
	cs.run.stop()
}

// waitLive waits until the gateway reports want live replicas.
func waitLive(gurl string, want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(gurl + "/v1/fleet")
		if err == nil {
			var fr gate.FleetResponse
			err = json.NewDecoder(resp.Body).Decode(&fr)
			resp.Body.Close()
			live := 0
			for _, r := range fr.Replicas {
				if r.State == "live" {
					live++
				}
			}
			if err == nil && live == want {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("gateway: replicas never became live")
}

// phasesWithWrites runs the read phases while a writer publishes a new
// generation of one tenant every churnPublishEvery and rolls it out
// through the gateway's per-model reload.
func (cs *churnSetup) phasesWithWrites(e *env, tr *tracer) (*phaseResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var (
		wg       sync.WaitGroup
		writeErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeErr = cs.writer(ctx, tr)
	}()
	p, err := cs.run.phases(e, tr)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if writeErr != nil {
		return nil, writeErr
	}
	if cs.run.closedOps() == nil {
		logf("serve-churn: closed loop used every prepared request before the time limit")
	}
	return p, nil
}

func (cs *churnSetup) writer(ctx context.Context, tr *tracer) error {
	tick := time.NewTicker(churnPublishEvery)
	defer tick.Stop()
	next := make(map[string]int)
	for k := 0; ; k++ {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		tenant := cs.order[k%len(cs.order)]
		next[tenant] = 1 - next[tenant]
		v := next[tenant]
		// Register the generation before it exists: a replica that evicted
		// this tenant lazily loads the newest snapshot on its next request,
		// which may be this one before the rollout starts.
		want := cs.seqs[tenant] + 1
		cs.orc.saved(tenant, want, v)
		seq, err := publish(cs.root, tenant, cs.models.variants[tenant][v])
		if err != nil {
			return err
		}
		if seq != want {
			return fmt.Errorf("published %s generation %d, expected %d", tenant, seq, want)
		}
		cs.seqs[tenant] = seq
		var perr error
		tr.do("gate.reload", 0, 0, func() { _, _, perr = post(ctx, cs.run.gwURL+"/v1/reload/"+tenant) })
		if perr != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("rolling reload of %s: %w", tenant, perr)
		}
		cs.orc.rolledOut(tenant, seq)
		cs.posted++
	}
}
