package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/store"
	"rock/internal/stream"
)

// stream-drift: a datagen.NewDriftStream with vocabulary rotations, posted
// as text batches to stream.Server's POST /v1/ingest on one closed-loop
// connection, so the fold order is fixed by the seed. A stream.Publisher
// saves generations into an on-disk model.Dir with the drift guard on.
// Publishes follow a count cadence: each time the acknowledged absorbed
// count crosses another streamPublishEvery share of the stream, the
// benchmark calls TryPublish on the ingest goroutine before the next POST,
// so every snapshot, and the guard's verdict on it, is fixed by the seed
// too (the Publisher's own Run loop would poll on a timer). Publishes
// never overlap a POST: their cost shows in the stream's wall time.
//
// End-to-end metrics on this workload:
//   - txn_s: acknowledged arrivals per second through POST /v1/ingest,
//     over the stream's wall time including the publishes, at the
//     reference pace (pace.go).
//
// The traced run reports the per-batch acknowledgement latency (p50_ms,
// p90_ms, p99_ms) and misclassified_ratio: the final published
// generation, compiled, labeling a held-out draw of the stream; every run
// fails when it reaches 1%.

const (
	// streamRate sizes the stream: seconds × streamRate arrivals, about
	// what the first benchmarked commit ingests in that time.
	streamRate = 14000
	// streamBatchTxns is the transactions per ingest POST.
	streamBatchTxns = 64
	// streamRotations vocabulary rotations happen in the stream; it ends
	// half way between two, and the held-out draw stays before the next.
	streamRotations = 4
	streamDriftFrac = 0.4
	// streamPublishEvery is the share of the stream between publishes.
	streamPublishEvery = 20
)

type streamSetup struct {
	c       *stream.Clusterer
	cfg     stream.Config
	dir     *model.Dir
	pub     *stream.Publisher
	srv     *http.Server
	url     string
	done    chan struct{}
	bodies  [][]byte
	sent    int
	heldOut []dataset.Transaction
	labels  []int
	client  *http.Client
}

func (s *streamSetup) stop() {
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

func runStreamDrift(e *env) (*result, error) {
	res := newResult()
	rep := 0
	ss, setups, err := timedSetups(e, func(int) (*streamSetup, error) {
		rep++
		return streamSetupOnce(e, filepath.Join(e.dir, fmt.Sprintf("stream-%d", rep)), nil)
	}, func(s *streamSetup) { s.stop() })
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	sr, err := ss.ingest(nil)
	ss.stop()
	if err != nil {
		return nil, err
	}
	e.pace.halt()
	setSetup(res, e, setups)
	if err := ss.report(res, sr, e); err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")
	if !e.trace {
		return res, nil
	}

	tr := newTracer()
	ts, err := streamSetupOnce(e, filepath.Join(e.dir, "stream-traced"), tr)
	if err != nil {
		return nil, err
	}
	tsr, err := ts.ingest(tr)
	ts.stop()
	if err != nil {
		return nil, err
	}
	res.check(tsr.absorbed == sr.absorbed, "traced run absorbed %d, untraced %d: the fold is not deterministic", tsr.absorbed, sr.absorbed)
	res.check(tsr.generations == sr.generations && tsr.guarded == sr.guarded, "traced run published %d and guarded %d, untraced %d and %d: the publish points are not deterministic",
		tsr.generations, tsr.guarded, sr.generations, sr.guarded)
	spans := tr.all()
	res.spans = spans
	streamLayerMetrics(res, ss, sr, tsr, spans)
	return res, nil
}

func streamSetupOnce(e *env, dirPath string, tr *tracer) (*streamSetup, error) {
	n := int(e.seconds * streamRate)
	if e.tiny {
		n = 4000
	}
	driftEvery := n * 2 / (2*streamRotations + 1)
	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket:     datagen.DefaultBasketConfig(),
		DriftEvery: driftEvery,
		DriftFrac:  streamDriftFrac,
	}, rand.New(rand.NewSource(e.seed)))
	s := &streamSetup{
		cfg:    stream.Config{Theta: 0.5, Seed: e.seed},
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
	}
	batch := make([]dataset.Transaction, 0, streamBatchTxns)
	var buf bytes.Buffer
	flush := func() error {
		buf.Reset()
		if err := store.WriteText(&buf, batch); err != nil {
			return err
		}
		s.bodies = append(s.bodies, append([]byte(nil), buf.Bytes()...))
		s.sent += len(batch)
		batch = batch[:0]
		return nil
	}
	for i := 0; i < n; i++ {
		t, _ := gen.Next()
		batch = append(batch, t)
		if len(batch) == streamBatchTxns {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < driftEvery/10; i++ {
		t, l := gen.Next()
		s.heldOut = append(s.heldOut, t)
		s.labels = append(s.labels, l)
	}

	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		return nil, err
	}
	var err error
	s.dir, err = model.OpenDir(store.OS, dirPath, "model", 1<<20)
	if err != nil {
		return nil, err
	}
	s.c = stream.New(s.cfg)
	s.pub = stream.NewPublisher(s.c, stream.PublishConfig{Dir: s.dir})
	s.srv, s.url, s.done, err = listen(spanHandler(tr, "stream.handler", stream.NewServer(s.c, s.pub)))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// streamRun is the outcome of one ingest pass.
type streamRun struct {
	lat            latencySummary
	counts         opCounts
	acked          int
	absorbed       int
	pooled         int
	dur            time.Duration
	rate           float64 // acknowledged arrivals/s
	wall           interval
	publishMS      []float64
	generations    int
	guarded        int
	clusterArrival int64
}

// ingest posts every batch in order on one connection and publishes
// between two posts on the count cadence.
func (s *streamSetup) ingest(tr *tracer) (*streamRun, error) {
	out := &streamRun{}
	publish := func() error {
		var err error
		t0 := time.Now()
		tr.do("stream.publish", 0, 0, func() { _, err = s.pub.TryPublish(context.Background()) })
		switch {
		case err == nil:
			out.generations++
			out.publishMS = append(out.publishMS, float64(time.Since(t0))/1e6)
		case errors.Is(err, stream.ErrGuarded):
			out.guarded++
		case errors.Is(err, stream.ErrNoClusters):
		default:
			return fmt.Errorf("publish: %w", err)
		}
		return nil
	}

	every := max(1, s.sent/streamPublishEvery)
	nextPublish := every
	rec := &recorder{}
	lg := &loadgen{tr: tr}
	var buf bytes.Buffer
	start := time.Now()
	for i, body := range s.bodies {
		n := bytes.Count(body, []byte{'\n'})
		o := &op{path: "/v1/ingest", contentType: "text/plain", body: body, txns: n}
		var resp stream.IngestResponse
		o.check = func(_ http.Header, b []byte, _ time.Time) opResult {
			if err := json.Unmarshal(b, &resp); err != nil || resp.Received != n || resp.Rejected != 0 || resp.Absorbed+resp.Pooled != n {
				return resultWrong
			}
			return resultOK
		}
		lg.base = s.url
		lg.clients = []*http.Client{s.client}
		t0 := time.Now()
		r, sent := lg.do(0, o, &buf)
		rec.observe(t0, sent, time.Now(), r, n)
		if r != resultOK {
			return nil, fmt.Errorf("ingest batch %d: %v", i, r)
		}
		out.acked += resp.Received
		out.absorbed += resp.Absorbed
		out.pooled += resp.Pooled
		if out.absorbed >= nextPublish {
			nextPublish += every
			if err := publish(); err != nil {
				return nil, err
			}
		}
	}
	out.wall = interval{start, time.Now()}
	out.dur = out.wall.to.Sub(start)
	out.counts = rec.counts
	out.lat = summarize(rec.latency)
	// The whole stream's rate, not a median of windows: the fold's cost
	// changes along the stream (rotations, pool re-clusters), the same way
	// on every run of a seed.
	out.rate = float64(out.acked) / out.dur.Seconds()
	out.clusterArrival = s.c.Arrivals()
	return out, nil
}

// report sets the end-to-end metrics and checks the stream's gates:
// every sent arrival counted exactly once, every generation loads and
// compiles, and the final one labels the held-out draw.
func (s *streamSetup) report(res *result, r *streamRun, e *env) error {
	tiny := e.tiny
	res.attempted += r.counts.Sent
	res.failed += r.counts.bad()
	res.check(r.acked == s.sent && r.clusterArrival == int64(s.sent) && r.absorbed+r.pooled == s.sent,
		"sent %d arrivals, acknowledged %d, clusterer saw %d, absorbed+pooled %d", s.sent, r.acked, r.clusterArrival, r.absorbed+r.pooled)
	m := s.c.Metrics()
	res.check(m.Absorbed.Load() == int64(r.absorbed), "clusterer absorbed %d, acknowledgements say %d", m.Absorbed.Load(), r.absorbed)
	res.check(tiny || r.lat.Tail.Q >= 0.99, "stream-drift: %d batches cannot support a p99", r.lat.N)
	entries, err := s.dir.List()
	if err != nil {
		return err
	}
	res.check(len(entries) == r.generations && r.generations > 0, "%d generations published, %d in the directory", r.generations, len(entries))
	var last *model.Assigner // the newest generation; List is newest first
	for i := len(entries) - 1; i >= 0; i-- {
		en := entries[i]
		snap, err := model.LoadFS(store.OS, en.Path)
		if err != nil {
			res.check(false, "generation %d does not load: %v", en.Seq, err)
			continue
		}
		a, err := model.Compile(snap)
		if err != nil {
			res.check(false, "generation %d does not compile: %v", en.Seq, err)
			continue
		}
		last = a
	}
	if last == nil {
		return errors.New("no generation to score")
	}
	assign := make([]int, len(s.heldOut))
	for i, t := range s.heldOut {
		assign[i], _ = last.Assign(t)
	}
	mis, scored := misclassified(assign, s.labels, last.Clusters(), len(datagen.DefaultBasketConfig().ClusterSizes))
	res.check(scored > 0 && (tiny || mis*100 < scored), "final generation misclassified %d of %d held-out true-cluster transactions (≥1%%)", mis, scored)
	res.set("misclassified_ratio", float64(mis)/float64(scored), "ratio")
	res.set("quality.misclassified", float64(mis), "count")
	res.set("quality.found_clusters", float64(last.Clusters()), "count")
	txnS := float64(r.acked) / e.pace.seconds(r.wall)
	res.set("txn_s", txnS, "txn/s")
	r.lat.set(res)
	logf("stream-drift: ingest_txn_s %.0f at the reference pace (raw %.0f over %.2f s); ingest p50 %.3f ms p99 %.3f ms over %d batches (highest supported p%g); %d generations, %d guarded, publish p50 %.2f ms; absorbed %d pooled %d; misclassified %d/%d by generation %d",
		txnS, r.rate, r.dur.Seconds(), r.lat.P50, r.lat.P99, r.lat.N, r.lat.Tail.Q*100, r.generations, r.guarded, median(r.publishMS), r.absorbed, r.pooled, mis, scored, len(entries))
	return nil
}

// streamLayerMetrics sets the per-layer metrics: handler and publish spans
// from the traced run, and the parse and fold stage times from an
// in-process replay of the recorded bodies through store.TextScanner and
// Clusterer.Observe on a fresh clusterer with the same fold order.
func streamLayerMetrics(res *result, s *streamSetup, untraced, traced *streamRun, spans []span) {
	st := selfTimes(spans)
	meanUS := func(name string) float64 {
		x := st[name]
		if x.Count == 0 {
			return 0
		}
		return float64(x.DurNS) / float64(x.Count) / 1e3
	}
	c := stream.New(s.cfg)
	var parseNS, observeNS int64
	txns, absorbed := 0, 0
	for _, body := range s.bodies {
		sc := store.NewTextScanner(bytes.NewReader(body))
		var batch []dataset.Transaction
		t0 := time.Now()
		for {
			t, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				res.check(false, "replay parse: %v", err)
				break
			}
			batch = append(batch, t)
		}
		t1 := time.Now()
		for _, t := range batch {
			if c.Observe(t).Absorbed {
				absorbed++
			}
		}
		parseNS += int64(t1.Sub(t0))
		observeNS += int64(time.Since(t1))
		txns += len(batch)
	}
	res.check(absorbed == untraced.absorbed, "replay absorbed %d, the server absorbed %d: the fold order is not fixed", absorbed, untraced.absorbed)
	m := s.c.Metrics()
	res.set("loadgen.sent", float64(untraced.counts.Sent), "count")
	res.set("loadgen.ok", float64(untraced.counts.OK), "count")
	res.set("loadgen.failed", float64(untraced.counts.Failed), "count")
	res.set("loadgen.shed", float64(untraced.counts.Shed), "count")
	res.set("loadgen.wrong", float64(untraced.counts.Wrong), "count")
	res.set("fail_ratio", untraced.counts.failRatio(), "ratio")
	res.set("http.roundtrip_us", meanUS("http.roundtrip"), "us")
	res.set("stream.handler_us", meanUS("stream.handler"), "us")
	res.set("http.transport_us", meanUS("http.roundtrip")-meanUS("stream.handler"), "us")
	res.set("store.parse_ns_txn", float64(parseNS)/float64(txns), "ns")
	res.set("stream.observe_us", float64(observeNS)/float64(txns)/1e3, "us")
	res.set("stream.absorb_ratio", float64(untraced.absorbed)/float64(untraced.acked), "ratio")
	res.set("stream.promoted", float64(m.Promoted.Load()), "count")
	res.set("stream.publish_ms", median(traced.publishMS), "ms")
	res.set("stream.generations", float64(untraced.generations), "count")
	res.set("stream.guarded", float64(untraced.guarded), "count")
	res.set("trace.overhead_txn_s", traced.rate-untraced.rate, "txn/s")
	res.set("trace.overhead_p50_ms", traced.lat.P50-untraced.lat.P50, "ms")
	res.set("trace.spans", float64(len(spans)), "count")
	logLayers(st)
}
