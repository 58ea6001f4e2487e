package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's load generator. It drives HTTP operations over a fixed
// number of keep-alive connections, each owned by one worker goroutine.
//
// Open loop: operation i is due at start + i/rate whatever happened
// before; a free worker takes the earliest unsent operation, waits for its
// due time if it is early, and the operation is timed from its due time,
// so a stall charges every operation it delayed. Closed loop: each worker
// sends its next operation as soon as the previous one is answered.

// traceHeader carries "<request id>/<parent span id>" from the load
// generator to the benchmark's handler wrappers, so server-side spans join
// the client's request.
const traceHeader = "X-Perfbench-Trace"

// op is one prepared HTTP operation.
type op struct {
	path        string
	contentType string
	body        []byte
	txns        int
	// check classifies a 200 answer (resultOK or resultWrong); sent is
	// when the request left, for staleness checks.
	check func(header http.Header, body []byte, sent time.Time) opResult
}

type loadgen struct {
	base    string
	clients []*http.Client
	tr      *tracer
	reqs    atomic.Int64
	// onDone, when set, sees every finished operation (tracing records
	// the request bodies it replays).
	onDone func(o *op, res opResult)
}

func newLoadgen(base string, conns int, tr *tracer) *loadgen {
	lg := &loadgen{base: base, tr: tr}
	for i := 0; i < conns; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// do sends one operation on worker w's connection and classifies it.
func (lg *loadgen) do(w int, o *op, buf *bytes.Buffer) (opResult, time.Time) {
	id, start := lg.tr.begin()
	req := lg.reqs.Add(1)
	res, sent := lg.send(w, o, buf, id, req)
	lg.tr.finish(id, start, 0, req, "loadgen.request")
	if lg.onDone != nil {
		lg.onDone(o, res)
	}
	return res, sent
}

func (lg *loadgen) send(w int, o *op, buf *bytes.Buffer, parent, req int64) (opResult, time.Time) {
	hreq, err := http.NewRequest(http.MethodPost, lg.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return resultFailed, time.Now()
	}
	hreq.Header.Set("Content-Type", o.contentType)
	rt, rtStart := lg.tr.begin()
	if lg.tr != nil {
		hreq.Header.Set(traceHeader, strconv.FormatInt(req, 10)+"/"+strconv.FormatInt(rt, 10))
	}
	sent := time.Now()
	resp, err := lg.clients[w].Do(hreq)
	if err != nil {
		lg.tr.finish(rt, rtStart, parent, req, "http.roundtrip")
		return resultFailed, sent
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	lg.tr.finish(rt, rtStart, parent, req, "http.roundtrip")
	switch {
	case err != nil:
		return resultFailed, sent
	case resp.StatusCode == http.StatusTooManyRequests:
		return resultShed, sent
	case resp.StatusCode != http.StatusOK:
		return resultFailed, sent
	}
	var res opResult
	lg.tr.do("loadgen.check", parent, req, func() { res = o.check(resp.Header, buf.Bytes(), sent) })
	return res, sent
}

// open runs n operations at a fixed rate; next(i) returns operation i.
func (lg *loadgen) open(n int, rate float64, next func(i int) *op) *recorder {
	rec := &recorder{}
	var cursor atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := range lg.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := next(i)
				res, sent := lg.do(w, o, &buf)
				rec.observe(due, sent, time.Now(), res, o.txns)
			}
		}(w)
	}
	wg.Wait()
	return rec
}

// closed runs operations back to back on every connection until the
// duration has passed or next returns nil, and returns the recorder, the
// start and the measured wall time.
func (lg *loadgen) closed(dur time.Duration, next func() *op) (*recorder, time.Time, time.Duration) {
	rec := &recorder{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range lg.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				o := next()
				if o == nil {
					return
				}
				t0 := time.Now()
				res, sent := lg.do(w, o, &buf)
				rec.observe(t0, sent, time.Now(), res, o.txns)
			}
		}(w)
	}
	wg.Wait()
	return rec, start, time.Since(start)
}

// spanHandler wraps h so each request it serves records a span named name,
// joined to the client's request when the trace header is present.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.since()
		h.ServeHTTP(w, r)
		s := span{Name: name, Start: start, End: tr.since()}
		if v := r.Header.Get(traceHeader); v != "" {
			if a, b, ok := strings.Cut(v, "/"); ok {
				s.Req, _ = strconv.ParseInt(a, 10, 64)
				s.Parent, _ = strconv.ParseInt(b, 10, 64)
			}
		}
		tr.record(s)
	})
}

// post sends a control-plane POST with no body and returns the response
// and its body; a status other than 200 is an error.
func post(ctx context.Context, url string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, b, fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return resp, b, nil
}
