// Command perfbench is the repository's benchmark: it runs one named
// workload against the clustering, serving or streaming pipeline from a
// single process, checks every output for correctness, and prints the
// workload's metrics as one JSON object on the last line of standard
// output.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out dir]
//
// With -trace 0 it reports the end-to-end metrics, measured untraced. With
// -trace 1 it runs the workload untraced, then again with spans recorded
// around the benchmark's calls into each layer's public functions, then
// replays recorded inputs through the layers in process; it reports the
// per-layer metrics, including the tracing overhead (traced minus untraced
// result), and writes the spans to <out>/perfbench-trace-<workload>-<seed>.jsonl.
//
// Run it through run.sh from the repository root, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named traffic mix. run performs setup (timed as
// setup_s), the measured phase, and the correctness gates.
type workload struct {
	name string
	run  func(env *env) (*result, error)
}

var workloads = []workload{
	{"cluster-basket", runClusterBasket},
	{"serve-churn", runServeChurn},
	{"stream-drift", runStreamDrift},
}

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input so the smoke tests finish in seconds; the
	// benchmark itself never sets it.
	tiny bool
	// dir is a scratch directory the workload may write into; it is
	// removed when the run ends.
	dir string
	// pace samples the host's speed from before setup; a workload halts it
	// when its untraced measurement ends and reports every end-to-end time
	// scaled by it (see pace.go).
	pace *pacer
}

// result is a finished run.
type result struct {
	attempted, failed int
	// violations are failed correctness gates; any makes the run incorrect.
	violations []string
	metrics    map[string]metric
	// spans are the traced run's spans (trace mode only).
	spans []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records a violated correctness gate when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// e2eMetrics are reported by every workload when tracing is off. Each
// workload maps its own pipeline onto them (see the workload files), and
// every time among them is at the host's reference pace (pace.go). Every
// one is nonzero on every workload, so a bound relative to the parent's
// median means something; fail_ratio and misclassified_ratio are zero on
// correct runs of some workloads, so they are correctness gates plus
// per-layer metrics instead. The latency percentiles p50_ms, p90_ms and
// p99_ms are per-layer too: each is a percentile of operations of 0.1 to
// 3 ms, which a hypervisor preemption either misses or stretches many times
// over, so the host pace does not correct them the way it corrects long
// stretches of work. Over ten runs of the same code on a 2-vCPU VM losing
// up to 37% of its runnable time to steal, serve-churn's open-loop p50
// ranged from 1.9 to 3.5 ms raw and still spread 0.40 of its median when
// scaled by the kernel's speed.
var e2eMetrics = []string{"setup_s", "txn_s", "peak_rss_mb"}

// layerMetrics are reported by every workload when tracing is on; a layer
// the workload does not run reports 0. Run settings and gate counts (the
// offered rate, connections, sample counts behind a percentile, replayed
// versus served fold counts) go to the log and the gate messages instead.
var layerMetrics = map[string]string{
	"sample.s":               "s",
	"simjoin.join_s":         "s",
	"simjoin.neighbor_pairs": "count",
	"simjoin.avg_degree":     "count",
	"simjoin.max_degree":     "count",
	"links.table_s":          "s",
	"links.pairs":            "count",
	"links.alloc_mb":         "MiB",
	"rockcore.merge_s":       "s",
	"rockcore.merges":        "count",
	"rockcore.pruned":        "count",
	"rockcore.weeded":        "count",
	"label.assign_s":         "s",
	"label.outliers":         "count",
	"trace.pipeline_s":       "s",
	"trace.unattributed_s":   "s",
	"trace.overhead_s":       "s",
	"trace.overhead_txn_s":   "txn/s",
	"trace.overhead_p50_ms":  "ms",
	"trace.spans":            "count",
	"loadgen.sent":           "count",
	"loadgen.ok":             "count",
	"loadgen.failed":         "count",
	"loadgen.shed":           "count",
	"loadgen.wrong":          "count",
	"loadgen.late_ms":        "ms",
	"fail_ratio":             "ratio",
	"p50_ms":                 "ms",
	"p90_ms":                 "ms",
	"p99_ms":                 "ms",
	"http.roundtrip_us":      "us",
	"daemon.handler_us":      "us",
	"http.transport_us":      "us",
	"daemon.glue_us":         "us",
	"wire.decode_ns_txn":     "ns",
	"wire.encode_ns_txn":     "ns",
	"serve.cache_hit_ratio":  "ratio",
	"serve.cache_lookups":    "count",
	"serve.cache_get_ns":     "ns",
	"serve.cache_put_ns":     "ns",
	"model.assign_ns_txn":    "ns",
	"model.compile_ms":       "ms",
	"registry.acquire_ns":    "ns",
	"registry.loads":         "count",
	"registry.evictions":     "count",
	"registry.reload_ms":     "ms",
	"gate.proxy_us":          "us",
	"gate.hedges":            "count",
	"gate.retries":           "count",
	"store.parse_ns_txn":     "ns",
	"stream.handler_us":      "us",
	"stream.observe_us":      "us",
	"stream.absorb_ratio":    "ratio",
	"stream.promoted":        "count",
	"stream.publish_ms":      "ms",
	"stream.generations":     "count",
	"stream.guarded":         "count",
	"misclassified_ratio":    "ratio",
	"quality.misclassified":  "count",
	"quality.found_clusters": "count",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the trace file and scratch data")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		logf("usage: -workload {%s} -seed n -seconds s -trace {0,1}", strings.Join(names, ","))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "perfbench-run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	logf("workload %s seed %d seconds %g trace %d: %s", w.name, e.seed, e.seconds, *trace, machineFacts())
	e.pace = startPacer()
	res, err := w.run(e)
	e.pace.halt()
	if err != nil {
		logf("workload %s: %v", w.name, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(*out, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", w.name, e.seed))
		if err := (&tracer{spans: res.spans}).write(path); err != nil {
			logf("writing spans: %v", err)
			return 1
		}
		logf("%d spans written to %s", len(res.spans), path)
	}
	line, err := report(res, e.trace)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// report renders the result line: the selected metric set, each value
// present and finite.
func report(res *result, traced bool) (string, error) {
	want := e2eMetrics
	if traced {
		want = want[:0:0]
		for n := range layerMetrics {
			want = append(want, n)
		}
		sort.Strings(want)
	}
	metrics := make(map[string]metric, len(want))
	for _, n := range want {
		m, ok := res.metrics[n]
		if !ok && traced {
			m = metric{0, layerMetrics[n]}
		} else if !ok {
			return "", fmt.Errorf("metric %s missing", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.violations = append(res.violations, fmt.Sprintf("metric %s is %v", n, m.Value))
			m.Value = 0
		}
		metrics[n] = m
	}
	for _, v := range res.violations {
		logf("VIOLATION: %s", v)
	}
	if res.attempted < 1 {
		res.attempted = 1
		res.violations = append(res.violations, "no operation attempted")
	}
	failed := res.failed
	if len(res.violations) > 0 && failed == 0 {
		failed = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.violations) == 0, res.attempted, failed, metrics})
	return string(b), err
}

// machineFacts describes the host a run's numbers come from.
func machineFacts() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns setup's garbage to the OS and restarts the
// kernel's peak-RSS counter for this process, so peakRSSMiB covers only
// what follows. Where the kernel refuses the reset the peak includes setup,
// and a warning says so.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("warning: peak RSS includes setup: %v", err)
	}
}

// peakRSSMiB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 3

// timedSetups runs setup setupReps times (once when tiny), discarding all
// but the last instance, and returns it with each setup's interval.
func timedSetups[T any](e *env, setup func(rep int) (T, error), discard func(T)) (T, []interval, error) {
	reps := setupReps
	if e.tiny {
		reps = 1
	}
	var (
		last T
		ivs  []interval
	)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		v, err := setup(rep)
		if err != nil {
			return last, nil, err
		}
		ivs = append(ivs, interval{start, time.Now()})
		if rep < reps-1 {
			discard(v)
		}
		last = v
	}
	return last, ivs, nil
}

// setSetup reports setup_s, the median scaled setup time (the pacer must
// be halted), and logs the raw one.
func setSetup(res *result, e *env, ivs []interval) {
	var raw, scaled []float64
	for _, iv := range ivs {
		raw = append(raw, iv.seconds())
		scaled = append(scaled, e.pace.seconds(iv))
	}
	res.set("setup_s", median(scaled), "s")
	logf("setup: %.4f s at the reference pace, %.4f s raw (medians of %d)", median(scaled), median(raw), len(ivs))
}
