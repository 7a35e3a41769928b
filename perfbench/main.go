// Command perfbench is sharedq's end-to-end benchmark. It builds one
// workload's database and engine in process, computes every distinct
// query's reference result with the sequential Baseline path, drives
// seeded load through the layers' public APIs for --seconds, checks
// every result, and prints one JSON object as its last line of output:
// the end-to-end metrics (--trace 0) or the per-layer metrics from a
// run that also records spans (--trace 1).
//
// Run it from the repository root, through the script that builds it:
//
//	bash perfbench/run.sh --workload shared-star --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"sharedq/internal/core"
	"sharedq/internal/serve"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// confirm a claimed gain on it.
const heldOutSeed = 9001

const (
	setupRounds = 3           // set-ups per untraced run; setup_s is their median
	stepDur     = time.Second // SLO ladder steps after the first
	stallLimit  = 20 * time.Second
	runLimit    = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: shared-star, adhoc-arrivals or served-scan")
	seed := flag.Int64("seed", 1, "workload seed: the queries and their arrival times")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for span dumps and result files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload shared-star|adhoc-arrivals|served-scan, --seconds >= 1, --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prog := &progress{}
	stopWatchdog := startWatchdog(prog)
	defer stopWatchdog()

	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, prog: prog}
	res, err := b.run(*trace == 1, filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, *seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov := provenance(*seed, w.name, *trace)
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(pj))
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	file := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	fj, _ := json.MarshalIndent(map[string]any{"provenance": prov, "result": res}, "", "  ")
	if err := os.WriteFile(file, fj, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Println(string(rj))
	if !res.Correct {
		return 1
	}
	return 0
}

// startWatchdog fails the run, with a goroutine dump, when queries are
// in flight and none has completed for stallLimit, or when the run
// exceeds runLimit: a hang in the engine fails the run instead of
// blocking whoever waits for it.
func startWatchdog(prog *progress) (stop func()) {
	t0 := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		last, since := prog.done.Load(), time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if n := prog.done.Load(); n != last || prog.inflight.Load() == 0 {
				last, since = n, time.Now()
			}
			switch {
			case time.Since(since) > stallLimit:
				dumpAndExit(fmt.Sprintf("no query completed for %v with %d in flight", stallLimit, prog.inflight.Load()))
			case time.Since(t0) > runLimit:
				dumpAndExit(fmt.Sprintf("run exceeded %v", runLimit))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func dumpAndExit(why string) {
	fmt.Fprintf(os.Stderr, "perfbench: watchdog: %s; goroutines:\n", why)
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	os.Exit(3)
}

// rig is one set-up instance of the system under test.
type rig struct {
	eng     *core.Engine
	srv     *serve.Server
	remotes []*remote
}

func setUp(w *workload) (*rig, time.Duration, error) {
	t0 := time.Now()
	sys, err := core.NewSystem(w.sys)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{eng: core.NewEngine(sys, w.opts)}
	if w.served {
		r.srv = serve.New(serve.Config{Engine: r.eng, Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
		if err := r.srv.Start(); err != nil {
			r.eng.Close()
			return nil, 0, err
		}
	}
	return r, time.Since(t0), nil
}

// clients returns the rig's load-generating clients: one connection
// per closed-loop client when served, otherwise the engine itself.
func (r *rig) clients(w *workload) []client {
	n := max(w.clients, 1)
	out := make([]client, n)
	for i := range out {
		if r.srv != nil {
			x := &remote{addr: r.srv.Addr()}
			r.remotes = append(r.remotes, x)
			out[i] = x
		} else {
			out[i] = inproc{r.eng}
		}
	}
	return out
}

func (r *rig) tearDown() {
	for _, x := range r.remotes {
		x.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.srv != nil {
		r.srv.Shutdown(ctx)
	}
	r.eng.Shutdown(ctx)
}

// drained waits until the engine has no query in flight and no pooled
// batch checked out, and reports the outstanding batch count it ended
// with.
func (r *rig) drained() (inflight int, outstanding int64) {
	pool := r.eng.System().Env.Recycle
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight, outstanding = r.eng.InFlight(), pool.Outstanding()
		if (inflight == 0 && outstanding == 0) || time.Now().After(deadline) {
			return inflight, outstanding
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// references computes each distinct query's result with the sequential
// Baseline path on the rig's data, before anything is timed.
func references(r *rig, w *workload, sqls []string) ([]*query, error) {
	base := core.NewEngine(r.eng.System(), core.Options{Mode: core.Baseline, Parallelism: 1})
	defer base.Close()
	qs := make([]*query, len(sqls))
	errs := make([]error, len(sqls))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows, _, err := base.Query(sqls[i])
				if err != nil {
					errs[i] = fmt.Errorf("reference for %q: %w", sqls[i], err)
					continue
				}
				qs[i] = &query{sql: sqls[i], ref: newReference(rows), streaming: w.streaming != nil && w.streaming(i)}
			}
		}()
	}
	for i := range sqls {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// bench is one invocation: a workload, its seed and its run length.
type bench struct {
	w    *workload
	seed int64
	dur  time.Duration
	prog *progress

	attempted, failed, wrong int
	firstErr                 error
}

func (b *bench) count(outs []outcome) {
	for _, o := range outs {
		b.attempted++
		if o.failed() {
			b.failed++
			if b.firstErr == nil {
				b.firstErr = o.err
			}
		}
		if o.wrong() {
			b.wrong++
		}
	}
}

// load runs one phase of the workload's own kind for dur.
func (b *bench) load(ctx context.Context, cls []client, pool []*query, rng *rand.Rand, dur time.Duration, tr *tracer) phase {
	if b.w.clients > 0 {
		return closedLoop(ctx, cls, b.w, pool, rng.Int63(), dur, tr, b.prog)
	}
	return openLoop(ctx, cls[0], b.w, pool, schedule(rng, b.w.rate, dur, b.w, len(pool)), dur, tr, b.prog)
}

func (b *bench) run(traced bool, spanFile string) (*result, error) {
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var setups []float64
	var r *rig
	for i := 0; i < rounds; i++ {
		ri, d, err := setUp(b.w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < rounds-1 {
			ri.tearDown()
			runtime.GC()
			continue
		}
		r = ri
	}
	defer r.tearDown()

	rng := rand.New(rand.NewSource(b.seed))
	pool, err := references(r, b.w, b.w.pool(rng))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cls := r.clients(b.w)
	// Warm up: caches fill and lazy set-up finishes before timing.
	b.count(b.load(ctx, cls, pool, rng, min(b.w.warmup, b.dur/2), nil).outs)

	metrics := map[string]metric{}
	if !traced {
		// A closed loop runs for the whole time. An open loop runs its
		// fixed rate for half of it, as the first step of the SLO
		// ladder, which needs the other half to climb from 20 q/s past
		// the rate this engine sustains on two cores.
		dur := b.dur
		if b.w.clients == 0 {
			dur = b.dur / 2
		}
		main := b.load(ctx, cls, pool, rng, dur, nil)
		b.count(main.outs)
		var slo float64
		if b.w.clients == 0 {
			var steps []ladderStep
			var outs []outcome
			slo, steps, outs = ladder(ctx, cls[0], b.w, pool, rng, evaluate(b.w.rate, main), stepDur, b.dur-dur, nil, b.prog)
			b.count(outs)
			for _, s := range steps {
				fmt.Fprintln(os.Stderr, "ladder:", s)
			}
		}
		endToEnd(main, b.w, setups, slo, metrics)
	} else {
		b.traceRun(ctx, r, cls, pool, rng, spanFile, metrics)
	}

	for _, x := range r.remotes {
		x.close()
	}
	inflight, outstanding := r.drained()
	if traced {
		metrics["vec.pool_outstanding_end"] = metric{float64(outstanding), "count"}
		metrics["failed_ratio"] = metric{ratio(float64(b.failed), float64(b.attempted)), "ratio"}
	}
	correct := b.wrong == 0 && inflight == 0 && outstanding == 0
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d queries failed (%d wrong results); first: %v\n", b.failed, b.attempted, b.wrong, b.firstErr)
	}
	if inflight != 0 || outstanding != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: after drain %d queries in flight, %d pooled batches outstanding\n", inflight, outstanding)
	}
	for k, v := range metrics {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			// JSON has no infinity: a latency a failed query made
			// infinite reads as 1e9 ms.
			v.Value = 1e9
			metrics[k] = v
		}
	}
	return &result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// traceSegments is how many alternating untraced and traced stretches
// a traced run is cut into. Alternating keeps a drift in the host's or
// the program's speed during the run out of the tracing overhead.
const traceSegments = 4

// traceRun measures the per-layer metrics. Counter-based metrics cover
// the whole run; span metrics come from the traced segments; the
// tracing overhead compares CPU per query between the two kinds of
// segment.
func (b *bench) traceRun(ctx context.Context, r *rig, cls []client, pool []*query, rng *rand.Rand, spanFile string, metrics map[string]metric) {
	tr := newTracer(1 << 18)
	stopSampler, depth := sampleQueue(r)
	var cpu, ok [2]float64 // [untraced, traced]
	var tracedOuts []outcome
	var lateMax time.Duration
	var inflightEnd int64
	var tails []float64
	start := takeSnapshot(r.eng, r.srv)
	for seg := 0; seg < traceSegments; seg++ {
		on := seg % 2
		var t *tracer
		if on == 1 {
			t = tr
		}
		c0 := cpuTime()
		ph := b.load(ctx, cls, pool, rng, b.dur/traceSegments, t)
		cpu[on] += float64(cpuTime() - c0)
		ok[on] += float64(completed(ph.outs))
		tails = append(tails, windowP95s(ph)...)
		b.count(ph.outs)
		if on == 1 {
			tracedOuts = append(tracedOuts, ph.outs...)
			lateMax = max(lateMax, ph.lateMax)
			inflightEnd = max(inflightEnd, ph.inflightEnd)
		}
	}
	end := takeSnapshot(r.eng, r.srv)
	stopSampler()
	layerMetrics(start, end, int(ok[0]+ok[1]), metrics)
	spanMetrics(tr, r.srv != nil, completed(tracedOuts), rowsOf(tracedOuts), metrics)
	plain, traced := ratio(cpu[0], ok[0]), ratio(cpu[1], ok[1])
	metrics["trace.overhead_pct"] = metric{100 * ratio(traced-plain, plain), "%"}
	metrics["latency_p95_ms"] = metric{median(tails), "ms"}
	metrics["admit.queue_depth_mean"] = metric{*depth, "count"}
	metrics["loadgen.late_max_ms"] = metric{ms(lateMax), "ms"}
	metrics["loadgen.inflight_end"] = metric{float64(inflightEnd), "count"}
	if err := tr.write(spanFile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}

// windowP95s returns each window's p95 latency. Their median is the
// tail latency, reported with the per-layer metrics: on the open loop a
// window holds about 50 queries, and across seeds its median spread
// 0.24–0.41 of its value, more than any end-to-end bound allows.
func windowP95s(ph phase) []float64 {
	var out []float64
	for _, st := range windows(ph) {
		if len(st.outs) == 0 {
			continue
		}
		lats := make([]float64, len(st.outs))
		for i, o := range st.outs {
			lats[i] = o.lat
		}
		out = append(out, quantile(lats, 0.95))
	}
	return out
}

func completed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.failed() {
			n++
		}
	}
	return n
}

func rowsOf(outs []outcome) int {
	n := 0
	for _, o := range outs {
		n += o.rows
	}
	return n
}

// endToEnd fills the metrics a user of the system sees. Rates,
// latency medians and CPU per query are computed per window and
// reported as the median over the windows, so a burst of interference
// on the host moves a minority of windows rather than the result. A
// failed query's latency is +Inf. An open loop's rate is over the
// whole phase (per window it would only echo the arrival count), and
// its slo_qps comes from the ladder; a closed loop's slo_qps is its
// rate of queries answered within sloLimit. Tail latency is not here
// but among the per-layer metrics (see tailLatency).
func endToEnd(ph phase, w *workload, setups []float64, slo float64, out map[string]metric) {
	var qps, good, p50, ttfr, cpu []float64
	for _, st := range windows(ph) {
		var lats, tt []float64
		nGood := 0
		for _, o := range st.outs {
			lats = append(lats, o.lat)
			if o.lat <= ms(sloLimit) {
				nGood++
			}
			if w.streaming == nil || o.streaming {
				tt = append(tt, o.ttfr)
			}
		}
		ok := completed(st.outs)
		if len(lats) == 0 {
			continue
		}
		qps = append(qps, float64(ok)/st.wall.Seconds())
		good = append(good, float64(nGood)/st.wall.Seconds())
		p50 = append(p50, median(lats))
		if len(tt) > 0 {
			ttfr = append(ttfr, median(tt))
		}
		if ok > 0 {
			cpu = append(cpu, ms(st.cpu)/float64(ok))
		}
	}
	fmt.Fprintf(os.Stderr, "windows: qps %.4g\nwindows: p50 %.4g\nwindows: p95 %.4g\nwindows: cpu %.4g\n", qps, p50, windowP95s(ph), cpu)
	rate := median(qps)
	if w.clients == 0 {
		rate = float64(completed(ph.outs)) / ph.elapsed.Seconds()
	} else {
		slo = median(good)
	}
	out["qps"] = metric{rate, "1/s"}
	out["latency_p50_ms"] = metric{median(p50), "ms"}
	out["ttfr_p50_ms"] = metric{median(ttfr), "ms"}
	out["cpu_ms_per_query"] = metric{median(cpu), "ms"}
	out["slo_qps"] = metric{slo, "1/s"}
	out["setup_s"] = metric{median(setups), "s"}
}

// spanMetrics derives the per-layer metrics that come from spans: the
// layer calls' latencies and each span name's self time per query.
func spanMetrics(tr *tracer, served bool, queries, rows int, out map[string]metric) {
	spans := tr.recorded()
	p50 := func(n spanName, unit time.Duration) float64 {
		d := durations(spans, n)
		if len(d) == 0 {
			return 0
		}
		return median(d) / float64(unit)
	}
	out["plan.build_us_p50"] = metric{p50(spPlan, time.Microsecond), "us"}
	out["core.first_row_ms_p50"] = metric{0, "ms"}
	out["serve.first_frame_ms_p50"] = metric{p50(spServe, time.Millisecond), "ms"}
	out["serve.stream_us_per_krow"] = metric{0, "us"}
	if served {
		var drain float64
		for _, d := range durations(spans, spDrain) {
			drain += d
		}
		out["serve.stream_us_per_krow"] = metric{ratio(drain/1e3, float64(rows)/1e3), "us"}
	} else {
		out["core.first_row_ms_p50"] = metric{p50(spFirstRow, time.Millisecond), "ms"}
	}
	self := selfTimes(spans)
	var sum [numSpanNames]float64
	for i, s := range spans {
		sum[s.name] += float64(self[i])
	}
	for n := spanName(0); n < numSpanNames; n++ {
		out["span."+n.String()+".self_ms_per_query"] = metric{ratio(sum[n]/1e6, float64(queries)), "ms"}
	}
	out["trace.spans_dropped"] = metric{float64(tr.dropped.Load()), "count"}
}

// sampleQueue samples the admission queue depth every 10ms until stop
// is called; the mean is readable after stop returns (0 when not
// served).
func sampleQueue(r *rig) (stop func(), mean *float64) {
	mean = new(float64)
	if r.srv == nil {
		return func() {}, mean
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var sum, n float64
		defer func() { *mean = ratio(sum, n) }()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sum += float64(r.srv.Admission().Queued())
				n++
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}, mean
}
