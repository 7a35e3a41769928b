package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"sharedq/internal/core"
	qmetrics "sharedq/internal/metrics"
	"sharedq/internal/serve"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; +Inf sorts last).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClock samples the process CPU time every period, from start to
// stop; consecutive samples bound one window of the end-to-end
// metrics.
type cpuClock struct {
	period time.Duration
	at     []time.Time
	cpu    []time.Duration
	done   chan struct{}
	wg     sync.WaitGroup
}

func startCPUClock(period time.Duration) *cpuClock {
	c := &cpuClock{period: period, at: []time.Time{time.Now()}, cpu: []time.Duration{cpuTime()}, done: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-tick.C:
				c.at = append(c.at, time.Now())
				c.cpu = append(c.cpu, cpuTime())
			}
		}
	}()
	return c
}

// stop ends sampling with a final sample. A last window shorter than
// half a period is merged into the one before it.
func (c *cpuClock) stop() {
	close(c.done)
	c.wg.Wait()
	now := time.Now()
	if n := len(c.at); n > 1 && now.Sub(c.at[n-1]) < c.period/2 {
		c.at, c.cpu = c.at[:n-1], c.cpu[:n-1]
	}
	c.at = append(c.at, now)
	c.cpu = append(c.cpu, cpuTime())
}

// stretch is the queries sent within one window and the CPU time the
// process used in it.
type stretch struct {
	outs []outcome
	wall time.Duration
	cpu  time.Duration
}

// windows cuts a phase into its clock's windows by each query's due
// time; queries due after the last boundary join the last window.
func windows(ph phase) []stretch {
	c := ph.clock
	ws := make([]stretch, len(c.at)-1)
	for i := range ws {
		ws[i].wall = c.at[i+1].Sub(c.at[i])
		ws[i].cpu = c.cpu[i+1] - c.cpu[i]
	}
	for _, o := range ph.outs {
		i := sort.Search(len(ws), func(k int) bool { return c.at[k+1].After(o.due) })
		i = min(i, len(ws)-1)
		ws[i].outs = append(ws[i].outs, o)
	}
	return ws
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot is every counter and busy time the layers export, read at
// one instant from outside; per-layer metrics are differences of two
// snapshots.
type snapshot struct {
	busy        map[qmetrics.Category]time.Duration
	counters    map[string]int64 // Engine.Stats: stage and robustness counters
	admissionNs int64
	cacheHits   int64
	cacheMisses int64
	poolReused  int64
	poolAlloc   int64
	serve       map[string]int64
	admit       map[string]int64
	rt          [3]float64
}

func takeSnapshot(eng *core.Engine, srv *serve.Server) snapshot {
	sys := eng.System()
	s := snapshot{
		busy:        sys.Col.Breakdown(),
		counters:    eng.Stats().Counters,
		admissionNs: eng.CJOINAdmissionTime(),
	}
	if bc := sys.Env.Batches; bc != nil {
		s.cacheHits, s.cacheMisses = bc.Stats()
	}
	s.poolReused, s.poolAlloc = sys.Env.Recycle.Stats()
	if srv != nil {
		s.serve = srv.Stats()
		s.admit = srv.Admission().Stats()
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	for i, r := range rs {
		switch r.Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(r.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = r.Value.Float64()
		}
	}
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sumPrefixed(m map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range m {
		if len(k) >= len(prefix)+len(suffix) && k[:len(prefix)] == prefix && k[len(k)-len(suffix):] == suffix {
			n += v
		}
	}
	return n
}

// layerMetrics derives the counter-based per-layer metrics from the
// snapshots around a measured window in which queries completed.
func layerMetrics(a, b snapshot, queries int, out map[string]metric) {
	q := float64(queries)
	d := func(m1, m0 map[string]int64, k string) float64 { return float64(m1[k] - m0[k]) }
	busyMs := func(c qmetrics.Category) float64 {
		return ratio(float64(b.busy[c]-a.busy[c])/1e6, q)
	}
	admitted := d(b.counters, a.counters, "cjoin_admitted")
	shared := d(b.counters, a.counters, "cjoin_shared")
	out["cjoin.admission_ms_per_query"] = metric{ratio(float64(b.admissionNs-a.admissionNs)/1e6, admitted), "ms"}
	out["cjoin.sp_shared_ratio"] = metric{ratio(shared, shared+admitted), "ratio"}
	out["cjoin.passes_per_query"] = metric{ratio(d(b.counters, a.counters, "cjoin_pass"), q), "count"}
	out["cjoin.fact_batches_per_query"] = metric{ratio(d(b.counters, a.counters, "cjoin_fact_batches"), q), "count"}

	scanShared := d(b.counters, a.counters, "scan_shared")
	scanStarted := d(b.counters, a.counters, "scan_started")
	out["qpipe.scan_share_ratio"] = metric{ratio(scanShared, scanShared+scanStarted), "ratio"}
	joinShared := float64(sumPrefixed(b.counters, "join", "_shared") - sumPrefixed(a.counters, "join", "_shared"))
	joinRun := float64(sumPrefixed(b.counters, "join", "_run") - sumPrefixed(a.counters, "join", "_run"))
	out["qpipe.join_share_ratio"] = metric{ratio(joinShared, joinShared+joinRun), "ratio"}

	out["comm.misc_busy_ms_per_query"] = metric{busyMs(qmetrics.Misc), "ms"}
	out["exec.scans_busy_ms_per_query"] = metric{busyMs(qmetrics.Scans), "ms"}
	out["exec.hashing_busy_ms_per_query"] = metric{busyMs(qmetrics.Hashing), "ms"}
	out["exec.joins_busy_ms_per_query"] = metric{busyMs(qmetrics.Joins), "ms"}
	out["exec.aggregation_busy_ms_per_query"] = metric{busyMs(qmetrics.Aggregation), "ms"}
	out["exec.locks_busy_ms_per_query"] = metric{busyMs(qmetrics.Locks), "ms"}
	out["exec.morsel_steals_per_query"] = metric{ratio(d(b.counters, a.counters, "morsel_steals"), q), "count"}

	hits, misses := float64(b.cacheHits-a.cacheHits), float64(b.cacheMisses-a.cacheMisses)
	out["heap.batch_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["heap.pages_decoded_per_query"] = metric{ratio(misses, q), "count"}

	reused, alloc := float64(b.poolReused-a.poolReused), float64(b.poolAlloc-a.poolAlloc)
	out["vec.pool_reuse_ratio"] = metric{ratio(reused, reused+alloc), "ratio"}
	out["go.alloc_mb_per_query"] = metric{ratio((b.rt[0]-a.rt[0])/(1<<20), q), "MB"}
	out["go.gc_cpu_fraction"] = metric{ratio(b.rt[1]-a.rt[1], b.rt[2]-a.rt[2]), "ratio"}

	out["admit.queued_per_query"] = metric{ratio(d(b.admit, a.admit, "admit_queued"), q), "count"}
	out["serve.frames_per_query"] = metric{ratio(d(b.serve, a.serve, "serve_frames"), q), "count"}
}
