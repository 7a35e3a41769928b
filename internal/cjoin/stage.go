package cjoin

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sharedq/internal/catalog"
	"sharedq/internal/comm"
	"sharedq/internal/exec"
	"sharedq/internal/expr"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/qpipe"
	"sharedq/internal/vec"
)

// ErrClosed is returned by Submit after Close: the stage no longer
// admits queries.
var ErrClosed = errors.New("cjoin: stage is closed")

// Config tunes the CJOIN stage.
type Config struct {
	// PipelineThreads is the number of worker threads passing fact
	// tuples through the filter chain (the paper's horizontal
	// configuration). Default 4.
	PipelineThreads int
	// DistributorParts is the number of distributor-part threads. The
	// original CJOIN's single-threaded distributor is a bottleneck the
	// integration fixes by adding parts (§3.2); set 1 to reproduce the
	// bottleneck in the ablation benchmark. Default 4.
	DistributorParts int
	// SP enables Simultaneous Pipelining on the CJOIN stage (step WoP):
	// an identical star-query packet attaches as a satellite and never
	// enters the GQP (§3.3) — the CJOIN-SP configuration.
	SP bool
	// ScanPartitions is the number of partitioned preprocessor scanners:
	// the fact table's page list is split into that many contiguous
	// ranges, each cycled by its own scanner feeding the shared pipeline.
	// A query's admission window is tracked per partition, so it still
	// sees exactly one full circular pass over the whole table. It is a
	// starting point: skewed page weights make partition passes finish
	// at very different times, so an idle scanner may split the busiest
	// partition live (see MaxScanPartitions). Default: the environment's
	// parallelism (exec.Env.Workers).
	ScanPartitions int
	// MaxScanPartitions caps live partition splitting: an idle scanner
	// steals the unswept tail of the partition with the most pages left
	// in its cycle, spawning a new scanner for it, up to this many
	// partitions total. 0 defaults to twice the starting partition
	// count; negative disables splitting.
	MaxScanPartitions int
	// StragglerLagPages enables straggler detachment: a query whose
	// output port is full even after absorbing this many extra pages —
	// its consumer has fallen that far behind the shared pipeline — has
	// its admission window retracted instead of convoying every query in
	// the plan, and the stage re-derives its undelivered pages privately
	// into the same output stream. Results are identical; the global
	// pipeline returns to full speed. 0 disables (the paper's
	// stall-on-slow-consumer behavior).
	StragglerLagPages int
	// Ports configures the output communication model and sizes.
	Ports qpipe.PortConfig
}

func (c Config) withDefaults() Config {
	if c.PipelineThreads <= 0 {
		c.PipelineThreads = 4
	}
	if c.DistributorParts <= 0 {
		c.DistributorParts = 4
	}
	if c.Ports.PageRows <= 0 {
		c.Ports.PageRows = comm.DefaultPageRows
	}
	return c
}

// query is one admitted CJOIN packet.
type query struct {
	plan *plan.Query
	bit  int
	out  qpipe.OutPort
	myIn qpipe.InPort // the owner's reader, attached before admission
	sig  string

	// Per-partition admission window, guarded by stage.mu: the scanner
	// position each partition was at when the query was admitted, how
	// many of the partition's pages it has been shown, and whether its
	// window there is still open. The query has seen the whole fact
	// table exactly once when every partition's window has closed.
	entry     []int
	seen      []int
	open      []bool
	openParts int

	// outstanding counts the batches in flight carrying this query's
	// bit; only scanners increment it, under stage.mu, while the window
	// is open. Once done is set it only falls, so done with outstanding
	// at zero is final: no tuple anywhere carries the bit, and the query
	// settles (drained closes, then the output port).
	outstanding atomic.Int64
	done        atomic.Bool // circular window closed (completed or retracted)
	settled     atomic.Bool
	drained     chan struct{}
	cancelled   atomic.Bool // admission window retracted before completion

	// Straggler detachment (Config.StragglerLagPages): straggled flips
	// when the distributor cannot deliver to this query's output even
	// with elastic growth, and hands the output port to the private
	// continuation; detached claims the one-shot window retraction +
	// continuation; missed records the fact pages skipped between the
	// two (plus the refused page itself), which the continuation
	// re-derives.
	straggled atomic.Bool
	detached  atomic.Bool
	missMu    sync.Mutex
	missed    []int

	wopMu   sync.Mutex // guards started against satellite attachment
	started bool       // first output emitted; step WoP closed

	dimPos   []int // filter-chain position of each of the plan's dims
	factVec  expr.VecPred
	outKinds []pages.Kind // joined-schema layout of the query's output batches

	// qerr is an error scoped to this query alone (today: a panic
	// recovered while assembling its output — its own predicate kernel,
	// typically). The other queries sharing the batch are untouched.
	qerrMu sync.Mutex
	qerr   error
}

func (qq *query) fail(err error) {
	qq.qerrMu.Lock()
	if qq.qerr == nil {
		qq.qerr = err
	}
	qq.qerrMu.Unlock()
}

func (qq *query) Err() error {
	qq.qerrMu.Lock()
	defer qq.qerrMu.Unlock()
	return qq.qerr
}

// filter is one dimension's shared selection + shared hash join.
type filter struct {
	table      string
	dimKeyIdx  int
	factColIdx int
	ht         *dimTable
	ref        Bitmap // queries referencing this dimension
}

// batch is the unit flowing through the pipeline: a fact page's
// decoded column batch (shared with every other consumer of the page),
// per-tuple bitmaps, and the matched dimension rows per filter
// position.
type batch struct {
	facts   *vec.Batch
	idx     int // fact page index, for straggler miss accounting
	bms     []Bitmap
	dims    [][]pages.Row // [filter][tuple]
	queries []*query      // active queries at emission
}

// Stage is the CJOIN operator packaged as a QPipe stage: it accepts
// star-query packets and evaluates all of their joins on one shared
// pipeline.
type Stage struct {
	env   *exec.Env
	cfg   Config
	stats *metrics.CounterSet

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []*query
	active    []*query
	hosts     map[string]*query // SP registry (step WoP)
	nextBit   int
	freeBit   []int
	retiring  []*query // finished queries whose bits are not yet freed
	parts     []scanPart
	maxParts  int      // live-splitting bound on len(parts)
	admitDone []*query // completed at admission (no pages to show)
	closed    bool

	maxLag int // Config.StragglerLagPages
	//sharedq:counters robust
	robust *metrics.CounterSet // straggler/split counters (may be nil)

	filterMu sync.RWMutex
	filters  []*filter

	preQ   chan *batch
	distQ  chan *batch
	wg     sync.WaitGroup
	scanWG sync.WaitGroup // the partitioned scanners; closes preQ on drain

	admissionNanos atomic.Int64
	passFn         atomic.Value // func(), observer of circular-pass wraps
	errMu          sync.Mutex
	err            error
}

// OnPass registers fn to run each time a partitioned scanner wraps its
// circular page range — a pass boundary, the moment CJOIN admission
// windows naturally open and close. An admission controller uses it to
// align admission batches to pass boundaries. fn runs on a scanner
// goroutine outside the stage lock and must be fast and non-blocking;
// passing nil unregisters. Each wrap also bumps the cjoin_pass counter.
func (st *Stage) OnPass(fn func()) {
	st.passFn.Store(passHook{fn})
}

// passHook wraps the callback so atomic.Value tolerates storing nil.
type passHook struct{ fn func() }

// scanPart is one partitioned scanner's share of the fact table: a
// contiguous page range cycled circularly, plus the bits of the queries
// whose admission window is currently open in this partition. emitted
// is the partition's progress counter; the gap between partitions'
// remaining work is what live splitting levels out.
type scanPart struct {
	lo, hi  int // page range [lo, hi)
	pos     int // next page index to emit; guarded by stage.mu
	emitted int64
	mask    Bitmap
}

// NewStage creates and starts a CJOIN stage over env. Close must be
// called to stop its goroutines.
func NewStage(env *exec.Env, cfg Config) *Stage {
	cfg = cfg.withDefaults()
	if cfg.Ports.Col == nil {
		cfg.Ports.Col = env.Col
	}
	if cfg.Ports.Pool == nil {
		cfg.Ports.Pool = env.Recycle
	}
	st := &Stage{
		env:    env,
		cfg:    cfg,
		stats:  metrics.NewCounterSet(),
		hosts:  make(map[string]*query),
		preQ:   make(chan *batch, cfg.PipelineThreads*2),
		distQ:  make(chan *batch, cfg.DistributorParts*2),
		maxLag: cfg.StragglerLagPages,
	}
	if env.Guard != nil {
		st.robust = env.Guard.Counters
	}
	st.cond = sync.NewCond(&st.mu)

	// Partition the fact pages into contiguous ranges, one scanner each.
	nPages := 0
	if fact, ok := env.Cat.FactTable(); ok {
		nPages = fact.NumPages
	}
	nScan := cfg.ScanPartitions
	if nScan <= 0 {
		nScan = env.Workers()
	}
	if nScan > nPages {
		nScan = nPages
	}
	if nScan < 1 {
		nScan = 1
	}
	st.parts = make([]scanPart, nScan)
	for i := range st.parts {
		lo := i * nPages / nScan
		hi := (i + 1) * nPages / nScan
		st.parts[i] = scanPart{lo: lo, hi: hi, pos: lo}
	}
	switch {
	case cfg.MaxScanPartitions > 0:
		st.maxParts = cfg.MaxScanPartitions
	case cfg.MaxScanPartitions == 0:
		st.maxParts = 2 * nScan
	default:
		st.maxParts = nScan // splitting disabled
	}
	for i := range st.parts {
		st.wg.Add(1)
		st.scanWG.Add(1)
		go st.scanner(i)
	}
	go func() {
		st.scanWG.Wait()
		close(st.preQ)
	}()

	var filterWG sync.WaitGroup
	for i := 0; i < cfg.PipelineThreads; i++ {
		st.wg.Add(1)
		filterWG.Add(1)
		go func() {
			defer st.wg.Done()
			defer filterWG.Done()
			st.pipelineWorker()
		}()
	}
	go func() {
		filterWG.Wait()
		close(st.distQ)
	}()
	for i := 0; i < cfg.DistributorParts; i++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.distributorPart()
		}()
	}
	return st
}

// Close shuts the stage down gracefully: it stops admitting new
// queries (later Submits return ErrClosed), lets every in-flight query
// finish its circular admission window, and then waits for the
// scanners, pipeline workers and distributor parts to unwind. Safe to
// call more than once. Callers that cannot wait for in-flight queries
// cancel them first (SubmitCtx) — a cancelled query retracts its
// window immediately, so a cancel-then-Close shutdown is prompt.
func (st *Stage) Close() {
	st.mu.Lock()
	st.closed = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()
}

// Stats returns sharing and admission counters: cjoin_admitted,
// cjoin_batches (admission batches), cjoin_shared (SP satellites), and
// cjoin_fact_batches (fact column batches emitted by the preprocessor
// — the batch-pipeline unit the Table 2 harness compares across
// systems).
func (st *Stage) Stats() map[string]int64 { return st.stats.Snapshot() }

// AdmissionTime returns the cumulative time spent in admission phases
// (the "CJOIN Admission" series of Figure 11).
func (st *Stage) AdmissionTime() time.Duration {
	return time.Duration(st.admissionNanos.Load())
}

func (st *Stage) fail(err error) {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	if st.err == nil {
		st.err = err
	}
}

// Err returns the first asynchronous pipeline error.
func (st *Stage) Err() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.err
}

// Submit runs one star query through the global query plan and returns
// its output rows. Safe for concurrent use.
func (st *Stage) Submit(q *plan.Query) ([]pages.Row, error) {
	return st.SubmitCtx(context.Background(), q)
}

// SubmitCtx is Submit under a context. A cancelled or timed-out query
// retracts its admission window immediately — its bit is cleared from
// every partition mask so it stops gating the circular pass, its slot
// in the filter bitmaps is queued for retirement, and the distributor
// stops assembling output batches for it — and SubmitCtx returns
// ctx.Err(). An SP satellite whose host is cancelled mid-stream
// resubmits transparently (its truncated stream is discarded).
func (st *Stage) SubmitCtx(ctx context.Context, q *plan.Query) ([]pages.Row, error) {
	var out []pages.Row
	if err := st.SubmitStreamCtx(ctx, q, exec.CollectSink(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitStreamCtx is SubmitCtx with incremental delivery: the query's
// output batches are projected and handed to emit as the distributor
// produces them (aggregates and sorted queries emit one final chunk,
// see qpipe.DrainStream). An SP satellite cannot stream — it must see
// its host's complete, untruncated result before any row may be
// surfaced (an abandoned host forces a resubmit) — so satellites
// materialize first and then emit. An error return may follow chunks
// already emitted; the stream is complete only on a nil return.
func (st *Stage) SubmitStreamCtx(ctx context.Context, q *plan.Query, emit exec.RowSink) error {
	if !q.IsStarJoinable() {
		return fmt.Errorf("cjoin: %q is not a star query", q.SQL)
	}
	sig := q.JoinPrefixSignature(len(q.Dims) - 1)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return ErrClosed
		}
		if st.cfg.SP {
			if h, ok := st.hosts[sig]; ok {
				h.wopMu.Lock()
				if !h.started {
					// Step WoP open: the new packet is identical to an
					// admitted one — reuse its results and skip admission,
					// bitmap extension and redundant evaluation entirely
					// (§3.3).
					in := h.out.AddReader(true)
					h.wopMu.Unlock()
					st.mu.Unlock()
					stopWatch := context.AfterFunc(ctx, in.Abort)
					var rows []pages.Row
					derr := qpipe.DrainStream(st.env, q, in, exec.CollectSink(&rows))
					stopWatch()
					if err := ctx.Err(); err != nil {
						return err
					}
					if derr != nil {
						return derr
					}
					if h.cancelled.Load() {
						// The host was abandoned and its output stream is
						// truncated; run the query ourselves. No share
						// happened, so the counter stays untouched.
						continue
					}
					st.stats.Get("cjoin_shared").Inc()
					if err := st.Err(); err != nil {
						return err
					}
					return emit(rows)
				}
				h.wopMu.Unlock()
			}
		}
		qq := &query{
			plan:     q,
			out:      st.cfg.Ports.NewOutPort(),
			sig:      sig,
			factVec:  expr.CompileVecPred(q.FactPred),
			outKinds: vec.Kinds(q.JoinedSchema),
			drained:  make(chan struct{}),
		}
		qq.myIn = qq.out.AddReader(true)
		st.pending = append(st.pending, qq)
		if st.cfg.SP {
			st.hosts[sig] = qq
		}
		st.cond.Broadcast()
		st.mu.Unlock()

		stopWatch := context.AfterFunc(ctx, func() {
			st.retract(qq)
			qq.myIn.Abort()
		})
		derr := qpipe.DrainStream(st.env, q, qq.myIn, emit)
		stopWatch()
		st.unregister(qq)
		if err := ctx.Err(); err != nil {
			return err
		}
		if derr == nil {
			derr = qq.Err()
		}
		if derr != nil {
			// The query must not leave its admission window behind: a
			// panicked drain no longer consumes the output stream.
			st.retract(qq)
			return derr
		}
		return st.Err()
	}
}

func (st *Stage) unregister(qq *query) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.hosts[qq.sig] == qq {
		delete(st.hosts, qq.sig)
	}
}

// retract withdraws a cancelled query from the global plan: still-
// pending queries simply leave the queue; admitted ones close their
// remaining per-partition admission windows (clearing their bit from
// the partition masks so scanners stop emitting on their behalf) and
// queue their filter bit for retirement. Batches already in flight
// still carry the bit; the distributor skips assembling output for a
// cancelled query and its outstanding count drains as usual, settling
// it — and only then may an admission reuse the bit.
func (st *Stage) retract(qq *query) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, p := range st.pending {
		if p == qq {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			qq.cancelled.Store(true)
			if st.hosts[qq.sig] == qq {
				delete(st.hosts, qq.sig)
			}
			qq.done.Store(true)
			st.settle(qq)
			st.stats.Get("cjoin_retracted").Inc()
			return
		}
	}
	for i, a := range st.active {
		if a == qq {
			qq.cancelled.Store(true)
			if st.hosts[qq.sig] == qq {
				delete(st.hosts, qq.sig)
			}
			for pi := range qq.open {
				if qq.open[pi] {
					qq.open[pi] = false
					st.parts[pi].mask.Clear(qq.bit)
				}
			}
			qq.openParts = 0
			st.retiring = append(st.retiring, qq)
			st.active = append(st.active[:i], st.active[i+1:]...)
			qq.done.Store(true)
			if qq.outstanding.Load() == 0 {
				st.settle(qq)
			}
			st.stats.Get("cjoin_retracted").Inc()
			// Scanners idling on this query's windows re-check their
			// open sets (and the Close exit condition).
			st.cond.Broadcast()
			return
		}
	}
	// Already completed (or already retracted): nothing to withdraw.
}

// scanner is partition pi's preprocessor: it cycles the partition's
// page range, admits pending query batches between pages, and closes a
// query's window in this partition once its entry position comes up
// again. The union of all partitions' single circular passes shows each
// query every fact page exactly once — the original CJOIN admission-
// window semantics, with the scan itself fanned out across partitions.
func (st *Stage) scanner(pi int) {
	defer st.wg.Done()
	defer st.scanWG.Done()
	fact, _ := st.env.Cat.FactTable()
	for {
		st.mu.Lock()
		// Admission: one pause per batch of pending queries, performed
		// by whichever scanner reaches them first.
		if len(st.pending) > 0 {
			batchQ := st.pending
			st.pending = nil
			st.admit(batchQ)
		}
		p := &st.parts[pi]
		// Completion: queries whose entry position in this partition
		// comes up again have seen every one of its pages. A query whose
		// last partition window closes is fully done. Queries completed
		// trivially at admission are picked up here too.
		completed := st.admitDone
		st.admitDone = nil
		var open []*query
		for i := 0; i < len(st.active); {
			qq := st.active[i]
			if qq.open[pi] && qq.entry[pi] == p.pos && qq.seen[pi] > 0 {
				qq.open[pi] = false
				qq.openParts--
				p.mask.Clear(qq.bit)
				if qq.openParts == 0 {
					st.retiring = append(st.retiring, qq)
					st.active = append(st.active[:i], st.active[i+1:]...)
					qq.done.Store(true)
					completed = append(completed, qq)
					// Scanners idling on the exit condition re-check it.
					st.cond.Broadcast()
					continue
				}
			}
			if qq.open[pi] {
				open = append(open, qq)
			}
			i++
		}
		if len(open) == 0 {
			if st.closed && len(st.pending) == 0 && len(st.active) == 0 {
				st.mu.Unlock()
				st.finishQueries(completed)
				return
			}
			if len(completed) == 0 {
				// Idle: nothing to scan for in this partition. Before
				// sleeping, try to split the busiest partition's unswept
				// tail into a new one — skewed page weights leave some
				// partitions far behind while this scanner has nothing
				// to do. On a split, loop: another may be worth taking.
				if st.splitBusiestLocked() {
					st.mu.Unlock()
					continue
				}
				// Nothing to steal either. Sleep until a submission, an
				// admission by another scanner, or Close arrives.
				st.cond.Wait()
				st.mu.Unlock()
				continue
			}
			st.mu.Unlock()
			st.finishQueries(completed)
			continue
		}
		idx := p.pos
		wrapped := false
		p.emitted++
		if p.pos++; p.pos == p.hi {
			p.pos = p.lo
			wrapped = true
			st.stats.Get("cjoin_pass").Inc()
		}
		mask := p.mask.Clone()
		for _, qq := range open {
			qq.seen[pi]++
			qq.outstanding.Add(1)
		}
		st.mu.Unlock()
		if wrapped {
			if h, ok := st.passFn.Load().(passHook); ok && h.fn != nil {
				h.fn()
			}
		}
		st.finishQueries(completed)

		bat, err := st.readFactBatch(fact, idx)
		if err != nil {
			st.fail(err)
			st.mu.Lock()
			for _, qq := range st.active {
				for j := range qq.open {
					if qq.open[j] {
						qq.open[j] = false
						st.parts[j].mask.Clear(qq.bit)
					}
				}
				qq.openParts = 0
				st.retiring = append(st.retiring, qq)
				qq.done.Store(true)
				completed = append(completed, qq)
			}
			st.active = nil
			st.mu.Unlock()
			// The failed batch never ships: undo its outstanding claims,
			// or the open queries' output ports would never close and
			// their Submits would block forever. A query retracted since
			// the claim was taken is already done and out of st.active —
			// the sweep above won't see it, so the last claim dropped
			// here must settle it (mirroring distributorPart), or an
			// attached SP satellite drains it forever.
			for _, qq := range open {
				st.release(qq)
			}
			st.finishQueries(completed)
			continue
		}
		// Per-tuple bitmaps are carved out of one flat word arena (two
		// allocations per batch instead of one per fact tuple). Widths
		// are frozen at emission; the pipeline only mutates words in
		// place, so the carved slices never grow into each other.
		st.stats.Get("cjoin_fact_batches").Inc()
		b := &batch{facts: bat, idx: idx, bms: make([]Bitmap, bat.Len()), queries: open}
		if w := len(mask); w > 0 {
			flat := make([]uint64, w*bat.Len())
			for i := range b.bms {
				bm := flat[i*w : (i+1)*w : (i+1)*w]
				copy(bm, mask)
				b.bms[i] = Bitmap(bm)
			}
		}
		st.preQ <- b
	}
}

// readFactBatch reads one fact page for the preprocessor, converting a
// panic during fetch or decode into an error so the scanner's existing
// read-failure path (fail every open query, undo outstanding claims)
// handles it — no scanner goroutine dies holding admission state.
func (st *Stage) readFactBatch(t *catalog.Table, idx int) (b *vec.Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, exec.RecoverPanic(st.env, r)
		}
	}()
	return exec.ReadTableBatch(st.env, t, idx)
}

// minSplitPages is the smallest tail worth carving into a partition of
// its own: below this, spawning a scanner costs more than it levels.
const minSplitPages = 2

// splitBusiestLocked carves the unswept tail of the partition with the
// most pages left in its cycle into a new partition with its own
// scanner, so an idle scanner turns into progress on the heavy range.
// The split point mid is chosen past every open query's entry position
// in that partition, which keeps exactly-once delivery trivially
// intact: every open window either still needs the whole tail (entry
// at or before the partition's position — it gets a fresh one-pass
// window on the new partition) or none of it (entry between position
// and mid — its window stays wholly inside the shrunk partition).
// Reports whether a split happened. Caller holds st.mu.
func (st *Stage) splitBusiestLocked() bool {
	if len(st.parts) >= st.maxParts || len(st.active) == 0 {
		return false
	}
	// The busiest partition: most pages between its position and the
	// end of its range, among partitions some query's window is open in.
	openIn := make([]bool, len(st.parts))
	for _, qq := range st.active {
		for pi, o := range qq.open {
			if o {
				openIn[pi] = true
			}
		}
	}
	best, bestRem := -1, 2*minSplitPages-1
	for i := range st.parts {
		if !openIn[i] {
			continue
		}
		if rem := st.parts[i].hi - st.parts[i].pos; rem > bestRem {
			best, bestRem = i, rem
		}
	}
	if best < 0 {
		return false
	}
	p := &st.parts[best]
	mid := (p.pos + p.hi + 1) / 2
	// Entries strictly ahead of the position mark pages already seen
	// this cycle; the stolen tail must start past all of them (and past
	// the position itself) so no window needs a partial pass of it.
	for _, qq := range st.active {
		if qq.open[best] && qq.entry[best] > p.pos && qq.entry[best]+1 > mid {
			mid = qq.entry[best] + 1
		}
	}
	if mid <= p.pos {
		mid = p.pos + 1
	}
	if p.hi-mid < minSplitPages {
		return false
	}
	k := len(st.parts)
	st.parts = append(st.parts, scanPart{lo: mid, hi: p.hi, pos: mid})
	p = &st.parts[best] // re-take: append may have moved the backing array
	p.hi = mid
	np := &st.parts[k]
	for _, qq := range st.active {
		// A window still needing the tail (entry at or before pos, or a
		// freshly opened full-range window) moves that need to a fresh
		// one-pass window on the new partition.
		take := qq.open[best] && (qq.entry[best] < p.pos || qq.seen[best] == 0)
		qq.entry = append(qq.entry, mid)
		qq.seen = append(qq.seen, 0)
		qq.open = append(qq.open, take)
		if take {
			qq.openParts++
			np.mask = np.mask.Set(qq.bit)
		}
	}
	st.stats.Get("cjoin_partition_splits").Inc()
	st.robustInc("partition_splits")
	st.wg.Add(1)
	st.scanWG.Add(1)
	go st.scanner(k)
	return true
}

// robustInc bumps a fault-tolerance counter when the stage has a
// robust counter set wired (it shares the engine-wide set).
//
//sharedq:counterfn robust
func (st *Stage) robustInc(name string) {
	if st.robust != nil {
		st.robust.Get(name).Inc()
	}
}

// recordMiss notes a fact page the shared pipeline skipped for a
// straggled query; the private continuation re-derives it.
func (qq *query) recordMiss(idx int) {
	qq.missMu.Lock()
	qq.missed = append(qq.missed, idx)
	qq.missMu.Unlock()
}

// finishQueries settles completed queries that have no batches in
// flight; the releases of their last batches settle the rest.
func (st *Stage) finishQueries(qs []*query) {
	for _, qq := range qs {
		if qq.outstanding.Load() == 0 {
			st.settle(qq)
		}
	}
}

// release drops one in-flight batch claim on qq; the claim that takes
// a done query to zero settles it.
func (st *Stage) release(qq *query) {
	if qq.outstanding.Add(-1) == 0 && qq.done.Load() {
		st.settle(qq)
	}
}

// settle runs once per query, when it is done and its last in-flight
// batch has drained: it wakes a detached straggler's continuation and
// closes the output port — unless the query straggled, in which case
// the continuation owns the port and closes it. Whoever sets done and
// whoever drops the last claim may both get here; the flag elects one.
func (st *Stage) settle(qq *query) {
	if !qq.settled.CompareAndSwap(false, true) {
		return
	}
	close(qq.drained)
	if !qq.straggled.Load() {
		qq.out.Close()
	}
}

// admit performs the batched admission phase (§3.2): retire the bits
// of finished queries, assign bits, add or update filters by scanning
// the referenced dimension tables, and record each query's entry point
// on the circular fact scan. Caller holds st.mu.
//
// Admission does not drain the pipeline. A finished query's bit is
// freed only once its outstanding count is zero — no tuple in flight
// carries it — and until then stays reserved for a later admission. A
// freshly assigned bit is zero in every tuple emitted before it, and
// FilterAnd (b &= sel | ^ref) keeps a zero bit at zero, so batches
// already in flight pass unharmed through the filters mutated here.
// The only wait is for the filter write lock: the probes running at
// that moment finish, the rest of the pipeline keeps moving.
func (st *Stage) admit(qs []*query) {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		st.admissionNanos.Add(int64(d))
		st.env.Col.Add(metrics.Locks, d)
	}()
	st.stats.Get("cjoin_batches").Inc()

	st.filterMu.Lock()
	defer st.filterMu.Unlock()

	// Retire drained bits: clear them from every filter so they can be
	// reassigned without leaking the old query's selections.
	keep := st.retiring[:0]
	for _, qq := range st.retiring {
		if qq.outstanding.Load() > 0 {
			keep = append(keep, qq)
			continue
		}
		for _, f := range st.filters {
			f.ref.Clear(qq.bit)
			f.ht.clearBit(qq.bit)
		}
		st.freeBit = append(st.freeBit, qq.bit)
	}
	clear(st.retiring[len(keep):])
	st.retiring = keep

	for _, qq := range qs {
		if len(st.freeBit) > 0 {
			qq.bit = st.freeBit[len(st.freeBit)-1]
			st.freeBit = st.freeBit[:len(st.freeBit)-1]
		} else {
			qq.bit = st.nextBit
			st.nextBit++
		}
		// Open one admission window per scan partition at its current
		// position; the query completes when every window has wrapped.
		qq.entry = make([]int, len(st.parts))
		qq.seen = make([]int, len(st.parts))
		qq.open = make([]bool, len(st.parts))
		qq.openParts = 0
		for i := range st.parts {
			p := &st.parts[i]
			qq.entry[i] = p.pos
			if p.hi > p.lo {
				qq.open[i] = true
				qq.openParts++
				p.mask = p.mask.Set(qq.bit)
			}
		}
		qq.dimPos = make([]int, len(qq.plan.Dims))

		for di, d := range qq.plan.Dims {
			fi := st.findOrAddFilter(d)
			qq.dimPos[di] = fi
			f := st.filters[fi]
			f.ref = f.ref.Set(qq.bit)
			if err := st.updateFilter(f, d, qq.bit); err != nil {
				// Scoped to the admitting query: its filter selections are
				// suspect, so its results are discarded at SubmitCtx, but
				// the other queries' bits are untouched.
				qq.fail(err)
			}
		}
		if qq.openParts == 0 {
			// No partition has pages to show (empty fact table): the
			// window is trivially complete at admission.
			st.retiring = append(st.retiring, qq)
			qq.done.Store(true)
			st.admitDone = append(st.admitDone, qq)
		} else {
			st.active = append(st.active, qq)
		}
		st.stats.Get("cjoin_admitted").Inc()
	}
	// Other partitions' scanners may be idle; their open sets changed.
	st.cond.Broadcast()
}

func (st *Stage) findOrAddFilter(d plan.DimJoin) int {
	for i, f := range st.filters {
		if f.table == d.Table {
			return i
		}
	}
	st.filters = append(st.filters, &filter{
		table:      d.Table,
		dimKeyIdx:  d.DimKeyIdx,
		factColIdx: d.FactColIdx,
		ht:         newDimTable(1024),
	})
	return len(st.filters) - 1
}

// updateFilter scans the dimension table (admission cost (a)),
// evaluates the new query's predicate a whole batch at a time over the
// shared decoded pages (cost (b)) and sets the query's bit on selected
// rows, inserting rows as needed (costs (c), (d)).
func (st *Stage) updateFilter(f *filter, d plan.DimJoin, bit int) (err error) {
	// Admission runs under the stage and filter locks; a panicking
	// dimension-predicate kernel converts to an error here so admission
	// completes and the locks release in order.
	defer func() {
		if r := recover(); r != nil {
			err = exec.RecoverPanic(st.env, r)
		}
	}()
	t, err := st.env.Cat.Get(d.Table)
	if err != nil {
		return err
	}
	vpred := expr.CompileVecPred(d.Pred)
	var selBuf []int
	return exec.ScanTableBatches(st.env, t, func(b *vec.Batch) error {
		stop := st.env.Col.Timer(metrics.Joins)
		defer stop()
		sel := vec.FullSel(b.Len(), &selBuf)
		if vpred != nil {
			sel = vpred(b, sel)
		}
		for _, i := range sel {
			f.ht.setBit(b, f.dimKeyIdx, i, bit)
		}
		return nil
	})
}

// pipelineWorker passes batches through the filter chain: shared hash
// join probes over the raw fact key column plus bitmap ANDs, dropping
// tuples whose bitmaps empty.
func (st *Stage) pipelineWorker() {
	var sels []Bitmap // worker-local scratch, reused across batches
	for b := range st.preQ {
		if err := st.filterBatch(b, &sels); err != nil {
			// A panic mid-chain leaves the batch's bitmaps half-filtered:
			// kill every surviving tuple so no wrong rows ship, record
			// the failure, and still forward the batch — the distributor
			// must drain it to release its outstanding claims (and with
			// them query completion and bit retirement).
			st.fail(err)
			for i := range b.bms {
				b.bms[i] = nil
			}
		}
		st.distQ <- b
	}
}

// filterBatch passes one batch through the filter chain under the read
// lock, converting a panic into an error with the lock cleanly
// released.
func (st *Stage) filterBatch(b *batch, selsp *[]Bitmap) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.RecoverPanic(st.env, r)
		}
	}()
	sels := *selsp
	defer func() { *selsp = sels }()
	st.filterMu.RLock()
	defer st.filterMu.RUnlock()
	filters := st.filters
	n := b.facts.Len()
	// The matched-row table travels with the batch (distributor
	// parts read it after this worker moves on), so it cannot be
	// worker-local scratch; one flat arena backs every filter's row
	// slice to keep it at two allocations per batch.
	b.dims = make([][]pages.Row, len(filters))
	dimArena := make([]pages.Row, len(filters)*n)
	alive := n
	if cap(sels) < n {
		sels = make([]Bitmap, n)
	}
	sels = sels[:n]
	for fi, f := range filters {
		if alive == 0 {
			break
		}
		b.dims[fi] = dimArena[fi*n : (fi+1)*n : (fi+1)*n]
		kc := &b.facts.Cols[f.factColIdx]
		t0 := time.Now()
		if kc.Kind == pages.KindInt {
			keys := kc.I
			for ti := 0; ti < n; ti++ {
				if b.bms[ti] == nil {
					continue
				}
				b.dims[fi][ti], sels[ti] = f.ht.lookupInt(keys[ti])
			}
		} else {
			for ti := 0; ti < n; ti++ {
				if b.bms[ti] == nil {
					continue
				}
				b.dims[fi][ti], sels[ti] = f.ht.lookup(kc.Value(ti))
			}
		}
		st.env.Col.AddSince(metrics.Hashing, t0)
		t1 := time.Now()
		for ti := 0; ti < n; ti++ {
			if b.bms[ti] == nil {
				continue
			}
			if !b.bms[ti].FilterAnd(sels[ti], f.ref) {
				b.bms[ti] = nil
				alive--
			}
		}
		st.env.Col.AddSince(metrics.Joins, t1)
	}
	return nil
}

// distributorPart routes each batch's surviving tuples to the relevant
// queries: per query, it selects tuples with the query's bit, applies
// the query's fact predicate (CJOIN evaluates fact predicates on output
// tuples, §3.2), assembles rows in the query's joined-schema layout and
// emits them to the query's output buffer.
func (st *Stage) distributorPart() {
	var selBuf []int    // reused across batches and queries
	var failed []*query // queries whose delivery panicked this batch
	for b := range st.distQ {
		failed = failed[:0]
		for _, qq := range b.queries {
			var panicked bool
			selBuf, panicked = st.deliverContained(b, qq, selBuf)
			if panicked {
				failed = append(failed, qq)
			}
		}
		for _, qq := range b.queries {
			st.release(qq)
		}
		for _, qq := range failed {
			st.retract(qq)
		}
		// The CAS elects exactly one part to perform the straggler's
		// retract-and-continue handoff.
		for _, qq := range b.queries {
			if qq.straggled.Load() && qq.detached.CompareAndSwap(false, true) {
				st.detachStraggler(qq)
			}
		}
	}
}

// detachStraggler retracts a straggling query's remaining admission
// windows from the shared plan — the convoy resumes at full speed the
// moment its bit leaves the partition masks — and hands the query to a
// private continuation goroutine. The never-emitted remainder of each
// open window (circularly from the partition's position back to the
// query's entry) is computed here under the stage lock; pages that were
// in flight when the query straggled are on its miss list. The two sets
// are disjoint and together are exactly the pages the consumer has not
// been shown.
func (st *Stage) detachStraggler(qq *query) {
	st.mu.Lock()
	var unseen []comm.Arc
	for i, a := range st.active {
		if a != qq {
			continue
		}
		for pi := range qq.open {
			if !qq.open[pi] {
				continue
			}
			// A window with nothing shown yet sits at its entry and still
			// needs the whole range; one whose entry came up again with
			// pages shown has just completed.
			p := &st.parts[pi]
			unseen = append(unseen, comm.Arc{Lo: p.lo, Hi: p.hi, From: p.pos, To: qq.entry[pi], Full: qq.seen[pi] == 0})
			qq.open[pi] = false
			p.mask.Clear(qq.bit)
		}
		qq.openParts = 0
		st.retiring = append(st.retiring, qq)
		st.active = append(st.active[:i], st.active[i+1:]...)
		qq.done.Store(true)
		// Scanners idling on this query's windows re-check their open sets.
		st.cond.Broadcast()
		break
	}
	st.stats.Get("cjoin_straggler_detached").Inc()
	st.robustInc("straggler_detached")
	st.mu.Unlock()
	if qq.outstanding.Load() == 0 {
		// No claim left to release: this is the settling point.
		st.settle(qq)
	}
	st.wg.Add(1)
	go st.continueDetached(qq, unseen)
}

// continueDetached is a detached straggler's private continuation: it
// waits for the query to settle (the shared pipeline's last claim on it
// released, which completes the missed-page list), then re-derives
// every undelivered fact page — the recorded misses plus the unseen
// arcs of the retracted windows — through the query-centric fact
// pipeline with private hash joins, emitting into the same output port
// the shared plan was feeding. The joined layout (fact columns, then
// dimensions in plan order) is the one the shared distributor
// assembles, so the consumer observes one uninterrupted result stream
// with the same rows it would have received; only the producer changed
// underneath it. Blocking on the slow consumer's full port stalls only
// this goroutine.
func (st *Stage) continueDetached(qq *query, unseen []comm.Arc) {
	defer st.wg.Done()
	// settle leaves a straggled query's port open: this defer is its
	// sole closer.
	defer qq.out.Close()
	defer func() {
		if r := recover(); r != nil {
			qq.fail(exec.RecoverPanic(st.env, r))
		}
	}()
	<-qq.drained
	qq.missMu.Lock()
	todo := qq.missed
	qq.missed = nil
	qq.missMu.Unlock()
	for _, a := range unseen {
		todo = slices.AppendSeq(todo, a.Pages())
	}
	if qq.cancelled.Load() || len(todo) == 0 {
		return
	}
	// The continuation outlives the submitter's context by design: a
	// retraction shows up as qq.cancelled, checked above.
	ctx := context.Background()
	p, err := exec.NewFactPipeline(ctx, st.env, qq.plan)
	if err != nil {
		qq.fail(err)
		return
	}
	var s exec.FactScratch
	emit := func(b *vec.Batch, sel []int) error {
		out := b
		if len(sel) == b.Len() && b.Pooled() {
			// A pooled probe output: the port takes over a reference.
			b.Retain()
		} else {
			// Rows of a batch nobody owns (a shared decoded fact page):
			// gather the selected ones into an owned output batch.
			out = st.env.Recycle.Get(qq.outKinds, len(sel))
			for c := range out.Cols {
				b.Cols[c].GatherInto(&out.Cols[c], sel)
			}
			out.SetLen(len(sel))
		}
		qq.out.Emit(comm.NewBatchPage(out))
		return nil
	}
	for _, idx := range todo {
		if err := p.Page(ctx, st.env, idx, &s, emit); err != nil {
			qq.fail(err)
			return
		}
	}
}

// deliverContained is deliver under panic containment: a panicking
// kernel (the query's own fact predicate, typically) fails exactly that
// query — the caller retracts it once the batch's claims are released,
// closing its window, retiring its bit and ending its output port —
// while the batch's other queries receive their tuples normally and
// the outstanding protocol stays intact.
func (st *Stage) deliverContained(b *batch, qq *query, sel []int) (out []int, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			qq.fail(exec.RecoverPanic(st.env, r))
			out, panicked = sel, true
		}
	}()
	return st.deliver(b, qq, sel[:0]), false
}

// deliver routes batch b's surviving tuples to query qq; sel is the
// caller's reusable selection scratch, returned (possibly grown) for
// the next call.
func (st *Stage) deliver(b *batch, qq *query, sel []int) []int {
	if qq.cancelled.Load() {
		// Retracted mid-flight: nobody will read this query's output.
		return sel
	}
	if qq.straggled.Load() {
		// Detached mid-flight: the shared pipeline no longer assembles
		// output for this query. Its private continuation re-derives this
		// page once the batch's claim settles, so record it and move on.
		qq.recordMiss(b.idx)
		return sel
	}
	t0 := time.Now()
	// Select this query's surviving tuples, then apply its fact
	// predicate over the shared fact batch (CJOIN evaluates fact
	// predicates on output tuples, §3.2) — both vectorized.
	for ti, bm := range b.bms {
		if bm != nil && bm.Test(qq.bit) {
			sel = append(sel, ti)
		}
	}
	if qq.factVec != nil && len(sel) > 0 {
		sel = qq.factVec(b.facts, sel)
	}
	if len(sel) == 0 {
		st.env.Col.AddSince(metrics.Misc, t0)
		return sel
	}
	// Assemble the output batch in the query's joined-schema layout:
	// fact columns gathered from the shared batch, dimension columns
	// appended from the matched dimension rows. The batch is checked
	// out of the pool; emitting transfers ownership to the query's
	// output port, whose last reader releases it.
	out := st.env.Recycle.Get(qq.outKinds, len(sel))
	// If assembly panics below, the checkout must not leak; Emit is the
	// ownership hand-off, after which this defer sees no panic.
	defer func() {
		if r := recover(); r != nil {
			out.Release()
			panic(r)
		}
	}()
	nf := b.facts.NumCols()
	for c := 0; c < nf; c++ {
		b.facts.Cols[c].GatherInto(&out.Cols[c], sel)
	}
	col := nf
	for di, fi := range qq.dimPos {
		w := qq.plan.Dims[di].Schema.Len()
		for j := 0; j < w; j++ {
			// The dim rows were materialized from schema-typed batches,
			// so the output column kind is authoritative.
			vec.GatherRows(&out.Cols[col+j], b.dims[fi], j, sel)
		}
		col += w
	}
	out.SetLen(len(sel))
	st.env.Col.AddSince(metrics.Misc, t0)
	qq.wopMu.Lock()
	qq.started = true
	qq.wopMu.Unlock()
	pg := comm.NewBatchPage(out)
	if st.maxLag > 0 {
		if eo, ok := qq.out.(qpipe.ElasticOut); ok {
			if !eo.EmitGrow(pg, st.maxLag) {
				// The query's consumer is maxLag pages behind even after
				// elastic growth: a straggler. Refusal keeps page ownership
				// here — drop the batch, mark the query for detachment, and
				// record the page for private re-derivation. straggled is
				// set under the batch's outstanding claim, so settle sees
				// it and leaves the output port to the continuation.
				out.Release()
				qq.straggled.Store(true)
				qq.recordMiss(b.idx)
			}
			return sel
		}
	}
	qq.out.Emit(pg)
	return sel
}
