package qpipe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sharedq/internal/comm"
	"sharedq/internal/exec"
	"sharedq/internal/expr"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/vec"
)

// ErrClosed is returned by Submit after Close: the engine no longer
// admits queries.
var ErrClosed = errors.New("qpipe: engine is closed")

// Config selects a QPipe engine configuration. The paper's lines map as:
//
//	QPipe      = {ShareScan: false, ShareJoin: false}
//	QPipe-CS   = {ShareScan: true,  ShareJoin: false}
//	QPipe-SP   = {ShareScan: true,  ShareJoin: true}
//
// each in either communication model (Comm). SP for aggregation and
// sort stages is deliberately absent, matching the paper's methodology
// ("SP for the aggregation and sorting stages is off ... to isolate the
// benefits of SP for joins only").
type Config struct {
	Comm      Comm
	ShareScan bool // circular scans at the table-scan stage (linear WoP)
	ShareJoin bool // sub-plan sharing at the join stage (step WoP)
	// ShareResults enables top-level SP for fully identical plans
	// (§3.1 "Identical queries"): a query identical to one in flight
	// waits for and reuses its final results instead of executing at
	// all — the maximum-benefit sharing case. Off in the paper's
	// sensitivity experiments (their methodology isolates join-level
	// SP), so off by default here too.
	ShareResults bool

	// SPLMaxPages bounds each Shared Pages List (default 8 pages = the
	// paper's 256 KB with 32 KB pages). FIFOCap likewise bounds FIFOs.
	SPLMaxPages int
	FIFOCap     int
	// PageRows sets rows per exchanged page (default ~32 KB worth).
	PageRows int
	// StragglerLagPages enables straggler detachment on shared circular
	// scans: a query falling this many pages behind its scan's fastest
	// reader is force-detached and migrated to a private continuation
	// delivering exactly its unseen pages — results are identical, and
	// one slow consumer never convoys the sharing group. The scan's
	// exchange buffer absorbs up to this many extra pages before the
	// detach triggers. 0 disables (detach-free, the paper's behavior).
	StragglerLagPages int
}

// Engine is a staged QPipe execution engine over a shared environment.
type Engine struct {
	env *exec.Env
	cfg Config
	pc  portConfig

	scan  *ScanStage
	stats *metrics.CounterSet

	joinMu    sync.Mutex
	joinHosts map[string]*joinHost

	resMu   sync.Mutex
	results map[string]*inflightResult

	// Submission lifecycle: SubmitCtx registers under subMu so Close
	// can refuse new work and drain in-flight submissions before it
	// waits on the packet/scanner groups (a submission past a bare
	// closed check could otherwise Add to a WaitGroup Close is already
	// Waiting on).
	subMu   sync.Mutex
	subCond *sync.Cond
	subs    int
	closed  bool
	joinWG  sync.WaitGroup // in-flight join packets (runJoin goroutines)
}

// inflightResult is a running query's promised final output, reusable
// by identical queries that arrive before it completes (full-plan step
// WoP: the final results are buffered and handed over wholly, so the
// window stays open for the host's entire run).
type inflightResult struct {
	done chan struct{}
	rows []pages.Row
	err  error
}

// joinHost is a join-stage packet registered for step-WoP sharing:
// satellites may attach until the host emits its first output page.
type joinHost struct {
	out     OutPort
	started bool // first output page emitted; WoP closed
	sig     string
	// up is the previous host in the hosting query's pipeline (nil when
	// the probe side comes straight from the scan stage). Satellites of
	// this host share the same upstream chain by construction — a step
	// WoP covers the whole plan prefix.
	up *joinHost

	// err is a failure scoped to this packet (a recovered panic, a dim
	// scan failure, a malformed page). It fails only the queries whose
	// pipeline passes through this host — concurrent queries sharing the
	// scan but not this sub-plan complete normally.
	errMu sync.Mutex
	err   error
	// scanErrs are the error slots of the scan attachments feeding this
	// packet directly (the fact scan for the chain's first host). They
	// are per-scan, not engine-wide, so a bad page fails exactly the
	// queries that were reading that scan.
	scanErrs []*scanErr
}

// fail records the host's first packet-scoped error.
func (h *joinHost) fail(err error) {
	h.errMu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.errMu.Unlock()
}

// addScanErr registers a scan attachment's error slot with the host.
// Guarded by errMu because satellites may already be walking the chain.
func (h *joinHost) addScanErr(se *scanErr) {
	h.errMu.Lock()
	h.scanErrs = append(h.scanErrs, se)
	h.errMu.Unlock()
}

// chainErr returns the first error along the host chain ending here —
// packet errors and the errors of the scans feeding each packet.
// A nil receiver (no joins in the pipeline) reports nil.
func (h *joinHost) chainErr() error {
	for ; h != nil; h = h.up {
		h.errMu.Lock()
		err := h.err
		if err == nil {
			for _, se := range h.scanErrs {
				if serr := se.Err(); serr != nil {
					err = serr
					break
				}
			}
		}
		h.errMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// New creates an engine.
func New(env *exec.Env, cfg Config) *Engine {
	e := &Engine{
		env:       env,
		cfg:       cfg,
		stats:     metrics.NewCounterSet(),
		joinHosts: make(map[string]*joinHost),
		results:   make(map[string]*inflightResult),
	}
	e.subCond = sync.NewCond(&e.subMu)
	e.pc = PortConfig{
		Model:    cfg.Comm,
		SPLMax:   cfg.SPLMaxPages,
		FIFOCap:  cfg.FIFOCap,
		PageRows: cfg.PageRows,
		Col:      env.Col,
		Pool:     env.Recycle,
	}
	if e.pc.PageRows <= 0 {
		e.pc.PageRows = comm.DefaultPageRows
	}
	// Only the scan stage gets the straggler policy: its detached
	// readers have a private continuation to migrate to. Join ports
	// keep plain blocking backpressure.
	spc := e.pc
	if cfg.StragglerLagPages > 0 {
		spc.MaxLag = cfg.StragglerLagPages
		if env.Guard != nil {
			spc.Robust = env.Guard.Counters
		}
	}
	e.scan = NewScanStage(env, spc, cfg.ShareScan, e.stats)
	return e
}

// Stats exposes the engine's sharing counters: scan_shared,
// scan_started, join<i>_shared, join<i>_run — the numbers behind the
// Fig 15 sharing-opportunity table.
func (e *Engine) Stats() map[string]int64 { return e.stats.Snapshot() }

// Env returns the engine's execution environment.
func (e *Engine) Env() *exec.Env { return e.env }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Submit executes one planned query to completion and returns its
// output rows. It is safe to call concurrently from many goroutines;
// concurrent submissions are where sharing happens.
func (e *Engine) Submit(q *plan.Query) ([]pages.Row, error) {
	return e.SubmitCtx(context.Background(), q)
}

// SubmitCtx is Submit under a context. Cancellation aborts the query's
// final reader (unblocking a backpressured pipeline), which cascades
// up through the join packets and scan attachments: a join host whose
// output loses its last reader cancels its own inputs, and a circular
// scan whose readers all detach stops and unregisters. A cancelled
// query returns ctx.Err(); join packets it hosted keep running only
// while satellites are still attached to them.
func (e *Engine) SubmitCtx(ctx context.Context, q *plan.Query) ([]pages.Row, error) {
	var out []pages.Row
	if err := e.SubmitStreamCtx(ctx, q, exec.CollectSink(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitStreamCtx is SubmitCtx with incremental delivery: result rows
// are handed to emit chunk by chunk as the pipeline's final port
// drains (one chunk per exchanged page for plain projections;
// aggregates and sorted queries emit one final chunk, see
// DrainStream). An error return may follow chunks already emitted —
// the stream is only complete when SubmitStreamCtx returns nil.
func (e *Engine) SubmitStreamCtx(ctx context.Context, q *plan.Query, emit exec.RowSink) error {
	e.subMu.Lock()
	if e.closed {
		e.subMu.Unlock()
		return ErrClosed
	}
	e.subs++
	e.subMu.Unlock()
	defer func() {
		e.subMu.Lock()
		e.subs--
		if e.subs == 0 {
			e.subCond.Broadcast()
		}
		e.subMu.Unlock()
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	var host *inflightResult
	if e.cfg.ShareResults {
		sig := q.Signature()
		for host == nil {
			e.resMu.Lock()
			r, ok := e.results[sig]
			if !ok {
				host = &inflightResult{done: make(chan struct{})}
				e.results[sig] = host
				e.resMu.Unlock()
				break
			}
			e.resMu.Unlock()
			// Identical plan in flight: wait and reuse (§3.1).
			select {
			case <-r.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
				// The host was abandoned, not failed: its results never
				// materialized. Take the host role ourselves (or attach
				// to whichever query claimed it meanwhile). No share
				// happened, so the counter stays untouched.
				continue
			}
			e.stats.Get("result_shared").Inc()
			if r.err != nil {
				return r.err
			}
			return emit(r.rows)
		}
		defer func() {
			e.resMu.Lock()
			delete(e.results, sig)
			e.resMu.Unlock()
			close(host.done)
		}()
	}

	port, errFn, err := e.buildPipeline(q)
	if err != nil {
		if host != nil {
			host.err = err
		}
		return err
	}
	// The context watcher aborts the final reader; the Abort is safe
	// concurrent with the drain below and a no-op once the drain ends.
	stopWatch := context.AfterFunc(ctx, port.Abort)
	var rows []pages.Row
	sink := emit
	if host != nil {
		// A result-sharing host must materialize: satellites that attach
		// while this query runs reuse the complete result set.
		sink = exec.CollectSink(&rows)
	}
	err = DrainStream(e.env, q, port, sink)
	stopWatch()
	if cerr := ctx.Err(); cerr != nil {
		if host != nil {
			host.err = cerr
		}
		return cerr
	}
	if err == nil {
		// A failure in this query's pipeline — a panic recovered inside
		// a join packet, a scan that died on a bad page — fails exactly
		// the queries whose pipeline runs through that chain, never the
		// unrelated queries sharing the engine.
		err = errFn()
	}
	if host != nil {
		host.rows, host.err = rows, err
		if err == nil {
			err = emit(rows)
		}
	}
	return err
}

// Close shuts the engine down gracefully: new submissions are refused
// with ErrClosed, in-flight ones drain (cancel them through their
// contexts for a prompt shutdown), and then Close waits for every join
// packet and scanner to unwind. Safe to call concurrently with
// SubmitCtx and more than once.
func (e *Engine) Close() {
	e.subMu.Lock()
	e.closed = true
	for e.subs > 0 {
		e.subCond.Wait()
	}
	e.subMu.Unlock()
	e.joinWG.Wait()
	e.scan.Close()
}

// buildPipeline wires the packet graph for q bottom-up and returns the
// port delivering joined (or raw, for single-table plans) pages, plus
// an error function reporting the first failure scoped to this query's
// pipeline (its host chain and the scans feeding it).
func (e *Engine) buildPipeline(q *plan.Query) (InPort, func() error, error) {
	// Fact scan through the scan stage (shared circular scan when on).
	probe, factErr := e.scan.Attach(q.Fact)
	var last *joinHost // tail of this query's host chain

	for i := range q.Dims {
		isFirst := i == 0
		sig := q.JoinPrefixSignature(i)

		e.joinMu.Lock()
		if e.cfg.ShareJoin {
			if h, ok := e.joinHosts[sig]; ok && !h.started {
				// Step WoP open: attach as satellite. The redundant
				// probe input is cancelled; this packet's plan prefix
				// is evaluated once, by the host (whose chain carries
				// the host's own scan-error slots).
				out := h.out.AddReader(true)
				e.joinMu.Unlock()
				probe.Cancel()
				probe = out
				last = h
				e.stats.Get(fmt.Sprintf("join%d_shared", i)).Inc()
				continue
			}
		}
		// Host path: run the join.
		h := &joinHost{out: e.pc.newOutPort(), sig: sig, up: last}
		if e.cfg.ShareJoin {
			e.joinHosts[sig] = h
		}
		e.joinMu.Unlock()
		e.stats.Get(fmt.Sprintf("join%d_run", i)).Inc()

		if isFirst {
			// The chain's first host consumes the fact scan directly; a
			// fact-scan failure must fail the chain, not end it silently
			// short.
			h.addScanErr(factErr)
		}
		dimIn, dimErr := e.scan.Attach(e.env.Cat.MustGet(q.Dims[i].Table))
		myOut := h.out.AddReader(true)
		var factPred expr.Expr
		if isFirst {
			factPred = q.FactPred
		}
		e.joinWG.Add(1)
		go e.runJoin(q.Dims[i], factPred, probe, dimIn, dimErr, h)
		probe = myOut
		last = h
	}
	if last == nil {
		// Single-table plan: the query drains the fact scan itself.
		return probe, factErr.Err, nil
	}
	return probe, last.chainErr, nil
}

// abandoned reports whether every reader of a join host's output has
// gone away — the packet's work benefits nobody and it should tear
// down. The recheck happens under the attach lock with the WoP closed
// first, so a satellite can never attach to a packet that has decided
// to die: either it attaches before the check (the packet sees a
// reader and keeps running) or it finds started=true and hosts its own
// join.
func (e *Engine) abandoned(h *joinHost) bool {
	if h.out.ActiveReaders() > 0 {
		return false
	}
	e.joinMu.Lock()
	defer e.joinMu.Unlock()
	if h.out.ActiveReaders() > 0 {
		return false
	}
	h.started = true
	return true
}

// runJoin executes one hash-join packet: build the columnar join side
// from the dimension scan, then probe the incoming batch stream with
// the vectorized kernels, emitting joined column batches (one output
// page per probed input page).
func (e *Engine) runJoin(d plan.DimJoin, factPred expr.Expr, probe, dimIn InPort, dimErr *scanErr, h *joinHost) {
	defer e.joinWG.Done()
	defer func() {
		h.out.Close()
		e.unregister(h)
	}()
	var pend *vec.Batch
	// Panic containment: a panicking kernel (the poisoned query's
	// predicate, typically) fails this host — and with it every query
	// whose pipeline passes through it — not the process or the other
	// queries on the engine. The in-flight output batch is released and
	// both input attachments cancel, detaching the packet from the
	// shared scans; the Close defer above then ends the output stream so
	// downstream readers unblock and read the host error.
	defer func() {
		if r := recover(); r != nil {
			h.fail(exec.RecoverPanic(e.env, r))
			pend.Release()
			probe.Cancel()
			dimIn.Cancel()
		}
	}()

	// Build phase: consume the dimension scan, filter, insert.
	bj := exec.NewBatchJoin(d, 1024)
	vpred := expr.CompileVecPred(d.Pred)
	var selBuf []int
	for {
		if e.abandoned(h) {
			// Every reader (the hosting query, any satellites) detached:
			// stop building and release the scan attachments.
			dimIn.Cancel()
			probe.Cancel()
			return
		}
		p, ok := dimIn.Next()
		if !ok {
			break
		}
		in, err := pageBatch(p)
		if err != nil {
			h.fail(err)
			continue
		}
		if in == nil {
			continue
		}
		t0 := time.Now()
		sel := vec.FullSel(in.Len(), &selBuf)
		if vpred != nil {
			sel = vpred(in, sel)
		}
		e.env.Col.AddSince(metrics.Joins, t0)
		t1 := time.Now()
		bj.Add(in, sel)
		e.env.Col.AddSince(metrics.Hashing, t1)
	}
	if err := dimErr.Err(); err != nil {
		// The dimension scan died partway: the hash table is partial and
		// probing it would emit silently wrong rows to every attached
		// query. Fail the packet and tear down instead.
		h.fail(err)
		probe.Cancel()
		return
	}

	// Probe phase. Joined rows are re-paged into ~PageRows-row batches
	// (coalescing under-filled outputs of selective joins, splitting
	// oversized fan-outs) so exchange pages keep the 32 KB granularity
	// the FIFO/SPL copy-cost comparison models — the batch counterpart
	// of the old comm.Builder. Probe outputs and re-paged pages are
	// checked out of the batch pool; emitting transfers ownership to the
	// port (the last reader releases), and probe inputs are owned by the
	// upstream port, which releases them on the next call to Next.
	factVec := expr.CompileVecPred(factPred)
	var ps exec.ProbeScratch
	pageRows := e.pc.PageRows
	var pendKinds []pages.Kind // joined layout, computed once
	for {
		if e.abandoned(h) {
			pend.Release()
			probe.Cancel()
			return
		}
		p, ok := probe.Next()
		if !ok {
			break
		}
		in, err := pageBatch(p)
		if err != nil {
			h.fail(err)
			continue
		}
		if in == nil {
			continue
		}
		sel := vec.FullSel(in.Len(), &selBuf)
		if factVec != nil {
			t0 := time.Now()
			sel = factVec(in, sel)
			e.env.Col.AddSince(metrics.Joins, t0)
		}
		if len(sel) == 0 {
			continue
		}
		joined := bj.Probe(e.env, in, sel, &ps)
		if pend == nil && joined.Len() == pageRows {
			// Aligned full page: forward without copying.
			e.emitJoin(h, comm.NewBatchPage(joined))
			continue
		}
		for off := 0; off < joined.Len(); {
			if pend == nil {
				if pendKinds == nil {
					pendKinds = joined.Kinds()
				}
				pend = e.env.Recycle.Get(pendKinds, pageRows) //sharedq:owns flushed via emitJoin when full or at loop exit; empty remainder released below
			}
			take := pageRows - pend.Len()
			if rest := joined.Len() - off; rest < take {
				take = rest
			}
			pend.AppendRange(joined, off, off+take)
			off += take
			if pend.Len() == pageRows {
				e.emitJoin(h, comm.NewBatchPage(pend))
				pend = nil
			}
		}
		joined.Release()
	}
	if pend != nil {
		if pend.Len() > 0 {
			e.emitJoin(h, comm.NewBatchPage(pend))
		} else {
			// A pending batch never receives zero rows today, but if the
			// append logic ever changes, dropping it here would leak a
			// pool checkout; return it instead.
			pend.Release()
		}
	}
}

// pageBatch returns a page's payload as a column batch: the batch
// itself, a conversion of its rows, nil for an empty page, or an error
// when non-empty rows cannot be represented columnar — a malformed
// page must fail the query, not silently drop tuples.
func pageBatch(p *comm.Page) (*vec.Batch, error) {
	if p.Batch != nil {
		return p.Batch, nil
	}
	if len(p.Rows) == 0 {
		return nil, nil
	}
	b := vec.FromRows(p.Rows)
	if b == nil {
		return nil, fmt.Errorf("qpipe: page of %d rows is not uniformly typed", len(p.Rows))
	}
	return b, nil
}

// emitJoin closes the step WoP on the first output page, then emits.
func (e *Engine) emitJoin(h *joinHost, p *comm.Page) {
	if !h.started {
		e.joinMu.Lock()
		h.started = true
		e.joinMu.Unlock()
	}
	h.out.Emit(p)
}

// unregister removes a completed host from the sharing registry (only
// if the registry still points at it; a newer identical packet may have
// replaced it after the WoP closed).
func (e *Engine) unregister(h *joinHost) {
	if !e.cfg.ShareJoin {
		return
	}
	e.joinMu.Lock()
	defer e.joinMu.Unlock()
	if e.joinHosts[h.sig] == h {
		delete(e.joinHosts, h.sig)
	}
}

// DrainStream consumes a port delivering joined (or raw, for
// single-table plans) pages and applies the per-query tail through an
// exec.ResultSink: fact-predicate filtering for plans with no joins
// (otherwise the predicate is applied upstream), aggregation or
// projection, sort and limit. Column-batch pages flow through the
// vectorized kernels; row pages through the row-at-a-time operators.
// A plain projection (no aggregate, no ORDER BY, no LIMIT) emits one
// chunk per drained page, so rows reach the sink while upstream packets
// are still producing and no full result set is buffered anywhere;
// aggregations and sorted or limited queries are inherently blocking
// and emit a single final chunk. A sink error cancels the port
// (detaching from shared producers) and is returned, and so does a
// panic in the tail or in emit, as a per-query *exec.PanicError. It is
// shared by the QPipe engine and the CJOIN stage (whose subsequent
// operators are query-centric, §3.2); collecting the whole result is
// DrainStream into an exec.CollectSink.
func DrainStream(env *exec.Env, q *plan.Query, in InPort, emit exec.RowSink) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.RecoverPanic(env, r)
			in.Cancel()
		}
	}()
	sink := exec.NewResultSink(q, env.Col, emit)
	var factFn expr.Pred
	var factVec expr.VecPred
	if len(q.Dims) == 0 {
		factFn = expr.CompilePred(q.FactPred)
		factVec = expr.CompileVecPred(q.FactPred)
	}
	var selBuf []int
	for {
		p, ok := in.Next()
		if !ok {
			return sink.Close()
		}
		if b := p.Batch; b != nil {
			sel := vec.FullSel(b.Len(), &selBuf)
			if factVec != nil {
				t0 := time.Now()
				sel = factVec(b, sel)
				env.Col.AddSince(metrics.Misc, t0)
			}
			if len(sel) > 0 {
				err = sink.Batch(b, sel)
			}
		} else {
			rows := p.Rows
			if factFn != nil {
				stop := env.Col.Timer(metrics.Misc)
				rows = exec.FilterRowsPred(rows, factFn)
				stop()
			}
			if len(rows) > 0 {
				err = sink.Rows(rows)
			}
		}
		if err != nil {
			in.Cancel()
			return err
		}
	}
}
