package qpipe

import (
	"sync"
	"sync/atomic"

	"sharedq/internal/catalog"
	"sharedq/internal/comm"
	"sharedq/internal/exec"
	"sharedq/internal/metrics"
	"sharedq/internal/vec"
)

// ScanStage is the table-scan stage. With sharing enabled it runs one
// circular scan per table (the linear WoP of §2.2): the first packet
// for a table starts a scanner; later packets attach mid-scan and
// receive the missed prefix after the scanner wraps around. Without
// sharing, every packet runs a private front-to-back scan — the
// query-centric model whose scanner threads contend for the buffer
// pool and the device.
type ScanStage struct {
	env   *exec.Env
	pc    portConfig
	share bool
	stats *metrics.CounterSet

	mu       sync.Mutex
	scanners map[string]*scanner

	// wg tracks every goroutine the stage spawns (private scanners and
	// their fetch workers, circular scanners and their prefetchers) so
	// Close can wait for all of them to unwind.
	wg sync.WaitGroup
}

// NewScanStage creates the stage.
func NewScanStage(env *exec.Env, pc portConfig, share bool, stats *metrics.CounterSet) *ScanStage {
	return &ScanStage{
		env:      env,
		pc:       pc,
		share:    share,
		stats:    stats,
		scanners: make(map[string]*scanner),
	}
}

// scanErr is one scan generation's failure slot, shared by exactly the
// queries attached to that scan: a read error (or recovered panic)
// fails them and nobody else — the engine-wide error of the earlier
// design poisoned every in-flight query on the first bad page of any
// table. First error wins. A slot may chain to a fallback (a detachable
// reader's per-query slot falls back to the shared scan's): the
// fallback applies while the query still depends on that scan and is
// dropped when a straggler detach migrates the query to its own
// continuation, whose failures are recorded directly.
type scanErr struct {
	mu       sync.Mutex
	err      error
	fallback *scanErr
}

func (s *scanErr) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// dropFallback detaches the slot from the shared scan's slot: errors on
// pages the query will never be sent no longer apply to it.
func (s *scanErr) dropFallback() {
	s.mu.Lock()
	s.fallback = nil
	s.mu.Unlock()
}

// Err returns the scan's error, if any. Nil receivers report nil.
func (s *scanErr) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	err, fb := s.err, s.fallback
	s.mu.Unlock()
	if err == nil && fb != nil {
		return fb.Err()
	}
	return err
}

type scanner struct {
	table *catalog.Table
	out   OutPort
	se    *scanErr
	next  int // next page index to emit; guarded by stage.mu
}

// Attach returns an input port delivering the full content of table t
// exactly once (as pages tagged with their table page index), plus the
// error slot for that scan: when the stream ends early on a read
// failure, the slot carries the error to every attached query.
func (st *ScanStage) Attach(t *catalog.Table) (InPort, *scanErr) {
	if t.NumPages == 0 {
		out := st.privatePort()
		in := out.AddReader(false)
		out.Close()
		return in, &scanErr{}
	}
	if !st.share {
		out := st.privatePort()
		in := out.AddReader(false)
		se := &scanErr{}
		st.wg.Add(1)
		go st.privateScan(t, out, se)
		return in, se
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sc, ok := st.scanners[t.Name]; ok {
		st.stats.Get("scan_shared").Inc()
		return st.sharedReader(sc)
	}
	sc := &scanner{table: t, out: st.pc.newOutPort(), se: &scanErr{}}
	st.scanners[t.Name] = sc
	st.stats.Get("scan_started").Inc()
	in, se := st.sharedReader(sc)
	st.wg.Add(1)
	go st.circularScan(sc)
	return in, se
}

// privatePort builds an output port without the straggler policy:
// private scans and continuations have a single reader, which plain
// blocking backpressure handles — there is no convoy to protect.
func (st *ScanStage) privatePort() OutPort {
	pc := st.pc
	pc.MaxLag = 0
	return pc.newOutPort()
}

// sharedReader attaches one query to a circular scan. With a straggler
// policy configured, the reader is wrapped so a force-detach migrates
// it transparently to a private continuation, and its error slot falls
// back to the shared scan's only while the query still depends on that
// scan. Caller holds st.mu.
func (st *ScanStage) sharedReader(sc *scanner) (InPort, *scanErr) {
	in := sc.out.AddReader(false)
	if st.pc.MaxLag <= 0 {
		return in, sc.se
	}
	qse := &scanErr{fallback: sc.se}
	return &detachIn{st: st, t: sc.table, se: qse, in: in}, qse
}

// detachIn adapts a shared-scan reader so straggler detachment is
// invisible to the consumer: when the shared port force-detaches the
// reader mid-pass, the wrapper migrates to a private continuation scan
// delivering exactly the pages the reader had not yet received, in the
// order the circular scan would have sent them — the consumer observes
// one complete, bit-identical pass either way.
type detachIn struct {
	st *ScanStage
	t  *catalog.Table
	se *scanErr

	mu      sync.Mutex // guards the source swap against Abort
	in      InPort
	aborted bool
}

func (d *detachIn) src() InPort {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.in
}

func (d *detachIn) Next() (*comm.Page, bool) {
	for {
		in := d.src()
		p, ok := in.Next()
		if ok {
			return p, true
		}
		s, isStraggler := in.(straggler)
		if !isStraggler {
			return nil, false
		}
		resume, entry, straggled := s.Straggled()
		if !straggled || resume < 0 || entry < 0 {
			return nil, false // finished normally (or cancelled)
		}
		if !d.migrate(resume, entry) {
			return nil, false // aborted while migrating
		}
	}
}

// migrate swaps the source to a freshly started private continuation
// covering [resume, entry) mod N. Reports false when the query was
// aborted instead.
func (d *detachIn) migrate(resume, entry int) bool {
	out := d.st.privatePort()
	in := out.AddReader(false)
	d.mu.Lock()
	if d.aborted {
		d.mu.Unlock()
		out.Close()
		in.Cancel()
		return false
	}
	d.in = in
	d.mu.Unlock()
	// From here on only the continuation feeds this query; errors on
	// pages the shared scan will never send it no longer apply.
	d.se.dropFallback()
	d.st.wg.Add(1)
	go d.st.continueScan(d.t, resume, entry, out, d.se)
	return true
}

func (d *detachIn) Cancel() { d.src().Cancel() }

func (d *detachIn) Abort() {
	d.mu.Lock()
	d.aborted = true
	in := d.in
	d.mu.Unlock()
	in.Abort()
}

// continueScan delivers the tail of a force-detached reader's pass:
// pages [resume, entry) wrapping mod N, the exact unseen remainder in
// circular-scan order. The decoded-batch cache makes most of these
// reads cheap — the convoy touched the same pages moments ago.
func (st *ScanStage) continueScan(t *catalog.Table, resume, entry int, out OutPort, se *scanErr) {
	defer st.wg.Done()
	defer out.Close()
	defer func() {
		if r := recover(); r != nil {
			se.fail(exec.RecoverPanic(st.env, r))
		}
	}()
	// A detached reader has received 0..N-1 pages of its pass, so
	// resume == entry means it received nothing: the whole table.
	unseen := comm.Arc{Lo: 0, Hi: t.NumPages, From: resume, To: entry, Full: true}
	for i := range unseen.Pages() {
		b, err := st.readPage(t, i)
		if err != nil {
			se.fail(err)
			return
		}
		out.Emit(&comm.Page{Batch: b, Index: i})
		if out.ActiveReaders() == 0 {
			return
		}
	}
}

// Close waits for every scanner goroutine to unwind. Scanners stop on
// their own once their readers finish or detach, so Close is a drain:
// callers stop submitting queries first (the engine's Close does),
// then Close returns once the in-flight scans have wound down.
func (st *ScanStage) Close() {
	st.wg.Wait()
}

// privateScan emits pages 0..N-1 once and closes. With parallelism
// available, page fetch+decode fans out across workers while emission
// stays strictly in page order, so downstream packets observe exactly
// the sequential page stream — the scan saturates cores without
// perturbing any order-sensitive consumer.
func (st *ScanStage) privateScan(t *catalog.Table, out OutPort, se *scanErr) {
	defer st.wg.Done()
	defer out.Close()
	// Containment backstop for panics outside readPage (port plumbing):
	// the scan's error slot records it and the Close defer above ends the
	// stream so readers unblock.
	defer func() {
		if r := recover(); r != nil {
			se.fail(exec.RecoverPanic(st.env, r))
		}
	}()
	workers := st.env.Workers()
	if workers > t.NumPages {
		workers = t.NumPages
	}
	if workers <= 1 {
		for i := 0; i < t.NumPages; i++ {
			b, err := st.readPage(t, i)
			if err != nil {
				se.fail(err)
				return
			}
			out.Emit(&comm.Page{Batch: b, Index: i})
			if out.ActiveReaders() == 0 {
				return
			}
		}
		return
	}

	type fetched struct {
		b   *vec.Batch
		err error
	}
	// Fetch-ahead is bounded: workers take a window token before
	// claiming a page and the emitter returns it after reading that
	// page's slot, so at most `window` decoded batches sit ahead of the
	// (possibly backpressured) output port — the scan stays O(window)
	// resident instead of decoding the whole table past a slow
	// consumer. Slots form a ring: page i lands in slots[i%window],
	// which the token accounting guarantees was drained before page
	// i+window could be claimed.
	window := workers * 2
	slots := make([]chan fetched, window)
	for i := range slots {
		slots[i] = make(chan fetched, 1) // buffered: fetchers never block
	}
	sem := make(chan struct{}, window)
	done := make(chan struct{})
	defer close(done)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			for {
				select {
				case sem <- struct{}{}:
				case <-done:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= t.NumPages {
					return
				}
				b, err := st.readPage(t, i)
				slots[i%window] <- fetched{b, err}
			}
		}()
	}
	for i := 0; i < t.NumPages; i++ {
		f := <-slots[i%window]
		<-sem
		if f.err != nil {
			se.fail(f.err)
			return
		}
		out.Emit(&comm.Page{Batch: f.b, Index: i})
		if out.ActiveReaders() == 0 {
			return
		}
	}
}

// circularScan cycles through the table until every attached reader has
// wrapped around to its entry page (the ports' linear-WoP bookkeeping
// finishes each reader). The registry check and de-registration are
// atomic under the stage lock, so a packet never attaches to a scanner
// that has decided to stop. With parallelism available a prefetcher
// goroutine warms the decoded-batch cache a few pages ahead of the
// emission point, overlapping decode with delivery.
func (st *ScanStage) circularScan(sc *scanner) {
	defer st.wg.Done()
	// Containment backstop for panics outside readPage: deregister and
	// close like the read-error path so attached readers unblock instead
	// of waiting on a dead scanner.
	defer func() {
		if r := recover(); r != nil {
			st.mu.Lock()
			if st.scanners[sc.table.Name] == sc {
				delete(st.scanners, sc.table.Name)
			}
			st.mu.Unlock()
			sc.out.Close()
			sc.se.fail(exec.RecoverPanic(st.env, r))
		}
	}()
	const lookahead = 4
	var prefetch chan int
	if st.env.Workers() > 1 && sc.table.NumPages > lookahead {
		prefetch = make(chan int, lookahead)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			for idx := range prefetch {
				// Warm the cache; the synchronous read below returns the
				// decoded batch either way, so errors surface there.
				_, _ = st.readPage(sc.table, idx)
			}
		}()
		defer close(prefetch)
		for j := 1; j <= lookahead; j++ {
			prefetch <- j % sc.table.NumPages
		}
	}
	for {
		st.mu.Lock()
		if sc.out.ActiveReaders() == 0 {
			delete(st.scanners, sc.table.Name)
			st.mu.Unlock()
			sc.out.Close()
			return
		}
		idx := sc.next
		sc.next = (sc.next + 1) % sc.table.NumPages
		st.mu.Unlock()

		if prefetch != nil {
			select { // never block emission on the prefetcher
			case prefetch <- (idx + lookahead) % sc.table.NumPages:
			default:
			}
		}
		b, err := st.readPage(sc.table, idx)
		if err != nil {
			st.mu.Lock()
			delete(st.scanners, sc.table.Name)
			st.mu.Unlock()
			sc.out.Close()
			sc.se.fail(err)
			return
		}
		sc.out.Emit(&comm.Page{Batch: b, Index: idx})
	}
}

// readPage fetches one page as a decoded column batch through the
// environment's decoded-batch cache: concurrent scanners (and the
// CJOIN preprocessor) share one decode per page. A panic during fetch
// or decode converts to an error here, so every scanner goroutine's
// existing error path (fail + close) handles it and no fetch-ahead
// slot protocol is left waiting on a dead worker.
func (st *ScanStage) readPage(t *catalog.Table, idx int) (b *vec.Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, exec.RecoverPanic(st.env, r)
		}
	}()
	return exec.ReadTableBatch(st.env, t, idx)
}
