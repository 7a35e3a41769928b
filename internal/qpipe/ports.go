// Package qpipe implements the staged, operator-centric execution
// engine of the paper: packets flow through a scan stage, a join stage,
// and per-query aggregation/sort packets, exchanging 32 KB pages.
// Each stage detects Simultaneous Pipelining opportunities among its
// in-flight packets (scan: linear WoP circular scans; join: step WoP
// sub-plan sharing) and supports both communication models under
// comparison: push-based FIFOs with copy fan-out (the original QPipe
// design) and pull-based Shared Pages Lists.
package qpipe

import (
	"sync"
	"sync/atomic"
	"time"

	"sharedq/internal/comm"
	"sharedq/internal/metrics"
	"sharedq/internal/vec"
)

// Comm selects the communication model for packet data flow.
type Comm int

// Communication models. The zero value is CommSPL, the paper's
// optimized pull-based model, so configurations default to it.
const (
	// CommSPL is the pull-based Shared Pages List model of §4.
	CommSPL Comm = iota
	// CommFIFO is the push-only model of the original QPipe design:
	// producers copy pages into each consumer's FIFO sequentially.
	CommFIFO
)

// String names the model as the paper's figures do.
func (c Comm) String() string {
	if c == CommFIFO {
		return "FIFO"
	}
	return "SPL"
}

// InPort is a packet's view of its input stream.
type InPort interface {
	// Next returns the next page; ok=false at end of stream.
	Next() (*comm.Page, bool)
	// Cancel detaches early, releasing the reader's claim on buffered
	// pages so producers are not throttled by an abandoned reader.
	// Cancel must only be called from the consuming goroutine; use
	// Abort to cancel from elsewhere.
	Cancel()
	// Abort requests cancellation from another goroutine (a context
	// watcher): it is safe concurrent with Next. A consumer blocked in
	// Next wakes and detaches; a busy one detaches on its next Next
	// call, so the page it is processing stays valid until then.
	Abort()
}

// OutPort is a packet's output, supporting one or more readers.
type OutPort interface {
	// Emit delivers a page to all attached readers.
	Emit(p *comm.Page)
	// Close ends the stream.
	Close()
	// AddReader attaches a reader. With fromStart, the reader also
	// receives currently buffered pages (step-WoP satellites attach
	// before the first output page, so they see the full stream).
	AddReader(fromStart bool) InPort
	// ActiveReaders reports attached, unfinished readers.
	ActiveReaders() int
}

// PortConfig sizes and selects the communication structures. It is
// exported so the CJOIN stage can create ports of the same model as the
// surrounding engine.
type PortConfig struct {
	Model    Comm
	SPLMax   int // SPL maximum length, pages
	FIFOCap  int // FIFO capacity, pages
	PageRows int
	Col      *metrics.Collector
	// Pool recycles the push-copy clones the FIFO fan-out makes per
	// consumer; nil disables recycling (the clones become garbage).
	Pool *vec.Pool
	// MaxLag enables the straggler policy on ports built from this
	// config: a reader falling MaxLag+ pages behind the fastest reader
	// is force-detached — its InPort ends and reports Straggled — so one
	// slow consumer never convoys the sharing group. The port absorbs
	// bounded overflow (up to MaxLag extra pages) while any reader keeps
	// pace. 0 disables (the default); only circular-scan ports should
	// set it, since detached readers need a private continuation.
	MaxLag int
	// Robust receives the straggler counters (straggler_detached,
	// reader_max_lag_pages); nil drops them.
	Robust *metrics.CounterSet //sharedq:counters robust
}

// onStraggle returns the per-detach observer for ports of this config,
// or nil without a Robust set.
func (pc PortConfig) onStraggle() func() {
	if pc.Robust == nil {
		return nil
	}
	ctr := pc.Robust.Get("straggler_detached")
	return func() { ctr.Inc() }
}

// onLag returns the per-emit lag observer (high-water mark of the
// fastest-to-slowest reader spread), or nil without a Robust set.
func (pc PortConfig) onLag() func(int) {
	if pc.Robust == nil {
		return nil
	}
	ctr := pc.Robust.Get("reader_max_lag_pages")
	return func(lag int) { ctr.Max(int64(lag)) }
}

// straggler is the optional InPort capability of ports with a
// straggler policy: after Next returns ok=false, Straggled reports
// whether the reader was force-detached rather than finished, and
// where a private continuation must resume ([resume, entry) mod N).
type straggler interface {
	Straggled() (resume, entry int, ok bool)
}

// ElasticOut is the optional OutPort capability the CJOIN distributor
// uses: EmitGrow delivers like Emit but, instead of blocking on a
// reader that cannot absorb the page within extra pages of overflow,
// refuses it and returns false with ownership retained by the caller —
// who then detaches that reader and re-derives the page privately.
type ElasticOut interface {
	EmitGrow(p *comm.Page, extra int) bool
}

// portConfig is the internal alias used throughout the engine.
type portConfig = PortConfig

// NewOutPort builds an output port for the configured model.
func (pc PortConfig) NewOutPort() OutPort {
	if pc.Model == CommSPL {
		spl := comm.NewSPL(pc.SPLMax)
		if pc.MaxLag > 0 {
			spl.SetStragglerLag(pc.MaxLag, pc.onStraggle(), pc.onLag())
		}
		return &splPort{spl: spl}
	}
	fo := &fanout{cap: pc.FIFOCap, col: pc.Col, pool: pc.Pool}
	if pc.MaxLag > 0 {
		fo.maxLag = pc.MaxLag
		fo.straggled = pc.onStraggle()
		fo.lagged = pc.onLag()
	}
	return fo
}

// newOutPort is the internal spelling.
func (pc portConfig) newOutPort() OutPort { return pc.NewOutPort() }

// --- SPL-backed ports (pull model) ---

type splPort struct {
	spl *comm.SPL
}

func (p *splPort) Emit(pg *comm.Page) { p.spl.Append(pg) }
func (p *splPort) Close()             { p.spl.Close() }
func (p *splPort) ActiveReaders() int { return p.spl.ActiveConsumers() }

func (p *splPort) EmitGrow(pg *comm.Page, extra int) bool {
	return p.spl.AppendGrow(pg, extra)
}

func (p *splPort) AddReader(fromStart bool) InPort {
	return &splIn{c: p.spl.AddConsumer(fromStart, comm.EntryAuto)}
}

type splIn struct {
	c *comm.Consumer
}

func (in *splIn) Next() (*comm.Page, bool) { return in.c.Next() }
func (in *splIn) Cancel()                  { in.c.Close() }
func (in *splIn) Abort()                   { in.c.Abort() }

func (in *splIn) Straggled() (resume, entry int, ok bool) { return in.c.Straggled() }

// --- FIFO-backed ports (push model) ---

// fanout is the push-only output: Emit copies the page into every
// reader's FIFO on the producer's thread, sequentially. With satellites
// attached this loop is the serialization point of Figure 7a.
type fanout struct {
	mu     sync.Mutex
	subs   []*fanSub
	cap    int
	col    *metrics.Collector
	pool   *vec.Pool
	closed bool

	// Straggler policy (PortConfig.MaxLag): readers lagging maxLag+
	// pages behind the fastest are force-detached via CloseStraggled
	// during Emit's bookkeeping pass, and delivery grows a reader's FIFO
	// up to cap+maxLag before blocking.
	maxLag    int
	straggled func()    // observer, per force-detach
	lagged    func(int) // observer, per-emit reader spread
}

type fanSub struct {
	f        *comm.FIFO
	entry    int // circular-scan entry point; comm.EntryAuto until known
	appended int
	done     bool
}

func (fo *fanout) AddReader(fromStart bool) InPort {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	s := &fanSub{f: comm.NewFIFO(fo.cap), entry: comm.EntryAuto}
	if fo.closed {
		s.f.Close()
		s.done = true
	}
	if fo.maxLag > 0 && !fo.closed {
		// The straggler policy runs per Emit, but an Emit blocked on a
		// lagging reader's full FIFO runs no policy until that reader
		// reads again: a reader attaching now would wait out the
		// laggard. Against the new, empty reader a full FIFO lags by its
		// whole capacity, so ask the producer to detach such a reader at
		// the Put it is stuck on — waiting already or on its way —
		// resuming at the page that Put holds. The refused Put reports
		// the detach back to Emit (noteDetached).
		for _, o := range fo.subs {
			if !o.done && o.entry >= 0 {
				o.f.RequestStraggle(o.entry)
			}
		}
	}
	fo.subs = append(fo.subs, s)
	return &fifoIn{f: s.f}
}

func (fo *fanout) ActiveReaders() int {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	n := 0
	for _, s := range fo.subs {
		if !s.done && !s.f.Closed() {
			n++
		}
	}
	return n
}

// Emit delivers p to every attached reader, copying for all but one.
// Two constraints shape the structure:
//
//   - The blocking Put happens with fo.mu released: a full FIFO
//     backpressures only this producer, never anyone who needs the
//     fan-out's reader bookkeeping. (Holding fo.mu across Put
//     deadlocks the scan stage — which checks ActiveReaders and
//     attaches readers under its stage lock — against a query whose
//     pipeline is still being wired: the consumer that would drain
//     the full FIFO is exactly the one stuck attaching its next
//     scan.)
//   - Every copy is made before the first hand-off: once a page is
//     Put, its single consumer owns it and may release it back to the
//     batch pool at any moment, so a later clone reading the original
//     would race that release.
//
// Forwarding by copy stays on this (the producer's) thread: the cost
// the paper's prediction model charges to the pivot. Copies are
// checked out of the batch pool; each FIFO has a single consumer,
// which releases them after reading.
func (fo *fanout) Emit(p *comm.Page) {
	fo.mu.Lock()
	if fo.closed {
		fo.mu.Unlock()
		p.Release()
		return
	}
	// Bookkeeping pass: decide the destinations under the lock. Readers
	// attached after this point see the next page, exactly as if they
	// had attached after this Emit completed. The scratch is call-local
	// (stack-backed for the common fan-outs): CJOIN distributor parts
	// emit concurrently to one port.
	var destsArr [8]*fanSub
	dests := destsArr[:0]
	for _, s := range fo.subs {
		if s.done || s.f.Closed() {
			continue
		}
		// Linear WoP wrap-around: this reader's entry page re-emitted.
		if p.Index >= 0 && s.entry == p.Index && s.appended > 0 {
			s.done = true
			s.f.Close()
			continue
		}
		if s.entry == comm.EntryAuto && p.Index >= 0 {
			s.entry = p.Index
		}
		s.appended++
		dests = append(dests, s)
	}
	if fo.maxLag > 0 && p.Index >= 0 {
		dests = fo.detachStragglersLocked(dests, p.Index)
	}
	fo.mu.Unlock()
	if len(dests) == 0 {
		p.Release() // no reader takes the page
		return
	}
	// Copy pass, then delivery pass.
	var pagesArr [8]*comm.Page
	pages := append(pagesArr[:0], p)
	for i := 1; i < len(dests); i++ {
		t0 := time.Now()
		pages = append(pages, p.ClonePooled(fo.pool))
		fo.col.AddSince(metrics.Misc, t0)
	}
	for i, s := range dests {
		ok := false
		if fo.maxLag > 0 {
			// Absorb laggard overflow up to cap+maxLag before applying
			// blocking backpressure, mirroring the SPL's elastic growth.
			ok = s.f.PutGrow(pages[i], fo.maxLag)
		}
		if !ok {
			ok = s.f.Put(pages[i])
		}
		if !ok {
			pages[i].Release() // consumer went away mid-emit
			fo.noteDetached(s)
		}
	}
}

// noteDetached marks a reader whose FIFO refused a page because its Put
// honoured a straggle request (see AddReader) as detached, counting it
// like a policy detach. A reader already marked done — detached by the
// policy, finished or closed — is left as is.
func (fo *fanout) noteDetached(s *fanSub) {
	if _, _, ok := s.f.Straggled(); !ok {
		return
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if !s.done {
		s.done = true
		if fo.straggled != nil {
			fo.straggled()
		}
	}
}

// detachStragglersLocked applies the straggler policy to this emit's
// destinations: any reader lagging maxLag+ buffered pages behind the
// fastest is force-detached — its FIFO is closed with the straggle
// record (resume at the page being emitted, which it does not receive)
// and it is dropped from the destination list. The least-lagged reader
// is never detached, so a uniformly slow convoy backpressures instead
// of dissolving. Returns the surviving destinations. Caller holds
// fo.mu.
func (fo *fanout) detachStragglersLocked(dests []*fanSub, nextIdx int) []*fanSub {
	if len(dests) < 2 {
		return dests
	}
	min, max := -1, 0
	for _, s := range dests {
		n := s.f.Len()
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if fo.lagged != nil {
		fo.lagged(max - min)
	}
	if max-min < fo.maxLag {
		return dests
	}
	kept := dests[:0]
	for _, s := range dests {
		if s.entry >= 0 && s.f.Len()-min >= fo.maxLag {
			s.done = true
			s.f.CloseStraggled(nextIdx, s.entry)
			if fo.straggled != nil {
				fo.straggled()
			}
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// EmitGrow delivers p like Emit but never blocks: a single reader that
// cannot absorb the page within extra pages of FIFO overflow refuses
// it, and EmitGrow returns false with ownership retained by the
// caller. With multiple readers (or none) the page is always consumed.
// Wrap-around finishing still applies on the refusal path — a reader
// whose entry page is re-emitted has seen a full pass whether or not
// this copy of the page lands anywhere.
func (fo *fanout) EmitGrow(p *comm.Page, extra int) bool {
	fo.mu.Lock()
	if fo.closed {
		fo.mu.Unlock()
		p.Release()
		return true
	}
	var destsArr [8]*fanSub
	dests := destsArr[:0]
	for _, s := range fo.subs {
		if s.done || s.f.Closed() {
			continue
		}
		if p.Index >= 0 && s.entry == p.Index && s.appended > 0 {
			s.done = true
			s.f.Close()
			continue
		}
		if s.entry == comm.EntryAuto && p.Index >= 0 {
			s.entry = p.Index
		}
		dests = append(dests, s)
	}
	if len(dests) == 1 {
		s := dests[0]
		if !s.f.PutGrow(p, extra) {
			fo.mu.Unlock()
			return false
		}
		s.appended++
		fo.mu.Unlock()
		return true
	}
	for _, s := range dests {
		s.appended++
	}
	fo.mu.Unlock()
	if len(dests) == 0 {
		p.Release()
		return true
	}
	var pagesArr [8]*comm.Page
	pages := append(pagesArr[:0], p)
	for i := 1; i < len(dests); i++ {
		t0 := time.Now()
		pages = append(pages, p.ClonePooled(fo.pool))
		fo.col.AddSince(metrics.Misc, t0)
	}
	for i, s := range dests {
		if !s.f.PutGrow(pages[i], extra) && !s.f.Put(pages[i]) {
			pages[i].Release()
			fo.noteDetached(s)
		}
	}
	return true
}

func (fo *fanout) Close() {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	fo.closed = true
	for _, s := range fo.subs {
		if !s.done {
			s.done = true
			s.f.Close()
		}
	}
}

// fifoIn adapts a single-consumer FIFO to InPort. It mirrors the SPL's
// page-lifetime rule on the pull side: the page returned by Next stays
// valid until the consumer's next Next (or Cancel) call, at which point
// the previous page is released back to the batch pool. Abort only
// touches the atomic flag and the FIFO (never prev), so it is safe
// concurrent with Next; the buffered-page drain happens on the
// consumer's side of the hand-off.
type fifoIn struct {
	f       *comm.FIFO
	prev    *comm.Page
	aborted atomic.Bool
}

func (in *fifoIn) Next() (*comm.Page, bool) {
	in.prev.Release()
	in.prev = nil
	if in.aborted.Load() {
		in.drain()
		return nil, false
	}
	p, ok := in.f.Get()
	if ok && in.aborted.Load() {
		// Abort raced the Get: this page is ours to release, along with
		// whatever else is still buffered.
		p.Release()
		in.drain()
		return nil, false
	}
	if ok {
		in.prev = p
	}
	return p, ok
}

func (in *fifoIn) Cancel() {
	in.prev.Release()
	in.prev = nil
	in.f.Close()
	in.drain()
}

func (in *fifoIn) Straggled() (resume, entry int, ok bool) {
	if in.aborted.Load() {
		return 0, 0, false // cancellation outranks straggle: no continuation
	}
	return in.f.Straggled()
}

func (in *fifoIn) Abort() {
	in.aborted.Store(true)
	// Closing wakes a blocked Get and tells the producer's fan-out to
	// stop copying pages for this reader.
	in.f.Close()
}

// drain releases abandoned buffered pages so their pooled batches
// recycle instead of leaking to the garbage collector (this is the
// single consumer; a closed FIFO keeps its buffered pages readable).
func (in *fifoIn) drain() {
	for {
		p, ok := in.f.Get()
		if !ok {
			return
		}
		p.Release()
	}
}
