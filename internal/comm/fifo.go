package comm

import (
	"sync"
)

// FIFO is a bounded single-producer single-consumer page buffer, the
// push-only exchange of the original QPipe design. The buffer also
// regulates differently paced actors: Put blocks when the consumer
// lags, Get blocks when the producer lags.
type FIFO struct {
	mu     sync.Mutex
	nf     *sync.Cond // not full
	ne     *sync.Cond // not empty
	buf    []*Page
	cap    int
	closed bool

	// Straggler bookkeeping (CloseStraggled): the producer force-detached
	// this consumer; buffered pages remain readable, then the consumer
	// resumes privately from resumeIdx up to its entry point.
	straggled bool
	resumeIdx int
	entryIdx  int

	// blocked is the page a producer is blocked putting into the full
	// buffer, nil otherwise (StraggleBlocked).
	blocked *Page
}

// DefaultFIFOPages bounds a FIFO at 8 pages (the paper uses a 256 KB
// maximum with 32 KB pages).
const DefaultFIFOPages = 8

// NewFIFO returns a FIFO holding at most capacity pages
// (DefaultFIFOPages when capacity <= 0).
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		capacity = DefaultFIFOPages
	}
	f := &FIFO{cap: capacity}
	f.nf = sync.NewCond(&f.mu)
	f.ne = sync.NewCond(&f.mu)
	return f
}

// Put appends a page, blocking while the buffer is full. Putting to a
// closed FIFO is a no-op (the consumer has gone away); the false return
// tells the producer the page was dropped, so pooled pages can be
// released instead of leaking to the garbage collector.
func (f *FIFO) Put(p *Page) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.buf) >= f.cap && !f.closed {
		f.blocked = p
		f.nf.Wait()
	}
	f.blocked = nil
	if f.closed {
		return false
	}
	f.buf = append(f.buf, p)
	f.ne.Signal()
	return true
}

// Get removes the oldest page, blocking while the buffer is empty.
// It returns ok=false once the FIFO is closed and drained.
func (f *FIFO) Get() (*Page, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.buf) == 0 && !f.closed {
		f.ne.Wait()
	}
	if len(f.buf) == 0 {
		return nil, false
	}
	p := f.buf[0]
	f.buf = f.buf[1:]
	f.nf.Signal()
	return p, true
}

// PutGrow is Put with bounded elasticity instead of blocking: the
// buffer may grow to cap+extra pages; beyond that the page is refused
// (false) WITHOUT blocking, and ownership stays with the caller — who
// typically force-detaches the consumer and re-derives the refused
// page privately. A closed FIFO also refuses.
func (f *FIFO) PutGrow(p *Page, extra int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.buf) >= f.cap+extra {
		return false
	}
	f.buf = append(f.buf, p)
	f.ne.Signal()
	return true
}

// CloseStraggled ends the stream like Close but marks the consumer as
// force-detached by the producer's straggler policy: buffered pages
// stay readable, and once drained Straggled tells the consumer the
// pages [resume, entry) mod N it must re-derive privately to have seen
// a full pass.
func (f *FIFO) CloseStraggled(resume, entry int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.straggleLocked(resume, entry)
}

func (f *FIFO) straggleLocked(resume, entry int) {
	f.straggled = true
	f.resumeIdx = resume
	f.entryIdx = entry
	f.closed = true
	f.ne.Broadcast()
	f.nf.Broadcast()
}

// StraggleBlocked is CloseStraggled for a consumer the producer is
// blocked on: only while a Put waits on the full buffer does it close
// the stream, with the page that Put holds as the resume point — that
// page is never delivered, so the consumer re-derives it. Reports
// whether it detached; a Put that already landed makes it a no-op.
func (f *FIFO) StraggleBlocked(entry int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.blocked == nil {
		return false
	}
	f.straggleLocked(f.blocked.Index, entry)
	return true
}

// Straggled reports whether the producer force-detached this consumer,
// and if so where the private continuation must resume ([resume,
// entry) mod N, after draining the buffered pages).
func (f *FIFO) Straggled() (resume, entry int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resumeIdx, f.entryIdx, f.straggled
}

// Close marks the end of the stream. Pending pages remain readable;
// blocked producers and consumers wake up.
func (f *FIFO) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.ne.Broadcast()
	f.nf.Broadcast()
}

// Closed reports whether Close has been called.
func (f *FIFO) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Len returns the number of buffered pages.
func (f *FIFO) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}
