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

	// reqEntry is a pending detach request's entry point, -1 when none
	// (RequestStraggle).
	reqEntry int
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
	f := &FIFO{cap: capacity, reqEntry: -1}
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
		if f.reqEntry >= 0 {
			f.straggleLocked(p.Index, f.reqEntry)
			break
		}
		f.nf.Wait()
	}
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
	f.reqEntry = -1
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

// RequestStraggle asks the producer to force-detach this consumer, as
// CloseStraggled does, at the Put it is stuck on: the Put waiting on
// the full buffer — one already waiting, or the next one that would —
// closes the stream with its own page as the resume point (that page is
// never delivered, so the consumer re-derives it) and returns false.
// The consumer's next Get lapses the request: a consumer that reads is
// not stalled. A consumer with room in its buffer gets no request.
func (f *FIFO) RequestStraggle(entry int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.buf) < f.cap {
		return
	}
	f.reqEntry = entry
	f.nf.Broadcast()
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
