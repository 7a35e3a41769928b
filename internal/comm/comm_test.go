package comm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sharedq/internal/pages"
)

func intPage(v int64) *Page {
	return NewPage([]pages.Row{{pages.Int(v)}})
}

func pageVal(p *Page) int64 { return p.Rows[0][0].I }

// --- Page / Builder ---

func TestPageClone(t *testing.T) {
	p := intPage(7)
	c := p.Clone()
	c.Rows[0][0] = pages.Int(99)
	if pageVal(p) != 7 {
		t.Error("Clone aliases original rows")
	}
	if c.Index != p.Index {
		t.Error("Clone lost index")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(3)
	var got []*Page
	for i := int64(0); i < 7; i++ {
		if p := b.Add(pages.Row{pages.Int(i)}); p != nil {
			got = append(got, p)
		}
	}
	if p := b.Flush(); p != nil {
		got = append(got, p)
	}
	if len(got) != 3 || len(got[0].Rows) != 3 || len(got[2].Rows) != 1 {
		t.Errorf("builder pages = %v", got)
	}
	if b.Flush() != nil {
		t.Error("second Flush should be nil")
	}
}

func TestBuilderDefaultSize(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < DefaultPageRows-1; i++ {
		if p := b.Add(pages.Row{pages.Int(0)}); p != nil {
			t.Fatal("page emitted early")
		}
	}
	if p := b.Add(pages.Row{pages.Int(0)}); p == nil || len(p.Rows) != DefaultPageRows {
		t.Error("default-size page not emitted")
	}
}

// --- FIFO ---

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(4)
	go func() {
		for i := int64(0); i < 100; i++ {
			f.Put(intPage(i))
		}
		f.Close()
	}()
	var got []int64
	for {
		p, ok := f.Get()
		if !ok {
			break
		}
		got = append(got, pageVal(p))
	}
	if len(got) != 100 {
		t.Fatalf("got %d pages", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestFIFOBounded(t *testing.T) {
	f := NewFIFO(2)
	f.Put(intPage(1))
	f.Put(intPage(2))
	done := make(chan struct{})
	go func() {
		f.Put(intPage(3)) // must block until a Get
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put did not block on full FIFO")
	case <-time.After(20 * time.Millisecond):
	}
	f.Get()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Put still blocked after Get")
	}
}

func TestFIFOCloseUnblocks(t *testing.T) {
	f := NewFIFO(1)
	done := make(chan bool)
	go func() {
		_, ok := f.Get()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	if ok := <-done; ok {
		t.Error("Get on closed empty FIFO returned ok")
	}
	f.Put(intPage(1)) // no-op, must not panic or block
	if f.Len() != 0 {
		t.Error("Put after Close stored a page")
	}
}

func TestFIFOCloseDrains(t *testing.T) {
	f := NewFIFO(4)
	f.Put(intPage(1))
	f.Close()
	if p, ok := f.Get(); !ok || pageVal(p) != 1 {
		t.Error("pending page lost at Close")
	}
	if _, ok := f.Get(); ok {
		t.Error("extra page after drain")
	}
}

// --- SPL ---

func TestSPLSingleConsumer(t *testing.T) {
	s := NewSPL(4)
	c := s.AddConsumer(false, -1)
	go func() {
		for i := int64(0); i < 50; i++ {
			s.Append(intPage(i))
		}
		s.Close()
	}()
	var got []int64
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, pageVal(p))
	}
	if len(got) != 50 {
		t.Fatalf("got %d pages", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	if s.Len() != 0 {
		t.Errorf("list not drained: len=%d", s.Len())
	}
}

func TestSPLMultiConsumerSeesAll(t *testing.T) {
	const consumers = 8
	const npages = 200
	s := NewSPL(4)
	var wg sync.WaitGroup
	results := make([][]int64, consumers)
	for i := 0; i < consumers; i++ {
		c := s.AddConsumer(false, -1)
		wg.Add(1)
		go func(i int, c *Consumer) {
			defer wg.Done()
			for {
				p, ok := c.Next()
				if !ok {
					return
				}
				results[i] = append(results[i], pageVal(p))
			}
		}(i, c)
	}
	for i := int64(0); i < npages; i++ {
		s.Append(intPage(i))
	}
	s.Close()
	wg.Wait()
	for i, r := range results {
		if len(r) != npages {
			t.Fatalf("consumer %d saw %d pages, want %d", i, len(r), npages)
		}
		for j, v := range r {
			if v != int64(j) {
				t.Fatalf("consumer %d out of order at %d", i, j)
			}
		}
	}
	if s.Len() != 0 || s.Produced() != npages {
		t.Errorf("len=%d produced=%d", s.Len(), s.Produced())
	}
}

func TestSPLBoundedLength(t *testing.T) {
	s := NewSPL(4)
	c := s.AddConsumer(false, -1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 100; i++ {
			s.Append(intPage(i))
		}
		s.Close()
	}()
	n := 0
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		n++
		_ = p
	}
	wg.Wait()
	if n != 100 {
		t.Fatalf("consumed %d", n)
	}
	// Max length can transiently hit maxPages; never beyond.
	if s.MaxLength() > 4 {
		t.Errorf("max length %d exceeded bound 4", s.MaxLength())
	}
}

func TestSPLProducerThrottled(t *testing.T) {
	s := NewSPL(2)
	s.AddConsumer(false, -1) // attached but never reads
	appended := make(chan int64, 10)
	go func() {
		for i := int64(0); i < 5; i++ {
			s.Append(intPage(i))
			appended <- i
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if got := len(appended); got > 2 {
		t.Errorf("producer appended %d pages with a stuck consumer and max 2", got)
	}
	s.Close() // unblock the producer goroutine
}

func TestSPLNoConsumersDrops(t *testing.T) {
	s := NewSPL(2)
	for i := int64(0); i < 10; i++ {
		s.Append(intPage(i)) // must not block
	}
	if s.Len() != 0 {
		t.Errorf("pages retained with no consumers: %d", s.Len())
	}
}

func TestSPLLateConsumerSeesOnlySubsequent(t *testing.T) {
	s := NewSPL(16)
	early := s.AddConsumer(false, -1)
	s.Append(intPage(0))
	s.Append(intPage(1))
	late := s.AddConsumer(false, -1)
	s.Append(intPage(2))
	s.Close()

	var earlyGot, lateGot []int64
	for {
		p, ok := early.Next()
		if !ok {
			break
		}
		earlyGot = append(earlyGot, pageVal(p))
	}
	for {
		p, ok := late.Next()
		if !ok {
			break
		}
		lateGot = append(lateGot, pageVal(p))
	}
	if len(earlyGot) != 3 {
		t.Errorf("early consumer saw %v", earlyGot)
	}
	if len(lateGot) != 1 || lateGot[0] != 2 {
		t.Errorf("late consumer saw %v, want [2]", lateGot)
	}
}

func TestSPLFromStartSeesBuffered(t *testing.T) {
	s := NewSPL(16)
	keeper := s.AddConsumer(false, -1) // keeps pages alive
	s.Append(intPage(0))
	s.Append(intPage(1))
	c := s.AddConsumer(true, -1)
	s.Append(intPage(2))
	s.Close()
	var got []int64
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, pageVal(p))
	}
	if len(got) != 3 {
		t.Errorf("fromStart consumer saw %v, want 3 pages", got)
	}
	keeper.Close()
}

func TestSPLCircularScanWrapAround(t *testing.T) {
	// Simulate a circular scan of a 5-page table. Consumer A enters at
	// page 0 (scan start); consumer B enters at page 2 mid-scan.
	const tablePages = 5
	s := NewSPL(16)
	a := s.AddConsumer(false, 0)

	var wg sync.WaitGroup
	var aGot, bGot []int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			p, ok := a.Next()
			if !ok {
				return
			}
			aGot = append(aGot, p.Index)
		}
	}()

	var b *Consumer
	var bMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			bMu.Lock()
			cons := b
			bMu.Unlock()
			if cons != nil {
				for {
					p, ok := cons.Next()
					if !ok {
						return
					}
					bGot = append(bGot, p.Index)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Scanner: emits pages cyclically until no active consumers.
	idx := 0
	for cycle := 0; s.ActiveConsumers() > 0 && cycle < 100; cycle++ {
		if idx == 2 && b == nil {
			bMu.Lock()
			b = s.AddConsumer(false, 2)
			bMu.Unlock()
		}
		s.Append(&Page{Rows: []pages.Row{{pages.Int(int64(idx))}}, Index: idx})
		idx = (idx + 1) % tablePages
		time.Sleep(time.Millisecond) // let consumers drain
	}
	s.Close()
	wg.Wait()

	if len(aGot) != tablePages {
		t.Fatalf("A saw %v, want %d pages", aGot, tablePages)
	}
	for i, p := range aGot {
		if p != i%tablePages {
			t.Fatalf("A page order %v", aGot)
		}
	}
	if len(bGot) != tablePages {
		t.Fatalf("B saw %v, want %d pages", bGot, tablePages)
	}
	if bGot[0] != 2 {
		t.Fatalf("B entered at %d, want 2 (%v)", bGot[0], bGot)
	}
	seen := map[int]bool{}
	for _, p := range bGot {
		if seen[p] {
			t.Fatalf("B saw page %d twice: %v", p, bGot)
		}
		seen[p] = true
	}
}

func TestSPLConsumerEarlyClose(t *testing.T) {
	s := NewSPL(2)
	quitter := s.AddConsumer(false, -1)
	reader := s.AddConsumer(false, -1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 20; i++ {
			s.Append(intPage(i))
		}
		s.Close()
	}()
	// The quitter reads one page then leaves; the reader must still see
	// everything and the producer must not deadlock.
	if _, ok := quitter.Next(); !ok {
		t.Fatal("quitter got nothing")
	}
	quitter.Close()
	n := 0
	for {
		_, ok := reader.Next()
		if !ok {
			break
		}
		n++
	}
	wg.Wait()
	if n != 20 {
		t.Errorf("reader saw %d pages, want 20", n)
	}
	if !quitter.Done() {
		t.Error("quitter not done")
	}
}

func TestSPLCloseUnblocksConsumers(t *testing.T) {
	s := NewSPL(4)
	c := s.AddConsumer(false, -1)
	done := make(chan bool)
	go func() {
		_, ok := c.Next()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Next returned a page after Close on empty SPL")
		}
	case <-time.After(time.Second):
		t.Fatal("consumer not unblocked by Close")
	}
}

func TestSPLAppendAfterClose(t *testing.T) {
	s := NewSPL(4)
	c := s.AddConsumer(false, -1)
	s.Close()
	s.Append(intPage(1)) // no-op
	if _, ok := c.Next(); ok {
		t.Error("page visible after Close")
	}
}

// Property: with random consumer attach times and speeds, every
// consumer sees exactly the pages appended after its attach, in order.
func TestSPLRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		s := NewSPL(3)
		const total = 60
		type result struct {
			attachAt int64
			got      []int64
		}
		var mu sync.Mutex
		var results []*result
		var wg sync.WaitGroup

		attach := func(at int64) {
			r := &result{attachAt: at}
			c := s.AddConsumer(false, -1)
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p, ok := c.Next()
					if !ok {
						return
					}
					r.got = append(r.got, pageVal(p))
				}
			}()
		}

		attach(0)
		attachPoints := map[int64]int{}
		for i := 0; i < 3; i++ {
			attachPoints[int64(rng.Intn(total))]++
		}
		for i := int64(0); i < total; i++ {
			for n := attachPoints[i]; n > 0; n-- {
				attach(i)
			}
			s.Append(intPage(i))
		}
		s.Close()
		wg.Wait()

		for _, r := range results {
			want := total - r.attachAt
			if int64(len(r.got)) != want {
				t.Fatalf("iter %d: consumer attached at %d saw %d pages, want %d",
					iter, r.attachAt, len(r.got), want)
			}
			for j, v := range r.got {
				if v != r.attachAt+int64(j) {
					t.Fatalf("iter %d: consumer attached at %d: page %d = %d",
						iter, r.attachAt, j, v)
				}
			}
		}
		if s.Len() != 0 {
			t.Fatalf("iter %d: list not drained", iter)
		}
	}
}

func TestSPLManyConsumersStress(t *testing.T) {
	s := NewSPL(8)
	const consumers = 32
	const npages = 300
	var wg sync.WaitGroup
	counts := make([]int, consumers)
	for i := 0; i < consumers; i++ {
		c := s.AddConsumer(false, -1)
		wg.Add(1)
		go func(i int, c *Consumer) {
			defer wg.Done()
			for {
				_, ok := c.Next()
				if !ok {
					return
				}
				counts[i]++
			}
		}(i, c)
	}
	for i := int64(0); i < npages; i++ {
		s.Append(intPage(i))
	}
	s.Close()
	wg.Wait()
	for i, n := range counts {
		if n != npages {
			t.Errorf("consumer %d saw %d pages", i, n)
		}
	}
}

func TestSPLDefaultBound(t *testing.T) {
	s := NewSPL(0)
	if s.maxPages != DefaultSPLPages {
		t.Errorf("default maxPages = %d", s.maxPages)
	}
}

func fmtPages(ps []*Page) string {
	out := ""
	for _, p := range ps {
		out += fmt.Sprintf("%d ", pageVal(p))
	}
	return out
}

func TestSPLEntryAutoWrapAround(t *testing.T) {
	// Auto-entry: consumer attaches mid-scan with EntryAuto; its entry
	// point is the first page it receives and it finishes exactly one
	// full cycle later, regardless of attach/append interleaving.
	const tablePages = 4
	s := NewSPL(16)
	keeper := s.AddConsumer(false, 0) // drives the scan from page 0
	go func() {
		for {
			if _, ok := keeper.Next(); !ok {
				return
			}
		}
	}()

	var c *Consumer
	idx := 0
	emitted := 0
	for s.ActiveConsumers() > 0 && emitted < 100 {
		if emitted == 2 {
			c = s.AddConsumer(false, EntryAuto)
		}
		s.Append(&Page{Rows: []pages.Row{{pages.Int(int64(idx))}}, Index: idx})
		emitted++
		idx = (idx + 1) % tablePages
		if c != nil && emitted >= 2+tablePages+1 {
			break
		}
	}
	var got []int
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, p.Index)
	}
	s.Close()
	if len(got) != tablePages {
		t.Fatalf("auto-entry consumer saw %v, want %d pages", got, tablePages)
	}
	seen := map[int]bool{}
	for _, g := range got {
		if seen[g] {
			t.Fatalf("duplicate page %d in %v", g, got)
		}
		seen[g] = true
	}
}

func TestFIFOClosed(t *testing.T) {
	f := NewFIFO(1)
	if f.Closed() {
		t.Error("new FIFO reports closed")
	}
	f.Close()
	if !f.Closed() {
		t.Error("Closed() false after Close")
	}
}

// TestFIFOStraggleRequest pins RequestStraggle's contract. The Put
// the producer is stuck on a full buffer with — already waiting, or the
// next one, which then does not block — returns false without landing
// its page, and the consumer resumes at that page after draining what
// it holds. A consumer Get in between lapses the request, and a buffer
// with room gets none.
func TestFIFOStraggleRequest(t *testing.T) {
	pending := func(f *FIFO) bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.reqEntry >= 0
	}
	t.Run("Put already waiting", func(t *testing.T) {
		f := NewFIFO(1)
		f.Put(&Page{Index: 4})
		put := make(chan bool, 1)
		go func() { put <- f.Put(&Page{Index: 5}) }()
		waitParkedInPut(t)
		f.RequestStraggle(2)
		checkStraggled(t, f, <-put)
		f.RequestStraggle(2) // a closed FIFO takes no request
	})
	t.Run("next Put does not block", func(t *testing.T) {
		f := NewFIFO(1)
		f.Put(&Page{Index: 4})
		f.RequestStraggle(2)
		checkStraggled(t, f, f.Put(&Page{Index: 5}))
	})
	t.Run("Get lapses the request", func(t *testing.T) {
		f := NewFIFO(1)
		f.Put(&Page{Index: 4})
		f.RequestStraggle(2)
		if !pending(f) {
			t.Fatal("no request left on a full buffer")
		}
		if p, ok := f.Get(); !ok || p.Index != 4 {
			t.Fatalf("Get = %v %v", p, ok)
		}
		if pending(f) {
			t.Fatal("Get did not lapse the request")
		}
		f.Put(&Page{Index: 5})
		put := make(chan bool, 1)
		go func() { put <- f.Put(&Page{Index: 6}) }()
		for _, want := range []int{5, 6} {
			if p, ok := f.Get(); !ok || p.Index != want {
				t.Fatalf("Get = %v %v, want page %d", p, ok, want)
			}
		}
		if !<-put {
			t.Error("a lapsed request detached the consumer")
		}
		if _, _, ok := f.Straggled(); ok {
			t.Error("Straggled after a lapsed request")
		}
	})
	t.Run("room in the buffer", func(t *testing.T) {
		f := NewFIFO(2)
		f.Put(&Page{Index: 1})
		f.RequestStraggle(0)
		if pending(f) {
			t.Fatal("request left on a buffer with room")
		}
		if !f.Put(&Page{Index: 2}) {
			t.Fatal("Put into a free slot was refused")
		}
		put := make(chan bool, 1)
		go func() { put <- f.Put(&Page{Index: 3}) }()
		for _, want := range []int{1, 2, 3} {
			if p, ok := f.Get(); !ok || p.Index != want {
				t.Fatalf("Get = %v %v, want page %d", p, ok, want)
			}
		}
		if !<-put {
			t.Error("a FIFO with room took a request")
		}
	})
}

// waitParkedInPut waits until a goroutine is parked in FIFO.Put's wait
// on a full buffer.
func waitParkedInPut(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "comm.(*FIFO).Put") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("Put never blocked on the full buffer")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkStraggled asserts f was detached at page 5 with entry 2 by the
// Put that reported put, keeping its buffered page 4 readable.
func checkStraggled(t *testing.T, f *FIFO, put bool) {
	t.Helper()
	if put {
		t.Error("the stuck Put landed its page after the request")
	}
	if p, ok := f.Get(); !ok || p.Index != 4 {
		t.Errorf("buffered page lost: %v %v", p, ok)
	}
	if _, ok := f.Get(); ok {
		t.Error("stream continued past the detach")
	}
	if resume, entry, ok := f.Straggled(); !ok || resume != 5 || entry != 2 {
		t.Errorf("Straggled = %d, %d, %v; want 5, 2, true", resume, entry, ok)
	}
}
