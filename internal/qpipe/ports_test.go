package qpipe

import (
	"sync"
	"testing"
	"time"

	"sharedq/internal/comm"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
)

func testPC(model Comm) PortConfig {
	return PortConfig{Model: model, SPLMax: 4, FIFOCap: 4, Col: &metrics.Collector{}}
}

func page(v int64, idx int) *comm.Page {
	return &comm.Page{Rows: []pages.Row{{pages.Int(v)}}, Index: idx}
}

func drain(in InPort) []int64 {
	var out []int64
	for {
		p, ok := in.Next()
		if !ok {
			return out
		}
		out = append(out, p.Rows[0][0].I)
	}
}

func TestPortsBothModelsDeliverAll(t *testing.T) {
	for _, model := range []Comm{CommFIFO, CommSPL} {
		out := testPC(model).NewOutPort()
		a := out.AddReader(false)
		b := out.AddReader(false)
		var wg sync.WaitGroup
		var ra, rb []int64
		wg.Add(2)
		go func() { defer wg.Done(); ra = drain(a) }()
		go func() { defer wg.Done(); rb = drain(b) }()
		for i := int64(0); i < 20; i++ {
			out.Emit(page(i, -1))
		}
		out.Close()
		wg.Wait()
		if len(ra) != 20 || len(rb) != 20 {
			t.Errorf("%v: readers saw %d/%d pages, want 20/20", model, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != int64(i) || rb[i] != int64(i) {
				t.Fatalf("%v: out of order", model)
			}
		}
	}
}

func TestFanoutClonesForSatellites(t *testing.T) {
	// Push model: the first reader receives the original page, later
	// readers receive copies (mutating one must not affect the other).
	out := testPC(CommFIFO).NewOutPort()
	a := out.AddReader(false)
	b := out.AddReader(false)
	orig := page(7, -1)
	done := make(chan struct{})
	var pa, pb *comm.Page
	go func() {
		pa, _ = a.Next()
		pb, _ = b.Next()
		close(done)
	}()
	out.Emit(orig)
	<-done
	out.Close()
	if pa == nil || pb == nil {
		t.Fatal("missing pages")
	}
	if pa != orig {
		t.Error("first reader should get the original page (no copy)")
	}
	if pb == orig {
		t.Error("second reader must get a copy (push-based forwarding)")
	}
	pb.Rows[0][0] = pages.Int(99)
	if pa.Rows[0][0].I != 7 {
		t.Error("satellite copy aliases the host page")
	}
}

func TestFanoutCopyCostAccounted(t *testing.T) {
	col := &metrics.Collector{}
	pc := PortConfig{Model: CommFIFO, FIFOCap: 4, Col: col}
	out := pc.NewOutPort()
	a := out.AddReader(false)
	b := out.AddReader(false)
	go drain(a)
	go drain(b)
	for i := int64(0); i < 50; i++ {
		out.Emit(page(i, -1))
	}
	out.Close()
	if col.Busy(metrics.Misc) == 0 {
		t.Error("forwarding copies not accounted")
	}
}

func TestFanoutLinearWoPWrapAround(t *testing.T) {
	// Push-model circular scan: a reader attached mid-scan finishes
	// after one full cycle over a 4-page "table".
	out := testPC(CommFIFO).NewOutPort()
	keeper := out.AddReader(false)
	go drain(keeper)

	emit := func(idx int) { out.Emit(page(int64(idx), idx)) }
	emit(0)
	emit(1)
	late := out.AddReader(false)
	var got []int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			p, ok := late.Next()
			if !ok {
				return
			}
			got = append(got, p.Index)
		}
	}()
	for _, idx := range []int{2, 3, 0, 1, 2, 3} {
		emit(idx)
	}
	wg.Wait() // late reader finishes at wrap-around without Close
	out.Close()
	if len(got) != 4 {
		t.Fatalf("late reader saw %v, want 4 pages", got)
	}
	seen := map[int]bool{}
	for _, g := range got {
		if seen[g] {
			t.Fatalf("duplicate page in %v", got)
		}
		seen[g] = true
	}
	if got[0] != 2 {
		t.Errorf("entry page = %d, want 2", got[0])
	}
}

func TestFanoutAddReaderAfterClose(t *testing.T) {
	out := testPC(CommFIFO).NewOutPort()
	out.Close()
	in := out.AddReader(false)
	if _, ok := in.Next(); ok {
		t.Error("reader attached after Close received a page")
	}
}

func TestFanoutCancelUnblocksProducer(t *testing.T) {
	// A cancelled (stuck) reader must not wedge the producer forever.
	out := testPC(CommFIFO).NewOutPort()
	a := out.AddReader(false)
	b := out.AddReader(false)
	go drain(a)
	doneEmit := make(chan struct{})
	go func() {
		for i := int64(0); i < 50; i++ {
			out.Emit(page(i, -1))
		}
		close(doneEmit)
	}()
	// b never reads; cancel it so Puts to it become no-ops.
	b.Cancel()
	<-doneEmit
	out.Close()
}

func TestSPLPortActiveReaders(t *testing.T) {
	out := testPC(CommSPL).NewOutPort()
	if out.ActiveReaders() != 0 {
		t.Error("fresh port has readers")
	}
	in := out.AddReader(false)
	if out.ActiveReaders() != 1 {
		t.Error("reader not counted")
	}
	in.Cancel()
	if out.ActiveReaders() != 0 {
		t.Error("cancelled reader still counted")
	}
}

func TestFanoutActiveReaders(t *testing.T) {
	out := testPC(CommFIFO).NewOutPort()
	a := out.AddReader(false)
	_ = out.AddReader(false)
	if got := out.ActiveReaders(); got != 2 {
		t.Errorf("ActiveReaders = %d", got)
	}
	a.Cancel()
	if got := out.ActiveReaders(); got != 1 {
		t.Errorf("ActiveReaders after cancel = %d", got)
	}
}

// TestFanoutAttachDetachesBlockedLaggard is the convoy-hostage
// regression for push ports: with the straggler policy on, the producer
// blocks delivering to a lone reader that stopped reading, and the
// policy, which runs per Emit, cannot run again. A reader attaching
// then must not wait out the laggard: the attach asks the producer to
// detach it at the Put it is stuck on, resuming at the page that Put
// held, and the producer moves on. (Whether the Put is already waiting
// or about to, the laggard resumes at page 3. The test attaches readers
// until the detach lands.)
func TestFanoutAttachDetachesBlockedLaggard(t *testing.T) {
	pc := PortConfig{Model: CommFIFO, FIFOCap: 1, MaxLag: 2, Col: &metrics.Collector{}}
	out := pc.NewOutPort()
	slow := out.AddReader(false).(*fifoIn)
	produced := make(chan struct{})
	go func() {
		// Pages 0-2 fill the laggard's FIFO to cap+MaxLag; page 3 blocks.
		for i := 0; i < 4; i++ {
			out.Emit(page(int64(i), i))
		}
		out.Close()
		close(produced)
	}()
	// Late readers keep reading, so only the laggard ever lags. The
	// first attaches once the laggard's FIFO is full: the producer is
	// then at page 3, blocked or about to block on it.
	var late sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	for slow.f.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled the laggard's FIFO")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for {
		if _, _, ok := slow.Straggled(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attaching readers never detached the blocked laggard")
		}
		in := out.AddReader(false)
		late.Add(1)
		go func() { defer late.Done(); drain(in) }()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked on the detached laggard")
	}
	if got := drain(slow); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("laggard kept %v, want its buffered pages [0 1 2]", got)
	}
	if resume, entry, _ := slow.Straggled(); resume != 3 || entry != 0 {
		t.Errorf("laggard resumes at [%d, %d), want [3, 0): the refused page onward", resume, entry)
	}
	late.Wait()
}
