package cjoin

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedq/internal/exec"
	"sharedq/internal/expr"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/qpipe"
	"sharedq/internal/ssb"
)

// hangDeadline bounds every wait in this file. It is a hang detector,
// not a performance bound: each scenario takes milliseconds when
// healthy, and a coordination deadlock never resolves at all.
const hangDeadline = 30 * time.Second

// failHung fails the test with every goroutine's stack, which names
// the lock or channel each participant of a deadlock is stuck on.
func failHung(t *testing.T, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("hung: %s not reached within %v\n%s", what, hangDeadline, buf)
}

// waitUntil polls cond until it holds, or fails the test as hung.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			failHung(t, what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// await receives one value from ch, or fails the test as hung.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(hangDeadline):
		failHung(t, what)
		panic("unreachable")
	}
}

// hangSafeStage starts a stage whose cleanup survives a failed hang
// check: a deadlocked stage never finishes Close, so the cleanup gives
// up after hangDeadline and reports it instead of blocking the binary.
func hangSafeStage(t *testing.T, env *exec.Env, cfg Config) *Stage {
	t.Helper()
	st := NewStage(env, cfg)
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() { st.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(hangDeadline):
			t.Error("stage Close hung")
		}
	})
	return st
}

// findQuery returns the stage's record of plan q — pending, active or
// awaiting bit retirement — or nil.
func findQuery(st *Stage, q *plan.Query) *query {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, set := range [][]*query{st.pending, st.active, st.retiring} {
		for _, qq := range set {
			if qq.plan == q {
				return qq
			}
		}
	}
	return nil
}

func retiring(st *Stage, qq *query) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Contains(st.retiring, qq)
}

type submitResult struct {
	rows []pages.Row
	err  error
}

func submitAsync(ctx context.Context, st *Stage, q *plan.Query) <-chan submitResult {
	ch := make(chan submitResult, 1)
	go func() {
		rows, err := st.SubmitCtx(ctx, q)
		ch <- submitResult{rows, err}
	}()
	return ch
}

// TestAdmissionKeepsInFlightBitsReserved pins the rule that replaced
// the admission drain: a finished query's bit goes back to freeBit only
// once no in-flight batch carries it. Query A is admitted beside H, a
// streaming query whose consumer stops reading; H's full FIFO port
// blocks the single distributor part, so batches carrying A's bit stay
// in flight after A finishes its window (or is retracted mid-window).
// An admission in that state must neither wait for the pipeline nor
// hand out A's bit. Once H's consumer resumes and A's batches drain,
// the next admissions reuse the bits and stay bit-identical to
// exec.Execute.
func TestAdmissionKeepsInFlightBitsReserved(t *testing.T) {
	for _, retract := range []bool{false, true} {
		name := "finished"
		if retract {
			name = "retracted"
		}
		t.Run(name, func(t *testing.T) { testInFlightBitsReserved(t, retract) })
	}
}

func testInFlightBitsReserved(t *testing.T, retract bool) {
	env := testEnv(t)
	fact, _ := env.Cat.FactTable()
	last := fact.NumPages - 1
	// Read gates on the fact scan: page 0 holds the scanner until A is
	// pending, so H and A share one pass; in the retract variant the
	// last page holds A's window open until A is cancelled.
	gates := map[int]chan struct{}{0: make(chan struct{})}
	if retract {
		gates[last] = make(chan struct{})
	}
	var opened sync.Map
	open := func(page int) {
		if _, done := opened.LoadOrStore(page, true); !done {
			close(gates[page])
		}
	}
	defer func() {
		for page := range gates {
			open(page)
		}
	}()
	var reads atomic.Int64
	gated := *env
	gated.ReadFault = func(table string, idx int) error {
		if table == fact.Name {
			reads.Add(1)
			if g := gates[idx]; g != nil {
				<-g
			}
		}
		return nil
	}
	// One scanner and one distributor part: H's blocked port stalls all
	// distribution, while the preprocessor queue is deep enough for the
	// scanner to finish every window without blocking.
	st := hangSafeStage(t, &gated, Config{
		PipelineThreads:   4,
		DistributorParts:  1,
		ScanPartitions:    1,
		MaxScanPartitions: -1,
		Ports:             qpipe.PortConfig{Model: qpipe.CommFIFO, FIFOCap: 1, Col: env.Col},
	})

	build := func(sql string) (*plan.Query, []pages.Row) {
		t.Helper()
		q, err := plan.Build(env.Cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		return q, want
	}
	rng := rand.New(rand.NewSource(71))
	hq, hWant := build(`SELECT lo_orderkey, lo_linenumber, c_nation
FROM lineorder, customer WHERE lo_custkey = c_custkey`)
	aq, aWant := build(ssb.Q32(rng))
	cq, cWant := build(ssb.Q21(rng))

	// H streams; its consumer blocks in emit until resumed.
	resume := make(chan struct{})
	var resumeOnce sync.Once
	defer resumeOnce.Do(func() { close(resume) })
	var hRows []pages.Row
	hDone := make(chan error, 1)
	go func() {
		hDone <- st.SubmitStreamCtx(context.Background(), hq, func(rows []pages.Row) error {
			<-resume
			hRows = append(hRows, rows...)
			return nil
		})
	}()
	waitUntil(t, "H admitted and reading page 0", func() bool {
		return st.Stats()["cjoin_admitted"] == 1 && reads.Load() >= 1
	})
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := submitAsync(actx, st, aq)
	waitUntil(t, "A pending", func() bool { return findQuery(st, aq) != nil })
	open(0)
	waitUntil(t, "A admitted", func() bool { return st.Stats()["cjoin_admitted"] == 2 })
	a := findQuery(st, aq)
	if retract {
		// The scanner is parked on the last page with A's window open.
		waitUntil(t, "scanner at the last page", func() bool { return reads.Load() == int64(fact.NumPages) })
		cancelA()
		if r := await(t, "A's cancelled Submit", aDone); !errors.Is(r.err, context.Canceled) {
			t.Fatalf("A = %v, want context.Canceled", r.err)
		}
		if st.Stats()["cjoin_retracted"] != 1 {
			t.Fatal("A's cancellation did not retract its window")
		}
		open(last)
	}
	h := findQuery(st, hq)
	waitUntil(t, "H and A finished with batches in flight", func() bool {
		return retiring(st, h) && retiring(st, a)
	})

	// Admit C while A's and H's bits are still carried in flight.
	cDone := submitAsync(context.Background(), st, cq)
	waitUntil(t, "C admitted without draining the pipeline", func() bool {
		return st.Stats()["cjoin_admitted"] == 3
	})
	c := findQuery(st, cq)
	st.mu.Lock()
	if n := a.outstanding.Load(); n == 0 {
		t.Errorf("A has no batches in flight; the scenario did not hold them")
	}
	if c.bit == a.bit || c.bit == h.bit {
		t.Errorf("C got bit %d while A (bit %d) and H (bit %d) are still in flight", c.bit, a.bit, h.bit)
	}
	if slices.Contains(st.freeBit, a.bit) || slices.Contains(st.freeBit, h.bit) {
		t.Errorf("freeBit %v holds an in-flight bit (A %d, H %d)", st.freeBit, a.bit, h.bit)
	}
	if !slices.Contains(st.retiring, a) || !slices.Contains(st.retiring, h) {
		t.Error("in-flight queries dropped from the retirement list before draining")
	}
	minted := st.nextBit
	st.mu.Unlock()

	// Resume H: everything drains and every result is exact.
	resumeOnce.Do(func() { close(resume) })
	if err := await(t, "H's Submit", hDone); err != nil {
		t.Fatalf("H: %v", err)
	}
	// Pipeline workers may reorder pages; H has no ORDER BY, so compare
	// its rows by their (lo_orderkey, lo_linenumber) key.
	byKey := func(a, b pages.Row) int {
		if c := cmp.Compare(a[0].I, b[0].I); c != 0 {
			return c
		}
		return cmp.Compare(a[1].I, b[1].I)
	}
	slices.SortFunc(hRows, byKey)
	slices.SortFunc(hWant, byKey)
	if !reflect.DeepEqual(hRows, hWant) {
		t.Errorf("H: %d rows, want %d", len(hRows), len(hWant))
	}
	if !retract {
		if r := await(t, "A's Submit", aDone); r.err != nil || !reflect.DeepEqual(r.rows, aWant) {
			t.Errorf("A: %d rows err %v, want %d rows", len(r.rows), r.err, len(aWant))
		}
	}
	if r := await(t, "C's Submit", cDone); r.err != nil || !reflect.DeepEqual(r.rows, cWant) {
		t.Errorf("C: %d rows err %v, want %d rows", len(r.rows), r.err, len(cWant))
	}
	waitUntil(t, "A's last batch released", func() bool { return a.outstanding.Load() == 0 })

	// Drained bits are free again. The next admission returns A's and
	// H's bits to freeBit; fresh queries, one alone and then three at
	// once, reuse them (no new bit is minted) and stay exact.
	check := func(want []pages.Row, r submitResult) {
		t.Helper()
		if r.err != nil || !reflect.DeepEqual(r.rows, want) {
			t.Errorf("after bit reuse: %d rows err %v, want %d rows", len(r.rows), r.err, len(want))
		}
	}
	dq, dWant := build(ssb.Q32(rng))
	check(dWant, await(t, "D's Submit", submitAsync(context.Background(), st, dq)))
	d := findQuery(st, dq)
	st.mu.Lock()
	free := append(slices.Clone(st.freeBit), d.bit)
	if !slices.Contains(free, a.bit) || !slices.Contains(free, h.bit) {
		t.Errorf("drained bits not freed: A %d, H %d; freeBit %v, D took %d", a.bit, h.bit, st.freeBit, d.bit)
	}
	st.mu.Unlock()
	var plans []*plan.Query
	var wants [][]pages.Row
	var results []<-chan submitResult
	for i := 0; i < 3; i++ {
		q, want := build(ssb.Q21(rng))
		plans, wants = append(plans, q), append(wants, want)
	}
	for _, q := range plans {
		results = append(results, submitAsync(context.Background(), st, q))
	}
	for i, ch := range results {
		check(wants[i], await(t, "concurrent reuse Submit", ch))
	}
	st.mu.Lock()
	if st.nextBit != minted {
		t.Errorf("nextBit grew %d -> %d: drained bits were not reused", minted, st.nextBit)
	}
	st.mu.Unlock()
}

// TestBitChurnParity churns query bits through retirement and reuse:
// 200 short Q3.2/Q2.1 queries from 4 concurrent submitters, a fifth of
// them cancelled after a random delay (landing while pending,
// mid-window or after completion) and a tenth cancelled before they
// are submitted. Every query that completes must be bit-identical to
// exec.Execute; every cancelled one must report context.Canceled. Run
// under -race it checks the admission/distributor hand-offs that
// replaced the pipeline drain.
func TestBitChurnParity(t *testing.T) {
	env := testEnv(t)
	st := hangSafeStage(t, env, Config{
		ScanPartitions: 2,
		Ports:          qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})
	rng := rand.New(rand.NewSource(59))
	const nPlans = 12
	plans := make([]*plan.Query, nPlans)
	wants := make([][]pages.Row, nPlans)
	for i := range plans {
		sql := ssb.Q32(rng)
		if i%2 == 1 {
			sql = ssb.Q21(rng)
		}
		q, err := plan.Build(env.Cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		w, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], wants[i] = q, w
	}

	const submitters, perSubmitter = 4, 50
	var completed, cancelled atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				k := r.Intn(nPlans)
				ctx, cancel := context.WithCancel(context.Background())
				switch i % 10 {
				case 1, 6:
					time.AfterFunc(time.Duration(r.Intn(3000))*time.Microsecond, cancel)
				case 3:
					cancel()
				}
				var rows []pages.Row
				var err error
				if i%10 == 0 {
					rows, err = st.Submit(plans[k])
				} else {
					rows, err = st.SubmitCtx(ctx, plans[k])
				}
				cancel()
				switch {
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				case err != nil:
					t.Errorf("query %d (plan %d): %v", i, k, err)
				case !reflect.DeepEqual(rows, wants[k]):
					t.Errorf("query %d (plan %d): %d rows, want %d", i, k, len(rows), len(wants[k]))
				default:
					completed.Add(1)
				}
			}
		}(int64(100 + s))
	}
	go func() { wg.Wait(); close(done) }()
	await(t, "the churn workload", done)

	if completed.Load()+cancelled.Load() != submitters*perSubmitter {
		t.Fatalf("completed %d + cancelled %d != %d", completed.Load(), cancelled.Load(), submitters*perSubmitter)
	}
	if cancelled.Load() == 0 {
		t.Error("no query was cancelled: the churn exercised no retraction")
	}
	// Bits are recycled, not minted per query: in-use bits are bounded
	// by the queries active or still in flight, far below one per query.
	st.mu.Lock()
	nextBit := st.nextBit
	st.mu.Unlock()
	if nextBit >= 64 {
		t.Errorf("nextBit = %d after %d queries: bits are not being recycled", nextBit, submitters*perSubmitter)
	}
	t.Logf("completed %d, cancelled %d, retracted %d, bits minted %d",
		completed.Load(), cancelled.Load(), st.Stats()["cjoin_retracted"], nextBit)
}

// TestReadFaultDuringPendingAdmissionsNoHang is the regression for one
// lock-plus-wait shape the admission drain had: a scanner whose fact
// read fails takes the stage lock to undo its batch claim, while an
// admission on another scanner held that lock waiting for the claim to
// drain. Here partition 1's scanner is parked inside a read that will
// fail, holding a claim, while more queries arrive and partition 0's
// scanner admits them; then the read fails. Every Submit must return —
// with its exact rows or the injected fault.
func TestReadFaultDuringPendingAdmissionsNoHang(t *testing.T) {
	env := testEnv(t)
	fact, _ := env.Cat.FactTable()
	boom := errors.New("injected read fault")
	faultPage := fact.NumPages / 2 // the first page of partition 1
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	var fired atomic.Bool
	faulty := *env
	faulty.ReadFault = func(table string, idx int) error {
		if table == fact.Name && idx == faultPage && fired.CompareAndSwap(false, true) {
			<-gate
			return boom
		}
		return nil
	}
	st := hangSafeStage(t, &faulty, Config{
		ScanPartitions:    2,
		MaxScanPartitions: -1,
		Ports:             qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})

	rng := rand.New(rand.NewSource(83))
	var plans []*plan.Query
	var wants [][]pages.Row
	for i := 0; i < 5; i++ {
		q, err := plan.Build(env.Cat, ssb.Q32(rng))
		if err != nil {
			t.Fatal(err)
		}
		w, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		plans, wants = append(plans, q), append(wants, w)
	}
	results := []<-chan submitResult{submitAsync(context.Background(), st, plans[0])}
	waitUntil(t, "partition 1's scanner parked in the failing read", fired.Load)
	for _, q := range plans[1:] {
		results = append(results, submitAsync(context.Background(), st, q))
	}
	waitUntil(t, "an admission while the claim is outstanding", func() bool {
		return st.Stats()["cjoin_batches"] >= 2
	})
	openGate()
	for i, ch := range results {
		r := await(t, fmt.Sprintf("Submit %d after the read fault", i), ch)
		if r.err == nil && !reflect.DeepEqual(r.rows, wants[i]) {
			t.Errorf("query %d: %d rows, want %d", i, len(r.rows), len(wants[i]))
		}
		if r.err != nil && !errors.Is(r.err, boom) {
			t.Errorf("query %d: %v, want the injected fault", i, r.err)
		}
	}
}

// deliveryPanicMagic poisons a query's fact predicate: the armed
// kernel panics when the distributor applies it to the query's output.
const deliveryPanicMagic = 515151

// TestDeliveryPanicRetractDuringAdmissionsNoHang is the regression for
// the other lock-plus-wait shape: a distributor part whose delivery
// panicked retracts the query under the stage lock, while an admission
// held that lock waiting for the batches queued behind the part to
// drain. A stream of admissions from 4 submitters runs through one
// distributor part with every third query poisoned. Every Submit must
// return: the healthy ones bit-identical to exec.Execute, the poisoned
// ones with a *exec.PanicError.
func TestDeliveryPanicRetractDuringAdmissionsNoHang(t *testing.T) {
	env := testEnv(t)
	st := hangSafeStage(t, env, Config{
		PipelineThreads:  1,
		DistributorParts: 1,
		Ports:            qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})
	rng := rand.New(rand.NewSource(97))
	const nPlans = 6
	plans := make([]*plan.Query, nPlans)
	wants := make([][]pages.Row, nPlans)
	for i := range plans {
		sql := ssb.Q32(rng)
		if i%2 == 1 {
			sql = ssb.Q21(rng)
		}
		q, err := plan.Build(env.Cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		w, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], wants[i] = q, w
	}
	expr.ArmKernelPanic(deliveryPanicMagic)
	defer expr.DisarmKernelPanic()
	poisoned, err := plan.Build(env.Cat, fmt.Sprintf(`SELECT SUM(lo_revenue) AS revenue, d_year
FROM lineorder, date
WHERE lo_orderdate = d_datekey
  AND lo_quantity < %d
GROUP BY d_year
ORDER BY d_year ASC`, deliveryPanicMagic))
	if err != nil {
		t.Fatal(err)
	}

	const submitters, perSubmitter = 4, 12
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if (s+i)%3 == 0 {
					_, err := st.Submit(poisoned)
					var pe *exec.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("poisoned query = %v, want *exec.PanicError", err)
					}
					continue
				}
				k := (s + i) % nPlans
				rows, err := st.Submit(plans[k])
				if err != nil || !reflect.DeepEqual(rows, wants[k]) {
					t.Errorf("healthy query (plan %d): %d rows err %v, want %d rows", k, len(rows), err, len(wants[k]))
				}
			}
		}(s)
	}
	go func() { wg.Wait(); close(done) }()
	await(t, "admissions alongside delivery-panic retractions", done)
}
