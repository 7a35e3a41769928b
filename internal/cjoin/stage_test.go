package cjoin

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"sharedq/internal/buffer"
	"sharedq/internal/catalog"
	"sharedq/internal/disk"
	"sharedq/internal/exec"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/qpipe"
	"sharedq/internal/ssb"
	"sharedq/internal/vec"
)

func testEnv(t *testing.T) *exec.Env {
	t.Helper()
	dev := disk.NewDevice(disk.Config{Timed: false})
	cat := catalog.New()
	ssb.RegisterSchemas(cat)
	if err := (ssb.Gen{SF: 0.0005, Seed: 13}).Load(dev, cat); err != nil {
		t.Fatal(err)
	}
	cache := disk.NewFSCache(dev, disk.CacheConfig{})
	return &exec.Env{Cat: cat, Pool: buffer.NewPool(cache, 4096), Col: &metrics.Collector{}}
}

func newStage(t *testing.T, env *exec.Env, sp bool) *Stage {
	t.Helper()
	st := NewStage(env, Config{
		SP:    sp,
		Ports: qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})
	t.Cleanup(st.Close)
	return st
}

func TestDimTableBasics(t *testing.T) {
	d := newDimTable(2)
	b := vec.FromRows([]pages.Row{
		{pages.Int(1), pages.Str("x")},
		{pages.Int(2), pages.Str("y")},
	})
	d.setBit(b, 0, 0, 0)
	d.setBit(b, 0, 0, 5)
	d.setBit(b, 0, 1, 1)
	row, sel := d.lookup(pages.Int(1))
	if row == nil || !sel.Test(0) || !sel.Test(5) || sel.Test(1) {
		t.Errorf("lookup(1) = %v, %v", row, sel)
	}
	if row, _ := d.lookup(pages.Int(9)); row != nil {
		t.Error("lookup(9) should miss")
	}
	if d.keys() != 2 {
		t.Errorf("keys = %d", d.keys())
	}
	d.clearBit(5)
	_, sel = d.lookup(pages.Int(1))
	if sel.Test(5) || !sel.Test(0) {
		t.Errorf("clearBit: %v", sel)
	}
	// A key already present only gains the bit: its row is the one
	// materialized at insert, not the later batch's.
	b2 := vec.FromRows([]pages.Row{{pages.Int(1), pages.Str("z")}})
	d.setBit(b2, 0, 0, 7)
	row, sel = d.lookup(pages.Int(1))
	if row[1].S != "x" || !sel.Test(7) || !sel.Test(0) {
		t.Errorf("setBit on existing key: row %v sel %v", row, sel)
	}
	if d.keys() != 2 {
		t.Errorf("keys after re-select = %d", d.keys())
	}
}

func TestDimTableCollisionChains(t *testing.T) {
	d := newDimTable(1)
	rows := make([]pages.Row, 500)
	for i := range rows {
		rows[i] = pages.Row{pages.Int(int64(i))}
	}
	b := vec.FromRows(rows)
	for i := range rows {
		d.setBit(b, 0, i, i%64)
	}
	if d.keys() != 500 {
		t.Fatalf("keys = %d", d.keys())
	}
	for i := 0; i < 500; i++ {
		row, sel := d.lookup(pages.Int(int64(i)))
		if row == nil || !sel.Test(i%64) {
			t.Fatalf("lookup(%d) = %v, %v", i, row, sel)
		}
		if row, sel = d.lookupInt(int64(i)); row == nil || !sel.Test(i%64) {
			t.Fatalf("lookupInt(%d) = %v, %v", i, row, sel)
		}
	}
}

func TestSubmitSingleQueryMatchesBaseline(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, false)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		q, err := plan.Build(env.Cat, ssb.Q32Selectivity(rng, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: CJOIN %d rows, baseline %d rows", i, len(got), len(want))
		}
	}
}

func TestSubmitQ11FactPredicates(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, false)
	rng := rand.New(rand.NewSource(5))
	q, err := plan.Build(env.Cat, ssb.Q11(rng))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fact predicates on output tuples broken: got %v want %v", got, want)
	}
}

func TestSubmitRejectsNonStar(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, false)
	q, err := plan.Build(env.Cat, ssb.TPCHQ1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(q); err == nil {
		t.Error("single-table query should be rejected")
	}
}

func TestConcurrentMixedQueries(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, false)
	rng := rand.New(rand.NewSource(6))
	const n = 10
	plans := make([]*plan.Query, n)
	wants := make([][]pages.Row, n)
	for i := 0; i < n; i++ {
		var sql string
		switch i % 3 {
		case 0:
			sql = ssb.Q32(rng)
		case 1:
			sql = ssb.Q21(rng)
		default:
			sql = ssb.Q11(rng)
		}
		q, err := plan.Build(env.Cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = q
		w, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	results := make([][]pages.Row, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Submit(plans[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], wants[i]) {
			t.Errorf("query %d: %d rows, want %d", i, len(results[i]), len(wants[i]))
		}
	}
	s := st.Stats()
	if s["cjoin_admitted"] != n {
		t.Errorf("admitted = %d, want %d", s["cjoin_admitted"], n)
	}
	if s["cjoin_batches"] < 1 {
		t.Error("no admission batches recorded")
	}
	if st.AdmissionTime() <= 0 {
		t.Error("admission time not recorded")
	}
}

func TestSequentialBatchesBitReuse(t *testing.T) {
	// Submit waves sequentially so bits are freed and reused; results
	// must stay correct (stale bits would leak old selections).
	env := testEnv(t)
	st := newStage(t, env, false)
	rng := rand.New(rand.NewSource(7))
	for wave := 0; wave < 4; wave++ {
		q, err := plan.Build(env.Cat, ssb.Q32(rng))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wave %d: results diverged after bit reuse", wave)
		}
	}
}

func TestCJOINSPSharesIdenticalPackets(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, true)
	q, err := plan.Build(env.Cat, ssb.Q32PoolPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([][]pages.Row, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Submit(q)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("query %d diverged", i)
		}
	}
	s := st.Stats()
	if s["cjoin_shared"]+s["cjoin_admitted"] != n {
		t.Errorf("stats = %v, want shared+admitted = %d", s, n)
	}
}

func TestCJOINSPDifferentPlansNotShared(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, true)
	qa, _ := plan.Build(env.Cat, ssb.Q32PoolPlan(0))
	qb, _ := plan.Build(env.Cat, ssb.Q32PoolPlan(30))
	wa, _ := exec.Execute(env, qa)
	wb, _ := exec.Execute(env, qb)
	var wg sync.WaitGroup
	var ra, rb []pages.Row
	var ea, eb error
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = st.Submit(qa) }()
	go func() { defer wg.Done(); rb, eb = st.Submit(qb) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatal(ea, eb)
	}
	if !reflect.DeepEqual(ra, wa) || !reflect.DeepEqual(rb, wb) {
		t.Error("different plans cross-contaminated")
	}
	if st.Stats()["cjoin_shared"] != 0 {
		t.Error("different plans shared a packet")
	}
}

func TestSingleDistributorPart(t *testing.T) {
	// The ablation configuration: 1 pipeline thread, 1 distributor part
	// (the original CJOIN's bottleneck). Must still be correct.
	env := testEnv(t)
	st := NewStage(env, Config{
		PipelineThreads:  1,
		DistributorParts: 1,
		Ports:            qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})
	t.Cleanup(st.Close)
	rng := rand.New(rand.NewSource(9))
	q, err := plan.Build(env.Cat, ssb.Q32(rng))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("single-part configuration diverged")
	}
}

func TestFIFOPortsConfiguration(t *testing.T) {
	env := testEnv(t)
	st := NewStage(env, Config{
		Ports: qpipe.PortConfig{Model: qpipe.CommFIFO, Col: env.Col},
	})
	t.Cleanup(st.Close)
	rng := rand.New(rand.NewSource(10))
	q, err := plan.Build(env.Cat, ssb.Q32(rng))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("FIFO-port CJOIN diverged")
	}
}

func TestRepeatedWavesStress(t *testing.T) {
	env := testEnv(t)
	st := newStage(t, env, true)
	rng := rand.New(rand.NewSource(11))
	for wave := 0; wave < 3; wave++ {
		const n = 6
		plans := make([]*plan.Query, n)
		wants := make([][]pages.Row, n)
		for i := 0; i < n; i++ {
			q, err := plan.Build(env.Cat, ssb.Q32Pool(rng, 3))
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = q
			w, err := exec.Execute(env, q)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = w
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := st.Submit(plans[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("wave %d query %d diverged", wave, i)
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestPartitionedScannersParity runs concurrent mixed waves with the
// fact scan split across several partitioned scanners and requires
// baseline-identical results: each query must see every fact page
// exactly once across the partitions' independent circular passes.
func TestPartitionedScannersParity(t *testing.T) {
	env := testEnv(t)
	for _, parts := range []int{2, 3, 5} {
		st := NewStage(env, Config{
			SP:             true,
			ScanPartitions: parts,
			Ports:          qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
		})
		rng := rand.New(rand.NewSource(int64(20 + parts)))
		const n = 8
		plans := make([]*plan.Query, n)
		wants := make([][]pages.Row, n)
		for i := 0; i < n; i++ {
			var sql string
			switch i % 3 {
			case 0:
				sql = ssb.Q32Pool(rng, 3)
			case 1:
				sql = ssb.Q21(rng)
			default:
				sql = ssb.Q11(rng)
			}
			q, err := plan.Build(env.Cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = q
			w, err := exec.Execute(env, q)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = w
		}
		var wg sync.WaitGroup
		results := make([][]pages.Row, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = st.Submit(plans[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("parts=%d query %d: %v", parts, i, errs[i])
			}
			if !reflect.DeepEqual(results[i], wants[i]) {
				t.Errorf("parts=%d query %d: %d rows, want %d",
					parts, i, len(results[i]), len(wants[i]))
			}
		}
		// Sequential re-submission exercises bit reuse across partitions.
		for wave := 0; wave < 2; wave++ {
			q := plans[wave]
			got, err := st.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wants[wave]) {
				t.Errorf("parts=%d wave %d diverged after bit reuse", parts, wave)
			}
		}
		st.Close()
	}
}

// TestCloseDrainsInFlightQueries pins the graceful-shutdown contract:
// Close with queries still in flight waits for their circular windows
// to complete — every in-flight Submit returns its full, correct
// result — and only then tears the pipeline down. Submissions arriving
// after Close has begun are rejected with ErrClosed.
func TestCloseDrainsInFlightQueries(t *testing.T) {
	env := testEnv(t)
	st := NewStage(env, Config{
		Ports: qpipe.PortConfig{Model: qpipe.CommSPL, Col: env.Col},
	})
	rng := rand.New(rand.NewSource(21))
	const n = 4
	plans := make([]*plan.Query, n)
	wants := make([][]pages.Row, n)
	for i := range plans {
		q, err := plan.Build(env.Cat, ssb.Q32(rng))
		if err != nil {
			t.Fatal(err)
		}
		w, err := exec.Execute(env, q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], wants[i] = q, w
	}

	results := make([][]pages.Row, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Submit(plans[i])
		}(i)
	}
	// Wait until every query has actually been admitted, so Close lands
	// with windows genuinely open.
	for {
		if st.Stats()["cjoin_admitted"] == n {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	st.Close()
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("query %d failed across Close: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], wants[i]) {
			t.Errorf("query %d: drained result diverges from baseline", i)
		}
	}

	// The stage is down: new submissions are rejected, and a second
	// Close is a no-op.
	if _, err := st.Submit(plans[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	st.Close()
}
