package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sharedq/internal/buffer"
	"sharedq/internal/catalog"
	"sharedq/internal/disk"
	"sharedq/internal/metrics"
	"sharedq/internal/plan"
	"sharedq/internal/ssb"
	"sharedq/internal/vec"
)

// pooledEnv is testEnv plus a batch pool, so checkout/release imbalance
// is observable through Pool.Outstanding.
func pooledEnv(t *testing.T) *Env {
	t.Helper()
	dev := disk.NewDevice(disk.Config{Timed: false})
	cat := catalog.New()
	ssb.RegisterSchemas(cat)
	if err := (ssb.Gen{SF: 0.0005, Seed: 42}).Load(dev, cat); err != nil {
		t.Fatal(err)
	}
	cache := disk.NewFSCache(dev, disk.CacheConfig{})
	return &Env{
		Cat:     cat,
		Pool:    buffer.NewPool(cache, 4096),
		Col:     &metrics.Collector{},
		Recycle: vec.NewPool(),
	}
}

func starPlan(t *testing.T, env *Env) *plan.Query {
	t.Helper()
	q, err := plan.Build(env.Cat, ssb.Q32PoolPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestExecuteReadFaultReleasesBatches is the error-injection audit test
// for the Execute/emit paths: a read fault in the middle of the fact
// scan must surface as the query's error with every checked-out pool
// batch released — under poisoned releases, so a path that kept using
// a released batch would also fail loudly.
func TestExecuteReadFaultReleasesBatches(t *testing.T) {
	vec.SetPoison(true)
	defer vec.SetPoison(false)
	env := pooledEnv(t)
	q := starPlan(t, env)
	boom := errors.New("injected read fault")

	for _, page := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("factPage=%d", page), func(t *testing.T) {
			faulty := *env
			faulty.ReadFault = func(table string, idx int) error {
				if table == q.Fact.Name && idx == page {
					return boom
				}
				return nil
			}
			if _, err := Execute(&faulty, q); !errors.Is(err, boom) {
				t.Fatalf("Execute with fault at page %d = %v, want injected fault", page, err)
			}
			if n := env.Recycle.Outstanding(); n != 0 {
				t.Fatalf("%d pool batches leaked on the read-fault path", n)
			}
		})
	}

	// A dimension-scan fault during the build phase must behave the same.
	faulty := *env
	faulty.ReadFault = func(table string, idx int) error {
		if table == q.Dims[0].Table {
			return boom
		}
		return nil
	}
	if _, err := Execute(&faulty, q); !errors.Is(err, boom) {
		t.Fatalf("Execute with dimension fault = %v, want injected fault", err)
	}
	if n := env.Recycle.Outstanding(); n != 0 {
		t.Fatalf("%d pool batches leaked on the dimension-fault path", n)
	}
}

// TestExecuteMorselsReadFault injects the fault into the parallel
// morsel path: one worker fails, the others stop at their next morsel
// claim, and nothing leaks.
func TestExecuteMorselsReadFault(t *testing.T) {
	vec.SetPoison(true)
	defer vec.SetPoison(false)
	env := pooledEnv(t)
	env.Parallelism = 4
	q := starPlan(t, env)
	boom := errors.New("injected read fault")
	faulty := *env
	faulty.ReadFault = func(table string, idx int) error {
		if table == q.Fact.Name && idx == q.Fact.NumPages/2 {
			return boom
		}
		return nil
	}
	if _, err := Execute(&faulty, q); !errors.Is(err, boom) {
		t.Fatalf("parallel Execute with fault = %v, want injected fault", err)
	}
	if n := env.Recycle.Outstanding(); n != 0 {
		t.Fatalf("%d pool batches leaked on the parallel fault path", n)
	}
}

// TestExecuteRowsReadFault pins the row-at-a-time path to the same
// fault hooks as the batch path: ScanTable must consult Env.ReadFault
// for every page it reads (no side door past injection or quarantine),
// and an injected fault must surface as the query's error.
func TestExecuteRowsReadFault(t *testing.T) {
	env := pooledEnv(t)
	q := starPlan(t, env)
	boom := errors.New("injected read fault")

	// Count consultations on a clean run: one per page of every table
	// the pipeline touches, fact included.
	consulted := map[string]int{}
	counting := *env
	counting.ReadFault = func(table string, idx int) error {
		consulted[table]++
		return nil
	}
	got, err := ExecuteRows(&counting, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row pipeline disagrees with batch pipeline: %v vs %v", got, want)
	}
	if got := consulted[q.Fact.Name]; got != q.Fact.NumPages {
		t.Fatalf("fact scan consulted ReadFault %d times, want %d", got, q.Fact.NumPages)
	}
	for _, d := range q.Dims {
		tbl := env.Cat.MustGet(d.Table)
		if got := consulted[d.Table]; got != tbl.NumPages {
			t.Fatalf("dimension %s consulted ReadFault %d times, want %d", d.Table, got, tbl.NumPages)
		}
	}

	// And a fault mid-fact-scan fails the query.
	faulty := *env
	faulty.ReadFault = func(table string, idx int) error {
		if table == q.Fact.Name && idx == q.Fact.NumPages/2 {
			return boom
		}
		return nil
	}
	if _, err := ExecuteRows(&faulty, q); !errors.Is(err, boom) {
		t.Fatalf("ExecuteRows with fault = %v, want injected fault", err)
	}
}

// TestExecuteCtxCancellation covers the cooperative cancellation
// points: an already-cancelled context fails before any work, a
// deadline in the past returns DeadlineExceeded, and cancellation
// racing the pipeline at random points never leaks a pool batch or
// corrupts a surviving run (poisoned releases would make either loud).
func TestExecuteCtxCancellation(t *testing.T) {
	vec.SetPoison(true)
	defer vec.SetPoison(false)
	env := pooledEnv(t)
	q := starPlan(t, env)
	want, err := Execute(env, q)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteCtx(ctx, env, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ExecuteCtx = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), -time.Second)
	defer dcancel()
	if _, err := ExecuteCtx(dctx, env, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline ExecuteCtx = %v, want context.DeadlineExceeded", err)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wenv := *env
			wenv.Parallelism = workers
			rng := rand.New(rand.NewSource(int64(workers)))
			for i := 0; i < 30; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				rows, err := ExecuteCtx(ctx, &wenv, q)
				timer.Stop()
				cancel()
				switch {
				case err == nil:
					if !reflect.DeepEqual(rows, want) {
						t.Fatalf("iteration %d: surviving run diverges from reference", i)
					}
				case errors.Is(err, context.Canceled):
					// cancelled mid-flight: fine
				default:
					t.Fatalf("iteration %d: unexpected error %v", i, err)
				}
				if n := env.Recycle.Outstanding(); n != 0 {
					t.Fatalf("iteration %d: %d pool batches leaked after cancellation", i, n)
				}
			}
		})
	}
}

// TestExecuteCtxStopsWithinOnePage pins the fact pipeline's one
// cancellation point: once the context is cancelled mid-scan, no
// goroutine starts another fact page, even inside a morsel. The first
// fact read cancels; a sequential run reads nothing after it, and each
// other morsel worker at most the page it had already passed the check
// for. Morsels of half the table make a per-morsel check read on.
func TestExecuteCtxStopsWithinOnePage(t *testing.T) {
	env := pooledEnv(t)
	q := starPlan(t, env)
	if q.Fact.NumPages < 8 {
		t.Fatalf("fact table has %d pages; the test needs several per worker", q.Fact.NumPages)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var reads atomic.Int32
			wenv := *env
			wenv.Parallelism = workers
			wenv.MorselPages = q.Fact.NumPages / 2
			workers := executeParallelism(&wenv, q)
			wenv.ReadFault = func(table string, _ int) error {
				if table == q.Fact.Name && reads.Add(1) == 1 {
					cancel()
				}
				return nil
			}
			if _, err := ExecuteCtx(ctx, &wenv, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("ExecuteCtx = %v, want context.Canceled", err)
			}
			if after := int(reads.Load()) - 1; after > workers-1 {
				t.Errorf("%d fact pages read after the cancel, want at most %d", after, workers-1)
			}
			if n := env.Recycle.Outstanding(); n != 0 {
				t.Fatalf("%d pool batches leaked", n)
			}
		})
	}
}
