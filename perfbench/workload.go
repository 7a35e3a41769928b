package main

import (
	"fmt"
	"math/rand"
	"time"

	"sharedq/internal/core"
	"sharedq/internal/qpipe"
	"sharedq/internal/ssb"
)

// dataSeed fixes the generated database. The --seed flag varies only
// the workload: which queries run, in what order, and when they arrive.
const dataSeed = 1

// workload is one input set: a database, an engine configuration and
// a seeded query stream drawn from a pool of distinct queries.
type workload struct {
	name   string
	sys    core.SystemConfig
	opts   core.Options
	served bool // behind serve.Server over loopback
	// clients > 0 runs a closed loop of that many clients; otherwise an
	// open loop of Poisson arrivals at rate queries per second.
	clients int
	rate    float64
	// pool renders the distinct queries of this seed; pick chooses the
	// i-th query of a client's stream as an index into the pool.
	pool func(rng *rand.Rand) []string
	pick func(rng *rand.Rand, i, poolLen int) int
	// streaming reports whether pool entry j is a row-streaming query
	// (time to first row is reported over those when any exist).
	streaming func(j int) bool
	// warmup is the load run before timing starts.
	warmup time.Duration
	// window is the length of the stretches the end-to-end metrics take
	// their medians over: short enough that a burst of interference on
	// the host spoils few of them, long enough for a stable p99 in each.
	window time.Duration
}

func uniform(rng *rand.Rand, _, poolLen int) int { return rng.Intn(poolLen) }

// projectionKs are the lo_quantity cut-offs of served-scan's row
// streaming queries: each returns 4%–14% of lineorder (12k–42k rows
// at SF 0.05).
var projectionKs = []int{3, 4, 5, 6, 7, 8}

const mixPool = 24 // distinct Q1.1/Q2.1/Q3.2 instances in served-scan

var workloads = []*workload{
	{
		name:    "shared-star",
		sys:     core.SystemConfig{SF: 0.05, Seed: dataSeed},
		opts:    core.Options{Mode: core.CJOINSP, Comm: qpipe.CommSPL, Parallelism: 2},
		clients: 32,
		// A fresh CJOIN stage starts about 1.5x faster than it runs
		// after ten seconds of this load; time the settled stage.
		warmup: 10 * time.Second,
		window: time.Second,
		pool: func(*rand.Rand) []string {
			out := make([]string, 16)
			for i := range out {
				out[i] = ssb.Q32PoolPlan(i)
			}
			return out
		},
		pick: uniform,
	},
	{
		name:   "adhoc-arrivals",
		sys:    core.SystemConfig{SF: 0.05, Seed: dataSeed},
		opts:   core.Options{Mode: core.QPipeSP, Comm: qpipe.CommSPL, Parallelism: 2},
		rate:   20,
		warmup: 2 * time.Second,
		window: 2500 * time.Millisecond,
		pool: func(rng *rand.Rand) []string {
			// Six random instances of each star template Q2.1–Q4.3
			// (flight entries 3..12): low similarity, a pool small
			// enough to compute every reference result up front.
			seen := map[string]bool{}
			var out []string
			for v := 0; v < 6; v++ {
				for t := 3; t < ssb.FlightSize; t++ {
					if q := ssb.Flight(t, rng); !seen[q] {
						seen[q] = true
						out = append(out, q)
					}
				}
			}
			return out
		},
		pick: uniform,
	},
	{
		name: "served-scan",
		sys: core.SystemConfig{SF: 0.05, Seed: dataSeed, Compressed: true,
			BatchCachePages: 64},
		opts:    core.Options{Mode: core.Baseline, Parallelism: 2, DefaultTimeout: queryDeadline},
		served:  true,
		clients: 2,
		warmup:  2 * time.Second,
		window:  3 * time.Second,
		pool: func(rng *rand.Rand) []string {
			out := make([]string, 0, mixPool+len(projectionKs))
			for i := 0; i < mixPool; i++ {
				out = append(out, ssb.MixQuery(i, rng))
			}
			for _, k := range projectionKs {
				out = append(out, fmt.Sprintf(
					"SELECT lo_orderkey, lo_revenue FROM lineorder WHERE lo_quantity < %d", k))
			}
			return out
		},
		// Three of every four queries come from the SSB mix, the fourth
		// is a row-streaming projection.
		pick: func(rng *rand.Rand, i, poolLen int) int {
			if i%4 == 3 {
				return mixPool + rng.Intn(poolLen-mixPool)
			}
			return rng.Intn(mixPool)
		},
		streaming: func(j int) bool { return j >= mixPool },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
