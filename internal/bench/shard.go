package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/faultfs"
)

// ShardJSONPath, when non-empty, is where E14 writes its
// machine-readable results. cmd/odebench points it at BENCH_shard.json
// in the invocation directory; tests leave it empty.
var ShardJSONPath = ""

// e14FsyncLatency is the modeled device: every fsync costs this much,
// like a commodity SSD (tmpfs fsyncs in microseconds, which hides the
// very bottleneck sharding parallelizes — independent WAL pipelines
// waiting on the device concurrently).
const e14FsyncLatency = 3 * time.Millisecond

// slowFS wraps a filesystem and charges e14FsyncLatency per Sync.
type slowFS struct{ inner faultfs.FS }

func (s slowFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := s.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowFile{f}, nil
}
func (s slowFS) Stat(path string) (int64, error)              { return s.inner.Stat(path) }
func (s slowFS) MkdirAll(path string, perm os.FileMode) error { return s.inner.MkdirAll(path, perm) }
func (s slowFS) ReadDir(dir string) ([]string, error)         { return s.inner.ReadDir(dir) }

func (s slowFS) SyncDir(dir string) error {
	time.Sleep(e14FsyncLatency)
	return s.inner.SyncDir(dir)
}

type slowFile struct{ faultfs.File }

func (f slowFile) Sync() error {
	time.Sleep(e14FsyncLatency)
	return f.File.Sync()
}

// ShardResult is one E14 measurement cell.
type ShardResult struct {
	Shards        int     `json:"shards"`
	Committers    int     `json:"committers"`
	Workload      string  `json:"workload"` // "single", "cross" (2PC-heavy) or "grouped"
	CommitsPerSec float64 `json:"commits_per_sec"`
	Commits       int64   `json:"commits"`
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	Millis        int64   `json:"window_ms"`
}

// shardCell opens a store with n shards on the modeled device, seeds
// one object per committer (the engine round-robins fresh objects
// across shards, so committers land evenly), and lets each committer
// loop small in-place updates for one window. With crossShard, every
// transaction touches the committer's own object AND its neighbour's —
// on distinct shards that is a presumed-abort 2PC commit. With grouped
// false every commit holds the harness mutexes of its objects' shards
// (shardLocks) and pays one fsync per transaction, the regime where
// per-shard WAL pipelines scale commit throughput; with grouped true
// concurrent commits batch freely.
func shardCell(dir string, shards, nCommitters int, crossShard, grouped bool, window time.Duration) (int64, time.Duration, ode.HistSnapshot, error) {
	var hist ode.HistSnapshot
	db, err := ode.Open(dir, &ode.Options{
		Shards:          shards,
		CheckpointBytes: -1,
		PageSize:        512,
		FS:              slowFS{faultfs.OS},
	})
	if err != nil {
		return 0, 0, hist, err
	}
	defer db.Close()
	ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
	if err != nil {
		return 0, 0, hist, err
	}
	objs := make([]ode.OID, nCommitters)
	rng := rand.New(rand.NewSource(14))
	for i := range objs {
		// One create per transaction: the allocator round-robins each
		// transaction's first object, spreading committers over shards.
		if err := db.Update(func(tx *ode.Tx) error {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 128, 0.5)})
			objs[i] = p.OID()
			return err
		}); err != nil {
			return 0, 0, hist, err
		}
	}

	locks := newShardLocks(db)
	var (
		commits   atomic.Int64
		latencyNS atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
	)
	for i := 0; i < nCommitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mine, next := objs[i], objs[(i+1)%nCommitters]
			payload := Payload(rand.New(rand.NewSource(int64(i))), 64, 0.5)
			var held []int
			switch {
			case grouped:
			case crossShard:
				held = shardsOf(db, mine, next)
			default:
				held = shardsOf(db, mine)
			}
			for !stop.Load() {
				t0 := time.Now()
				err := locks.update(db, held, func(tx *ode.Tx) error {
					if _, err := tx.UpdateLatestRaw(mine, payload); err != nil {
						return err
					}
					if crossShard {
						if _, err := tx.UpdateLatestRaw(next, payload); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				latencyNS.Add(time.Since(t0).Nanoseconds())
				commits.Add(1)
			}
		}(i)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, hist, firstErr
	}
	hist = db.Metrics().CommitLatency
	return commits.Load(), time.Duration(latencyNS.Load()), hist, nil
}

// E14 — shard scaling: synchronous commit throughput of 16 concurrent
// committers as the shard count grows, on a modeled commodity device
// (every fsync costs e14FsyncLatency). Each shard owns its WAL, buffer
// pool, writer mutex and commit pipeline:
//
//   - single: every transaction stays on its committer's shard and
//     holds that shard's harness mutex (shardLocks), so it pays one
//     fsync of its own. At one shard the mutex serializes the device
//     waits; at N shards the pipelines wait on the device concurrently
//     — the architectural win this experiment gates on.
//   - cross: every transaction also touches a neighbour's object,
//     usually on another shard, holding both shards' harness mutexes
//     in ascending order — each commit is a presumed-abort 2PC (two
//     prepares + a coordinator decision record), pricing the
//     cross-shard path.
//   - grouped: the default group-commit pipeline, where concurrent
//     commits already share one fsync; its shard-scaling win is CPU
//     parallelism of staging/btree work, which a single-core host
//     cannot show — the row is the honest control, not the headline.
func E14(root string, s Scale) (*Table, error) {
	window := time.Duration(2000/s.Factor) * time.Millisecond
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	const committers = 16

	t := &Table{
		Title:   "E14 — Sharding: 16-committer commit throughput vs shard count",
		Note:    fmt.Sprintf("16 committers loop small in-place updates on their own objects for %v per cell on a modeled device (%v per fsync; tmpfs hides the device wait sharding parallelizes). single = shard-local txns, each holding a harness mutex for its shard so it pays one fsync of its own (per-shard WAL pipelines overlap device waits); cross = every txn spans two shards and holds both shards' mutexes (2PC: two prepares + coordinator record); grouped = default group-commit pipeline (batching already shares the fsync — its sharding win is multicore staging, not visible on one core). Speedup is vs the 1-shard cell of the same workload.", window, e14FsyncLatency),
		Headers: []string{"shards", "workload", "commits/s", "speedup", "mean (µs)", "p50/p95/p99 (µs)"},
	}

	var results []ShardResult
	base := map[string]float64{}
	cell := 0
	for _, workload := range []string{"single", "cross", "grouped"} {
		for _, n := range []int{1, 2, 4, 8} {
			cell++
			dir := filepath.Join(root, fmt.Sprintf("e14-%02d", cell))
			commits, latency, hist, err := shardCell(dir, n, committers,
				workload == "cross", workload == "grouped", window)
			if err != nil {
				return nil, err
			}
			r := ShardResult{
				Shards:        n,
				Committers:    committers,
				Workload:      workload,
				CommitsPerSec: float64(commits) / window.Seconds(),
				Commits:       commits,
				P50LatencyUS:  usFromNS(hist.P50()),
				P95LatencyUS:  usFromNS(hist.P95()),
				P99LatencyUS:  usFromNS(hist.P99()),
				Millis:        window.Milliseconds(),
			}
			if commits > 0 {
				r.MeanLatencyUS = float64(latency.Microseconds()) / float64(commits)
			}
			results = append(results, r)
			if n == 1 {
				base[workload] = r.CommitsPerSec
			}
			speedup := 0.0
			if base[workload] > 0 {
				speedup = r.CommitsPerSec / base[workload]
			}
			t.AddRow(fmt.Sprintf("%d", n), workload,
				fmt.Sprintf("%.0f", r.CommitsPerSec),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.1f", r.MeanLatencyUS),
				fmt.Sprintf("%.0f/%.0f/%.0f", r.P50LatencyUS, r.P95LatencyUS, r.P99LatencyUS))
		}
	}

	if ShardJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string        `json:"experiment"`
			Results    []ShardResult `json:"results"`
		}{"E14-shard-scaling", results}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(ShardJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
