package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ode"
)

// GroupCommitJSONPath, when non-empty, is where E12 writes its
// machine-readable results. cmd/odebench points it at
// BENCH_groupcommit.json in the invocation directory; tests leave it
// empty so quick runs emit nothing.
var GroupCommitJSONPath = ""

// GroupCommitResult is one E12 measurement cell. The percentile columns
// come from the engine's own commit-latency histogram (db.Metrics()),
// so they are exact to within one power-of-two bucket width.
type GroupCommitResult struct {
	Committers      int     `json:"committers"`
	Mode            string  `json:"mode"` // "baseline" (shard locks, one fsync per commit) or "grouped"
	CommitsPerSec   float64 `json:"commits_per_sec"`
	Commits         int64   `json:"commits"`
	Batches         uint64  `json:"fsync_batches"`
	MeanLatencyUS   float64 `json:"mean_latency_us"`
	P50LatencyUS    float64 `json:"p50_latency_us"`
	P95LatencyUS    float64 `json:"p95_latency_us"`
	P99LatencyUS    float64 `json:"p99_latency_us"`
	Millis          int64   `json:"window_ms"`
	MeanCommitGroup float64 `json:"mean_commit_group"`
}

// shardLocks is the E12/E14 baseline: one harness mutex per physical
// shard. A baseline committer holds the mutexes of the shards its
// objects live on, in ascending shard order, around its whole Update.
// Its commit then sits alone in each shard's queue and pays its own
// fsync — one fsync per transaction, the regime group commit is
// measured against.
type shardLocks []sync.Mutex

func newShardLocks(db *ode.DB) shardLocks {
	return make(shardLocks, db.Engine().Coordinator().NumShards())
}

// shardsOf returns the ascending, distinct shards objs are placed on.
func shardsOf(db *ode.DB, objs ...ode.OID) []int {
	m := db.Engine().Coordinator().Map()
	var shards []int
	for _, o := range objs {
		shards = append(shards, m.ShardOf(uint64(o)))
	}
	slices.Sort(shards)
	return slices.Compact(shards)
}

// update runs fn as one Update holding the locks of shards (none in
// grouped mode, where shards is nil).
func (l shardLocks) update(db *ode.DB, shards []int, fn func(*ode.Tx) error) error {
	for _, s := range shards {
		l[s].Lock()
	}
	err := db.Update(fn)
	for _, s := range shards {
		l[s].Unlock()
	}
	return err
}

// usFromNS converts a nanosecond histogram quantile to microseconds.
func usFromNS(ns uint64) float64 { return float64(ns) / 1e3 }

// groupCommitCell opens a fresh store with the given options, seeds one
// object per committer (disjoint objects — the cell measures the commit
// pipeline, not version-level contention) and lets nCommitters
// goroutines commit small in-place updates back-to-back with real
// fsyncs for one wall-clock window; with baseline each commit holds its
// object's shard lock (shardLocks). It returns total commits, the
// fsync-batch count, the summed per-commit latency, and the engine's
// commit-latency histogram snapshot (zero-valued under NoMetrics).
func groupCommitCell(dir string, opts *ode.Options, nCommitters int, baseline bool, window time.Duration) (int64, uint64, time.Duration, ode.HistSnapshot, error) {
	var hist ode.HistSnapshot
	db, err := ode.Open(dir, opts)
	if err != nil {
		return 0, 0, 0, hist, err
	}
	defer db.Close()
	ty, err := ode.RegisterWithCodec[Blob](db, "Blob", rawCodec{})
	if err != nil {
		return 0, 0, 0, hist, err
	}

	objs := make([]ode.OID, nCommitters)
	rng := rand.New(rand.NewSource(12))
	if err := db.Update(func(tx *ode.Tx) error {
		for i := range objs {
			p, err := ty.Create(tx, &Blob{Data: Payload(rng, 128, 0.5)})
			if err != nil {
				return err
			}
			objs[i] = p.OID()
		}
		return nil
	}); err != nil {
		return 0, 0, 0, hist, err
	}
	startBatches := db.Stats().Batches
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
		go func(o ode.OID) {
			defer wg.Done()
			payload := Payload(rand.New(rand.NewSource(int64(len(objs)))), 64, 0.5)
			var held []int
			if baseline {
				held = shardsOf(db, o)
			}
			for !stop.Load() {
				t0 := time.Now()
				// A small in-place update is the canonical group-commit
				// workload: almost no CPU per txn, so the commit cost IS
				// the WAL flush. It is also stationary — NewVersion would
				// grow the version index over the window and make later
				// commits dearer than earlier ones.
				err := locks.update(db, held, func(tx *ode.Tx) error {
					_, err := tx.UpdateLatestRaw(o, payload)
					return err
				})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				latencyNS.Add(time.Since(t0).Nanoseconds())
				commits.Add(1)
			}
		}(objs[i])
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return 0, 0, 0, hist, firstErr
	}
	hist = db.Metrics().CommitLatency
	return commits.Load(), db.Stats().Batches - startBatches,
		time.Duration(latencyNS.Load()), hist, nil
}

// E12 — group-commit throughput: synchronous commit rate as committer
// concurrency grows, grouped WAL batching versus the one-fsync-per-txn
// baseline (shardLocks: each commit holds its shard's harness mutex, so
// it flushes alone). With batching, concurrent committers share a
// single fsync per group, so throughput should scale well past the
// device's fsync rate while the baseline stays pinned to it. The
// 1-committer row doubles as the latency-regression check: grouping
// adds no delay (the leader flushes immediately and batches form from
// natural backpressure).
func E12(root string, s Scale) (*Table, error) {
	window := time.Duration(1500/s.Factor) * time.Millisecond
	if window < 150*time.Millisecond {
		window = 150 * time.Millisecond
	}

	t := &Table{
		Title:   "E12 — Group commit: synchronous commit throughput vs committer concurrency",
		Note:    fmt.Sprintf("Each committer loops a small in-place update on its own object with real fsyncs for %v per cell (512-byte pages, checkpoints off). baseline = each commit holds a harness mutex for its object's shard (one WAL fsync per txn); grouped = default pipeline (concurrent commits share one fsync). Speedup = grouped/baseline commits/s.", window),
		Headers: []string{"committers", "baseline commits/s", "grouped commits/s", "speedup", "mean group", "grouped p50/p95/p99 (µs)"},
	}

	var results []GroupCommitResult
	cell := 0
	for _, n := range []int{1, 4, 16, 64} {
		var perMode [2]GroupCommitResult
		for mi, mode := range []string{"baseline", "grouped"} {
			// Checkpoints off in both modes: a checkpoint stalls the whole
			// pipeline while it flushes the heap, and those pauses land at
			// different points per run — pure commit throughput is what
			// this experiment compares. 512-byte pages keep the physical
			// redo images small (~3.5KB per commit instead of ~27KB), so
			// the commit cost is the fsync rather than WAL write
			// bandwidth — the regime group commit exists for, and the one
			// small-object OLTP workloads actually sit in.
			opts := &ode.Options{CheckpointBytes: -1, PageSize: 512}
			cell++
			dir := filepath.Join(root, fmt.Sprintf("e12-%02d", cell))
			commits, batches, latency, hist, err := groupCommitCell(dir, opts, n, mode == "baseline", window)
			if err != nil {
				return nil, err
			}
			r := GroupCommitResult{
				Committers:    n,
				Mode:          mode,
				CommitsPerSec: float64(commits) / window.Seconds(),
				Commits:       commits,
				Batches:       batches,
				P50LatencyUS:  usFromNS(hist.P50()),
				P95LatencyUS:  usFromNS(hist.P95()),
				P99LatencyUS:  usFromNS(hist.P99()),
				Millis:        window.Milliseconds(),
			}
			if commits > 0 {
				r.MeanLatencyUS = float64(latency.Microseconds()) / float64(commits)
			}
			if batches > 0 {
				r.MeanCommitGroup = float64(commits) / float64(batches)
			}
			perMode[mi] = r
			results = append(results, r)
		}
		speedup := 0.0
		if perMode[0].CommitsPerSec > 0 {
			speedup = perMode[1].CommitsPerSec / perMode[0].CommitsPerSec
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", perMode[0].CommitsPerSec),
			fmt.Sprintf("%.0f", perMode[1].CommitsPerSec),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f", perMode[1].MeanCommitGroup),
			fmt.Sprintf("%.0f/%.0f/%.0f", perMode[1].P50LatencyUS,
				perMode[1].P95LatencyUS, perMode[1].P99LatencyUS))
	}

	if GroupCommitJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string              `json:"experiment"`
			Results    []GroupCommitResult `json:"results"`
		}{"E12-groupcommit", results}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(GroupCommitJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
