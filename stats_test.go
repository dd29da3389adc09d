package ode

// Stats()/Metrics() accuracy: table-driven scripts whose every counter
// has a hand-computed expectation, plus the torn-read regression test
// for the seqlock-consistent Commits/Batches pair.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var errStatsAbort = errors.New("stats: deliberate abort")

// statsScript runs k creating commits, one empty commit, j aborts and a
// final checkpoint against db, using the raw API so every commit is one
// object create.
func statsScript(t *testing.T, db *DB, k, j int) {
	t.Helper()
	tid, err := db.Engine().RegisterType("StatsBlob")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := db.Update(func(tx *Tx) error {
			_, _, err := tx.CreateRaw(tid, []byte(fmt.Sprintf("obj-%d", i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One empty commit: no pages dirtied, so it bumps Commits but joins
	// no fsync batch.
	if err := db.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < j; i++ {
		err := db.Update(func(tx *Tx) error {
			if _, _, err := tx.CreateRaw(tid, []byte("doomed")); err != nil {
				return err
			}
			return errStatsAbort
		})
		if !errors.Is(err, errStatsAbort) {
			t.Fatalf("abort %d returned %v", i, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccuracy(t *testing.T) {
	const k, j = 5, 3
	// Expected commits: init-structures (1) + RegisterType (1) + k
	// creates + 1 empty commit. Batches: every sequential non-empty
	// commit is its own flush batch — the empty commit never enters the
	// pipeline — and NoSync takes the same path, only without the fsync.
	const wantCommits = 2 + k + 1
	cases := []struct {
		name        string
		opts        Options
		wantBatches uint64
	}{
		{"grouped", Options{CheckpointBytes: -1}, 2 + k},
		{"nosync", Options{CheckpointBytes: -1, NoSync: true}, 2 + k},
		{"nometrics", Options{CheckpointBytes: -1, NoMetrics: true}, 2 + k},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, &tc.opts)
			statsScript(t, db, k, j)

			st := db.Stats()
			if st.Commits != wantCommits {
				t.Errorf("Commits = %d, want %d", st.Commits, wantCommits)
			}
			if st.Aborts != j {
				t.Errorf("Aborts = %d, want %d", st.Aborts, j)
			}
			if st.Objects != k {
				t.Errorf("Objects = %d, want %d", st.Objects, k)
			}
			if st.Versions != k {
				t.Errorf("Versions = %d, want %d", st.Versions, k)
			}
			if st.Checkpoints != 1 {
				t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
			}
			if st.Batches != tc.wantBatches {
				t.Errorf("Batches = %d, want %d", st.Batches, tc.wantBatches)
			}
			if st.RecoveredTxns != 0 {
				t.Errorf("RecoveredTxns = %d, want 0", st.RecoveredTxns)
			}
			// The checkpoint was the last durable act: the WAL is back
			// to its 8-byte header.
			if st.WALBytes != 8 {
				t.Errorf("WALBytes = %d, want 8 after checkpoint", st.WALBytes)
			}

			ms := db.Metrics()
			if tc.opts.NoMetrics {
				// NoMetrics: Stats fields populated, distributions empty.
				if ms.Stats != st {
					t.Errorf("NoMetrics Stats mismatch: %+v vs %+v", ms.Stats, st)
				}
				if ms.CommitLatency.Count != 0 || ms.BatchSize.Count != 0 {
					t.Errorf("NoMetrics histograms populated: %+v", ms.CommitLatency)
				}
				return
			}
			if ms.CommitLatency.Count != st.Commits {
				t.Errorf("CommitLatency.Count = %d, want %d", ms.CommitLatency.Count, st.Commits)
			}
			if ms.CheckpointDuration.Count != 1 {
				t.Errorf("CheckpointDuration.Count = %d, want 1", ms.CheckpointDuration.Count)
			}
			if ms.BatchSize.Count != st.Batches {
				t.Errorf("BatchSize.Count = %d, want %d", ms.BatchSize.Count, st.Batches)
			}
			if tc.wantBatches > 0 {
				// Every batched commit was non-empty, so the batch-size
				// histogram sums to the non-empty commit count.
				if ms.BatchSize.Sum != wantCommits-1 {
					t.Errorf("Sum(BatchSize) = %d, want %d", ms.BatchSize.Sum, wantCommits-1)
				}
				if !tc.opts.NoSync && ms.WALFsyncLatency.Count == 0 {
					t.Error("durable run recorded no WAL fsyncs")
				}
			}
			if ms.DprevWalkLen.Count != 0 || ms.TprevWalkLen.Count != 0 {
				t.Errorf("walk histograms populated without walks: %d/%d",
					ms.DprevWalkLen.Count, ms.TprevWalkLen.Count)
			}
		})
	}
}

// TestStatsTornReadRegression is the regression test for the seqlock
// around the Commits/Batches pair. The writer side adds batches BEFORE
// commits inside the locked section, so an unsynchronised reader could
// observe the impossible state Batches > Commits; Stats() must never
// return it, no matter how many commits and batch publications land
// mid-poll.
func TestStatsTornReadRegression(t *testing.T) {
	const committers = 4
	const perCommitter = 40
	db := openDB(t, &Options{CheckpointBytes: -1})
	tid, err := db.Engine().RegisterType("TornBlob")
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]OID, committers)
	if err := db.Update(func(tx *Tx) error {
		for i := range objs {
			o, _, err := tx.CreateRaw(tid, []byte("x"))
			if err != nil {
				return err
			}
			objs[i] = o
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		committerWG sync.WaitGroup
		pollerWG    sync.WaitGroup
		stop        atomic.Bool
	)
	for i := 0; i < committers; i++ {
		committerWG.Add(1)
		go func(o OID) {
			defer committerWG.Done()
			for n := 0; n < perCommitter; n++ {
				if err := db.Update(func(tx *Tx) error {
					_, err := tx.UpdateLatestRaw(o, []byte(fmt.Sprintf("v%d", n)))
					return err
				}); err != nil {
					t.Errorf("committer: %v", err)
					return
				}
			}
		}(objs[i])
	}
	// Pollers hammer Stats() while the committers run; every snapshot
	// must be internally consistent.
	for p := 0; p < 2; p++ {
		pollerWG.Add(1)
		go func() {
			defer pollerWG.Done()
			for {
				st := db.Stats()
				if st.Batches > st.Commits {
					t.Errorf("torn read: Batches (%d) > Commits (%d)", st.Batches, st.Commits)
					return
				}
				if stop.Load() {
					return
				}
			}
		}()
	}
	committerWG.Wait()
	stop.Store(true)
	pollerWG.Wait()

	st := db.Stats()
	want := uint64(2 + 1 + committers*perCommitter) // init + register + seed + updates
	if st.Commits != want {
		t.Errorf("Commits = %d, want %d", st.Commits, want)
	}
}
